"""Span recording from outside the program, for the traced benchmark run.

:func:`install` wraps the public entry points of each layer of the
``repro`` package (the table in ``perfbench/README.md``) before the CLI
starts.  A wrapper records one span per call: its name, start and end
on the system-wide monotonic clock (``time.perf_counter_ns`` is
``CLOCK_MONOTONIC`` on Linux, so spans from different processes share
one time axis), the span that caused it, and the id of its trial or
query.  Spans stay in memory and each process writes its own
``spans-<pid>-<nonce>.jsonl`` file when it ends; the benchmark merges
the files afterwards (:func:`perfbench.spans.merge_span_files`).

Pool workers fork from the patched process, so they inherit the
wrappers.  Each wrapper keeps the wrapped function's ``__module__`` and
``__qualname__`` and is bound under the same name, so pickling a
function by reference (``pool.submit(execute_service_batch, ...)``)
still resolves to the same object.  A forked child drops the spans it
inherited and writes its own at exit: multiprocessing workers end
through ``os._exit``, which skips ``atexit``, so the flush is also
registered as a multiprocessing finalizer in every forked worker.

The program itself carries no instrumentation; this module is only
imported by ``perfbench/launch.py`` when tracing is on.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Sentinel for "the wrapped call raised" in describe hooks.
RAISED = object()


class Tracer:
    """The span buffer of one process (reset in forked children)."""

    def __init__(self, directory: str):
        self.directory = directory
        self.spans: List[Dict[str, Any]] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self.lock = threading.Lock()
        self.queued_at: Dict[int, int] = {}
        self._reset_identity()

    def _reset_identity(self) -> None:
        self.pid = os.getpid()
        self.nonce = os.urandom(4).hex()
        self._ids = itertools.count(1)

    def after_fork(self) -> None:
        """In a forked child: forget the parent's spans, keep wrappers."""
        self._reset_identity()
        self.spans = []
        self.missing = []
        self.lock = threading.Lock()
        self.queued_at = {}

    def next_id(self) -> str:
        return f"{self.pid}-{self.nonce}-{next(self._ids)}"

    def stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self,
        name: str,
        start: int,
        end: int,
        *,
        parent: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        span = {
            "name": name,
            "start": start,
            "end": end,
            "id": span_id or self.next_id(),
            "parent": parent,
            "pid": self.pid,
        }
        span.update(attrs)
        self.spans.append(span)

    def wrap(
        self,
        name: str,
        function: Callable,
        describe: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            span_id = tracer.next_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result: Any = RAISED
            error: Optional[BaseException] = None
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attrs = {}
                if error is not None:
                    attrs["error"] = type(error).__name__
                    status = getattr(error, "status", None)
                    if isinstance(status, int):
                        attrs["status"] = status
                if describe is not None:
                    try:
                        attrs.update(describe(args, kwargs, result))
                    except Exception as exc:  # noqa: BLE001 - never break the program
                        attrs["describe_error"] = repr(exc)
                tracer.record(
                    name, start, end,
                    parent=parent, span_id=span_id, **attrs
                )

        return wrapper

    def flush(self) -> None:
        """Append this process's spans to its own file and clear them."""
        with self.lock:
            spans, self.spans = self.spans, []
        if not spans and not self.missing:
            return
        path = os.path.join(
            self.directory, f"spans-{self.pid}-{self.nonce}.jsonl"
        )
        with open(path, "a", encoding="utf-8") as handle:
            if self.missing:
                handle.write(json.dumps({"missing": self.missing}) + "\n")
                self.missing = []
            for span in spans:
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Describe hooks: per-call attributes read from arguments and results
# ----------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _search_one(args, kwargs, result):
    if result is RAISED:
        return {}
    return {"cells": 1, "requests": int(result.requests)}


def _search_many(args, kwargs, result):
    if result is RAISED:
        return {}
    results = result[0] if isinstance(result, tuple) else result
    return {
        "cells": len(results),
        "requests": sum(int(item.requests) for item in results),
    }


def _run_trials(args, kwargs, result):
    return {
        "specs": len(_arg(args, kwargs, 0, "specs", ())),
        "jobs": int(_arg(args, kwargs, 1, "jobs", 1)),
    }


def _trial(args, kwargs, result):
    spec = args[0]
    return {"request": f"{spec.experiment_id}/{spec.seed}"}


def _get_many(args, kwargs, result):
    attrs = {"records": len(_arg(args, kwargs, 1, "specs", ()))}
    if result is not RAISED:
        from repro.runner.store import MISS

        attrs["hits"] = sum(1 for value in result if value is not MISS)
    return attrs


def _corpus_put(args, kwargs, result):
    if result is RAISED:
        return {}
    return {"bytes": os.path.getsize(result[: -len(".json")] + ".bin")}


def _corpus_get(args, kwargs, result):
    return {"hit": result is not RAISED and result is not None}


def _publish(args, kwargs, result):
    if result is RAISED:
        return {}
    return {"bytes": int(result.size)}


def _cache_get(args, kwargs, result):
    return {"hit": result is not RAISED and result is not None}


def _query_key(payload: Any) -> Optional[str]:
    if not isinstance(payload, dict):
        return None
    return (
        f"{payload.get('graph')}|{payload.get('algorithm')}|"
        f"{payload.get('run_index', 0)}"
    )


def _handle_search(args, kwargs, result):
    return {"request": _query_key(_arg(args, kwargs, 1, "payload"))}


def _batch_key(graph_id: str, cells: List[Dict[str, Any]]) -> str:
    head, tail = cells[0], cells[-1]
    return (
        f"{graph_id}|{len(cells)}|{head.get('algorithm')}:"
        f"{head.get('run_index')}|{tail.get('algorithm')}:"
        f"{tail.get('run_index')}"
    )


def _worker_batch(args, kwargs, result):
    graph_id = _arg(args, kwargs, 0, "graph_id")
    cells = _arg(args, kwargs, 1, "cells", [])
    if not cells:
        return {}
    return {"request": _batch_key(graph_id, cells), "cells": len(cells)}


# ----------------------------------------------------------------------
# Wrappers that need more than a span per call
# ----------------------------------------------------------------------


def _dispatch_submit(tracer: Tracer, function: Callable) -> Callable:
    """``BatchDispatcher.submit``: remember when each cell was queued."""

    @functools.wraps(function)
    def submit(self, graph_id, cell):
        queued = time.perf_counter_ns()
        try:
            future = function(self, graph_id, cell)
        except BaseException as error:
            tracer.record(
                "dispatch.submit", queued, time.perf_counter_ns(),
                error=type(error).__name__,
                status=getattr(error, "status", None),
            )
            raise
        with tracer.lock:
            tracer.queued_at[id(cell)] = queued
        return future

    return submit


def _submit_batch(tracer: Tracer, function: Callable) -> Callable:
    """``SearchService._submit_batch``: the dispatcher-to-pool seam.

    Records each cell's queue wait (queued by the dispatcher until this
    call) and the pool round trip (this call until the daemon sees the
    batch future resolve, stamped from the future's done callback).
    """
    traced = tracer.wrap("pool.submit", function)

    @functools.wraps(function)
    def submit_batch(self, graph_id, cells):
        now = time.perf_counter_ns()
        with tracer.lock:
            queued = [tracer.queued_at.pop(id(cell), None) for cell in cells]
        for begin in queued:
            if begin is not None:
                tracer.record("dispatch.wait", begin, now)
        future = traced(self, graph_id, cells)
        key = _batch_key(graph_id, cells)

        def done(_future, start=now, key=key, size=len(cells)):
            tracer.record(
                "pool.roundtrip", start, time.perf_counter_ns(),
                request=key, cells=size,
            )

        future.add_done_callback(done)
        return future

    return submit_batch


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

#: (module, attribute, span name, describe hook).  ``Class.method``
#: attributes are patched on the class that defines them.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.search.process", "run_search", "search.run_search", _search_one),
    ("repro.search.ensemble", "run_ensemble", "search.run_ensemble",
     _search_many),
    ("repro.runner.executor", "run_trials", "executor.run_trials",
     _run_trials),
    ("repro.runner.trial", "TrialSpec.execute", "executor.trial", _trial),
    ("repro.runner.store", "TrialStore.get_many", "store.get_many",
     _get_many),
    ("repro.runner.store", "SqliteResultStore.get_many", "store.get_many",
     _get_many),
    ("repro.runner.store", "ResultStore.put", "store.put", None),
    ("repro.runner.store", "SqliteResultStore.put", "store.put", None),
    ("repro.analysis.scaling", "fit_power_scaling", "analysis.fit", None),
    ("repro.analysis.scaling", "fit_logarithmic", "analysis.fit", None),
    ("repro.analysis.scaling", "prefers_logarithmic", "analysis.fit", None),
    ("repro.analysis.powerlaw_fit", "fit_power_law", "analysis.fit", None),
    ("repro.core.trials", "build_graph_snapshot", "graphs.build", None),
    ("repro.graphs.corpus", "GraphCorpus.put", "corpus.put", _corpus_put),
    ("repro.graphs.corpus", "GraphCorpus.get", "corpus.get", _corpus_get),
    ("repro.graphs.shm", "publish_graph", "shm.publish", _publish),
    ("repro.graphs.shm", "attach_graph", "shm.attach", None),
    ("repro.service.dispatch", "AnswerCache.get", "cache.get", _cache_get),
    ("repro.service.daemon", "SearchService.handle_search",
     "daemon.handle_search", _handle_search),
    ("repro.service.core", "validate_query", "service.validate", None),
    ("repro.service.core", "execute_service_batch", "worker.batch",
     _worker_batch),
]

#: Family builders: every build method a family class defines itself.
FAMILY_CLASSES = (
    "GraphFamily", "MoriFamily", "CooperFriezeFamily",
    "BarabasiAlbertFamily", "ConfigurationFamily",
)
FAMILY_METHODS = ("build", "build_frozen", "build_trajectory")

#: Targets with bespoke wrappers.
SPECIAL_TARGETS = [
    ("repro.service.dispatch", "BatchDispatcher.submit", _dispatch_submit),
    ("repro.service.daemon", "SearchService._submit_batch", _submit_batch),
]


def _resolve(module_name: str, attribute: str):
    """(owner, name, current value) of a target, or None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner: Any = module
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    if isinstance(owner, type):
        value = owner.__dict__.get(name)
    else:
        value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``from x import f`` alias in repro at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper


def install(directory: str) -> Tracer:
    """Wrap every target, register the flush hooks, return the tracer."""
    tracer = Tracer(directory)
    plan: List[Tuple[str, str, Callable[[Callable], Callable]]] = []
    for module_name, attribute, name, describe in TARGETS:
        plan.append((
            module_name, attribute,
            functools.partial(tracer.wrap, name, describe=describe),
        ))
    for class_name in FAMILY_CLASSES:
        for method in FAMILY_METHODS:
            plan.append((
                "repro.core.families", f"{class_name}.{method}",
                functools.partial(tracer.wrap, "graphs.build"),
            ))
    for module_name, attribute, factory in SPECIAL_TARGETS:
        plan.append((
            module_name, attribute, functools.partial(factory, tracer)
        ))

    for module_name, attribute, make in plan:
        found = _resolve(module_name, attribute)
        if found is None:
            if attribute.split(".")[0] not in FAMILY_CLASSES:
                tracer.missing.append(f"{module_name}:{attribute}")
            continue
        owner, name, original = found
        wrapper = make(original)
        setattr(owner, name, wrapper)
        if not isinstance(owner, type):
            _rebind(original, wrapper)

    enable_flush(tracer)
    return tracer


def enable_flush(tracer: Tracer) -> None:
    """Write spans at exit, here and in every forked child."""
    import multiprocessing.util

    atexit.register(tracer.flush)
    os.register_at_fork(after_in_child=tracer.after_fork)
    # multiprocessing children clear the finalizer registry, then run
    # the after-fork hooks; register the exit flush from one of those.
    multiprocessing.util.register_after_fork(tracer, _child_flush_hook)


def _child_flush_hook(tracer: Tracer) -> None:
    import multiprocessing.util

    multiprocessing.util.Finalize(tracer, tracer.flush, exitpriority=100)
