"""Span merging, self times and the per-layer table (no repro imports).

A span is a dict with at least ``name``, ``start``, ``end`` (integer
nanoseconds on the system-wide monotonic clock), ``id`` and ``parent``
(another span's id, possibly from another process, or ``None``), as
written by :mod:`tracer`.  Everything here is pure, so the self-tests
exercise it on hand-built spans.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from measure import mean, percentile

NS = 1e-9
MS = 1e-6

#: Layer -> span names recorded at its boundary.  A layer with no span
#: in a traced run is reported by name as not seen.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "search": ("search.run_search", "search.run_ensemble"),
    "runner.executor": ("executor.run_trials", "executor.trial"),
    "runner.store": ("store.get_many", "store.put"),
    "cli": ("cli.import",),
    "analysis": ("analysis.fit",),
    "graphs": ("graphs.build",),
    "graphs.corpus": ("corpus.put", "corpus.get"),
    "graphs.shm": ("shm.publish", "shm.attach"),
    "service.dispatch": (
        "dispatch.submit", "dispatch.wait", "pool.submit", "cache.get",
    ),
    "pool": ("worker.batch", "pool.roundtrip"),
    "service.daemon": ("daemon.handle_search", "service.validate"),
}

#: Layers whose work happens while the program starts; on a serving
#: workload their spans count over the whole run, the rest only inside
#: the timed window.
SETUP_LAYERS = ("cli", "graphs", "graphs.corpus", "graphs.shm")

#: Metric name prefix of each layer's self time.
SELF_TIME_METRICS = {
    "search": "search.self_s",
    "runner.executor": "executor.self_s",
    "runner.store": "store.self_s",
    "analysis": "analysis.self_s",
    "graphs": "graphs.self_s",
    "graphs.corpus": "corpus.self_s",
    "graphs.shm": "shm.self_s",
    "service.dispatch": "dispatch.self_s",
    "pool": "worker.self_s",
    "service.daemon": "daemon.self_s",
}

#: Every per-layer metric: name -> (unit, layer).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "search.calls": ("count", "search"),
    "search.cells": ("count", "search"),
    "search.cells_per_call": ("count", "search"),
    "search.busy_s": ("s", "search"),
    "search.requests": ("count", "search"),
    "search.us_per_request": ("us", "search"),
    "executor.specs": ("count", "runner.executor"),
    "executor.wall_s": ("s", "runner.executor"),
    "executor.trial_busy_s": ("s", "runner.executor"),
    "executor.worker_busy_share": ("ratio", "runner.executor"),
    "store.get_many_records": ("count", "runner.store"),
    "store.get_many_s": ("s", "runner.store"),
    "store.hit_ratio": ("ratio", "runner.store"),
    "store.put_calls": ("count", "runner.store"),
    "store.put_s": ("s", "runner.store"),
    "cli.import_s": ("s", "cli"),
    "analysis.fit_s": ("s", "analysis"),
    "graphs.build_calls": ("count", "graphs"),
    "graphs.build_s": ("s", "graphs"),
    "corpus.put_s": ("s", "graphs.corpus"),
    "corpus.get_s": ("s", "graphs.corpus"),
    "corpus.bytes": ("bytes", "graphs.corpus"),
    "shm.publish_s": ("s", "graphs.shm"),
    "shm.publish_bytes": ("bytes", "graphs.shm"),
    "shm.attach_s": ("s", "graphs.shm"),
    "dispatch.queue_wait_p50_ms": ("ms", "service.dispatch"),
    "dispatch.batches": ("count", "service.dispatch"),
    "dispatch.batch_size_mean": ("count", "service.dispatch"),
    "dispatch.shed": ("count", "service.dispatch"),
    "dispatch.timeouts": ("count", "service.dispatch"),
    "cache.hits": ("count", "service.dispatch"),
    "cache.misses": ("count", "service.dispatch"),
    "cache.hit_ratio": ("ratio", "service.dispatch"),
    "worker.batch_p50_ms": ("ms", "pool"),
    "pool.roundtrip_p50_ms": ("ms", "pool"),
    "pool.ipc_p50_ms": ("ms", "pool"),
    "daemon.handle_search_p50_ms": ("ms", "service.daemon"),
    "service.validate_s": ("s", "service.daemon"),
    "http.wire_p50_ms": ("ms", "service.daemon"),
}
for _layer, _name in SELF_TIME_METRICS.items():
    LAYER_METRICS[_name] = ("s", _layer)

#: Per-layer metrics where a larger value is the improvement.
HIGHER_IS_BETTER = frozenset({
    "search.cells_per_call",
    "executor.worker_busy_share",
    "store.hit_ratio",
    "dispatch.batch_size_mean",
    "cache.hits",
    "cache.hit_ratio",
})


def merge_span_files(
    paths: Iterable[str],
) -> Tuple[List[Dict[str, Any]], List[str], List[str]]:
    """Merge per-process span files into one start-ordered list.

    Returns ``(spans, missing, problems)``: ``missing`` lists wrap
    targets a process could not find (the program no longer has them),
    ``problems`` describes unreadable lines (a process killed
    mid-write) and duplicate span ids, which are dropped.
    """
    spans: List[Dict[str, Any]] = []
    missing: List[str] = []
    problems: List[str] = []
    seen = set()
    for path in sorted(paths):
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    problems.append(f"{path}:{number}: unreadable line")
                    continue
                if "missing" in record:
                    for target in record["missing"]:
                        if target not in missing:
                            missing.append(target)
                    continue
                if record.get("id") in seen:
                    problems.append(
                        f"{path}:{number}: duplicate span {record['id']}"
                    )
                    continue
                seen.add(record.get("id"))
                spans.append(record)
    spans.sort(key=lambda span: (span["start"], span["end"]))
    return spans, missing, problems


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    total = 0
    current_start: Optional[int] = None
    current_end = 0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Span id -> its duration minus the part its children cover.

    Children are the spans naming it as parent, in any process; each
    child interval is clipped to the parent's, and overlapping children
    (parallel workers) count once.
    """
    children: Dict[str, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(span["id"], ())
            if child_start < end and child_end > start
        ]
        result[span["id"]] = (end - start) - union_length(clipped)
    return result


def outermost(spans: Sequence[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    """Spans called ``name`` whose ancestors carry another name."""
    by_id = {span["id"]: span for span in spans}
    chosen = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span.get("parent"))
        nested = False
        while parent is not None:
            if parent["name"] == name:
                nested = True
                break
            parent = by_id.get(parent.get("parent"))
        if not nested:
            chosen.append(span)
    return chosen


def _duration(span: Dict[str, Any]) -> int:
    return span["end"] - span["start"]


def _p50_ms(values_ns: Sequence[float]) -> float:
    return percentile(values_ns, 50) * MS if values_ns else 0.0


def _matched_differences(
    outer: Sequence[Tuple[str, int, int]],
    inner: Sequence[Dict[str, Any]],
) -> List[int]:
    """Per request: outer duration minus the matching inner span's.

    ``outer`` holds ``(request, start, end)``; an inner span matches
    when it carries the same ``request`` and starts inside the outer
    interval.  Unmatched outer entries are skipped.
    """
    by_request: Dict[str, List[Dict[str, Any]]] = {}
    for span in inner:
        by_request.setdefault(span.get("request"), []).append(span)
    differences = []
    for request, start, end in outer:
        for span in by_request.get(request, ()):
            if start <= span["start"] <= end:
                differences.append((end - start) - _duration(span))
                break
    return differences


def layer_metrics(
    spans: Sequence[Dict[str, Any]],
    *,
    windows: Optional[Sequence[Tuple[int, int]]] = None,
    replayed: Sequence[Tuple[int, int]] = (),
    client: Sequence[Tuple[str, int, int]] = (),
) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer table: ``(metrics, layers not seen)``.

    ``windows`` restricts the layers outside :data:`SETUP_LAYERS` to
    spans that start inside one of these intervals (a serving
    workload's timed windows).  Answer-cache lookups also count inside
    the ``replayed`` intervals, where the serving workload re-sends
    queries whose answers are cached.
    ``client`` holds the load generator's ``(query key, start, end)``
    samples, matched to daemon spans for the wire time.  A metric of a
    layer without spans reads 0 and the layer is listed as not seen.
    """
    setup_names = {
        name for layer in SETUP_LAYERS for name in LAYERS[layer]
    }
    lookups = [span for span in spans if span["name"] == "cache.get"]
    if windows is not None:
        def inside(span, intervals):
            return any(low <= span["start"] <= high for low, high in intervals)

        lookups = [
            span for span in lookups
            if inside(span, windows) or inside(span, replayed)
        ]
        spans = [
            span for span in spans
            if span["name"] in setup_names or inside(span, windows)
        ]
    selfs = self_times(spans)
    named: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)

    def of(*names: str) -> List[Dict[str, Any]]:
        return [span for name in names for span in named.get(name, ())]

    def total_s(items: Iterable[Dict[str, Any]]) -> float:
        return sum(_duration(span) for span in items) * NS

    metrics: Dict[str, float] = {}

    searches = of("search.run_search", "search.run_ensemble")
    cells = sum(span.get("cells", 0) for span in searches)
    requests = sum(span.get("requests", 0) for span in searches)
    busy = total_s(searches)
    metrics["search.calls"] = len(searches)
    metrics["search.cells"] = cells
    metrics["search.cells_per_call"] = cells / len(searches) if searches else 0.0
    metrics["search.busy_s"] = busy
    metrics["search.requests"] = requests
    metrics["search.us_per_request"] = busy * 1e6 / requests if requests else 0.0

    batches = of("executor.run_trials")
    trials = of("executor.trial")
    capacity = sum(
        _duration(span) * max(1, min(span.get("jobs", 1), span.get("specs", 1)))
        for span in batches
    ) * NS
    metrics["executor.specs"] = sum(span.get("specs", 0) for span in batches)
    metrics["executor.wall_s"] = total_s(batches)
    metrics["executor.trial_busy_s"] = total_s(trials)
    metrics["executor.worker_busy_share"] = (
        metrics["executor.trial_busy_s"] / capacity if capacity else 0.0
    )

    reads = of("store.get_many")
    records = sum(span.get("records", 0) for span in reads)
    hits = sum(span.get("hits", 0) for span in reads)
    metrics["store.get_many_records"] = records
    metrics["store.get_many_s"] = total_s(reads)
    metrics["store.hit_ratio"] = hits / records if records else 0.0
    metrics["store.put_calls"] = len(of("store.put"))
    metrics["store.put_s"] = total_s(of("store.put"))

    imports = [_duration(span) for span in of("cli.import")]
    metrics["cli.import_s"] = percentile(imports, 50) * NS if imports else 0.0
    metrics["analysis.fit_s"] = total_s(outermost(spans, "analysis.fit"))
    builds = outermost(spans, "graphs.build")
    metrics["graphs.build_calls"] = len(builds)
    metrics["graphs.build_s"] = total_s(builds)

    metrics["corpus.put_s"] = total_s(of("corpus.put"))
    metrics["corpus.get_s"] = total_s(of("corpus.get"))
    metrics["corpus.bytes"] = sum(span.get("bytes", 0) for span in of("corpus.put"))
    metrics["shm.publish_s"] = total_s(of("shm.publish"))
    metrics["shm.publish_bytes"] = sum(
        span.get("bytes", 0) for span in of("shm.publish")
    )
    metrics["shm.attach_s"] = total_s(of("shm.attach"))

    roundtrips = of("pool.roundtrip")
    submits = of("dispatch.submit")
    handled = of("daemon.handle_search")
    cache_hits = sum(1 for span in lookups if span.get("hit"))
    metrics["dispatch.queue_wait_p50_ms"] = _p50_ms(
        [_duration(span) for span in of("dispatch.wait")]
    )
    metrics["dispatch.batches"] = len(of("pool.submit"))
    metrics["dispatch.batch_size_mean"] = mean(
        span.get("cells", 0) for span in roundtrips
    )
    metrics["dispatch.shed"] = sum(
        1 for span in submits if span.get("status") == 429
    )
    metrics["dispatch.timeouts"] = sum(
        1 for span in handled if span.get("status") == 503
    )
    metrics["cache.hits"] = cache_hits
    metrics["cache.misses"] = len(lookups) - cache_hits
    metrics["cache.hit_ratio"] = cache_hits / len(lookups) if lookups else 0.0

    workers = of("worker.batch")
    metrics["worker.batch_p50_ms"] = _p50_ms([_duration(s) for s in workers])
    metrics["pool.roundtrip_p50_ms"] = _p50_ms(
        [_duration(span) for span in roundtrips]
    )
    metrics["pool.ipc_p50_ms"] = _p50_ms(_matched_differences(
        [(s.get("request"), s["start"], s["end"]) for s in roundtrips],
        workers,
    ))
    metrics["daemon.handle_search_p50_ms"] = _p50_ms(
        [_duration(span) for span in handled]
    )
    metrics["service.validate_s"] = total_s(of("service.validate"))
    metrics["http.wire_p50_ms"] = _p50_ms(
        _matched_differences(client, handled)
    )

    for layer, metric in SELF_TIME_METRICS.items():
        metrics[metric] = sum(
            selfs[span["id"]] for span in of(*LAYERS[layer])
        ) * NS

    unseen = [
        layer for layer, names in LAYERS.items() if not of(*names)
    ]
    return metrics, unseen
