"""Self-tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_perfbench.py

They cover the exact percentiles, the span merge, the self-time
arithmetic, the wrapper contract (pickling by reference, spans from
forked pool workers) and the seeded query streams; none of them runs
the program.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import random
import statistics
import sys
import types
from concurrent.futures import ProcessPoolExecutor
import multiprocessing

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run  # noqa: E402
import spans as spanlib  # noqa: E402
import tracer as tracing  # noqa: E402


def span(name, start, end, span_id, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "id": span_id,
            "parent": parent, **attrs}


# -- percentiles and summaries ------------------------------------------


def test_percentile_matches_linear_interpolation():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(7)
    for size in (1, 2, 3, 10, 101, 1000):
        values = [rng.expovariate(1.0) for _ in range(size)]
        for q in (0, 1, 25, 50, 90, 99, 100):
            assert measure.percentile(values, q) == pytest.approx(
                float(numpy.percentile(values, q)), rel=1e-12, abs=1e-15
            )


def test_percentile_is_exact_not_bucketed():
    # A histogram with ~12% buckets would report the same value for
    # both; the raw-sample percentile tells them apart.
    assert measure.percentile([8.70, 8.70, 9.00], 50) == 8.70
    assert measure.percentile([8.70, 9.00, 9.00], 50) == 9.00
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_summary_uses_statistics_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    stats = measure.summary(values)
    assert (stats["q1"], stats["q3"]) == (q1, q3)
    assert stats["median"] == statistics.median(values)
    assert stats["n"] == 6
    assert measure.summary([2.0])["q1"] == measure.summary([2.0])["q3"] == 2.0


def test_summary_value_weighs_each_group_the_same():
    assert measure.summary([5.0, 1.0, 4.0])["value"] == 4.0
    # Group medians 2 and 10; the third repeat of "b" does not tip it.
    grouped = measure.summary([1.0, 3.0, 10.0, 10.0, 30.0], ["a", "a", "b", "b", "b"])
    assert grouped["value"] == 6.0
    assert grouped["median"] == 10.0
    with pytest.raises(ValueError):
        measure.summary([1.0, 2.0], ["a"])


def test_beyond_counts_tail_samples():
    assert measure.beyond(1000, 99) == 10
    assert measure.beyond(168, 99) == 1


def test_steal_share_reads_the_steal_column():
    before = [100, 0, 10, 500, 0, 0, 0, 20]
    after = [200, 0, 20, 560, 0, 0, 0, 40]
    assert measure.steal_share(before, after) == pytest.approx(20 / 190)
    assert measure.steal_share(None, after) is None


def test_digest_is_order_independent_for_keys():
    assert measure.digest({"a": 1, "b": [1, 2]}) == measure.digest(
        {"b": [1, 2], "a": 1}
    )
    assert measure.digest({"a": 1}) != measure.digest({"a": 2})


# -- self times -----------------------------------------------------------


def test_union_length_merges_overlaps():
    assert spanlib.union_length([]) == 0
    assert spanlib.union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert spanlib.union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_clipped_union_of_children():
    spans = [
        span("executor.run_trials", 0, 100, "p"),
        span("executor.trial", 10, 30, "a", parent="p"),
        span("executor.trial", 20, 50, "b", parent="p"),   # overlaps a
        span("store.put", 90, 120, "c", parent="p"),       # clipped to 100
        span("search.run_search", 12, 18, "d", parent="a"),
    ]
    selfs = spanlib.self_times(spans)
    assert selfs["p"] == 100 - (40 + 10)
    assert selfs["a"] == 20 - 6
    assert selfs["b"] == 30
    assert selfs["d"] == 6


def test_outermost_skips_nested_same_name():
    spans = [
        span("graphs.build", 0, 10, "outer"),
        span("graphs.build", 1, 9, "inner", parent="outer"),
        span("graphs.build", 20, 30, "other"),
    ]
    ids = [s["id"] for s in spanlib.outermost(spans, "graphs.build")]
    assert ids == ["outer", "other"]


# -- span merge -------------------------------------------------------------


def test_merge_orders_dedupes_and_reports(tmp_path):
    first = tmp_path / "spans-1-a.jsonl"
    second = tmp_path / "spans-2-b.jsonl"
    first.write_text(
        json.dumps({"missing": ["repro.x:gone"]}) + "\n"
        + json.dumps(span("cli.import", 5, 6, "1-a-1")) + "\n"
        + json.dumps(span("cli.import", 1, 2, "1-a-2")) + "\n"
    )
    second.write_text(
        json.dumps(span("store.put", 3, 4, "2-b-1")) + "\n"
        + json.dumps(span("store.put", 3, 4, "1-a-1")) + "\n"
        + '{"name": "torn'
    )
    merged, missing, problems = spanlib.merge_span_files(
        [str(second), str(first)]
    )
    assert [s["id"] for s in merged] == ["1-a-2", "2-b-1", "1-a-1"]
    assert missing == ["repro.x:gone"]
    assert len(problems) == 2
    assert any("duplicate" in p for p in problems)
    assert any("unreadable" in p for p in problems)


# -- per-layer table ----------------------------------------------------------


def test_layer_metrics_counts_and_unseen_layers():
    spans = [
        span("executor.run_trials", 0, 1000, "r", specs=4, jobs=2),
        span("executor.trial", 0, 400, "t1", parent="r"),
        span("executor.trial", 0, 600, "t2", parent="r"),
        span("search.run_search", 10, 110, "s1", parent="t1", cells=1,
             requests=50),
        span("search.run_ensemble", 10, 310, "s2", parent="t2", cells=3,
             requests=150),
        span("store.get_many", 0, 5, "g", records=4, hits=1),
        span("store.put", 900, 910, "w"),
    ]
    metrics, unseen = spanlib.layer_metrics(spans)
    assert metrics["search.calls"] == 2
    assert metrics["search.cells"] == 4
    assert metrics["search.cells_per_call"] == 2
    assert metrics["search.requests"] == 200
    assert metrics["search.us_per_request"] == pytest.approx(400e-9 * 1e6 / 200)
    assert metrics["executor.specs"] == 4
    assert metrics["executor.worker_busy_share"] == pytest.approx(1000 / 2000)
    assert metrics["store.hit_ratio"] == 0.25
    assert metrics["store.put_calls"] == 1
    assert set(unseen) == set(spanlib.LAYERS) - {
        "search", "runner.executor", "runner.store"
    }
    assert set(metrics) == set(spanlib.LAYER_METRICS)


def test_layer_metrics_windows_serving_and_matches_wire():
    ms = 1_000_000
    spans = [
        span("shm.publish", 0, 1 * ms, "p", bytes=100),
        span("daemon.handle_search", 11 * ms, 14 * ms, "h1", request="q1"),
        span("daemon.handle_search", 21 * ms, 22 * ms, "h2", request="q2"),
        span("daemon.handle_search", 50 * ms, 51 * ms, "late", request="q3"),
        span("pool.roundtrip", 11 * ms, 13 * ms, "rt", request="b", cells=2),
        span("worker.batch", 11 * ms + ms // 2, 12 * ms, "wb", request="b"),
        span("cache.get", 21 * ms, 21 * ms + 10, "c", hit=False),
        # A replay: its lookup counts for the cache, its handler does not.
        span("daemon.handle_search", 41 * ms, 49 * ms, "r", request="q1"),
        span("cache.get", 41 * ms, 41 * ms + 10, "cr", hit=True),
        span("cache.get", 60 * ms, 60 * ms + 10, "cl", hit=True),
    ]
    client = [("q1", 10 * ms, 15 * ms), ("q2", 20 * ms, 23 * ms)]
    metrics, unseen = spanlib.layer_metrics(
        spans, windows=[(10 * ms, 30 * ms)], replayed=[(40 * ms, 45 * ms)],
        client=client,
    )
    assert metrics["shm.publish_bytes"] == 100       # setup layer, unwindowed
    assert metrics["daemon.handle_search_p50_ms"] == pytest.approx(2.0)
    assert metrics["http.wire_p50_ms"] == pytest.approx(2.0)
    assert metrics["pool.ipc_p50_ms"] == pytest.approx(1.5)
    assert metrics["dispatch.batch_size_mean"] == 2
    assert (metrics["cache.hits"], metrics["cache.misses"]) == (1, 1)
    assert "service.dispatch" not in unseen


# -- wrappers ---------------------------------------------------------------


def _probe_module():
    module = types.ModuleType("perfbench_probe")

    def work(value):
        return value * 2

    work.__module__ = module.__name__
    work.__qualname__ = "work"
    module.work = work
    sys.modules[module.__name__] = module
    return module


def test_wrapper_keeps_identity_for_pickle(tmp_path):
    module = _probe_module()
    tracer = tracing.Tracer(str(tmp_path))
    wrapper = tracer.wrap("probe.work", module.work)
    module.work = wrapper
    assert wrapper.__module__ == "perfbench_probe"
    assert wrapper.__qualname__ == "work"
    assert pickle.loads(pickle.dumps(wrapper)) is wrapper
    assert wrapper(21) == 42
    assert tracer.spans[0]["name"] == "probe.work"


def test_wrapper_records_errors_and_nesting(tmp_path):
    tracer = tracing.Tracer(str(tmp_path))

    def fail():
        raise KeyError("x")

    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", fail)
    with pytest.raises(KeyError):
        outer()
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["error"] == "KeyError"


def _double(value):
    return value * 2


def test_forked_pool_workers_write_their_own_spans(tmp_path):
    module = sys.modules[__name__]
    tracer = tracing.Tracer(str(tmp_path))
    original = module._double
    module._double = tracer.wrap("probe.double", original)
    tracing.enable_flush(tracer)
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            assert list(pool.map(module._double, range(6))) == [
                0, 2, 4, 6, 8, 10
            ]
    finally:
        module._double = original
        atexit.unregister(tracer.flush)
    files = [str(p) for p in tmp_path.glob("spans-*.jsonl")]
    merged, _, problems = spanlib.merge_span_files(files)
    assert not problems
    assert sum(1 for s in merged if s["name"] == "probe.double") == 6
    assert all(s["pid"] != os.getpid() for s in merged)


# -- workload inputs ----------------------------------------------------------


GRAPHS = ["g0", "g1"]
ALGORITHMS = ["a", "b"]


def test_miss_stream_is_distinct_and_seeded():
    warmup, windows = run.query_stream(3, GRAPHS, ALGORITHMS)
    queries = warmup + [q for window in windows for q in window]
    assert len({run._key(q) for q in queries}) == len(queries)
    assert len(warmup) == run.WARMUP_QUERIES
    assert len(windows) == run.SERVE_MAX_WINDOWS
    assert all(len(w) == run.WINDOW_QUERIES for w in windows)
    assert run.query_stream(3, GRAPHS, ALGORITHMS) == (warmup, windows)
    assert run.query_stream(4, GRAPHS, ALGORITHMS)[1] != windows


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        config = json.load(f)
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.E2E_UNITS
    per_layer = {
        m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]
    }
    expected = {
        name: (unit, "higher" if name in spanlib.HIGHER_IS_BETTER else "lower")
        for name, (unit, _) in spanlib.LAYER_METRICS.items()
    }
    expected.update(
        {f"overhead.{n}": (u, "lower") for n, u in run.E2E_UNITS.items()}
    )
    assert per_layer == expected
    assert all(m["bound"] <= 0.25 for m in config["end_to_end"])
