"""Bench-trajectory smoke run: the coalesced-serving point.

``make bench-smoke`` runs this script.  It records the PR's point in
``BENCH_PR10.json`` at the repository root: the PR 9 service-load
query stream served three ways by the same daemon code —

1. **per-query dispatch** (``batch_window=0``): every HTTP request is
   its own pool round-trip, the PR 9 path;
2. **coalesced dispatch**: concurrent queries for one graph batch
   over a 5 ms window into single ensemble-engine worker calls; the
   acceptance gate is >= 3x the per-query sustained qps on the same
   stream, plus an open-loop arrival probe recording latency at a
   fixed offered rate;
3. a **cache-warm pass**: the same stream re-served from the
   hot-cell answer cache, with the gate that the hit-path p50 sits
   below the pool-dispatch p50.

Every arm's answers are asserted bit-identical to the batch path
(``batched_search_trial``) before any number is recorded.

Record schema (validated by ``tests/test_bench_schema.py``)::

    {"schema": "repro-bench/v1",
     "records": [{"experiment": "E1", "n": 2000,
                  "wall_seconds": ..., "backend": "frozen",
                  "dispatch": "per-query" | "coalesced"
                              | "cache-warm"}, ...],
     "serving_speedup": {
         "workload": "service-query-coalescing",
         "queries": ..., "clients": ..., "batch_window_ms": 5.0,
         "per_dispatch": {
             "per-query": {"qps": ..., "p50_ms": ..., ...},
             "coalesced": {..., "mean_batch": ...},
             "cache-warm": {..., "cache_hits": ...},
             "pool-cold-fill": {...}},
         "open_loop": {"offered_qps": ..., "p50_ms": ..., ...},
         "qps_speedup_vs_per_query": ...,
         "cache_p50_below_pool_p50": true,
         "outputs_identical": true,
         "acceptance_baseline": "per-query",
         "service_stats": {...}}}

Wall-clock numbers vary with the machine; the committed file records
the run that accompanied the PR.  Earlier trajectory points
regenerate with the per-PR flags (table-driven in ``_PR_FLAGS``):
``--pr9`` (shared-memory dispatch + per-query service load,
``BENCH_PR9.json``), ``--pr8`` (dynamic-graph overlay), ``--pr7``
(pluggable trial store), ``--pr6`` (vectorized generation + graph
corpus), ``--pr5`` (declarative registry), ``--pr4``
(walker-ensemble engine), ``--pr3`` (growth-trajectory checkpoint
engine) and ``--pr2`` (FrozenGraph cell batching).

The trial layer picks its search engine and graph generator itself
(:func:`repro.core.trials.resolve_kernels`); the historical
per-kernel timings pin them with :func:`pinned_kernels` so the serial
baseline stays measurable.  Those arms run in-process only.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
import time

from repro.analysis.diameter import bfs_distances
from repro.core.experiments import (
    e1_mori_weak,
    e3_cooper_frieze,
    e17_simulation_slowdown,
    e19_trajectory_scaling,
    e21_churn_search,
)
from repro.core.families import (
    BarabasiAlbertFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.core.trials import snapshot_graph, trajectory_snapshots
from repro.graphs import freeze
from repro.graphs.churn import ChurnProcess
from repro.graphs.delta import graph_digest
from repro.rng import make_rng, run_substream, substream
from repro.search.algorithms import (
    FloodingSearch,
    RandomWalkSearch,
    RestartingWalkSearch,
    SelfAvoidingWalkSearch,
)
from repro.search.ensemble import run_ensemble
from repro.search.process import run_search

SCHEMA = "repro-bench/v1"
_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PR10_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR10.json")
PR9_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR9.json")
PR8_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR8.json")
PR7_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR7.json")
PR6_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR6.json")
PR5_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR5.json")
PR4_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR4.json")
PR3_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR3.json")
PR2_OUTPUT_PATH = os.path.join(_ROOT, "BENCH_PR2.json")


@contextlib.contextmanager
def pinned_kernels(engine: str, generator: str = "serial"):
    """Run in-process trials on named kernels instead of the resolver's.

    Both kernels are bit-identical to the serial paths, so this only
    changes wall-clock time — which is what the per-kernel arms time.
    """
    from repro.core import trials

    resolve = trials.resolve_kernels
    trials.resolve_kernels = lambda: trials.Kernels(engine, generator)
    try:
        yield
    finally:
        trials.resolve_kernels = resolve


# ----------------------------------------------------------------------
# PR9: shared-memory graph workers + search-as-a-service
# ----------------------------------------------------------------------

#: The dispatch workload: one Móri graph big enough that the CSR
#: payload dominates per-spec cost, searched by many small specs.
#: Each cell gets a small explicit budget so the *work* per spec is
#: trivial and the measured gap is pure dispatch — serialize the
#: graph into every spec (baseline) vs attach a published segment
#: once per worker (shared memory).
PR9_FAMILY = MoriFamily(p=0.5, m=2)
PR9_N = 20_000
PR9_SEED = 1
PR9_SPECS = 32
PR9_CELLS_PER_SPEC = 4
PR9_BUDGET = 64
PR9_JOBS = 4
PR9_PORTFOLIO = "adamic"

#: The serving workload: a small grid behind one daemon, hammered by
#: a deterministic round-robin query stream from concurrent clients.
PR9_SERVICE_SIZES = (2_000,)
PR9_SERVICE_SEEDS = (1, 2)
PR9_SERVICE_QUERIES = 200
PR9_SERVICE_CLIENTS = 4
PR9_SERVICE_WORKERS = 4


def _pr9_cells(spec_index: int) -> list:
    """The cells of one dispatch spec (distinct run indices)."""
    from repro.service.core import portfolio_algorithms

    algorithms = portfolio_algorithms(PR9_PORTFOLIO)
    base = spec_index * PR9_CELLS_PER_SPEC
    return [
        {
            "algorithm": algorithms[(base + i) % len(algorithms)],
            "run_index": base + i,
        }
        for i in range(PR9_CELLS_PER_SPEC)
    ]


def pr9_measure_shm_speedup() -> dict:
    """Time pickle-per-spec vs shared-memory dispatch; assert identity."""
    from repro.core.trials import build_graph_snapshot, choose_start
    from repro.graphs.shm import publish_graph
    from repro.runner import TrialSpec, run_trials, trial_ref
    from repro.service.core import (
        attach_shared_graph,
        graph_payload,
        payload_search_trial,
        shm_search_trial,
    )

    snapshot = build_graph_snapshot(PR9_FAMILY, PR9_N, PR9_SEED, "frozen")
    target = PR9_FAMILY.theorem_target(snapshot)
    start = choose_start(
        PR9_FAMILY, snapshot, target, "default", PR9_SEED
    )
    common = {
        "portfolio": PR9_PORTFOLIO,
        "start": start,
        "target": target,
        "budget": PR9_BUDGET,
    }
    payload = graph_payload(snapshot)
    pickle_specs = [
        TrialSpec(
            "E1",
            trial_ref(payload_search_trial),
            params={"graph": payload, "cells": _pr9_cells(i), **common},
            seed=PR9_SEED,
        )
        for i in range(PR9_SPECS)
    ]
    segment = publish_graph(snapshot)
    try:
        shm_specs = [
            TrialSpec(
                "E1",
                trial_ref(shm_search_trial),
                params={
                    "shm": segment.name,
                    "cells": _pr9_cells(i),
                    **common,
                },
                seed=PR9_SEED,
            )
            for i in range(PR9_SPECS)
        ]
        began = time.perf_counter()
        pickle_results = run_trials(pickle_specs, jobs=PR9_JOBS)
        pickle_seconds = time.perf_counter() - began
        began = time.perf_counter()
        shm_results = run_trials(
            shm_specs,
            jobs=PR9_JOBS,
            initializer=attach_shared_graph,
            initargs=(segment.name,),
        )
        shm_seconds = time.perf_counter() - began
    finally:
        segment.close()
        segment.unlink()
    if (
        [result.value for result in pickle_results]
        != [result.value for result in shm_results]
    ):
        raise SystemExit(
            "shared-memory and pickle-per-spec dispatch diverged"
        )
    speedup = pickle_seconds / shm_seconds
    return {
        "workload": "per-spec-graph-dispatch",
        "family": f"mori(p={PR9_FAMILY.p}, m={PR9_FAMILY.m})",
        "n": PR9_N,
        "specs": PR9_SPECS,
        "cells_per_spec": PR9_CELLS_PER_SPEC,
        "budget": PR9_BUDGET,
        "jobs": PR9_JOBS,
        "portfolio": PR9_PORTFOLIO,
        "per_dispatch": {
            "pickle-per-spec": {"seconds": round(pickle_seconds, 4)},
            "shared-memory": {"seconds": round(shm_seconds, 4)},
        },
        "speedup_vs_pickle": round(speedup, 2),
        "outputs_identical": True,
        "acceptance_baseline": "pickle-per-spec",
    }


def pr9_measure_service_load() -> dict:
    """Serve a query stream under concurrent clients; verify vs batch."""
    from repro.core.trials import batched_search_trial, family_spec
    from repro.service import SearchService, build_grid_entries, run_load
    from repro.service.core import portfolio_algorithms
    from repro.service.loadgen import build_queries

    entries = build_grid_entries(
        PR9_FAMILY, PR9_SERVICE_SIZES, PR9_SERVICE_SEEDS
    )
    algorithms = list(portfolio_algorithms(PR9_PORTFOLIO))
    # batch_window=0 / cache_size=0 / nodelay=False pins the PR 9
    # measurement to the per-query dispatch path and the PR 9 wire
    # behavior after PR 10 made coalescing + TCP_NODELAY the default.
    with SearchService(
        entries,
        portfolio=PR9_PORTFOLIO,
        workers=PR9_SERVICE_WORKERS,
        batch_window=0.0,
        cache_size=0,
        nodelay=False,
    ) as service:
        catalog = service.handle_graphs()
        queries = build_queries(
            catalog, algorithms, PR9_SERVICE_QUERIES
        )
        responses, stats = run_load(
            service.host,
            service.port,
            queries,
            clients=PR9_SERVICE_CLIENTS,
        )
    by_graph = {}
    for query, response in zip(queries, responses):
        by_graph.setdefault(query["graph"], []).append(
            (query, response)
        )
    spec = family_spec(PR9_FAMILY)
    info = {entry["id"]: entry for entry in catalog}
    for graph_id, pairs in by_graph.items():
        expected = batched_search_trial(
            family=spec,
            size=info[graph_id]["n"],
            portfolio=PR9_PORTFOLIO,
            cells=[
                {
                    "algorithm": query["algorithm"],
                    "run_index": query["run_index"],
                }
                for query, _ in pairs
            ],
            seed=info[graph_id]["seed"],
        )
        if [response for _, response in pairs] != expected:
            raise SystemExit(
                f"served answers diverged from the batch path on "
                f"{graph_id}"
            )
    return {
        "workload": "service-query-load",
        "family": f"mori(p={PR9_FAMILY.p}, m={PR9_FAMILY.m})",
        "sizes": list(PR9_SERVICE_SIZES),
        "graphs": len(catalog),
        "workers": PR9_SERVICE_WORKERS,
        "queries": stats["queries"],
        "clients": stats["clients"],
        "wall_seconds": round(stats["wall_s"], 4),
        "qps": round(stats["qps"], 2),
        "mean_ms": round(stats["mean_ms"], 3),
        "p50_ms": round(stats["p50_ms"], 3),
        "p99_ms": round(stats["p99_ms"], 3),
        "batch_identical": True,
    }


def pr9_main() -> int:
    """Write BENCH_PR9.json (shared-memory dispatch + service load)."""
    print(
        "bench-smoke: shm vs pickle-per-spec dispatch, "
        f"n={PR9_N:,}, {PR9_SPECS} specs x {PR9_CELLS_PER_SPEC} "
        f"cells, jobs={PR9_JOBS}"
    )
    shm_block = pr9_measure_shm_speedup()
    print(
        "bench-smoke: service load, "
        f"{PR9_SERVICE_QUERIES} queries / "
        f"{PR9_SERVICE_CLIENTS} clients"
    )
    service_block = pr9_measure_service_load()
    records = [
        {
            "experiment": "E1",
            "n": PR9_N,
            "wall_seconds": (
                shm_block["per_dispatch"][dispatch]["seconds"]
            ),
            "backend": "frozen",
            "dispatch": dispatch,
        }
        for dispatch in ("pickle-per-spec", "shared-memory")
    ]
    records.append(
        {
            "experiment": "E1",
            "n": max(PR9_SERVICE_SIZES),
            "wall_seconds": service_block["wall_seconds"],
            "backend": "frozen",
            "dispatch": "service",
        }
    )
    payload = {
        "schema": SCHEMA,
        "records": records,
        "shm_speedup": shm_block,
        "service_load": service_block,
    }
    path = os.path.normpath(PR9_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    ok = shm_block["speedup_vs_pickle"] >= 2.0
    print(
        "acceptance: shared-memory dispatch "
        f"{shm_block['speedup_vs_pickle']:.1f}x vs pickle-per-spec "
        f"({'>= 2x ok' if ok else 'BELOW 2x'}), outputs identical; "
        f"service {service_block['qps']:.0f} qps, "
        f"p50 {service_block['p50_ms']:.1f} ms / "
        f"p99 {service_block['p99_ms']:.1f} ms "
        f"under {service_block['clients']} clients"
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# PR10: query coalescing + hot-cell answer cache in the service
# ----------------------------------------------------------------------

#: The serving-speedup workload: the PR 9 service-load stream shape
#: (same family and seeds, same ``build_queries`` mix, same 4-client
#: closed loop) on a size where serving overhead — not raw cell
#: compute — decides throughput.  Four arms on identical queries:
#:
#: * ``per-query`` — the PR 9 per-query path **as it shipped**:
#:   one ``pool.submit`` round-trip per request and the PR 9 wire
#:   behavior (Nagle on, so the daemon's two-send reply stalls behind
#:   delayed ACK).  This is the acceptance baseline — the ~59 qps /
#:   p50 56 ms configuration BENCH_PR9.json recorded.
#: * ``per-query-nodelay`` — the same per-query dispatch with only
#:   the TCP_NODELAY fix applied, reported so the speedup decomposes
#:   honestly into its wire and dispatch components.
#: * ``coalesced`` — the full batched dispatch layer (short window,
#:   ensemble batches, TCP_NODELAY).
#: * ``cache-warm`` — the same stream re-served from the hot-cell
#:   answer cache.
PR10_SERVICE_SIZES = (600,)
PR10_SERVICE_CLIENTS = 4
PR10_BATCH_WINDOW = 0.002
PR10_BATCH_MAX = 64
PR10_CACHE_SIZE = 2_048
#: The open-loop overload probe: queries released on a fixed schedule
#: well past capacity (not gated on completions) from a deep client
#: fleet.  A closed loop at the gate's concurrency can never queue
#: more than its client count, which hides what coalescing does to a
#: real backlog — under saturation the dispatcher drains the queue in
#: deep batches and the tail latency shows it.
PR10_OPEN_QPS = 2_000.0
PR10_OPEN_CLIENTS = 64


def _pr10_expected(queries, catalog):
    """The batch-path oracle answers, in query order."""
    from repro.core.trials import batched_search_trial, family_spec

    spec = family_spec(PR9_FAMILY)
    info = {entry["id"]: entry for entry in catalog}
    by_graph = {}
    for index, query in enumerate(queries):
        by_graph.setdefault(query["graph"], []).append(index)
    expected = [None] * len(queries)
    for graph_id, indices in by_graph.items():
        answers = batched_search_trial(
            family=spec,
            size=info[graph_id]["n"],
            portfolio=PR9_PORTFOLIO,
            cells=[
                {
                    "algorithm": queries[index]["algorithm"],
                    "run_index": queries[index]["run_index"],
                }
                for index in indices
            ],
            seed=info[graph_id]["seed"],
        )
        for index, answer in zip(indices, answers):
            expected[index] = answer
    return expected


def pr10_measure_serving() -> dict:
    """Serving arms over one query stream; verify every answer."""
    from repro.service import SearchService, build_grid_entries, run_load
    from repro.service.core import portfolio_algorithms
    from repro.service.loadgen import build_queries

    algorithms = list(portfolio_algorithms(PR9_PORTFOLIO))

    def serve(**kwargs):
        return SearchService(
            build_grid_entries(
                PR9_FAMILY, PR10_SERVICE_SIZES, PR9_SERVICE_SEEDS
            ),
            portfolio=PR9_PORTFOLIO,
            workers=PR9_SERVICE_WORKERS,
            **kwargs,
        )

    def pack(stats):
        return {
            "wall_seconds": round(stats["wall_s"], 4),
            "qps": round(stats["qps"], 2),
            "mean_ms": round(stats["mean_ms"], 3),
            "p50_ms": round(stats["p50_ms"], 3),
            "p90_ms": round(stats["p90_ms"], 3),
            "p99_ms": round(stats["p99_ms"], 3),
        }

    expected = None
    queries = None

    def load(service, clients=PR10_SERVICE_CLIENTS, **kwargs):
        nonlocal expected, queries
        catalog = service.handle_graphs()
        if queries is None:
            queries = build_queries(
                catalog, algorithms, PR9_SERVICE_QUERIES
            )
            expected = _pr10_expected(queries, catalog)
        responses, stats = run_load(
            service.host,
            service.port,
            queries,
            clients=clients,
            **kwargs,
        )
        if responses != expected:
            raise SystemExit(
                "served answers diverged from the batch path"
            )
        return stats

    # Arm 1: the PR 9 per-query path as it shipped — one pool trip
    # per request, Nagle'd two-send replies (the acceptance baseline).
    with serve(
        batch_window=0.0, cache_size=0, nodelay=False
    ) as service:
        per_query = pack(load(service))

    # Arm 2: per-query dispatch with only the wire fix, so the
    # speedup decomposes into wire vs dispatch contributions.
    with serve(batch_window=0.0, cache_size=0) as service:
        per_query_nodelay = pack(load(service))

    # Arm 3: coalesced dispatch, cache off so every query pays the
    # pool; then the open-loop overload probe on the same daemon —
    # queries offered well past capacity build a real backlog, which
    # is where the dispatcher's deep batches (and their effect on the
    # tail) become visible.
    with serve(
        batch_window=PR10_BATCH_WINDOW,
        batch_max=PR10_BATCH_MAX,
        cache_size=0,
    ) as service:
        coalesced = pack(load(service))
        snapshot = service.handle_stats()
        batches = snapshot["batches"]
        coalesced["batches"] = batches["count"]
        coalesced["mean_batch"] = batches["mean_size"]
        open_stats = load(
            service,
            clients=PR10_OPEN_CLIENTS,
            arrival=PR10_OPEN_QPS,
        )
        open_after = service.handle_stats()["batches"]
        open_loop = pack(open_stats)
        open_loop["offered_qps"] = PR10_OPEN_QPS
        open_loop["clients"] = PR10_OPEN_CLIENTS
        open_loop["batches"] = (
            open_after["count"] - batches["count"]
        )
        open_loop["mean_batch"] = round(
            (open_after["queries"] - batches["queries"])
            / max(1, open_loop["batches"]),
            3,
        )

    # The per-query arm under the same open-loop overload: same
    # stream, same fleet, no coalescing — the tail comparison.
    with serve(batch_window=0.0, cache_size=0) as service:
        open_per_query = pack(
            load(
                service,
                clients=PR10_OPEN_CLIENTS,
                arrival=PR10_OPEN_QPS,
            )
        )
        open_per_query["offered_qps"] = PR10_OPEN_QPS
        open_per_query["clients"] = PR10_OPEN_CLIENTS

    # Arm 4: cold fill then cache-warm re-serve of the same stream.
    with serve(
        batch_window=PR10_BATCH_WINDOW,
        batch_max=PR10_BATCH_MAX,
        cache_size=PR10_CACHE_SIZE,
    ) as service:
        cold = pack(load(service))
        warm = pack(load(service))
        cache_snapshot = service.handle_stats()["cache"]
        warm["cache_hits"] = cache_snapshot["hits"]
        engine = service.engine

    return {
        "workload": "service-query-coalescing",
        "family": f"mori(p={PR9_FAMILY.p}, m={PR9_FAMILY.m})",
        "sizes": list(PR10_SERVICE_SIZES),
        "graphs": len(PR10_SERVICE_SIZES) * len(PR9_SERVICE_SEEDS),
        "workers": PR9_SERVICE_WORKERS,
        "queries": PR9_SERVICE_QUERIES,
        "clients": PR10_SERVICE_CLIENTS,
        "batch_window_ms": PR10_BATCH_WINDOW * 1000.0,
        "batch_max": PR10_BATCH_MAX,
        "cache_size": PR10_CACHE_SIZE,
        "engine": engine,
        "per_dispatch": {
            "per-query": per_query,
            "per-query-nodelay": per_query_nodelay,
            "coalesced": coalesced,
            "cache-warm": warm,
            "pool-cold-fill": cold,
        },
        "open_loop": {
            "coalesced": open_loop,
            "per-query": open_per_query,
        },
        "qps_speedup_vs_per_query": round(
            coalesced["qps"] / per_query["qps"], 2
        ),
        "cache_p50_below_pool_p50": (
            warm["p50_ms"] < cold["p50_ms"]
        ),
        "outputs_identical": True,
        "acceptance_baseline": (
            "per-query (the PR 9 configuration: unbatched dispatch, "
            "PR 9 wire behavior)"
        ),
        "service_stats": snapshot,
    }


def main() -> int:
    """Write BENCH_PR10.json (coalesced serving vs per-query)."""
    print(
        "bench-smoke: serving arms (PR 9 per-query vs coalesced vs "
        f"cache-warm), {PR9_SERVICE_QUERIES} queries / "
        f"{PR10_SERVICE_CLIENTS} clients, "
        f"window {PR10_BATCH_WINDOW * 1000:.0f}ms"
    )
    block = pr10_measure_serving()
    records = [
        {
            "experiment": "E1",
            "n": max(PR10_SERVICE_SIZES),
            "wall_seconds": (
                block["per_dispatch"][dispatch]["wall_seconds"]
            ),
            "backend": "frozen",
            "dispatch": dispatch,
        }
        for dispatch in ("per-query", "coalesced", "cache-warm")
    ]
    payload = {
        "schema": SCHEMA,
        "records": records,
        "serving_speedup": block,
    }
    path = os.path.normpath(PR10_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    per_dispatch = block["per_dispatch"]
    speedup_ok = block["qps_speedup_vs_per_query"] >= 3.0
    cache_ok = block["cache_p50_below_pool_p50"]
    open_loop = block["open_loop"]
    print(
        "acceptance: coalesced "
        f"{per_dispatch['coalesced']['qps']:.0f} qps vs PR 9 "
        f"per-query {per_dispatch['per-query']['qps']:.0f} qps "
        f"({block['qps_speedup_vs_per_query']:.1f}x, "
        f"{'>= 3x ok' if speedup_ok else 'BELOW 3x'}; "
        "nodelay-only per-query "
        f"{per_dispatch['per-query-nodelay']['qps']:.0f} qps); "
        "cache-warm p50 "
        f"{per_dispatch['cache-warm']['p50_ms']:.2f} ms vs pool p50 "
        f"{per_dispatch['pool-cold-fill']['p50_ms']:.2f} ms "
        f"({'ok' if cache_ok else 'NOT BELOW'}); outputs identical"
    )
    print(
        "open-loop overload "
        f"({open_loop['coalesced']['offered_qps']:.0f} qps offered / "
        f"{open_loop['coalesced']['clients']} clients): coalesced "
        f"{open_loop['coalesced']['qps']:.0f} qps, mean batch "
        f"{open_loop['coalesced']['mean_batch']:.1f}, p99 "
        f"{open_loop['coalesced']['p99_ms']:.0f} ms vs per-query "
        f"{open_loop['per-query']['qps']:.0f} qps, p99 "
        f"{open_loop['per-query']['p99_ms']:.0f} ms"
    )
    return 0 if speedup_ok and cache_ok else 1


# ----------------------------------------------------------------------
# PR8: dynamic-graph overlay (churn, deletion, search under change)
# ----------------------------------------------------------------------

#: The overlay-speedup workload: a Móri graph at search scale (the
#: same family/size as the PR4 gate cell), churned for a fixed number
#: of population-preserving steps, then searched by the whole walk
#: family.  The step count is set by the *baseline*: each
#: rebuild-per-step pays a full O(n + m) compaction, so a handful of
#: steps already dominates its wall clock, while the overlay's
#: O(log n) steps stay essentially free at any count.
PR8_FAMILY = MoriFamily(p=0.5, m=2)
PR8_N = 100_000
PR8_CHURN_STEPS = 25
PR8_CHURN_BIAS = "uniform"
PR8_SEED = 88
PR8_SEARCH_BUDGET = 2_000
PR8_SEARCH_RUNS = 4
PR8_SEARCH_ALGORITHMS = (
    RandomWalkSearch(),
    SelfAvoidingWalkSearch(),
    RestartingWalkSearch(restart_prob=0.1),
)

#: E21's downsized grid for the per-engine end-to-end timing (run
#: through the registry, exactly as ``repro run E21 --engine ...``).
PR8_E21_OVERRIDES = {
    "size": 2_000,
    "churn_rates": (0.0, 0.1),
    "num_graphs": 2,
    "runs_per_graph": 2,
}


def _pr8_searches(graph, seed: int) -> int:
    """The search phase; returns total oracle requests spent.

    Start and target are picked by *rank* among the live vertices, so
    they name the same physical vertex on the overlay and on any
    order-preserving compaction of it; walk decisions only consume
    neighbor lists (whose relative order compaction preserves) and
    the per-run rng, so the request counts of the two strategies must
    agree exactly — checked by the caller.
    """
    live = list(graph.vertices())
    start = live[len(live) // 2]
    target = live[-1]
    requests = 0
    for index, algorithm in enumerate(PR8_SEARCH_ALGORITHMS):
        for run in range(PR8_SEARCH_RUNS):
            outcome = run_search(
                algorithm,
                graph,
                start,
                target,
                budget=PR8_SEARCH_BUDGET,
                seed=substream(
                    PR8_SEED, index * PR8_SEARCH_RUNS + run
                ),
            )
            requests += outcome.requests
    return requests


def pr8_measure_overlay_speedup() -> dict:
    """Churn + search, overlay vs rebuild-per-step, identical output.

    Both strategies replay the *same* churn trajectory (the rank-based
    sampler makes it compaction-invariant) and run the same searches;
    the baseline additionally compacts into a fresh FrozenGraph after
    every step (``resnapshot_every=1``) — the cost a system without
    the overlay layer pays to keep a searchable snapshot current.
    Raises if the two final graphs differ by digest or the searches
    differ in spent requests: the speedup claim is only worth
    recording for identical results.
    """
    base = PR8_FAMILY.build_frozen(PR8_N, seed=PR8_SEED)
    per_strategy = {}
    digests = {}
    for strategy, every in (("overlay", 0), ("rebuild-per-step", 1)):
        process = ChurnProcess(
            PR8_FAMILY,
            base,
            churn_bias=PR8_CHURN_BIAS,
            resnapshot_every=every,
            seed=PR8_SEED,
        )
        began = time.perf_counter()
        graph = process.run(PR8_CHURN_STEPS)
        churn_seconds = time.perf_counter() - began

        began = time.perf_counter()
        requests = _pr8_searches(graph, PR8_SEED)
        search_seconds = time.perf_counter() - began

        digests[strategy] = graph_digest(graph.resnapshot())
        per_strategy[strategy] = {
            "churn_seconds": round(churn_seconds, 4),
            "search_seconds": round(search_seconds, 4),
            "total_seconds": round(churn_seconds + search_seconds, 4),
            "search_requests": requests,
        }
    if digests["overlay"] != digests["rebuild-per-step"]:
        raise SystemExit(
            "overlay and rebuild-per-step diverged: "
            f"{digests['overlay']} != {digests['rebuild-per-step']}"
        )
    requests_equal = (
        per_strategy["overlay"]["search_requests"]
        == per_strategy["rebuild-per-step"]["search_requests"]
    )
    if not requests_equal:
        raise SystemExit(
            "overlay and rebuild-per-step searches spent different "
            "request counts"
        )
    speedup = (
        per_strategy["rebuild-per-step"]["total_seconds"]
        / per_strategy["overlay"]["total_seconds"]
    )
    return {
        "workload": "churn-then-search",
        "family": f"mori(p={PR8_FAMILY.p}, m={PR8_FAMILY.m})",
        "n": PR8_N,
        "churn_steps": PR8_CHURN_STEPS,
        "churn_bias": PR8_CHURN_BIAS,
        "search_budget": PR8_SEARCH_BUDGET,
        "search_runs": PR8_SEARCH_RUNS * len(PR8_SEARCH_ALGORITHMS),
        "per_strategy": per_strategy,
        "speedup_vs_rebuild": round(speedup, 2),
        "graph_digest": digests["overlay"],
        "digests_equal": True,
        "requests_equal": True,
        "acceptance_baseline": "rebuild-per-step",
    }


def pr8_time_e21_per_engine() -> list:
    """Downsized E21 per declared engine, timed end to end."""
    records = []
    derived = {}
    for engine in ("serial", "ensemble"):
        began = time.perf_counter()
        with pinned_kernels(engine):
            result = e21_churn_search(**PR8_E21_OVERRIDES)
        elapsed = time.perf_counter() - began
        derived[engine] = result.derived
        records.append(
            {
                "experiment": "E21",
                "n": PR8_E21_OVERRIDES["size"],
                "wall_seconds": round(elapsed, 4),
                "backend": "frozen",
                "engine": engine,
                "strategy": "overlay",
            }
        )
    if derived["serial"] != derived["ensemble"]:
        raise SystemExit("E21: engines diverged at bench scale")
    return records


def pr8_main() -> int:
    """Write BENCH_PR8.json (the dynamic-graph overlay point)."""
    print(
        "bench-smoke: overlay vs rebuild-per-step, "
        f"n={PR8_N:,}, {PR8_CHURN_STEPS} churn steps"
    )
    overlay_block = pr8_measure_overlay_speedup()
    print(
        "bench-smoke: downsized E21 per engine, via the registry"
    )
    records = pr8_time_e21_per_engine()
    for strategy, numbers in overlay_block["per_strategy"].items():
        records.append(
            {
                "experiment": "E21",
                "n": PR8_N,
                "wall_seconds": numbers["total_seconds"],
                "backend": "frozen",
                "engine": "serial",
                "strategy": strategy,
            }
        )
    payload = {
        "schema": SCHEMA,
        "records": records,
        "overlay_speedup": overlay_block,
    }
    path = os.path.normpath(PR8_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    ok = overlay_block["speedup_vs_rebuild"] >= 3.0
    print(
        "acceptance: overlay "
        f"{overlay_block['speedup_vs_rebuild']:.1f}x vs "
        f"rebuild-per-step ({'>= 3x ok' if ok else 'BELOW 3x'}), "
        "digests equal, search requests equal"
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# PR7: pluggable trial store (json-files baseline vs sqlite)
# ----------------------------------------------------------------------

#: Store-speedup block size: enough entries that the json tree costs
#: 10^5 inodes and the replay scan is I/O-bound, small enough to run
#: in about a minute.
PR7_STORE_ENTRIES = 100_000
PR7_STORE_BACKENDS = ("json-files", "sqlite")

#: Base of the bench specs' seed range — substream-scale (beyond 64
#: bits), like the seeds :func:`repro.rng.substream` actually derives.
PR7_STORE_SEED_BASE = 123_456_789_012_345_678_901_234_567_890

#: E17's downsized grid for the cold/warm per-store-backend timing
#: (run through the registry, exactly as ``repro run E17 --cache-dir
#: ... --store-backend ...``).
PR7_E17_OVERRIDES = {"sizes": (500, 1000, 2000), "num_graphs": 2}


def _pr7_specs() -> list:
    """10^5 specs shaped like a real search-cost sweep.

    Realistic payloads matter: the params dict is echoed into every
    json record, so a toy two-key dict would understate the baseline's
    parse cost, while the sqlite replay only ever decodes the small
    value column.
    """
    from repro.runner import TrialSpec

    trial = "repro.core.trials:search_cost_graph_trial"
    return [
        TrialSpec(
            experiment_id="E17",
            trial=trial,
            params={
                "family": "mori", "n": 4096, "m": 2, "p": 0.5,
                "algorithm": "high-degree-weak", "oracle": "weak",
                "max_requests": 16_384, "backend": "frozen",
                "generator": "vectorized", "targets": "theorem",
                "start": "uniform", "graph_index": index % 64,
            },
            seed=PR7_STORE_SEED_BASE + index,
        )
        for index in range(PR7_STORE_ENTRIES)
    ]


def pr7_measure_store_speedup() -> dict:
    """Per-backend fill + warm-replay wall clock, plus a verified
    in-bench migration of the populated json tree.

    ``spec.key()`` is warmed outside every timed region: the sha256
    params hash costs the same through either backend, and leaving it
    in would dilute the comparison the gate is about.  Raises (a real
    ``SystemExit``, so ``python -O`` cannot strip it) if any backend
    misses on replay or the migration verify finds a non-identical
    value.
    """
    from repro.runner import MISS, migrate_store, open_store

    value = {"requests": 42, "found": True, "path_length": 7}
    root = tempfile.mkdtemp(prefix="bench-store-")
    per_backend = {}
    try:
        for backend in PR7_STORE_BACKENDS:
            directory = os.path.join(root, backend)
            specs = _pr7_specs()
            for spec in specs:
                spec.key()
            store = open_store(directory, backend)
            began = time.perf_counter()
            for index, spec in enumerate(specs):
                store.put(spec, dict(value, requests=index))
            put_seconds = time.perf_counter() - began

            # Fresh store object *and* fresh spec objects: the warm
            # pass must pay real deserialization, not object reuse.
            specs = _pr7_specs()
            for spec in specs:
                spec.key()
            store = open_store(directory, backend)
            began = time.perf_counter()
            replayed = store.get_many(specs)
            warm_get_seconds = time.perf_counter() - began

            misses = sum(1 for entry in replayed if entry is MISS)
            if misses or len(replayed) != PR7_STORE_ENTRIES:
                raise SystemExit(
                    f"{backend}: warm replay missed {misses}/"
                    f"{PR7_STORE_ENTRIES} entries"
                )
            if replayed[17] != dict(value, requests=17):
                raise SystemExit(
                    f"{backend}: warm replay returned wrong value"
                )
            report = store.stat()
            per_backend[backend] = {
                "entries": report["entries"],
                "put_seconds": round(put_seconds, 4),
                "warm_get_seconds": round(warm_get_seconds, 4),
                "inodes": report["inodes"],
                "bytes": report["bytes"],
            }
            print(
                f"  {backend:<10} put {put_seconds:6.2f}s | warm "
                f"replay {warm_get_seconds:6.2f}s | "
                f"{report['inodes']:,} inodes, "
                f"{report['bytes'] / 1e6:.1f} MB"
            )

        began = time.perf_counter()
        counts = migrate_store(
            open_store(os.path.join(root, "json-files"), "json-files"),
            open_store(os.path.join(root, "migrated"), "sqlite"),
            verify=True,
        )
        migrate_seconds = time.perf_counter() - began
        if (
            counts["verify_failed"]
            or counts["migrated"] != PR7_STORE_ENTRIES
        ):
            raise SystemExit(f"migration not bit-identical: {counts}")
        print(
            f"  migrate json-files -> sqlite {migrate_seconds:6.2f}s"
            f" | {counts['migrated']:,} records verified identical"
        )

        baseline = per_backend["json-files"]
        candidate = per_backend["sqlite"]
        return {
            "workload": "trial-replay",
            "entries": PR7_STORE_ENTRIES,
            "per_backend": per_backend,
            "warm_replay_speedup": round(
                baseline["warm_get_seconds"]
                / candidate["warm_get_seconds"],
                2,
            ),
            "inode_ratio": round(
                baseline["inodes"] / candidate["inodes"], 2
            ),
            "acceptance_baseline": "json-files",
            "migrate": {
                "source": "json-files",
                "destination": "sqlite",
                "migrated": counts["migrated"],
                "skipped_stale": counts["skipped_stale"],
                "verify_failed": counts["verify_failed"],
                "seconds": round(migrate_seconds, 4),
                "verified_identical": True,
            },
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def pr7_time_e17_per_store_backend() -> list:
    """Downsized E17 cold/warm per store backend, via the registry.

    Raises if the backends (or the cold/warm passes) disagree on any
    derived scalar, or if a warm pass is not replayed entirely from
    the store.
    """
    from repro.core.registry import REGISTRY
    from repro.runner import reset_store_stats, store_stats

    spec = REGISTRY.get("E17")
    records = []
    derived = {}
    n = max(PR7_E17_OVERRIDES["sizes"])
    root = tempfile.mkdtemp(prefix="bench-store-e17-")
    try:
        for backend in PR7_STORE_BACKENDS:
            cache_dir = os.path.join(root, backend)
            for phase in ("cold", "warm"):
                reset_store_stats()
                began = time.perf_counter()
                result = spec.run(
                    PR7_E17_OVERRIDES,
                    backend="frozen",
                    cache_dir=cache_dir,
                    store_backend=backend,
                )
                elapsed = time.perf_counter() - began
                derived[(backend, phase)] = result.derived
                tally = store_stats()
                if phase == "warm" and (
                    not tally["hits"] or tally["misses"]
                ):
                    raise SystemExit(
                        f"E17 warm pass not fully replayed from the "
                        f"{backend} store: {tally}"
                    )
                records.append(
                    {
                        "experiment": "E17",
                        "n": n,
                        "wall_seconds": round(elapsed, 4),
                        "backend": "frozen",
                        "store_backend": backend,
                        "phase": phase,
                    }
                )
                print(
                    f"   E17 store={backend:<10} phase={phase:<4} "
                    f"{elapsed:7.2f}s ({tally['hits']} hits, "
                    f"{tally['misses']} misses)"
                )
        reference = derived[("json-files", "cold")]
        if any(value != reference for value in derived.values()):
            raise SystemExit(
                "E17: store backends diverged at bench scale"
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return records


def pr7_main() -> int:
    """Write BENCH_PR7.json (the pluggable trial-store point)."""
    print(
        "bench-smoke: trial-store fill/replay, "
        f"{PR7_STORE_ENTRIES:,} entries per backend"
    )
    store_block = pr7_measure_store_speedup()
    print(
        "bench-smoke: downsized E17 cold/warm per store backend, "
        "via the registry"
    )
    records = pr7_time_e17_per_store_backend()
    payload = {
        "schema": SCHEMA,
        "records": records,
        "store_speedup": store_block,
    }
    path = os.path.normpath(PR7_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    replay_ok = store_block["warm_replay_speedup"] >= 2.0
    inode_ok = store_block["inode_ratio"] >= 5.0
    print(
        "acceptance: sqlite warm replay "
        f"{store_block['warm_replay_speedup']:.1f}x "
        f"({'>= 2x ok' if replay_ok else 'BELOW 2x'}), inode ratio "
        f"{store_block['inode_ratio']:.0f}x "
        f"({'>= 5x ok' if inode_ok else 'BELOW 5x'}), migrate "
        f"{store_block['migrate']['migrated']:,} records verified"
    )
    return 0 if replay_ok and inode_ok else 1


# ----------------------------------------------------------------------
# PR6: vectorized graph-generation engine + memory-mapped corpus store
# ----------------------------------------------------------------------

#: (model key, family, acceptance-gate n) of the generation block.
#: Móri at 10^6 carries the gate; BA shares the urn kernel; the
#: Cooper-Frieze lean replay only trims the constant factor, so it is
#: recorded at a smaller n and outside the gate.
PR6_GENERATION_GRID = (
    ("mori", MoriFamily(p=0.5, m=1), 1_000_000),
    ("ba", BarabasiAlbertFamily(m=1), 1_000_000),
    ("cooper-frieze", CooperFriezeFamily(), 200_000),
)
PR6_GENERATION_SEED = 1_000_003

#: The corpus block's size grid (one family, one seed): cold pass
#: builds + persists, warm pass replays through ``numpy.memmap``.
PR6_CORPUS_FAMILY = MoriFamily(p=0.5, m=1)
PR6_CORPUS_SIZES = (250_000, 500_000)
PR6_CORPUS_SEED = 11

#: E17's downsized grid for the per-generator end-to-end timing (run
#: through the registry, exactly as `repro run E17 --generator ...`).
PR6_E17_OVERRIDES = {"sizes": (500, 1000, 2000), "num_graphs": 2}


def _fingerprinted_build(build):
    """Time ``build()`` on a quiesced heap; return a content fingerprint.

    A million-vertex snapshot keeps millions of boxed endpoints alive,
    so timing one generator with the other's snapshot still in memory
    charges it generational GC passes over a heap it did not allocate.
    Instead each build is timed fresh (collect first, GC otherwise on
    — collector work a builder triggers for its *own* allocations is
    honestly part of its cost), reduced to a content fingerprint, and
    released before the other side runs.
    """
    import gc
    import hashlib

    gc.collect()
    began = time.perf_counter()
    snapshot = build()
    elapsed = time.perf_counter() - began
    digest = hashlib.sha256(
        json.dumps(
            [
                snapshot.num_vertices,
                [[t, h] for _, t, h in snapshot.edges()],
            ],
            separators=(",", ":"),
        ).encode("utf-8")
    ).hexdigest()
    return (hash(snapshot), digest), elapsed


def pr6_measure_generation_speedup() -> dict:
    """Per-model wall clock: serial builder + freeze vs fastgen kernel.

    Raises if any kernel's snapshot differs from the serial one — the
    speedup claim is only worth recording for identical bytes.
    """
    per_model = {}
    for key, family, n in PR6_GENERATION_GRID:
        serial_print, serial_seconds = _fingerprinted_build(
            lambda: family.build_frozen(n, seed=PR6_GENERATION_SEED)
        )
        vector_print, vectorized_seconds = _fingerprinted_build(
            lambda: family.build_frozen(
                n, seed=PR6_GENERATION_SEED, generator="vectorized"
            )
        )

        # The determinism contract, re-checked at bench scale (a real
        # raise, so `python -O` cannot strip it).
        if vector_print != serial_print:
            raise SystemExit(
                f"{family.name}: generators diverged at bench scale"
            )
        per_model[key] = {
            "family": family.name,
            "n": n,
            "serial_seconds": round(serial_seconds, 4),
            "vectorized_seconds": round(vectorized_seconds, 4),
            "speedup": round(serial_seconds / vectorized_seconds, 2),
        }
        print(
            f"  {family.name:<22} n={n:>9,} serial "
            f"{serial_seconds:6.2f}s | vectorized "
            f"{vectorized_seconds:6.2f}s -> "
            f"{per_model[key]['speedup']:.1f}x"
        )
    return {
        "workload": "graph-generation",
        "backend": "frozen",
        "seed": PR6_GENERATION_SEED,
        "per_model": per_model,
        "acceptance_model": "mori",
    }


def pr6_time_corpus() -> dict:
    """Cold (build + persist) vs warm (mapped replay) corpus passes."""
    from repro.graphs.corpus import (
        GraphCorpus,
        corpus_stats,
        reset_corpus_stats,
    )

    from repro.core.trials import family_spec

    spec = family_spec(PR6_CORPUS_FAMILY)
    root = tempfile.mkdtemp(prefix="bench-corpus-")
    try:
        corpus = GraphCorpus(root)
        reset_corpus_stats()

        def build_all():
            return [
                corpus.get_or_build(
                    spec, n, PR6_CORPUS_SEED,
                    lambda n=n: PR6_CORPUS_FAMILY.build_frozen(
                        n, seed=PR6_CORPUS_SEED,
                        generator="vectorized",
                    ),
                    generator="vectorized",
                )
                for n in PR6_CORPUS_SIZES
            ]

        began = time.perf_counter()
        cold = build_all()
        cold_seconds = time.perf_counter() - began
        began = time.perf_counter()
        warm = build_all()
        warm_seconds = time.perf_counter() - began

        if corpus_stats() != {
            "hits": len(PR6_CORPUS_SIZES),
            "misses": len(PR6_CORPUS_SIZES),
        }:
            raise SystemExit(
                f"corpus accounting off: {corpus_stats()}"
            )
        if [hash(g) for g in warm] != [hash(g) for g in cold]:
            raise SystemExit("corpus replay diverged at bench scale")

        report = corpus.verify()
        verified = sum(1 for _, ok, _ in report if ok)
        if verified != len(report) or not report:
            raise SystemExit(
                "bench-built corpus failed verify: "
                f"{verified}/{len(report)} ok"
            )
        print(
            f"  corpus ({len(report)} entries) cold "
            f"{cold_seconds:6.2f}s | warm {warm_seconds:6.2f}s -> "
            f"{cold_seconds / warm_seconds:.1f}x; verify "
            f"{verified}/{len(report)} ok"
        )
        return {
            "family": PR6_CORPUS_FAMILY.name,
            "sizes": list(PR6_CORPUS_SIZES),
            "entries": len(report),
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "speedup": round(cold_seconds / warm_seconds, 2),
            "verify_ok": True,
            "verified_entries": verified,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def pr6_time_e17_per_generator() -> list:
    """Downsized E17 through the registry, per generator.

    Raises if the generators disagree on any derived scalar — the
    timings are only worth recording for equal numbers.
    """
    from repro.core.registry import REGISTRY

    spec = REGISTRY.get("E17")
    records = []
    derived_per_generator = {}
    n = max(PR6_E17_OVERRIDES["sizes"])
    for generator in ("serial", "vectorized"):
        began = time.perf_counter()
        with pinned_kernels("serial", generator):
            result = spec.run(PR6_E17_OVERRIDES, backend="frozen")
        elapsed = time.perf_counter() - began
        derived_per_generator[generator] = result.derived
        records.append(
            {
                "experiment": "E17",
                "n": n,
                "wall_seconds": round(elapsed, 4),
                "backend": "frozen",
                "generator": generator,
            }
        )
        print(f"   E17 generator={generator:<11} {elapsed:7.2f}s")
    if derived_per_generator["serial"] != (
        derived_per_generator["vectorized"]
    ):
        raise SystemExit("E17: generators diverged at bench scale")
    return records


def pr6_main() -> int:
    """Regenerate BENCH_PR6.json (the vectorized-generation point)."""
    print("bench-smoke --pr6: serial vs vectorized generation (frozen)")
    generation = pr6_measure_generation_speedup()
    print(
        "bench-smoke --pr6: corpus cold/warm passes, sizes "
        f"{PR6_CORPUS_SIZES[0]:,}..{PR6_CORPUS_SIZES[-1]:,}"
    )
    corpus_block = pr6_time_corpus()
    print(
        "bench-smoke --pr6: downsized E17 per generator, "
        "via the registry"
    )
    records = pr6_time_e17_per_generator()
    payload = {
        "schema": SCHEMA,
        "records": records,
        "generation_speedup": generation,
        "corpus": corpus_block,
    }
    path = os.path.normpath(PR6_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    gate = generation["per_model"][generation["acceptance_model"]]
    ok = gate["speedup"] >= 5.0 and corpus_block["verify_ok"]
    print(
        "acceptance: vectorized generation speedup "
        f"{gate['speedup']:.1f}x "
        f"({'>= 5x ok' if gate['speedup'] >= 5.0 else 'BELOW 5x'}), "
        f"corpus verify {corpus_block['verified_entries']}/"
        f"{corpus_block['entries']} ok"
    )
    return 0 if ok else 1

# ----------------------------------------------------------------------
# PR5: declarative experiment registry + unified execution context
# ----------------------------------------------------------------------

#: E20's downsized grid for the per-engine end-to-end timing (run
#: through the registry, exactly as `repro run E20 --set ...` would).
PR5_E20_OVERRIDES = {
    "sizes": (60, 120, 240),
    "num_graphs": 2,
    "runs_per_graph": 2,
}


def pr5_registry_block() -> dict:
    """Enumerate the live registry: the declarative surface, pinned."""
    from repro.core.registry import REGISTRY

    began = time.perf_counter()
    experiments = REGISTRY.ids()
    matrix = {
        experiment_id: list(capabilities)
        for experiment_id, capabilities in
        REGISTRY.capability_matrix().items()
    }
    elapsed = time.perf_counter() - began
    print(
        f"  registry: {len(experiments)} experiments, "
        f"{sum(len(v) for v in matrix.values())} capability "
        f"declarations ({elapsed * 1000:.2f} ms)"
    )
    return {
        "count": len(experiments),
        "experiments": experiments,
        "capability_matrix": matrix,
        "enumeration_seconds": round(elapsed, 6),
    }


def pr5_time_e20_per_engine() -> list:
    """Downsized E20 through the registry, per declared engine.

    Raises if the engines disagree on any derived scalar — the
    timings are only worth recording for equal numbers.
    """
    from repro.core.registry import REGISTRY

    spec = REGISTRY.get("E20")
    records = []
    derived_per_engine = {}
    n = max(PR5_E20_OVERRIDES["sizes"])
    for engine in ("serial", "ensemble"):
        began = time.perf_counter()
        with pinned_kernels(engine):
            result = spec.run(PR5_E20_OVERRIDES, backend="frozen")
        elapsed = time.perf_counter() - began
        derived_per_engine[engine] = result.derived
        records.append(
            {
                "experiment": "E20",
                "n": n,
                "wall_seconds": round(elapsed, 4),
                "backend": "frozen",
                "engine": engine,
            }
        )
        print(f"   E20 engine={engine:<9} {elapsed:7.2f}s")
    if derived_per_engine["serial"] != derived_per_engine["ensemble"]:
        raise SystemExit("E20: engines diverged at bench scale")
    return records


def pr5_main() -> int:
    """Regenerate BENCH_PR5.json (the experiment-registry point).

    The registry block snapshots the *live* registry, so later PRs
    that add experiments regenerate this artifact; the gate is that
    the original E1..E20 surface is still fully declared (growth is
    expected, loss is a regression).
    """
    print("bench-smoke --pr5: registry enumeration")
    registry_block = pr5_registry_block()
    print(
        "bench-smoke --pr5: downsized E20 per engine, via the registry"
    )
    records = pr5_time_e20_per_engine()
    payload = {
        "schema": SCHEMA,
        "records": records,
        "registry": registry_block,
    }
    path = os.path.normpath(PR5_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    original = [f"E{i}" for i in range(1, 21)]
    ok = all(
        experiment_id in registry_block["experiments"]
        for experiment_id in original
    )
    print(
        f"acceptance: {registry_block['count']} registered "
        f"experiments ({'E1..E20 all present' if ok else 'E1..E20 INCOMPLETE'}), "
        "E20 engines equal"
    )
    return 0 if ok else 1

# ----------------------------------------------------------------------
# PR4: vectorized walker-ensemble engine
# ----------------------------------------------------------------------

#: Downsized walk-heavy experiments timed per engine (frozen backend —
#: the engine axis is orthogonal to the backend one, and frozen+numpy
#: is the kernel's native path).
PR4_EXPERIMENTS = (
    ("E1", e1_mori_weak,
     {"sizes": (60, 120, 240), "num_graphs": 2, "runs_per_graph": 2},
     240),
    ("E3", e3_cooper_frieze,
     {"sizes": (60, 120), "num_graphs": 2, "runs_per_graph": 2}, 120),
)

PR4_CELL_FAMILY = MoriFamily(p=0.5, m=2)
PR4_CELL_N = 100_000
PR4_CELL_RUNS = 64
PR4_CELL_BUDGET = 2_000
PR4_CELL_SEED = 97
PR4_CELL_ALGORITHMS = (
    RandomWalkSearch(),
    SelfAvoidingWalkSearch(),
    RestartingWalkSearch(restart_prob=0.1),
)


def pr4_time_experiments() -> list:
    """Downsized E1/E3 per engine, timed end to end."""
    records = []
    for experiment_id, function, kwargs, n in PR4_EXPERIMENTS:
        for engine in ("serial", "ensemble"):
            began = time.perf_counter()
            with pinned_kernels(engine):
                function(**kwargs, backend="frozen")
            elapsed = time.perf_counter() - began
            records.append(
                {
                    "experiment": experiment_id,
                    "n": n,
                    "wall_seconds": round(elapsed, 4),
                    "backend": "frozen",
                    "engine": engine,
                }
            )
            print(
                f"  {experiment_id:>4} engine={engine:<9} "
                f"{elapsed:7.2f}s"
            )
    return records


def pr4_measure_ensemble_speedup() -> dict:
    """Per-cell wall clock: serial oracle loop vs ensemble kernel."""
    print(
        f"  building {PR4_CELL_FAMILY.name} n={PR4_CELL_N} "
        "(one snapshot serves every cell) ..."
    )
    graph = freeze(
        PR4_CELL_FAMILY.build(PR4_CELL_N, seed=PR4_CELL_SEED)
    )
    target = PR4_CELL_FAMILY.theorem_target(graph)
    start = PR4_CELL_FAMILY.default_start(graph)
    per_algorithm = {}
    for algorithm in PR4_CELL_ALGORITHMS:
        run_seeds = [
            run_substream(PR4_CELL_SEED, algorithm.name, run)
            for run in range(PR4_CELL_RUNS)
        ]
        began = time.perf_counter()
        serial_results = [
            run_search(
                algorithm, graph, start, target,
                budget=PR4_CELL_BUDGET, seed=run_seed,
            )
            for run_seed in run_seeds
        ]
        serial_seconds = time.perf_counter() - began

        began = time.perf_counter()
        ensemble_results = run_ensemble(
            algorithm, graph, start, target, run_seeds,
            budget=PR4_CELL_BUDGET,
        )
        ensemble_seconds = time.perf_counter() - began

        # The speedup claim is only worth recording if the engines
        # agree run for run — the determinism contract, re-checked at
        # bench scale (a real raise, so `python -O` cannot strip it).
        if ensemble_results != serial_results:
            raise SystemExit(
                f"{algorithm.name}: engines diverged at bench scale"
            )
        per_algorithm[algorithm.name] = {
            "serial_seconds": round(serial_seconds, 4),
            "ensemble_seconds": round(ensemble_seconds, 4),
            "speedup": round(serial_seconds / ensemble_seconds, 2),
        }
        print(
            f"  {algorithm.name:<20} serial {serial_seconds:6.2f}s"
            f" | ensemble {ensemble_seconds:6.2f}s -> "
            f"{per_algorithm[algorithm.name]['speedup']:.1f}x"
        )
    return {
        "workload": "walk-cells",
        "family": PR4_CELL_FAMILY.name,
        "n": PR4_CELL_N,
        "runs_per_cell": PR4_CELL_RUNS,
        "budget": PR4_CELL_BUDGET,
        "backend": "frozen",
        "per_algorithm": per_algorithm,
        "acceptance_algorithm": "random-walk",
    }


def pr4_main() -> int:
    """Regenerate BENCH_PR4.json (the walker-ensemble engine point)."""
    print("bench-smoke --pr4: downsized E1/E3 (engines, frozen backend)")
    records = pr4_time_experiments()
    print(
        "bench-smoke --pr4: walk cells, "
        f"n={PR4_CELL_N} x {PR4_CELL_RUNS} runs"
    )
    speedup = pr4_measure_ensemble_speedup()
    payload = {
        "schema": SCHEMA,
        "records": records,
        "ensemble_speedup": speedup,
    }
    path = os.path.normpath(PR4_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    gate = speedup["per_algorithm"][speedup["acceptance_algorithm"]]
    ok = gate["speedup"] >= 3.0
    print(
        "acceptance: ensemble walk-cell speedup "
        f"{gate['speedup']:.1f}x ({'>= 3x ok' if ok else 'BELOW 3x'})"
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# PR3 artifact regeneration (growth-trajectory checkpoint engine)
# ----------------------------------------------------------------------

#: Downsized end-to-end runs timed per backend (and, for E17, per mode).
SMOKE_SIZES_E17 = (500, 676, 913, 1233, 1665, 2248, 3035, 4000)
SMOKE_SIZES_E19 = (200, 400, 800, 1600)

#: The grid whose *realisation* cost the speedup block measures: E17's
#: family at a dense geometric checkpoint grid, where the independent
#: layout pays `sum(sizes)` construction work against the trajectory's
#: one pass.
GRID_FAMILY = MoriFamily(p=0.25, m=1)
GRID_SIZES = (
    2000, 2601, 3382, 4397, 5717, 7433, 9663, 12562,
    16331, 21231, 27601, 32000,
)
GRID_SEED = 17


def pr3_time_experiments() -> list:
    """Downsized E17 (both modes) and E19, per backend, timed."""
    records = []
    runs = [
        ("E17", e17_simulation_slowdown,
         {"sizes": SMOKE_SIZES_E17, "num_graphs": 2, "seed": 17},
         max(SMOKE_SIZES_E17), ("independent", "trajectory")),
        ("E19", e19_trajectory_scaling,
         {"sizes": SMOKE_SIZES_E19, "num_graphs": 2,
          "runs_per_graph": 1, "seed": 19},
         max(SMOKE_SIZES_E19), ("trajectory",)),
    ]
    for experiment_id, function, kwargs, n, modes in runs:
        for backend in ("multigraph", "frozen"):
            for mode in modes:
                extra = (
                    {} if experiment_id == "E19" else {"mode": mode}
                )
                began = time.perf_counter()
                function(**kwargs, backend=backend, **extra)
                elapsed = time.perf_counter() - began
                records.append(
                    {
                        "experiment": experiment_id,
                        "n": n,
                        "wall_seconds": round(elapsed, 4),
                        "backend": backend,
                        "mode": mode,
                    }
                )
                print(
                    f"  {experiment_id:>4} backend={backend:<10} "
                    f"mode={mode:<12} {elapsed:7.2f}s"
                )
    return records


def pr3_measure_trajectory_speedup() -> dict:
    """Grid-realisation wall clock: independent builds vs one trajectory."""
    per_backend = {}
    for backend in ("frozen", "multigraph"):
        began = time.perf_counter()
        for size in GRID_SIZES:
            snapshot_graph(
                GRID_FAMILY.build(size, seed=GRID_SEED), backend
            )
        independent_seconds = time.perf_counter() - began

        began = time.perf_counter()
        graph, marks = GRID_FAMILY.build_trajectory(
            GRID_SIZES, seed=GRID_SEED
        )
        snapshots = trajectory_snapshots(
            graph, marks, GRID_SIZES, backend
        )
        trajectory_seconds = time.perf_counter() - began
        assert len(snapshots) == len(GRID_SIZES)

        per_backend[backend] = {
            "independent_seconds": round(independent_seconds, 4),
            "trajectory_seconds": round(trajectory_seconds, 4),
            "speedup": round(
                independent_seconds / trajectory_seconds, 2
            ),
        }
        print(
            f"  {backend:<10} independent {independent_seconds:6.2f}s"
            f" | trajectory {trajectory_seconds:6.2f}s -> "
            f"{per_backend[backend]['speedup']:.1f}x"
        )
    return {
        "workload": "e17-grid-realisations",
        "family": GRID_FAMILY.name,
        "sizes": list(GRID_SIZES),
        "per_backend": per_backend,
        "acceptance_backend": "frozen",
    }


def pr3_main() -> int:
    """Regenerate BENCH_PR3.json (the checkpoint-engine point)."""
    print("bench-smoke --pr3: downsized E17/E19 (backends x modes)")
    records = pr3_time_experiments()
    print(
        "bench-smoke --pr3: E17-shaped grid realisations, "
        f"sizes {GRID_SIZES[0]}..{GRID_SIZES[-1]}"
    )
    speedup = pr3_measure_trajectory_speedup()
    payload = {
        "schema": SCHEMA,
        "records": records,
        "trajectory_speedup": speedup,
    }
    path = os.path.normpath(PR3_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    gate = speedup["per_backend"][speedup["acceptance_backend"]]
    ok = gate["speedup"] >= 2.0
    print(
        "acceptance: frozen-backend grid-realisation speedup "
        f"{gate['speedup']:.1f}x ({'>= 2x ok' if ok else 'BELOW 2x'})"
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# PR2 artifact regeneration (kept for reproducibility of BENCH_PR2.json)
# ----------------------------------------------------------------------

PR2_EXPERIMENTS = (
    ("E1", e1_mori_weak,
     {"sizes": (200, 400), "num_graphs": 2, "runs_per_graph": 1}, 400),
    ("E3", e3_cooper_frieze,
     {"sizes": (100, 200), "num_graphs": 2, "runs_per_graph": 1}, 200),
    ("E17", e17_simulation_slowdown,
     {"sizes": (100, 200), "num_graphs": 2}, 200),
)

PR2_SPEEDUP_N = 100_000
PR2_SPEEDUP_CELLS = 12
PR2_SPEEDUP_SEED = 97


def _pr2_cell_starts(graph, target):
    rng = make_rng(substream(PR2_SPEEDUP_SEED, 0xCE11))
    starts = []
    while len(starts) < PR2_SPEEDUP_CELLS:
        start = rng.randint(1, graph.num_vertices)
        if start != target and start not in starts:
            starts.append(start)
    return starts


def _pr2_run_cells(graph, starts, target):
    for start in starts:
        result = run_search(
            FloodingSearch(), graph, start, target, seed=0
        )
        assert result.found
        distances = bfs_distances(graph, start)
        assert distances[target] >= 0


def pr2_main() -> int:
    """Regenerate BENCH_PR2.json (the FrozenGraph cell-batch point)."""
    print("bench-smoke --pr2: downsized experiments (both backends)")
    records = []
    for experiment_id, function, kwargs, n in PR2_EXPERIMENTS:
        for backend in ("multigraph", "frozen"):
            began = time.perf_counter()
            function(**kwargs, backend=backend)
            elapsed = time.perf_counter() - began
            records.append(
                {
                    "experiment": experiment_id,
                    "n": n,
                    "wall_seconds": round(elapsed, 4),
                    "backend": backend,
                }
            )
            print(
                f"  {experiment_id:>4} backend={backend:<10} "
                f"{elapsed:7.2f}s"
            )
    family = MoriFamily(p=0.5, m=1)
    print(f"  building Mori n={PR2_SPEEDUP_N} ...")
    graph = family.build(PR2_SPEEDUP_N, seed=PR2_SPEEDUP_SEED)
    target = family.theorem_target(graph)
    starts = _pr2_cell_starts(graph, target)

    began = time.perf_counter()
    for start in starts:
        rebuilt = family.build(PR2_SPEEDUP_N, seed=PR2_SPEEDUP_SEED)
        _pr2_run_cells(rebuilt, [start], target)
    rebuild_seconds = time.perf_counter() - began

    began = time.perf_counter()
    shared = family.build(PR2_SPEEDUP_N, seed=PR2_SPEEDUP_SEED)
    _pr2_run_cells(shared, starts, target)
    shared_seconds = time.perf_counter() - began

    began = time.perf_counter()
    built = family.build(PR2_SPEEDUP_N, seed=PR2_SPEEDUP_SEED)
    frozen = freeze(built)
    _pr2_run_cells(frozen, starts, target)
    frozen_seconds = time.perf_counter() - began

    speedup = {
        "workload": "e1-flooding-bfs-cells",
        "n": PR2_SPEEDUP_N,
        "cells": PR2_SPEEDUP_CELLS,
        "multigraph_rebuild_seconds": round(rebuild_seconds, 4),
        "multigraph_shared_seconds": round(shared_seconds, 4),
        "frozen_batched_seconds": round(frozen_seconds, 4),
        "speedup_vs_rebuild": round(
            rebuild_seconds / frozen_seconds, 2
        ),
        "speedup_vs_shared": round(
            shared_seconds / frozen_seconds, 2
        ),
    }
    payload = {
        "schema": SCHEMA,
        "records": records,
        "speedup": speedup,
    }
    path = os.path.normpath(PR2_OUTPUT_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    ok = speedup["speedup_vs_rebuild"] >= 3.0
    print(
        "acceptance: speedup_vs_rebuild "
        f"{speedup['speedup_vs_rebuild']:.1f}x "
        f"({'>= 3x ok' if ok else 'BELOW 3x'})"
    )
    return 0 if ok else 1


#: Earlier trajectory points, dispatched by flag; no flag runs the
#: current PR's point (``main``).  A new PR adds one row, not an arm.
_PR_FLAGS = {
    "--pr2": pr2_main,
    "--pr3": pr3_main,
    "--pr4": pr4_main,
    "--pr5": pr5_main,
    "--pr6": pr6_main,
    "--pr7": pr7_main,
    "--pr8": pr8_main,
    "--pr9": pr9_main,
}

if __name__ == "__main__":
    for _flag, _entry in _PR_FLAGS.items():
        if _flag in sys.argv[1:]:
            sys.exit(_entry())
    sys.exit(main())
