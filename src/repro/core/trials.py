"""Pure top-level trial functions for the runner.

Each function here is one Monte-Carlo cell of an experiment grid,
re-expressed as a pure function of JSON-serializable parameters plus a
substream-derived seed — the contract :mod:`repro.runner` needs to
execute cells in worker processes and replay them from the result
store.  The decompositions reproduce the original inner loops *exactly*
(same substream indices, same draw order), so dispatching through the
runner changes no published number; ``tests/test_experiment_regression``
pins this.

Graph families and algorithm portfolios cross process boundaries by
*name*: :func:`family_spec` / :func:`build_family` serialize the former,
:func:`portfolio_factories` resolves the latter.  The search-cost
trials also accept the objects themselves: the closure path of
:mod:`repro.core.searchability` calls them in-process with a
:class:`~repro.core.families.GraphFamily` and a factory dict, so named
and closure portfolios run one per-graph body.

Search trials run on a :class:`~repro.graphs.frozen.FrozenGraph`:
after the evolving construction finishes, the graph is snapshotted so
the whole batch of search cells runs on the read-optimised CSR form
(numpy-backed, or stdlib ``array`` without numpy).  Every number is the
one the mutable :class:`~repro.graphs.base.MultiGraph` gives
(``tests/test_frozen_graph.py`` and the regression pins enforce it), so
the snapshot is not a trial parameter.  On each built graph,
:func:`portfolio_grid` is the one search-cost step: it resolves the
endpoints (:func:`graph_endpoints`), runs every ``(algorithm,
run_index)`` cell and groups the runs by algorithm.  The independent,
trajectory, churn and E9 diameter trials all call it.
:func:`batched_search_trial` is the general form: one generated graph
serves an explicit batch of (algorithm, start, target, run) cells, each
with the same substream-derived run seed the serial loops used.

:func:`trajectory_scaling_trial` / :func:`trajectory_slowdown_trial`
extend the bargain along the *size* axis: one evolved realisation is
checkpoint-snapshotted at every grid size (see
:func:`trajectory_snapshots`), and each checkpoint's cells are
bit-identical to the corresponding independent same-seed trial.

Graphs build and cells run on the kernels :func:`resolve_kernels`
picks: the vectorized generator and the ensemble engine when numpy
imports, the serial reference paths otherwise.  Neither is a trial
parameter — the kernels are bit-identical, so they never enter a
cache key.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.analysis.degrees import max_degree
from repro.analysis.diameter import estimate_diameter
from repro.analysis.powerlaw_fit import fit_power_law
from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    GraphFamily,
    MoriFamily,
    theorem_target_for_size,
)
from repro.errors import ExperimentError
from repro.graphs.base import MultiGraph
from repro.graphs.churn import CHURN_BIASES, ChurnProcess
from repro.graphs.components import connected_components
from repro.graphs.delta import DeltaGraph
from repro.graphs.frozen import HAVE_NUMPY, FrozenGraph, GraphBackend, freeze
from repro.graphs.cooper_frieze import CooperFriezeParams
from repro.graphs.kleinberg import kleinberg_grid
from repro.rng import make_rng, run_substream, substream
from repro.search.algorithms import (
    AgeGreedySearch,
    DegreeBiasedWalkSearch,
    FloodingSearch,
    HighDegreeStrongSearch,
    HighDegreeWeakSearch,
    MixedStrategySearch,
    RandomWalkSearch,
    RestartingWalkSearch,
    SelfAvoidingWalkSearch,
    WeakSimulationOfStrong,
)
from repro.search.metrics import SearchResult
from repro.search.process import default_budget, run_search

__all__ = [
    "family_spec",
    "build_family",
    "build_specimen",
    "weak_factories",
    "strong_factories",
    "portfolio_factories",
    "choose_start",
    "graph_endpoints",
    "build_graph_snapshot",
    "Kernels",
    "resolve_kernels",
    "trajectory_snapshots",
    "portfolio_grid",
    "search_cost_graph_trial",
    "batched_search_trial",
    "churn_search_trial",
    "churn_survival_trial",
    "trajectory_scaling_trial",
    "trajectory_slowdown_trial",
    "degree_fit_trial",
    "simulation_slowdown_trial",
    "diameter_search_trial",
    "result_to_dict",
    "result_from_dict",
]

#: Search-cell execution engines.  ``"serial"`` steps every search
#: cell through the oracle machinery one run at a time; ``"ensemble"``
#: advances all runs of each walk-family (algorithm, start, target)
#: cell together through the numpy kernel in
#: :mod:`repro.search.ensemble` (non-walk algorithms fall back to the
#: serial path per cell).  The engine never changes a number — per-run
#: costs, flags, and oracle traces are bit-identical
#: (``tests/test_search_ensemble.py``) — only wall-clock time.
ENGINES = ("serial", "ensemble")


class Kernels(NamedTuple):
    """The execution kernels a process runs its trials on.

    ``engine`` is one of :data:`ENGINES`.  ``generator`` is
    ``"serial"`` (the reference builders, one edge at a time) or
    ``"vectorized"`` (the batched kernels in
    :mod:`repro.graphs.fastgen`, which consume the RNG in exactly the
    serial draw order; families without a kernel build serially).
    The generator never changes a number either — edge lists, edge
    ids, and snapshot hashes are bit-identical
    (``tests/test_fastgen_equivalence.py``).
    """

    engine: str
    generator: str


def resolve_kernels() -> Kernels:
    """The fastest kernels this interpreter can run.

    ``Kernels("ensemble", "vectorized")`` when numpy imports, else
    ``Kernels("serial", "serial")``.  Every place that builds a graph
    or runs search cells asks here, so batch runs, the corpus and the
    daemon choose alike.  The choice is not a trial parameter: both
    kernels are bit-identical to the serial reference paths, which
    stay as the numpy-less fallback and the equivalence oracle, so
    cache keys and stored values are the same under either.
    """
    if HAVE_NUMPY:
        return Kernels(engine="ensemble", generator="vectorized")
    return Kernels(engine="serial", generator="serial")


def trajectory_snapshots(graph: GraphBackend, marks: Dict[int, int], sizes):
    """Per-checkpoint snapshots of one evolved realisation.

    ``graph``/``marks`` come from
    :meth:`~repro.core.families.GraphFamily.build_trajectory` (either
    form: the vectorized generator hands over a
    :class:`~repro.graphs.frozen.FrozenGraph` directly).  Returns a
    list of ``(size, snapshot)`` in ascending size order; each snapshot
    is bit-identical to the frozen independent same-seed build of that
    size.  The whole grid shares one full CSR freeze, each checkpoint
    being a buffer-reusing prefix slice of it.
    """
    full = freeze(graph)
    return [(n, full.prefix(n, marks[n])) for n in sorted(set(sizes))]


def build_graph_snapshot(
    family_obj: GraphFamily,
    size: int,
    seed: int,
) -> FrozenGraph:
    """Build one family instance as a frozen snapshot.

    The one place independent-build trials obtain their graph, so the
    generator choice and the on-disk corpus compose uniformly:

    * under the vectorized generator (see :func:`resolve_kernels`) the
      graph builds through
      :meth:`~repro.core.families.GraphFamily.build_frozen` (the
      fastgen kernels where the family has one — bit-identical to the
      serial builder); the serial builder's graph is frozen.
    * When ``REPRO_CORPUS_DIR`` names a corpus (see
      :func:`repro.graphs.corpus.active_corpus`) and the family builds
      exact-size graphs (the configuration family's giant component
      does not), the snapshot is served from / persisted to the
      memory-mapped store keyed by ``(family spec, n, seed)``.  The
      stored bytes are generator-independent — the determinism
      contract makes both generators build the same graph.

    Numbers never depend on any of this — only wall-clock time.
    """
    generator = resolve_kernels().generator

    def _build() -> GraphBackend:
        if generator == "vectorized":
            return family_obj.build_frozen(
                size, seed=seed, generator=generator
            )
        return family_obj.build(size, seed=seed)

    if family_obj.exact_size:
        from repro.graphs.corpus import active_corpus

        corpus = active_corpus()
        if corpus is not None:
            try:
                spec = family_spec(family_obj)
            except ExperimentError:
                spec = None
            if spec is not None:
                return corpus.get_or_build(
                    spec, size, seed, _build, generator=generator
                )
    return freeze(_build())


# ----------------------------------------------------------------------
# Family (de)serialization
# ----------------------------------------------------------------------


def family_spec(family: GraphFamily) -> Dict[str, Any]:
    """JSON-serializable description of ``family`` for trial params."""
    if isinstance(family, MoriFamily):
        return {"model": "mori", "p": family.p, "m": family.m}
    if isinstance(family, CooperFriezeFamily):
        params = family.params
        return {
            "model": "cooper-frieze",
            "alpha": params.alpha,
            "beta": params.beta,
            "gamma": params.gamma,
            "delta": params.delta,
            "new_edge_distribution": list(params.new_edge_distribution),
            "old_edge_distribution": list(params.old_edge_distribution),
            "preferential_by": params.preferential_by,
        }
    if isinstance(family, BarabasiAlbertFamily):
        return {"model": "ba", "m": family.m}
    if isinstance(family, ConfigurationFamily):
        return {
            "model": "config",
            "exponent": family.exponent,
            "min_degree": family.min_degree,
            "max_degree": family.max_degree,
        }
    raise ExperimentError(
        f"cannot serialize family {type(family).__name__} for a trial"
    )


def build_family(spec: Dict[str, Any]) -> GraphFamily:
    """Inverse of :func:`family_spec`."""
    model = spec.get("model")
    if model == "mori":
        return MoriFamily(p=spec["p"], m=spec["m"])
    if model == "cooper-frieze":
        return CooperFriezeFamily(
            params=CooperFriezeParams(
                alpha=spec["alpha"],
                beta=spec["beta"],
                gamma=spec["gamma"],
                delta=spec["delta"],
                new_edge_distribution=tuple(
                    spec["new_edge_distribution"]
                ),
                old_edge_distribution=tuple(
                    spec["old_edge_distribution"]
                ),
                preferential_by=spec["preferential_by"],
            )
        )
    if model == "ba":
        return BarabasiAlbertFamily(m=spec["m"])
    if model == "config":
        return ConfigurationFamily(
            exponent=spec["exponent"],
            min_degree=spec["min_degree"],
            max_degree=spec["max_degree"],
        )
    raise ExperimentError(f"unknown family model {model!r}")


def build_specimen(
    spec: Dict[str, Any], n: int, seed: int
) -> MultiGraph:
    """Build one graph from a family spec (E6's specimen rule).

    Kleinberg grids are not a :class:`GraphFamily` (their size is a
    lattice side, not a vertex count) but E6 compares against them, so
    this builder accepts ``{"model": "kleinberg", ...}`` too.
    """
    if spec.get("model") == "kleinberg":
        return kleinberg_grid(
            spec["side"], r=spec["r"], q=spec["q"], seed=seed
        ).graph
    return build_family(spec).build(n, seed=seed)


# ----------------------------------------------------------------------
# Algorithm portfolios (resolved by name inside workers)
# ----------------------------------------------------------------------


def weak_factories(include_omniscient: bool = False):
    """The weak-model portfolio (optionally plus the Lemma-1 baseline)."""
    from repro.core.searchability import (
        constant_factory,
        omniscient_factory,
    )

    factories = {
        "random-walk": constant_factory(RandomWalkSearch()),
        "flooding": constant_factory(FloodingSearch()),
        "high-degree": constant_factory(HighDegreeWeakSearch()),
        "age-oldest": constant_factory(AgeGreedySearch("oldest")),
        "age-closest-id": constant_factory(
            AgeGreedySearch("closest-id")
        ),
        "mixed-0.25": constant_factory(MixedStrategySearch(0.25)),
        "self-avoiding-walk": constant_factory(
            SelfAvoidingWalkSearch()
        ),
        "restart-walk-0.1": constant_factory(
            RestartingWalkSearch(restart_prob=0.1)
        ),
    }
    if include_omniscient:
        factories["omniscient-window"] = omniscient_factory()
    return factories


def strong_factories():
    """The strong-model portfolio."""
    from repro.core.searchability import constant_factory

    return {
        "high-degree-strong": constant_factory(HighDegreeStrongSearch()),
        "uniform-walk-strong": constant_factory(
            DegreeBiasedWalkSearch(beta=0.0)
        ),
        "biased-walk-strong": constant_factory(
            DegreeBiasedWalkSearch(beta=1.0)
        ),
    }


def _adamic_factories():
    from repro.core.searchability import constant_factory

    return {
        "high-degree-strong": constant_factory(HighDegreeStrongSearch()),
        "random-walk": constant_factory(RandomWalkSearch()),
    }


def _high_degree_factories():
    from repro.core.searchability import constant_factory

    return {"high-degree": constant_factory(HighDegreeWeakSearch())}


#: Portfolio name -> factory-dict builder.  Names are the serializable
#: handles trial specs carry across process boundaries.
PORTFOLIOS = {
    "weak": weak_factories,
    "weak-omniscient": lambda: weak_factories(include_omniscient=True),
    "strong": strong_factories,
    "adamic": _adamic_factories,
    "high-degree": _high_degree_factories,
}


def portfolio_factories(name: str):
    """Resolve a portfolio name to its factory dict (stable order)."""
    try:
        builder = PORTFOLIOS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown portfolio {name!r}; valid: "
            f"{', '.join(sorted(PORTFOLIOS))}"
        ) from None
    return builder()


def choose_start(
    family: GraphFamily,
    graph: GraphBackend,
    target: int,
    start_rule: str,
    graph_seed: int,
) -> int:
    """Resolve a start rule to a concrete vertex (never the target)."""
    if start_rule == "default":
        return family.default_start(graph)
    if start_rule == "newest-other":
        return target - 1 if target > 1 else target + 1
    if start_rule != "random":
        raise ExperimentError(f"unknown start_rule {start_rule!r}")
    rng = make_rng(substream(graph_seed, 0xA11CE))
    while True:
        start = rng.randint(1, graph.num_vertices)
        if start != target:
            return start


def graph_endpoints(
    family: GraphFamily,
    graph: GraphBackend,
    start_rule: str,
    graph_seed: int,
) -> Tuple[int, int]:
    """The ``(start, target)`` a search trial uses on ``graph``.

    The target is the family's theorem target; the start follows
    ``start_rule`` (:func:`choose_start`).
    """
    target = family.theorem_target(graph)
    return choose_start(family, graph, target, start_rule, graph_seed), target


# ----------------------------------------------------------------------
# SearchResult (de)serialization for the result store
# ----------------------------------------------------------------------


def result_to_dict(result: SearchResult) -> Dict[str, Any]:
    """Lossless JSON form of a :class:`SearchResult`."""
    return {
        "algorithm": result.algorithm,
        "model": result.model,
        "found": result.found,
        "requests": result.requests,
        "start": result.start,
        "target": result.target,
        "extra": dict(result.extra),
    }


def result_from_dict(data: Dict[str, Any]) -> SearchResult:
    """Inverse of :func:`result_to_dict`."""
    return SearchResult(
        algorithm=data["algorithm"],
        model=data["model"],
        found=data["found"],
        requests=data["requests"],
        start=data["start"],
        target=data["target"],
        extra=dict(data["extra"]),
    )


# ----------------------------------------------------------------------
# Trial functions
# ----------------------------------------------------------------------


def _execute_cells(
    graph: GraphBackend,
    factories: Dict[str, Any],
    cells: List[Dict[str, Any]],
    *,
    default_start: int,
    default_target: int,
    budget: Optional[int],
    neighbor_success: bool,
    seed: int,
    engine: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run a batch of search cells against one (snapshotted) graph.

    Each cell is ``{"algorithm": <portfolio member>, "run_index": i}``
    plus optional ``"start"`` / ``"target"`` overrides.  The run seed of
    a cell is :func:`repro.rng.run_substream` of ``(seed, name,
    run_index)`` — the exact formula of the original serial loop, so
    any regrouping of cells (by portfolio, by explicit batch, by
    ensemble) is draw-for-draw identical to the monolithic iteration.

    ``engine`` selects the execution strategy (see :data:`ENGINES`);
    ``None`` takes :func:`resolve_kernels`'s choice, and the equivalence
    batteries pin one engine against the other by naming it.  Under
    ``"ensemble"``, cells are grouped by (algorithm, start, target) and
    each walk-family group advances through
    :func:`repro.search.ensemble.run_ensemble` in one lock-step batch,
    each run seeded exactly as its serial counterpart; groups without a
    kernel run serially.  Results come back in cell order either way.
    """
    if engine is None:
        engine = resolve_kernels().engine
    if engine not in ENGINES:
        raise ExperimentError(
            f"unknown search engine {engine!r}; valid: "
            f"{', '.join(ENGINES)}"
        )
    ensemble_groups: Dict[Any, List[int]] = {}
    ensemble_graph = graph
    if engine == "ensemble":
        from repro.search.ensemble import (
            ensemble_supported,
            require_ensemble_engine,
            run_ensemble,
        )

        require_ensemble_engine()
        # One shared snapshot for every walk-family group (a no-op on
        # a FrozenGraph); run_ensemble would otherwise re-freeze a
        # MultiGraph once per group.  A DeltaGraph overlay passes
        # through unfrozen — the kernel runs on its masked-CSR view so
        # edge ids (and hence traces) match the serial path on the
        # same overlay.
        if not isinstance(graph, DeltaGraph):
            ensemble_graph = freeze(graph)
    instance_budget = (
        budget if budget is not None else default_budget(graph)
    )

    algorithms: Dict[Any, Any] = {}

    def resolve(name: str, target: int):
        # Factories may close over the target (the omniscient window
        # does), so the instance cache is keyed by both.
        algorithm = algorithms.get((name, target))
        if algorithm is None:
            try:
                factory = factories[name]
            except KeyError:
                raise ExperimentError(
                    f"algorithm {name!r} is not in the portfolio; "
                    f"valid: {', '.join(sorted(factories))}"
                ) from None
            algorithm = factory(graph, target)
            algorithms[(name, target)] = algorithm
        return algorithm

    results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    for position, cell in enumerate(cells):
        name = cell["algorithm"]
        target = cell.get("target", default_target)
        start = cell.get("start", default_start)
        algorithm = resolve(name, target)
        if engine == "ensemble" and ensemble_supported(algorithm):
            ensemble_groups.setdefault(
                (name, start, target), []
            ).append(position)
            continue
        result = run_search(
            algorithm,
            graph,
            start,
            target,
            budget=instance_budget,
            seed=run_substream(seed, name, cell.get("run_index", 0)),
            neighbor_success=neighbor_success,
        )
        results[position] = result_to_dict(result)

    for (name, start, target), positions in ensemble_groups.items():
        run_seeds = [
            run_substream(
                seed, name, cells[position].get("run_index", 0)
            )
            for position in positions
        ]
        cell_results = run_ensemble(
            algorithms[(name, target)],
            ensemble_graph,
            start,
            target,
            run_seeds,
            budget=instance_budget,
            neighbor_success=neighbor_success,
        )
        for position, result in zip(positions, cell_results):
            results[position] = result_to_dict(result)
    return results


def _portfolio_args(family, portfolio):
    """A search trial's ``family`` and ``portfolio`` as objects.

    Runner specs carry a family spec and a portfolio name (both
    JSON-serializable, both part of the cache key).  The closure path
    of :mod:`repro.core.searchability` calls the same trial function
    in-process with the :class:`GraphFamily` and the factory dict
    themselves; both pass through unchanged.
    """
    family_obj = (
        family if isinstance(family, GraphFamily) else build_family(family)
    )
    factories = (
        portfolio
        if isinstance(portfolio, dict)
        else portfolio_factories(portfolio)
    )
    return family_obj, factories


def portfolio_grid(
    graph: GraphBackend,
    family_obj: GraphFamily,
    factories: Dict[str, Any],
    *,
    runs_per_graph: int,
    seed: int,
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    start_rule: str = "default",
    endpoints: Optional[Tuple[int, int]] = None,
) -> Dict[str, List[Dict[str, Any]]]:
    """One built graph searched ``runs_per_graph`` times per algorithm.

    The per-graph step every search-cost measurement shares.  The
    target is the family's theorem target and the start follows
    ``start_rule`` (:func:`choose_start`), unless ``endpoints`` gives
    an explicit ``(start, target)`` (the churned overlay's).  The
    ``(algorithm, run_index)`` grid runs through :func:`_execute_cells`
    with ``seed`` as the graph seed, so every run seed is the serial
    loop's.  Returns algorithm name -> serialised runs, in portfolio
    and run order.
    """
    start, target = endpoints or graph_endpoints(
        family_obj, graph, start_rule, seed
    )
    cells = [
        {"algorithm": name, "run_index": run_index}
        for name in factories
        for run_index in range(runs_per_graph)
    ]
    cell_results = _execute_cells(
        graph,
        factories,
        cells,
        default_start=start,
        default_target=target,
        budget=budget,
        neighbor_success=neighbor_success,
        seed=seed,
    )
    collected: Dict[str, List[Dict[str, Any]]] = {}
    for cell, result in zip(cells, cell_results):
        collected.setdefault(cell["algorithm"], []).append(result)
    return collected


def search_cost_graph_trial(
    *,
    family: Union[Dict[str, Any], GraphFamily],
    size: int,
    portfolio: Union[str, Dict[str, Any]],
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    start_rule: str = "default",
    seed: int = 0,
) -> Dict[str, List[Dict[str, Any]]]:
    """One graph realisation searched by a whole portfolio.

    ``seed`` is the graph substream seed (what ``measure_search_cost``
    derives as ``substream(seed, graph_index)``); all run seeds fan out
    from it exactly as in the original serial loop, so the decomposed
    grid is draw-for-draw identical to the monolithic one.  The
    searches run on the frozen snapshot :func:`build_graph_snapshot`
    returns; the construction and cell kernels are
    :func:`resolve_kernels`'s.  Neither changes a number, only
    wall-clock time.
    """
    family_obj, factories = _portfolio_args(family, portfolio)
    graph = build_graph_snapshot(family_obj, size, seed)
    return portfolio_grid(
        graph,
        family_obj,
        factories,
        runs_per_graph=runs_per_graph,
        seed=seed,
        budget=budget,
        neighbor_success=neighbor_success,
        start_rule=start_rule,
    )


def batched_search_trial(
    *,
    family: Dict[str, Any],
    size: int,
    portfolio: str,
    cells: List[Dict[str, Any]],
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    start_rule: str = "default",
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """One generated graph snapshot serving an explicit batch of cells.

    The general per-graph trial: instead of re-generating (or
    re-traversing) the topology for every (algorithm, start, target,
    seed) search cell, the graph is built once from ``seed`` into a
    frozen snapshot, and every cell runs against the shared snapshot.
    Cells are dicts with

    * ``"algorithm"`` — a member of ``portfolio`` (required);
    * ``"run_index"`` — repetition index feeding the run-seed substream
      (default 0);
    * ``"start"`` / ``"target"`` — optional per-cell overrides of the
      graph-level defaults (the family's ``start_rule`` resolution and
      theorem target).

    Returns one serialized :class:`~repro.search.metrics.SearchResult`
    per cell, in cell order.  Per-cell run seeds use the same substream
    formula as the serial loops, so a batch containing the portfolio
    grid reproduces :func:`search_cost_graph_trial` bit-for-bit.
    Under the ensemble engine (see :func:`resolve_kernels`) each
    walk-family (algorithm, start, target) group of the batch advances
    in one lock-step kernel call — same seeds, same numbers, same
    traces.
    """
    family_obj = build_family(family)
    factories = portfolio_factories(portfolio)
    graph = build_graph_snapshot(family_obj, size, seed)
    start, target = graph_endpoints(family_obj, graph, start_rule, seed)
    return _execute_cells(
        graph,
        factories,
        cells,
        default_start=start,
        default_target=target,
        budget=budget,
        neighbor_success=neighbor_success,
        seed=seed,
    )


def _churn_endpoints(family_obj, base, delta):
    """Deterministic (start, target) on a churned overlay.

    The target stays anchored to the theorem window of the *base*
    graph: the newest surviving vertex at or below the static theorem
    target (so "find the newest vertex" keeps its meaning while the
    exact window vertex may have left).  The start is the oldest
    surviving vertex — the searcher's favourable dense-core case,
    mirroring :meth:`GraphFamily.default_start`.
    """
    live = delta.vertices()
    target_ref = family_obj.theorem_target(base)
    target = max(
        (v for v in live if v <= target_ref), default=live[-1]
    )
    start = live[0]
    if start == target and len(live) > 1:
        start = live[1]
    return start, target


def churn_search_trial(
    *,
    family: Dict[str, Any],
    size: int,
    portfolio: str,
    churn_rate: float = 0.1,
    churn_bias: str = "uniform",
    resnapshot_every: int = 0,
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    seed: int = 0,
) -> Dict[str, Any]:
    """One churned graph realisation searched by a whole portfolio.

    Builds the family graph from ``seed`` (exactly like
    :func:`search_cost_graph_trial`), drives
    ``round(churn_rate * size)`` population-preserving churn steps
    (leave + model-faithful join per step, leaves biased per
    ``churn_bias``) through a :class:`~repro.graphs.churn.ChurnProcess`
    seeded with the trial seed, then runs every portfolio cell against
    the surviving overlay.  Churn draws come from ``churn:*`` named
    substreams and run seeds from algorithm-named ones, so the two
    fan-outs never interact and the whole trial replays identically
    across ``--jobs`` and engines.

    Returns ``{"results": {algorithm: [result dicts]}, "steps": ...,
    "live_vertices": ..., "surviving_edges": ..., "start": ...,
    "target": ...}``.
    """
    if churn_rate < 0:
        raise ExperimentError(
            f"churn_rate must be >= 0, got {churn_rate}"
        )
    if churn_bias not in CHURN_BIASES:
        raise ExperimentError(
            f"churn_bias must be one of {CHURN_BIASES}, "
            f"got {churn_bias!r}"
        )
    family_obj = build_family(family)
    factories = portfolio_factories(portfolio)
    base = build_graph_snapshot(family_obj, size, seed)
    process = ChurnProcess(
        family_obj,
        base,
        churn_bias=churn_bias,
        resnapshot_every=resnapshot_every,
        seed=seed,
    )
    steps = int(round(churn_rate * base.num_vertices))
    graph = process.run(steps)
    start, target = _churn_endpoints(family_obj, base, graph)
    collected = portfolio_grid(
        graph,
        family_obj,
        factories,
        runs_per_graph=runs_per_graph,
        seed=seed,
        budget=budget,
        neighbor_success=neighbor_success,
        endpoints=(start, target),
    )
    return {
        "results": collected,
        "steps": steps,
        "live_vertices": graph.num_live_vertices,
        "surviving_edges": graph.num_edges,
        "start": start,
        "target": target,
    }


def churn_survival_trial(
    *,
    family: Dict[str, Any],
    size: int,
    remove_fractions: List[float],
    churn_bias: str = "uniform",
    resnapshot_every: int = 0,
    seed: int = 0,
) -> Dict[str, Any]:
    """Giant-component survival of one realisation under pure decay.

    Builds the family graph from ``seed``, then removes vertices one
    decay step at a time (no compensating joins, leaves biased per
    ``churn_bias``) and records, at each requested removal fraction,
    the live population, surviving edge count, and the size of the
    largest surviving component.  Fractions are of the *built* graph's
    vertex count, must be non-decreasing, and are clamped so at least
    one vertex survives.
    """
    if any(f < 0 or f > 1 for f in remove_fractions):
        raise ExperimentError(
            "remove_fractions must lie in [0, 1], got "
            f"{remove_fractions}"
        )
    if list(remove_fractions) != sorted(remove_fractions):
        raise ExperimentError(
            "remove_fractions must be non-decreasing, got "
            f"{remove_fractions}"
        )
    if churn_bias not in CHURN_BIASES:
        raise ExperimentError(
            f"churn_bias must be one of {CHURN_BIASES}, "
            f"got {churn_bias!r}"
        )
    family_obj = build_family(family)
    base = build_graph_snapshot(family_obj, size, seed)
    initial = base.num_vertices
    process = ChurnProcess(
        family_obj,
        base,
        churn_bias=churn_bias,
        resnapshot_every=resnapshot_every,
        seed=seed,
    )
    checkpoints: List[Dict[str, Any]] = []
    for fraction in remove_fractions:
        removals = min(int(round(fraction * initial)), initial - 1)
        while process.steps_taken < removals:
            process.decay_step()
        graph = process.graph
        live = graph.num_live_vertices
        components = connected_components(graph)
        giant = max((len(c) for c in components), default=0)
        checkpoints.append(
            {
                "fraction": fraction,
                "removed": process.steps_taken,
                "live_vertices": live,
                "surviving_edges": graph.num_edges,
                "giant": giant,
                "giant_fraction": giant / live if live else 0.0,
            }
        )
    return {"initial_vertices": initial, "checkpoints": checkpoints}


def _trajectory_checkpoints(family_obj: GraphFamily, sizes, seed: int):
    """``(size, snapshot)`` pairs of one realisation evolved from ``seed``."""
    full_graph, marks = family_obj.build_trajectory(
        sizes, seed=seed, generator=resolve_kernels().generator
    )
    return trajectory_snapshots(full_graph, marks, sizes)


def trajectory_scaling_trial(
    *,
    family: Union[Dict[str, Any], GraphFamily],
    sizes: List[int],
    portfolio: Union[str, Dict[str, Any]],
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    start_rule: str = "default",
    seed: int = 0,
) -> Dict[str, Dict[str, List[Dict[str, Any]]]]:
    """One growth trajectory serving a whole scaling grid of cells.

    Evolves a single realisation of ``family`` to ``max(sizes)`` and
    serves every per-``n`` portfolio cell from the checkpoint snapshot
    at ``n``, so the grid pays one construction pass instead of
    ``Σ nᵢ`` work.  Because checkpoint snapshots are bit-identical to
    independent same-seed builds, the value at key ``str(n)`` equals
    :func:`search_cost_graph_trial` called with ``size=n`` and the same
    ``seed`` — draw for draw (``tests/test_frozen_graph.py`` and the
    regression pins enforce it).  Keys are strings so the value
    round-trips unchanged through the JSON result store.
    """
    family_obj, factories = _portfolio_args(family, portfolio)
    return {
        str(size): portfolio_grid(
            graph,
            family_obj,
            factories,
            runs_per_graph=runs_per_graph,
            seed=seed,
            budget=budget,
            neighbor_success=neighbor_success,
            start_rule=start_rule,
        )
        for size, graph in _trajectory_checkpoints(family_obj, sizes, seed)
    }


def _slowdown(graph: GraphBackend, size: int) -> Dict[str, int]:
    """E17's per-graph cell: strong vs simulated-weak cost, max degree.

    Both searches run from vertex 1 to the theorem target of ``size``
    with run seed 0; the inner algorithm is deterministic.
    """
    target = theorem_target_for_size(size)
    strong_result = run_search(
        HighDegreeStrongSearch(), graph, 1, target, seed=0
    )
    simulated_result = run_search(
        WeakSimulationOfStrong(HighDegreeStrongSearch()),
        graph,
        1,
        target,
        seed=0,
    )
    return {
        "strong_requests": strong_result.requests,
        "weak_requests": simulated_result.requests,
        "max_degree": max_degree(graph),
    }


def trajectory_slowdown_trial(
    *,
    family: Dict[str, Any],
    sizes: List[int],
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """E17's simulation-slowdown cells along one growth trajectory.

    The checkpoint value at key ``str(n)`` is bit-identical to
    :func:`simulation_slowdown_trial` called with ``size=n`` and the
    same ``seed`` (the inner searches are deterministic and the
    snapshot equals the independent build).
    """
    checkpoints = _trajectory_checkpoints(build_family(family), sizes, seed)
    return {str(size): _slowdown(graph, size) for size, graph in checkpoints}


def degree_fit_trial(
    *,
    family: Dict[str, Any],
    n: int,
    seed: int = 0,
) -> Dict[str, Any]:
    """One E6 specimen: build a graph and fit its degree power law."""
    graph = freeze(build_specimen(family, n, seed))
    degrees = graph.degree_sequence()
    fit = fit_power_law(degrees)
    return {
        "max_degree": max_degree(graph),
        "exponent": fit.exponent,
        "d_min": fit.d_min,
        "ks_distance": fit.ks_distance,
    }


def simulation_slowdown_trial(
    *,
    family: Dict[str, Any],
    size: int,
    seed: int = 0,
) -> Dict[str, Any]:
    """One E17 instance: strong vs simulated-weak cost and max degree.

    The inner algorithm is deterministic, so the per-instance ratio
    check is exact; the trial just reports the three raw quantities.
    """
    graph = build_graph_snapshot(build_family(family), size, seed)
    return _slowdown(graph, size)


def diameter_search_trial(
    *,
    family: Dict[str, Any],
    size: int,
    portfolio: str,
    diameter_seed: int,
    seed: int = 0,
) -> Dict[str, Any]:
    """One E9 realisation: its diameter estimate and its search cost.

    Builds the snapshot once from ``seed``, estimates its diameter with
    the farthest-point sweeps seeded by ``diameter_seed``, and searches
    it once per ``portfolio`` member (:func:`portfolio_grid`, default
    start and theorem target).  Returns ``{"diameter": ...,
    "results": {algorithm: [result dicts]}}``.
    """
    family_obj, factories = _portfolio_args(family, portfolio)
    graph = build_graph_snapshot(family_obj, size, seed)
    return {
        "diameter": estimate_diameter(graph, seed=diameter_seed),
        "results": portfolio_grid(
            graph, family_obj, factories, runs_per_graph=1, seed=seed
        ),
    }
