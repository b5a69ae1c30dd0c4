"""The searchability measurement engine.

Monte-Carlo estimation of the paper's complexity measure: the expected
number of oracle requests a local algorithm needs to reveal a target's
identity.  The engine iterates (graph realisation) x (algorithm) x
(repetition), keeps the full result lists, and reduces them to
:class:`~repro.search.metrics.SearchCostSummary` rows.

Algorithms are supplied as *factories* ``(graph, target) -> algorithm``
because one portfolio member — the omniscient window baseline — needs
the realised graph and window at construction time.  Plain algorithms
are wrapped with :func:`constant_factory`.

Every realisation is measured by one per-graph body, a trial function
of :mod:`repro.core.trials`: ``search_cost_graph_trial`` for
independent builds, ``trajectory_scaling_trial`` for coupled
checkpoints.  A portfolio passed by *name* (see
:data:`repro.core.trials.PORTFOLIOS`) runs that body through
:mod:`repro.runner`, which enables ``jobs > 1`` worker fan-out and
result-store replay; a factory dict (closures) calls the same body
in-process with the same seeds.  The two differ only in where the body
runs, so they give the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.families import GraphFamily
from repro.core.trials import (
    family_spec,
    result_from_dict,
    search_cost_graph_trial,
    trajectory_scaling_trial,
)
from repro.errors import ExperimentError
from repro.equivalence.events import equivalence_window
from repro.graphs.frozen import GraphBackend
from repro.rng import substream
from repro.runner import TrialSpec, TrialStore, run_trials, trial_ref
from repro.search.algorithms.base import SearchAlgorithm
from repro.search.algorithms.omniscient import OmniscientWindowSearch
from repro.search.metrics import (
    SearchCostSummary,
    SearchResult,
    summarize_results,
)

__all__ = [
    "AlgorithmFactory",
    "MODES",
    "trajectory_seeds",
    "constant_factory",
    "omniscient_factory",
    "CostMeasurement",
    "measure_search_cost",
    "ScalingMeasurement",
    "measure_scaling",
]

AlgorithmFactory = Callable[[GraphBackend, int], SearchAlgorithm]

#: Valid values of the ``mode`` scaling-sweep parameter.
MODES = ("independent", "trajectory")

#: Substream salt decorrelating per-realisation trajectory seeds from
#: the per-size cell seeds the independent mode derives.
_TRAJECTORY_STREAM = 0x7452414A


def trajectory_seeds(seed: int, num_graphs: int) -> List[int]:
    """One decorrelated seed per coupled realisation of a sweep.

    Trajectory-mode sweeps (and any experiment dispatching trajectory
    trials directly) derive their per-realisation seeds here, so the
    checkpoint at size ``n`` of realisation ``g`` is bit-identical to
    an independent build of size ``n`` with seed
    ``trajectory_seeds(seed, ...)[g]``.
    """
    root = substream(seed, _TRAJECTORY_STREAM)
    return [substream(root, index) for index in range(num_graphs)]


def constant_factory(algorithm: SearchAlgorithm) -> AlgorithmFactory:
    """Wrap an instance-independent algorithm as a factory."""

    def factory(graph: GraphBackend, target: int) -> SearchAlgorithm:
        return algorithm

    return factory


def omniscient_factory() -> AlgorithmFactory:
    """Factory for the Lemma-1 omniscient window baseline.

    The window is the theorem's ``[[target, b]]`` with
    ``b = (target - 1) + ⌊√(target - 2)⌋``, clipped to the graph:
    ``range(target, min(b, n) + 1)`` enumerates exactly the members of
    ``[[target, b]]`` that exist among vertices ``1 .. n`` (both ends
    inclusive).  For the theorem target the clip never engages
    (``theorem_target_for_size`` guarantees ``b <= n``); for
    user-supplied targets near ``n`` it truncates at vertex ``n``
    itself, degenerating to the single-member window ``[[n, n]]`` at
    ``target = n`` — pinned exactly by
    ``tests/test_core.py::TestOmniscientWindowClip``.
    """

    def factory(graph: GraphBackend, target: int) -> SearchAlgorithm:
        _, b = equivalence_window(target)
        window = range(target, min(b, graph.num_vertices) + 1)
        return OmniscientWindowSearch(graph, list(window))

    return factory


@dataclass
class CostMeasurement:
    """Summaries per algorithm for one (family, size) cell.

    Attributes
    ----------
    family_name, size:
        The configuration measured.
    summaries:
        Algorithm name -> aggregated cost summary.
    results:
        Algorithm name -> raw per-run results (kept for bootstrap or
        distribution plots).
    """

    family_name: str
    size: int
    summaries: Dict[str, SearchCostSummary] = field(default_factory=dict)
    results: Dict[str, List[SearchResult]] = field(default_factory=dict)


def _graph_values(
    trial: Callable[..., Any],
    graphs: Sequence[Tuple[Dict[str, Any], int]],
    family: GraphFamily,
    factories: Union[str, Dict[str, AlgorithmFactory]],
    jobs: int,
    store: Optional[TrialStore],
    experiment_id: str,
) -> List[Any]:
    """The value of ``trial`` for every ``(params, seed)`` realisation.

    A named portfolio dispatches one runner spec per realisation, with
    the family spec and the portfolio name added to ``params``, so
    ``jobs`` workers and a result ``store`` apply.  A factory dict
    calls the same trial in-process with the family object and the
    closures themselves, on the same seeds: both paths run one
    per-graph body and differ only in where it runs.
    """
    if not isinstance(factories, str):
        return [
            trial(family=family, portfolio=factories, seed=seed, **params)
            for params, seed in graphs
        ]
    reference = trial_ref(trial)
    shared = {"family": family_spec(family), "portfolio": factories}
    specs = [
        TrialSpec(
            experiment_id=experiment_id,
            trial=reference,
            params={**shared, **params},
            seed=seed,
        )
        for params, seed in graphs
    ]
    return [
        outcome.value
        for outcome in run_trials(specs, jobs=jobs, store=store)
    ]


def _fold_cell(
    family: GraphFamily, size: int, values: Sequence[Dict]
) -> CostMeasurement:
    """Aggregate per-graph portfolio values into a cell measurement."""
    measurement = CostMeasurement(family_name=family.name, size=size)
    collected: Dict[str, List[SearchResult]] = {}
    for value in values:
        for name, runs in value.items():
            collected.setdefault(name, []).extend(
                result_from_dict(run) for run in runs
            )
    for name, results in collected.items():
        measurement.results[name] = results
        measurement.summaries[name] = summarize_results(results)
    return measurement


def _cost_cells(
    family: GraphFamily,
    cells: Sequence[Tuple[int, int]],
    factories: Union[str, Dict[str, AlgorithmFactory]],
    num_graphs: int,
    grid: Dict[str, Any],
    jobs: int,
    store: Optional[TrialStore],
    experiment_id: str,
) -> List[CostMeasurement]:
    """One measurement per ``(size, cell seed)`` of independent builds.

    Realisation ``g`` of a cell is built from ``substream(cell seed,
    g)``.  Every realisation of every cell goes out in one batch, so
    ``jobs`` workers stay busy across size cells.
    """
    graphs = [
        ({"size": size, **grid}, substream(cell_seed, graph_index))
        for size, cell_seed in cells
        for graph_index in range(num_graphs)
    ]
    values = _graph_values(
        search_cost_graph_trial,
        graphs,
        family,
        factories,
        jobs,
        store,
        experiment_id,
    )
    return [
        _fold_cell(
            family,
            size,
            values[index * num_graphs:(index + 1) * num_graphs],
        )
        for index, (size, _) in enumerate(cells)
    ]


def _validate_request(
    factories: Union[str, Dict[str, AlgorithmFactory]],
    num_graphs: int,
    runs_per_graph: int,
    start_rule: str,
    jobs: int,
    store: Optional[TrialStore],
) -> None:
    """The argument checks :func:`measure_search_cost` and
    :func:`measure_scaling` share."""
    if num_graphs < 1 or runs_per_graph < 1:
        raise ExperimentError(
            "num_graphs and runs_per_graph must be >= 1, got "
            f"{num_graphs}, {runs_per_graph}"
        )
    if start_rule not in ("default", "random", "newest-other"):
        raise ExperimentError(
            f"unknown start_rule {start_rule!r}"
        )
    if not isinstance(factories, str) and (
        jobs != 1 or store is not None
    ):
        raise ExperimentError(
            "jobs/store require a named portfolio (factory dicts hold "
            "closures and cannot be dispatched to workers); pass a "
            "portfolio name from repro.core.trials.PORTFOLIOS"
        )


def measure_search_cost(
    family: GraphFamily,
    size: int,
    factories: Union[str, Dict[str, AlgorithmFactory]],
    num_graphs: int = 5,
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    seed: int = 0,
    neighbor_success: bool = False,
    start_rule: str = "default",
    jobs: int = 1,
    store: Optional[TrialStore] = None,
    experiment_id: str = "adhoc",
) -> CostMeasurement:
    """Estimate expected request counts on ``family`` at ``size``.

    Each of the ``num_graphs`` realisations is searched
    ``runs_per_graph`` times by every algorithm (fresh algorithm RNG
    per run, same instance across algorithms, so comparisons are
    paired).  The target follows the family's theorem-faithful rule;
    ``start_rule`` selects the initially discovered vertex:

    * ``'default'`` — the family's choice (vertex 1, the hub-adjacent
      oldest vertex — the searcher-favourable case);
    * ``'random'`` — a uniform vertex different from the target,
      drawn per graph (the paper's "starting from any vertex");
    * ``'newest-other'`` — the vertex just below the equivalence
      window (a young, peripheral start).

    ``factories`` may be a portfolio *name* (see
    :func:`repro.core.trials.portfolio_factories`): named portfolios
    dispatch one trial per graph realisation through the runner, so
    ``jobs`` workers and a result ``store`` apply.  Explicit factory
    dicts (closures) cannot cross process boundaries; they run the
    same trial function serially in-process, so both paths produce
    identical numbers for the same portfolio.  This is the one-size
    case of :func:`measure_scaling`'s independent grid.

    Each realisation is searched as a read-optimised
    :class:`~repro.graphs.frozen.FrozenGraph` snapshot; graphs build
    and cells run on the kernels
    :func:`repro.core.trials.resolve_kernels` picks.  Like
    ``jobs``/``store`` none of this changes a number, only wall-clock
    time.
    """
    _validate_request(
        factories, num_graphs, runs_per_graph, start_rule, jobs, store
    )
    grid = {
        "runs_per_graph": runs_per_graph,
        "budget": budget,
        "neighbor_success": neighbor_success,
        "start_rule": start_rule,
    }
    (cell,) = _cost_cells(
        family,
        [(size, seed)],
        factories,
        num_graphs,
        grid,
        jobs,
        store,
        experiment_id,
    )
    return cell


@dataclass
class ScalingMeasurement:
    """Cost measurements across a size sweep, with exponent fits.

    Attributes
    ----------
    family_name:
        The family swept.
    sizes:
        The sweep grid.
    cells:
        Size -> :class:`CostMeasurement`.
    """

    family_name: str
    sizes: List[int]
    cells: Dict[int, CostMeasurement] = field(default_factory=dict)

    def mean_requests(self, algorithm: str) -> List[float]:
        """Mean request counts of ``algorithm`` along the size sweep."""
        return [
            self.cells[size].summaries[algorithm].mean_requests
            for size in self.sizes
        ]

    def median_requests(self, algorithm: str) -> List[float]:
        """Median request counts — robust to heavy-tailed run costs."""
        return [
            self.cells[size].summaries[algorithm].median_requests
            for size in self.sizes
        ]

    def fitted_exponent(
        self, algorithm: str, statistic: str = "mean"
    ) -> float:
        """Empirical scaling exponent of ``algorithm``'s cost.

        ``statistic`` selects the per-size aggregate to fit: ``'mean'``
        (the paper's expected-cost measure, default) or ``'median'``
        (robust when the cost distribution is heavy-tailed, as for
        degree-greedy search on configuration graphs in E7).
        """
        from repro.analysis.scaling import fit_power_scaling

        if statistic == "mean":
            values = self.mean_requests(algorithm)
        elif statistic == "median":
            values = self.median_requests(algorithm)
        else:
            raise ExperimentError(
                f"unknown statistic {statistic!r} "
                "(expected 'mean' or 'median')"
            )
        # A zero aggregate (instant success at a tiny size) would break
        # the log fit; clamp to one request.
        values = [max(v, 1.0) for v in values]
        return fit_power_scaling(
            [float(s) for s in self.sizes], values
        ).exponent


def measure_scaling(
    family: GraphFamily,
    sizes: Sequence[int],
    factories: Union[str, Dict[str, AlgorithmFactory]],
    num_graphs: int = 5,
    runs_per_graph: int = 2,
    seed: int = 0,
    neighbor_success: bool = False,
    start_rule: str = "default",
    jobs: int = 1,
    store: Optional[TrialStore] = None,
    experiment_id: str = "adhoc",
    mode: str = "independent",
) -> ScalingMeasurement:
    """Run :func:`measure_search_cost` across a size grid.

    The *entire* grid — every (size, graph) realisation — goes out in
    one batch, so for a named portfolio ``jobs`` workers stay busy
    across size cells rather than draining one cell at a time.
    Per-cell seeds are ``substream(seed, size_index)``, so the batch is
    numerically identical to a per-size loop.

    ``mode`` selects how the per-size realisations relate:

    * ``'independent'`` (default) — every (size, graph) cell evolves a
      fresh realisation from scratch, exactly as before (all existing
      pins and result-store entries keep replaying);
    * ``'trajectory'`` — each of the ``num_graphs`` realisations is
      evolved **once** to ``max(sizes)`` and checkpoint-snapshotted at
      every grid size, so the whole sweep pays one construction pass
      per realisation instead of ``Σ nᵢ`` work.  Checkpoint snapshots
      are bit-identical to independent same-seed builds, so each size
      cell is a faithful sample of the same per-size distribution; the
      sizes of one realisation are *coupled* (prefixes of one growth
      process — the regime of searches along an evolving network),
      which is also what makes the mode a pure wall-clock win.
      Requires a prefix-stable family (the evolving models; the
      configuration model is rejected).
    """
    ordered = sorted(set(sizes))
    if len(ordered) < 2:
        raise ExperimentError(
            f"need at least 2 sizes for a scaling sweep, got {ordered}"
        )
    _validate_request(
        factories, num_graphs, runs_per_graph, start_rule, jobs, store
    )
    if mode not in MODES:
        raise ExperimentError(
            f"unknown mode {mode!r}; valid: {', '.join(MODES)}"
        )
    measurement = ScalingMeasurement(
        family_name=family.name, sizes=ordered
    )
    grid = {
        "runs_per_graph": runs_per_graph,
        "budget": None,
        "neighbor_success": neighbor_success,
        "start_rule": start_rule,
    }

    if mode == "independent":
        cells = _cost_cells(
            family,
            [
                (size, substream(seed, index))
                for index, size in enumerate(ordered)
            ],
            factories,
            num_graphs,
            grid,
            jobs,
            store,
            experiment_id,
        )
        measurement.cells = dict(zip(ordered, cells))
        return measurement

    graphs = [
        ({"sizes": ordered, **grid}, graph_seed)
        for graph_seed in trajectory_seeds(seed, num_graphs)
    ]
    values = _graph_values(
        trajectory_scaling_trial,
        graphs,
        family,
        factories,
        jobs,
        store,
        experiment_id,
    )
    for size in ordered:
        measurement.cells[size] = _fold_cell(
            family, size, [value[str(size)] for value in values]
        )
    return measurement
