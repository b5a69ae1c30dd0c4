"""Declarative experiment registry and the unified execution context.

Before this module, every experiment function re-declared and
re-plumbed the same execution axes by hand — ``jobs``, ``cache_dir``,
``mode`` — and the CLI re-discovered them per
function with ``inspect.signature`` plus bespoke warning branches.
Adding an axis meant signature surgery on a dozen functions; adding an
experiment meant copying the whole kwargs trellis.

The registry replaces that with three declarative pieces:

* :class:`Param` — one typed experiment parameter (name, CLI coercion
  rule, default).  The types double as the ``repro run --set
  key=value`` parsers, so *every* experiment gets generic typed
  overrides for free.
* :class:`ExperimentSpec` — one experiment: id, title, its param
  schema, and the **capabilities** it declares from
  :data:`CAPABILITIES` (``jobs``, ``cache``, ``mode``, ``store``).
  Capabilities are data, not signatures: the CLI derives
  its capability matrix and its "flag has no effect" warnings from
  them, and a new axis lands in exactly one place.
* :class:`ExecutionContext` — the resolved execution axes carried
  *once* per run.  Bodies receive it as their first argument and ask
  it to dispatch work (:meth:`ExecutionContext.run_trials`,
  :meth:`ExecutionContext.measure_scaling`) instead of forwarding
  five copy-pasted kwargs to every call.

An experiment is declared once, with :meth:`Registry.register`: the
spec builds the result header (id, title, resolved params) and the
decorator returns the public ``e1_mori_weak(...)``-style function,
generated from the declaration — its signature lists the declared
params, then the declared capability parameters, with their declared
defaults — so schema, header and public signature cannot drift.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.results import ExperimentResult
from repro.errors import ExperimentError
from repro.runner import (
    STORE_BACKENDS,
    TrialSpec,
    TrialStore,
    run_trials,
    store_for,
)

__all__ = [
    "CAPABILITIES",
    "CAPABILITY_PARAMS",
    "ParamType",
    "INT",
    "FLOAT",
    "STR",
    "INT_TUPLE",
    "FLOAT_TUPLE",
    "Param",
    "ExecutionContext",
    "ExperimentSpec",
    "Registry",
    "REGISTRY",
    "run_experiment",
]

#: The execution axes an experiment may declare, in canonical order
#: (also the order their keyword parameters appear in public functions).
CAPABILITIES = ("jobs", "cache", "mode", "store")

#: Capability -> (public keyword parameter, default value).  ``cache``
#: surfaces as ``cache_dir`` because the public unit is a directory;
#: the context resolves it to a :class:`TrialStore` exactly once.
#: ``store`` surfaces as ``store_backend``; its ``None`` default means
#: "auto" (the ``REPRO_STORE_BACKEND`` environment variable, else
#: ``json-files``) so a whole run — or a whole CI leg — can be
#: switched without threading the choice through every call.  The
#: search engine and graph generator are not axes: the trial layer
#: picks them (:func:`repro.core.trials.resolve_kernels`).  Nor is the
#: graph form: searches always run on a frozen CSR snapshot.
CAPABILITY_PARAMS = {
    "jobs": ("jobs", 1),
    "cache": ("cache_dir", None),
    "mode": ("mode", "independent"),
    "store": ("store_backend", None),
}


@dataclass(frozen=True)
class ParamType:
    """A CLI-facing parameter type: a label plus a text parser.

    ``parse`` turns the ``value`` half of ``--set key=value`` into the
    Python value an experiment body receives; ``label`` names the type
    in error messages and the ``repro list`` schema column.
    """

    label: str
    parse: Callable[[str], Any]


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_int_tuple(text: str) -> Tuple[int, ...]:
    return tuple(
        int(token, 10) for token in text.split(",") if token.strip()
    )


def _parse_float_tuple(text: str) -> Tuple[float, ...]:
    return tuple(
        float(token) for token in text.split(",") if token.strip()
    )


INT = ParamType("int", _parse_int)
FLOAT = ParamType("float", float)
STR = ParamType("str", str)
INT_TUPLE = ParamType("ints", _parse_int_tuple)
FLOAT_TUPLE = ParamType("floats", _parse_float_tuple)

#: Parameter types whose values a result header records as lists.
_SEQUENCE_TYPES = (INT_TUPLE, FLOAT_TUPLE)


@dataclass(frozen=True)
class Param:
    """One declared experiment parameter: name, type, default."""

    name: str
    type: ParamType
    default: Any
    doc: str = ""

    def coerce(self, text: str) -> Any:
        """Parse a ``--set`` value for this parameter."""
        try:
            return self.type.parse(text)
        except (ValueError, TypeError):
            raise ExperimentError(
                f"cannot parse {text!r} as {self.type.label} for "
                f"parameter {self.name!r}"
            ) from None


@dataclass(frozen=True)
class ExecutionContext:
    """The resolved execution axes of one experiment run.

    Carries ``jobs``/``store``/``mode`` (and the owning
    ``experiment_id``) exactly once, resolved from the declared
    capability defaults plus any caller overrides.  Experiment bodies
    dispatch through the helper methods instead of re-plumbing the
    axes into every call, so an axis added here reaches every
    experiment at once.
    """

    experiment_id: str = "adhoc"
    jobs: int = 1
    store: Optional[TrialStore] = None
    mode: str = "independent"

    def run_trials(self, specs: Sequence[TrialSpec]) -> list:
        """Dispatch trial specs through the runner with this context's
        worker fan-out and result store."""
        return run_trials(specs, jobs=self.jobs, store=self.store)

    def measure_scaling(self, family, sizes, factories, **kwargs):
        """A size sweep through this context's execution axes.

        Delegates to :func:`repro.core.searchability.measure_scaling`
        with ``jobs``/``store``/``mode`` and the
        experiment id filled in from the context (callers may still
        override ``mode`` explicitly, as E19 does to pin its subject).
        """
        from repro.core.searchability import measure_scaling

        kwargs.setdefault("mode", self.mode)
        return measure_scaling(
            family,
            sizes,
            factories,
            jobs=self.jobs,
            store=self.store,
            experiment_id=self.experiment_id,
            **kwargs,
        )


def _validated_context_values(
    capabilities: Mapping[str, Any], values: Dict[str, Any]
) -> Dict[str, Any]:
    """Resolve capability overrides against declared defaults.

    ``values`` maps capability -> requested value or ``None`` (not
    given).  Requesting a value for an undeclared capability is an
    error here — the CLI warns *before* reaching this point, so an
    error arriving from the Python API is a genuine caller bug.
    """
    resolved: Dict[str, Any] = {}
    for capability, requested in values.items():
        declared = capability in capabilities
        if requested is None:
            if declared:
                resolved[capability] = capabilities[capability]
            continue
        if not declared:
            parameter = CAPABILITY_PARAMS[capability][0]
            raise ExperimentError(
                f"this experiment declares no {capability!r} "
                f"capability; the {parameter!r} argument does not "
                "apply"
            )
        resolved[capability] = requested
    return resolved


def _validate_axis_values(resolved: Dict[str, Any]) -> None:
    """Check mode/store/jobs values against their axis vocabularies."""
    from repro.core.searchability import MODES

    mode = resolved.get("mode")
    if mode is not None and mode not in MODES:
        raise ExperimentError(
            f"unknown mode {mode!r}; valid: {', '.join(MODES)}"
        )
    store_backend = resolved.get("store")
    if (
        store_backend is not None
        and store_backend not in STORE_BACKENDS
    ):
        raise ExperimentError(
            f"unknown store backend {store_backend!r}; valid: "
            f"{', '.join(STORE_BACKENDS)}"
        )
    jobs = resolved.get("jobs")
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise ExperimentError(f"jobs must be an int >= 1, got {jobs!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: schema, capabilities, and body.

    ``capabilities`` maps declared capability names (a subset of
    :data:`CAPABILITIES`) to their *default* values — e.g. E19 declares
    ``mode`` with default ``'trajectory'`` because coupled trajectories
    are its subject.  ``body`` is called as ``body(ctx, result,
    **params)``: :meth:`run` creates the
    :class:`~repro.core.results.ExperimentResult` header from the spec
    and the body fills in its tables and derived values.  ``function``
    is the public callable generated from the declaration (see
    :meth:`Registry.register`).
    """

    id: str
    title: str
    params: Tuple[Param, ...]
    capabilities: Mapping[str, Any]
    body: Callable[..., Any]
    function: Callable[..., Any] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _public_function(self))

    @property
    def param_names(self) -> Tuple[str, ...]:
        """Declared parameter names, in declaration order."""
        return tuple(param.name for param in self.params)

    def param(self, name: str) -> Param:
        """The declared :class:`Param` called ``name``."""
        for param in self.params:
            if param.name == name:
                return param
        raise ExperimentError(
            f"{self.id} takes no parameter {name!r}; valid: "
            f"{', '.join(self.param_names) or '(none)'}"
        )

    def default_params(self) -> Dict[str, Any]:
        """Name -> default for every declared parameter."""
        return {param.name: param.default for param in self.params}

    def make_context(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        mode: Optional[str] = None,
        store_backend: Optional[str] = None,
    ) -> ExecutionContext:
        """Resolve execution-axis overrides into an :class:`ExecutionContext`.

        ``None`` means "not requested": declared capabilities fall back
        to their declared defaults, undeclared ones to the context
        defaults.  A non-``None`` value for an undeclared capability
        raises (the CLI filters those into warnings first).
        """
        resolved = _validated_context_values(
            self.capabilities,
            {
                "jobs": jobs,
                "cache": cache_dir,
                "mode": mode,
                "store": store_backend,
            },
        )
        _validate_axis_values(resolved)
        kwargs: Dict[str, Any] = {"experiment_id": self.id}
        if "jobs" in resolved:
            kwargs["jobs"] = resolved["jobs"]
        if "cache" in resolved:
            kwargs["store"] = store_for(
                resolved["cache"], resolved.get("store")
            )
        if "mode" in resolved:
            kwargs["mode"] = resolved["mode"]
        return ExecutionContext(**kwargs)

    def resolve_params(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Merge ``overrides`` into the declared defaults, validated."""
        merged = self.default_params()
        for name, value in dict(overrides or {}).items():
            self.param(name)  # raises on unknown names
            merged[name] = value
        return merged

    def run(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        mode: Optional[str] = None,
        store_backend: Optional[str] = None,
    ):
        """Execute the experiment body with resolved params + context.

        The result's header comes from the spec: ``experiment_id`` and
        ``title`` are the spec's, ``params`` the resolved parameters
        (sequence values as lists).  The body fills in the rest.
        """
        params = self.resolve_params(overrides)
        context = self.make_context(
            jobs=jobs,
            cache_dir=cache_dir,
            mode=mode,
            store_backend=store_backend,
        )
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            params={
                param.name: (
                    list(params[param.name])
                    if param.type in _SEQUENCE_TYPES
                    else params[param.name]
                )
                for param in self.params
            },
        )
        self.body(context, result, **params)
        return result

    def call(self, kwargs: Dict[str, Any]):
        """Run from flat keyword arguments: declared params mixed with
        the capability parameters (``jobs``, ``cache_dir``, ``mode``,
        ``store_backend``), split per :data:`CAPABILITY_PARAMS`."""
        params = dict(kwargs)
        context_kwargs = {
            parameter: params.pop(parameter)
            for parameter, _ in CAPABILITY_PARAMS.values()
            if parameter in params
        }
        return self.run(params, **context_kwargs)


def _public_function(spec: ExperimentSpec) -> Callable[..., Any]:
    """The public ``e<n>_...`` function generated from ``spec``.

    It keeps the body's name and docstring; its signature lists the
    declared params, then the declared capability parameters, each
    with its declared default, and binds positional and keyword
    arguments as an ordinary function does (``TypeError`` on unknown
    or surplus arguments).
    """
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    signature = inspect.Signature(
        [
            inspect.Parameter(param.name, kind, default=param.default)
            for param in spec.params
        ]
        + [
            inspect.Parameter(
                CAPABILITY_PARAMS[capability][0], kind, default=default
            )
            for capability, default in spec.capabilities.items()
        ],
        return_annotation=ExperimentResult,
    )

    def function(*args, **kwargs):
        return spec.call(signature.bind(*args, **kwargs).arguments)

    function.__name__ = spec.body.__name__
    function.__qualname__ = spec.body.__qualname__
    function.__module__ = spec.body.__module__
    function.__doc__ = spec.body.__doc__
    function.__signature__ = signature
    return function


def _normalized_capabilities(
    experiment_id: str,
    capabilities: Sequence[Union[str, Tuple[str, Any]]],
) -> Dict[str, Any]:
    """Capability declarations -> ordered ``{capability: default}``.

    Entries are either a bare capability name (axis default) or a
    ``(name, default)`` pair; the result is ordered canonically per
    :data:`CAPABILITIES` regardless of declaration order.
    """
    declared: Dict[str, Any] = {}
    for entry in capabilities:
        if isinstance(entry, str):
            name, default = entry, None
        else:
            name, default = entry
        if name not in CAPABILITY_PARAMS:
            raise ExperimentError(
                f"{experiment_id}: unknown capability {name!r}; "
                f"valid: {', '.join(CAPABILITIES)}"
            )
        if name in declared:
            raise ExperimentError(
                f"{experiment_id}: capability {name!r} declared twice"
            )
        declared[name] = (
            CAPABILITY_PARAMS[name][1] if default is None else default
        )
    return {
        name: declared[name]
        for name in CAPABILITIES
        if name in declared
    }


class Registry:
    """An ordered collection of :class:`ExperimentSpec` objects.

    The process-wide instance is :data:`REGISTRY`; tests build private
    instances to exercise the CLI against synthetic experiments.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}

    def register(
        self,
        experiment_id: str,
        *,
        title: str,
        params: Sequence[Param] = (),
        capabilities: Sequence[Union[str, Tuple[str, Any]]] = (),
    ) -> Callable[[Callable], Callable]:
        """Decorator: register a body function as an experiment spec.

        Validates at import time that the body's keyword parameters
        are exactly the declared ``params`` (after the leading context
        and result arguments), so schema and implementation cannot
        drift.  Returns the spec's generated public function, so the
        body is defined under the experiment's public name.
        """

        def decorate(body: Callable) -> Callable:
            declared = _normalized_capabilities(
                experiment_id, capabilities
            )
            spec = ExperimentSpec(
                id=experiment_id,
                title=title,
                params=tuple(params),
                capabilities=declared,
                body=body,
            )
            names = spec.param_names
            if len(set(names)) != len(names):
                raise ExperimentError(
                    f"{experiment_id}: duplicate parameter names"
                )
            reserved = {
                CAPABILITY_PARAMS[c][0] for c in CAPABILITY_PARAMS
            }
            clash = reserved.intersection(names)
            if clash:
                raise ExperimentError(
                    f"{experiment_id}: parameter names "
                    f"{sorted(clash)} collide with capability "
                    "parameters"
                )
            signature = inspect.signature(body)
            body_params = list(signature.parameters)
            if tuple(body_params[2:]) != names:
                raise ExperimentError(
                    f"{experiment_id}: body takes "
                    f"{body_params[2:]} but the spec declares "
                    f"{list(names)}"
                )
            self.add(spec)
            return spec.function

        return decorate

    def add(self, spec: ExperimentSpec) -> None:
        """Insert (or replace) a spec under its id."""
        self._specs[spec.id] = spec

    def get(self, experiment_id: str) -> ExperimentSpec:
        """The spec for ``experiment_id``, or a listing error."""
        try:
            return self._specs[experiment_id]
        except KeyError:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; valid: "
                f"{', '.join(self.ids())}"
            ) from None

    def ids(self) -> List[str]:
        """Registered ids in numeric order (E1, E2, ..., E20)."""
        return sorted(self._specs, key=_id_sort_key)

    def specs(self) -> List[ExperimentSpec]:
        """Registered specs in :meth:`ids` order."""
        return [self._specs[i] for i in self.ids()]

    def capability_matrix(self) -> Dict[str, Tuple[str, ...]]:
        """Id -> declared capabilities, both in canonical order."""
        return {
            spec.id: tuple(spec.capabilities) for spec in self.specs()
        }

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._specs

    def __getitem__(self, experiment_id: str) -> ExperimentSpec:
        return self.get(experiment_id)

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.specs())

    def __len__(self) -> int:
        return len(self._specs)


def _id_sort_key(experiment_id: str):
    head = experiment_id.rstrip("0123456789")
    tail = experiment_id[len(head):]
    return (head, int(tail) if tail else -1)


#: The process-wide registry; populated by importing
#: :mod:`repro.core.experiments`.
REGISTRY = Registry()


def run_experiment(experiment_id: str, **kwargs):
    """Run a registered experiment from flat keyword arguments.

    ``kwargs`` may mix declared experiment parameters with the
    capability parameters the spec declares (``jobs``, ``cache_dir``,
    ``mode``, ``store_backend``); see :meth:`ExperimentSpec.call`.
    """
    return REGISTRY.get(experiment_id).call(kwargs)
