"""Outside-in layer tracing: a span recorder around each layer's public calls.

The benchmark times the program from its own files: for a traced
invocation it replaces every module-level binding of each function in
:data:`TARGETS` (in every loaded ``repro.*`` module), each method in
:data:`TARGETS` on its class, and each registered experiment's ``run``
with a wrapper that records a span.  Spans nest by call order on the
one thread the battery runs on, so a span's *self* time is its
duration minus the time its child spans cover, and the self times of
all spans add up exactly to the duration of the top-level spans.
Whatever the top-level spans do not cover -- ``run_all`` bookkeeping,
interpreter teardown -- is reported as ``unattributed_s``.

Engine internals are reached through ``sys.modules`` (the battery has
already imported them), never imported here.  A target that no longer
exists is reported absent; untraced runs never touch this module's
wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from suite import repro_modules


@dataclass(frozen=True)
class Target:
    """One wrapped public call: ``name`` is ``func`` or ``Class.method``."""

    layer: str
    module: str
    name: str


_VECTOR = "repro.engine.vector"

#: The wrapped calls, grouped into layers (span names).
TARGETS: Tuple[Target, ...] = (
    Target("workloads", "repro.workloads.generator", "generate_program"),
    Target("engine.tracer", "repro.engine.tracer", "trace_branches"),
    Target("engine.columnar", "repro.engine.columnar", "lower_trace"),
    Target("engine.measure", "repro.engine.measure", "measure"),
    Target("engine.measure", "repro.engine.measure", "measure_bank"),
    *(
        Target("engine.vector", _VECTOR, name)
        for name in (
            "predict_columns",
            "estimator_flags",
            "fallback_flags",
            "jrs_value_counts",
            "distance_value_counts",
            "misestimation_pairs",
            "boosting_counts",
            "confident_sites_vector",
        )
    ),
    Target("engine.cache.load", "repro.engine.cache", "ArtifactCache.load"),
    Target("engine.cache.store", "repro.engine.cache", "ArtifactCache.store"),
    Target("pipeline.decode", "repro.pipeline.decode", "decode_program"),
    # split by concrete simulator class into pipeline.run.<kind>
    Target("pipeline.run", "repro.pipeline.core", "PipelineSimulator.run"),
    Target("pipeline.records", "repro.pipeline.records", "BranchRecordStore.materialize"),
    Target("analysis.distance", "repro.analysis.distance", "precise_distance_curve"),
    Target("analysis.distance", "repro.analysis.distance", "perceived_distance_curve"),
    Target("analysis.sweeps", "repro.analysis.sweeps", "jrs_value_histogram"),
    Target("analysis.sweeps", "repro.analysis.sweeps", "distance_value_histogram"),
    Target("analysis.clustering", "repro.analysis.clustering", "measure_boosting"),
    Target("analysis.clustering", "repro.analysis.clustering", "misestimation_distance"),
    Target("speculation", "repro.speculation.gating", "compare_gating"),
    Target("speculation", "repro.speculation.dualpath", "compare_eager_execution"),
    Target("speculation", "repro.speculation.inversion", "evaluate_inversion"),
    Target("harness.render", "repro.harness.runner", "render_report"),
)

#: Span name of every registered experiment's ``SPECS[id].run``.
EXPERIMENT_LAYER = "harness.experiment"

#: Concrete simulator classes, most specific first (module, class, kind);
#: anything else is the in-order base simulator.
PIPELINE_KINDS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.speculation.gating", "GatedPipelineSimulator", "gated"),
    ("repro.speculation.dualpath", "EagerPipelineSimulator", "eager"),
    ("repro.pipeline.ooo", "OutOfOrderSimulator", "ooo"),
)
KINDS = ("inorder", "gated", "eager", "ooo")

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
LAYERS: Tuple[str, ...] = (
    "workloads",
    "engine.tracer",
    "engine.columnar",
    "engine.measure",
    "engine.vector",
    "engine.cache.load",
    "engine.cache.store",
    "pipeline.decode",
    *(f"pipeline.run.{kind}" for kind in KINDS),
    "pipeline.records",
    "analysis.distance",
    "analysis.sweeps",
    "analysis.clustering",
    "speculation",
    EXPERIMENT_LAYER,
    "harness.render",
)

#: Registry counters a traced invocation reports (metric names of
#: repro.engine.measure) for the ratios below.
COUNTERS = (
    "session.passes_saved",
    "session.bank_passes",
    "sim.vector_branches",
    "sim.scalar_fallback_branches",
)

MB = 1 << 20


def metric_definitions() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [
        ("engine.tracer.branches", "count", "lower"),
        ("engine.measure.passes_saved_ratio", "ratio", "higher"),
        ("engine.vector.vector_share", "ratio", "higher"),
        ("engine.cache.read_mb", "MB", "lower"),
        ("engine.cache.hit_ratio", "ratio", "higher"),
        ("engine.cache.write_mb", "MB", "lower"),
    ]
    for kind in KINDS:
        prefix = f"pipeline.run.{kind}"
        out += [
            (f"{prefix}.branches", "count", "lower"),
            (f"{prefix}.branches_per_s", "1/s", "higher"),
            (f"{prefix}.cycles", "count", "lower"),
            (f"{prefix}.useful_ratio", "ratio", "higher"),
        ]
    out += [
        ("traced_wall_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
        ("trace_overhead", "ratio", "lower"),
    ]
    return out


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class SpanRecorder:
    """In-memory span stack: ``spans[i] = [name, parent, start, end, counts]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        probe: Optional["_Probe"] = None,
    ) -> Callable:
        """``fn`` recording one span per call (named by ``probe`` if any)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = probe.before(args) if probe is not None else None
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = start
                stack.pop()
            if probe is not None:
                span[0], span[4] = probe.after(before, args, result)
            return result

        return traced

    def as_json(self) -> List[dict]:
        return [
            {"name": name, "parent": parent, "start": start, "end": end, "counts": counts}
            for name, parent, start, end, counts in self.spans
        ]


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def top_level_seconds(spans: Sequence[dict]) -> float:
    return sum(span["end"] - span["start"] for span in spans if span["parent"] < 0)


# ----------------------------------------------------------------------
# probes: counts taken at the same boundaries as the spans
# ----------------------------------------------------------------------


class _Probe:
    def __init__(self, name: str) -> None:
        self.name = name

    def before(self, args):
        return None

    def after(self, before, args, result) -> Tuple[str, Optional[dict]]:
        return self.name, None


class _TraceProbe(_Probe):
    def after(self, before, args, result):
        return self.name, {"branches": result.stats.branches}


class _CacheLoadProbe(_Probe):
    def after(self, before, args, result):
        cache, key = args[0], args[1]
        hit = bool(result[0])
        size = cache.path_for(key).stat().st_size if hit else 0
        return self.name, {"hits": int(hit), "lookups": 1, "bytes": size}


class _CacheStoreProbe(_Probe):
    def after(self, before, args, result):
        cache, key = args[0], args[1]
        path = cache.path_for(key)
        size = path.stat().st_size if path.exists() else 0
        return self.name, {"bytes": size}


class _PipelineProbe(_Probe):
    _FIELDS = ("fetched_branches", "cycles", "committed_instructions", "squashed_instructions")

    def __init__(self, name: str, kinds: Sequence[Tuple[type, str]]) -> None:
        super().__init__(name)
        self.kinds = kinds

    def before(self, args):
        stats = args[0].stats
        return [getattr(stats, field) for field in self._FIELDS]

    def after(self, before, args, result):
        simulator = args[0]
        kind = next(
            (kind for cls, kind in self.kinds if isinstance(simulator, cls)), "inorder"
        )
        stats = simulator.stats
        branches, cycles, committed, squashed = (
            getattr(stats, field) - start for field, start in zip(self._FIELDS, before)
        )
        return f"{self.name}.{kind}", {
            "branches": branches,
            "cycles": cycles,
            "committed": committed,
            "squashed": squashed,
        }


def _probe_for(target: Target) -> Optional[_Probe]:
    if target.name == "trace_branches":
        return _TraceProbe(target.layer)
    if target.name == "ArtifactCache.load":
        return _CacheLoadProbe(target.layer)
    if target.name == "ArtifactCache.store":
        return _CacheStoreProbe(target.layer)
    if target.name == "PipelineSimulator.run":
        kinds = [
            (getattr(sys.modules[module], cls), kind)
            for module, cls, kind in PIPELINE_KINDS
            if hasattr(sys.modules.get(module), cls)
        ]
        return _PipelineProbe(target.layer, kinds)
    return None


# ----------------------------------------------------------------------
# installing and removing the wrappers
# ----------------------------------------------------------------------


class Installation:
    """What :func:`install` replaced, so :func:`remove` can put it back."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[Callable, object, str, object]] = []
        self.absent: List[str] = []

    def set(self, setter: Callable, owner: object, attr: str, original: object, new) -> None:
        setter(owner, attr, new)
        self.replaced.append((setter, owner, attr, original))


def _rebind_everywhere(
    installation: Installation, modules: Iterable, original: object, wrapper: Callable
) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                installation.set(setattr, module, attr, original, wrapper)


def install(recorder: SpanRecorder, targets: Sequence[Target] = TARGETS) -> Installation:
    """Wrap every target (and every ``SPECS[id].run``) with ``recorder``."""
    installation = Installation()
    modules = repro_modules()
    for target in targets:
        module = sys.modules.get(target.module)
        owner_name, _, attr = target.name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            installation.absent.append(f"{target.module}.{target.name}")
            continue
        original = vars(owner)[attr]
        wrapper = recorder.wrap(original, target.layer, _probe_for(target))
        if owner_name:
            installation.set(setattr, owner, attr, original, wrapper)
        else:
            _rebind_everywhere(installation, modules, original, wrapper)
    specs = getattr(sys.modules.get("repro.harness.spec"), "SPECS", None)
    if specs is None:
        installation.absent.append("repro.harness.spec.SPECS")
        return installation
    for spec in specs.values():
        original = spec.run
        wrapper = recorder.wrap(original, EXPERIMENT_LAYER)
        # ExperimentSpec is frozen; the registry hands out this object
        installation.set(object.__setattr__, spec, "run", original, wrapper)
        _rebind_everywhere(installation, modules, original, wrapper)
    return installation


def remove(installation: Installation) -> None:
    """Restore every binding :func:`install` replaced, newest first."""
    for setter, owner, attr, original in reversed(installation.replaced):
        setter(owner, attr, original)
    installation.replaced.clear()


# ----------------------------------------------------------------------
# per-layer metrics of one traced invocation
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[dict], wall_s: float, counters: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics (all but ``trace_overhead``) of one invocation.

    ``wall_s`` is the traced invocation's wall time and ``counters``
    the registry deltas of :data:`COUNTERS` over its run.
    """
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    own: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    totals: Dict[str, Dict[str, float]] = {}
    for span, seconds in zip(spans, self_times(spans)):
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + seconds
        for key, value in (span["counts"] or {}).items():
            bucket = totals.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = own[layer]
    load = totals.get("engine.cache.load", {})
    metrics.update(
        {
            "engine.tracer.branches": totals.get("engine.tracer", {}).get("branches", 0),
            "engine.measure.passes_saved_ratio": _ratio(
                counters.get("session.passes_saved", 0.0),
                counters.get("session.bank_passes", 0.0),
            ),
            "engine.vector.vector_share": _ratio(
                counters.get("sim.vector_branches", 0.0),
                counters.get("sim.vector_branches", 0.0)
                + counters.get("sim.scalar_fallback_branches", 0.0),
            ),
            "engine.cache.read_mb": load.get("bytes", 0) / MB,
            "engine.cache.hit_ratio": _ratio(load.get("hits", 0), load.get("lookups", 0)),
            "engine.cache.write_mb": totals.get("engine.cache.store", {}).get("bytes", 0) / MB,
        }
    )
    for kind in KINDS:
        prefix = f"pipeline.run.{kind}"
        run = totals.get(prefix, {})
        branches = run.get("branches", 0)
        metrics[f"{prefix}.branches"] = branches
        metrics[f"{prefix}.branches_per_s"] = _ratio(branches, own[prefix])
        metrics[f"{prefix}.cycles"] = run.get("cycles", 0)
        metrics[f"{prefix}.useful_ratio"] = _ratio(
            run.get("committed", 0), run.get("committed", 0) + run.get("squashed", 0)
        )
    metrics["traced_wall_s"] = wall_s
    metrics["unattributed_s"] = wall_s - top_level_seconds(spans)
    return metrics
