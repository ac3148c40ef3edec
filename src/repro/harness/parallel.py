"""Resilient parallel execution of the experiment battery.

The battery is embarrassingly parallel: each experiment replays
independent workload traces through independent predictor/estimator
stacks.  This module fans ``run_all`` out over a
:class:`~concurrent.futures.ProcessPoolExecutor` in three waves:

1. **trace warm-up** -- one task per workload generates/executes the
   program and persists its branch trace in the artifact cache;
2. **heavy-artifact warm-up** -- one task per (workload, predictor)
   cell runs the pipeline simulations and standard-estimator
   measurements the selected experiments will need, again into the
   persistent cache;
3. **experiments** -- one task per experiment, which now mostly reads
   cached artifacts.

Waves 1/2 give intra-experiment (per-workload) parallelism for the
heavy experiments; wave 3 gives inter-experiment parallelism.  Workers
communicate through the content-addressed cache
(:mod:`repro.engine.cache`), so results are deterministic: the merged
output is byte-identical to a serial run, and the merge order is the
caller's selection order regardless of completion order.

Wave 3 runs under a **supervisor** that assumes workers can fail in
every way a long sweep on real hardware fails:

* every task has a wall-clock **timeout** (``REPRO_TASK_TIMEOUT`` /
  ``--task-timeout``; off by default) measured from submission -- a
  hung worker costs one timeout, not the whole battery;
* each failure is **classified** into the taxonomy ``timeout`` /
  ``crash`` / ``corrupt_artifact`` / ``retryable`` / ``fatal`` and
  journaled (``experiment_failed`` with ``classification``) and
  counted (``supervisor.failures.<class>``);
* non-fatal failures get **bounded retries** (``REPRO_TASK_RETRIES``,
  default 2) with deterministic, jitter-free exponential backoff
  (``REPRO_RETRY_BACKOFF`` * 2^(round-1) seconds) -- two identical runs
  retry on an identical schedule;
* a timeout or a broken executor triggers **pool recycling**: the hung
  workers are terminated, the pool is rebuilt, and the round's
  survivors keep their results (``pool_recycled`` journal event);
* when retries are exhausted -- or the pool cannot be (re)built at all
  -- the remaining experiments **degrade to serial** execution in the
  parent, so the battery always completes if a serial run would, with
  byte-identical merged output.

Every finished experiment is checkpointed through
:mod:`repro.harness.checkpoint` as it completes, which is what
``repro run --resume`` replays.  Fault injection for all of the above
lives in :mod:`repro.faults` (``REPRO_FAULTS``).

Workers ship back per-task deltas of the artifact-cache statistics and
the metrics registry (:mod:`repro.obs.registry`); the parent folds both
in, so throughput and cache hit-rate accounting is identical to a
serial run.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine import cache as artifact_cache
from ..engine.cache import CacheStats
from ..faults import injector as faults
from ..faults.injector import InjectedCrash
from ..obs.journal import coalesce
from ..obs.registry import REGISTRY, MetricsSnapshot
from .checkpoint import store_checkpoint
from .experiments import (
    ExperimentResult,
    Scale,
    _pipeline_result,
    _trace,
    activate_measurement_plan,
    deactivate_measurement_plan,
    measurement_cell,
    run_experiment,
)
from .shard import segment_count, warm_segment
from .spec import SPECS, ArtifactNode, measurement_plan, topological_levels
from .speculation import eager_cell, gating_cell, inversion_cell

Journal = Optional[object]  # RunJournal | NullJournal; kwarg convenience

#: ``measurement_plan`` output: per-predictor estimator-family unions.
MeasurementPlan = Tuple[Tuple[str, Tuple[str, ...]], ...]

# ----------------------------------------------------------------------
# supervisor knobs
# ----------------------------------------------------------------------

TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
RETRIES_ENV = "REPRO_TASK_RETRIES"
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

#: Additional attempts after the first failure of an experiment.
DEFAULT_RETRIES = 2
#: Base of the deterministic exponential backoff (seconds).
DEFAULT_BACKOFF_S = 0.25

#: The failure taxonomy.  Everything except ``fatal`` is retryable.
FAILURE_CLASSES = ("timeout", "crash", "corrupt_artifact", "retryable", "fatal")

# ----------------------------------------------------------------------
# graceful abort (SIGINT/SIGTERM)
# ----------------------------------------------------------------------

#: Set by the CLI's signal handler; checked at experiment boundaries.
#: A flag (not an exception) so in-flight tasks drain instead of dying
#: mid-write: every result harvested before the abort is checkpointed,
#: which is what keeps ``--resume`` consistent after an interrupt.
_ABORT = threading.Event()


class RunAborted(RuntimeError):
    """The battery was interrupted after draining in-flight work.

    ``results`` maps experiment id -> result for every experiment that
    finished (and was checkpointed) before the abort took effect.
    """

    def __init__(self, results: Optional[Dict[str, "ExperimentResult"]] = None):
        super().__init__("run aborted by signal")
        self.results: Dict[str, ExperimentResult] = dict(results or {})


def request_abort() -> None:
    """Ask the running battery to stop at the next experiment boundary."""
    _ABORT.set()


def clear_abort() -> None:
    _ABORT.clear()


def abort_requested() -> bool:
    return _ABORT.is_set()

_FATAL_TYPES = (MemoryError, KeyboardInterrupt, SystemExit)
_CORRUPT_TYPES = (pickle.UnpicklingError, EOFError)


def classify_failure(error: BaseException) -> str:
    """Place one raised worker/scheduler error in the failure taxonomy."""
    if isinstance(error, FutureTimeoutError):
        return "timeout"
    if isinstance(error, _FATAL_TYPES):
        return "fatal"
    if isinstance(error, (BrokenExecutor, InjectedCrash)):
        return "crash"
    if isinstance(error, _CORRUPT_TYPES):
        return "corrupt_artifact"
    return "retryable"


def _env_number(name: str, default, parse=float):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = parse(raw)
    except ValueError:
        print(
            f"repro: ignoring unparseable {name}={raw!r}", file=sys.stderr
        )
        return default
    return value


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _timeout_or_off(value: Optional[float]) -> Optional[float]:
    """A task timeout in seconds, or None (off) unless finite and > 0."""
    if value is None or not 0 < value < math.inf:
        return None
    return value


def task_timeout_from_env() -> Optional[float]:
    """``REPRO_TASK_TIMEOUT`` in seconds; unset, empty, unparseable or
    not a finite number > 0 disables."""
    return _timeout_or_off(_env_number(TIMEOUT_ENV, None))


def retries_from_env() -> int:
    """``REPRO_TASK_RETRIES``: an integer, so ``nan``/``inf``/``2.7`` are
    unparseable and fall back to :data:`DEFAULT_RETRIES`."""
    return max(0, _env_number(RETRIES_ENV, DEFAULT_RETRIES, int))


def backoff_from_env() -> float:
    """``REPRO_RETRY_BACKOFF`` in seconds: ``nan``/``inf`` are
    unparseable and fall back to :data:`DEFAULT_BACKOFF_S`."""
    return max(0.0, _env_number(BACKOFF_ENV, DEFAULT_BACKOFF_S, _finite_float))


WarmTask = Tuple[str, Tuple]


def _plan_families(
    selected: Sequence[str],
    measurement_families: Optional[MeasurementPlan],
) -> Dict[str, Tuple[str, ...]]:
    """Per-predictor family unions governing the measurement cells."""
    if measurement_families is None:
        measurement_families = measurement_plan(
            SPECS[eid] for eid in selected if eid in SPECS
        )
    return {
        predictor: tuple(families)
        for predictor, families in measurement_families
    }


def plan_artifact_nodes(
    selected: Sequence[str],
    scale: Scale,
    measurement_families: Optional[MeasurementPlan] = None,
) -> List[ArtifactNode]:
    """The artifact-dependency DAG ``selected`` needs at ``scale``.

    Every spec's declared :class:`~repro.harness.spec.ArtifactDep` list
    is expanded over the scale's workloads into concrete
    :class:`~repro.harness.spec.ArtifactNode` keys (the exact argument
    tuples the warm workers run), deduplicated across experiments.
    Measurement nodes carry the battery-wide per-predictor family union
    (``measurement_families``, computed from the selection when not
    given), so every consumer of a (workload, predictor) pair shares
    one estimator-bank cell.
    """
    families_by_predictor = _plan_families(selected, measurement_families)
    nodes: Dict[Tuple[str, Tuple], ArtifactNode] = {}

    def add(kind: str, args: Tuple, deps: Tuple = ()) -> Tuple[str, Tuple]:
        key = (kind, args)
        if key not in nodes:
            nodes[key] = ArtifactNode(key=key, deps=deps)
        return key

    for experiment_id in selected:
        spec = SPECS.get(experiment_id)
        if spec is None:
            continue
        for dep in spec.deps:
            for workload in scale.workloads:
                trace = add("trace", (workload, scale.iterations))
                if dep.kind == "trace":
                    continue
                if dep.kind == "pipeline":
                    # a segmented cell is a chain of dependent segment
                    # nodes (each resumes the previous snapshot), then
                    # the final run reading the last snapshot;
                    # independent cells parallelise, chains don't
                    previous: Tuple = ()
                    chain = segment_count(
                        scale.pipeline_instructions,
                        scale.segment_instructions,
                    )
                    for index in range(chain):
                        segment = add(
                            "pipeline-segment",
                            (
                                workload,
                                dep.predictor,
                                scale.iterations,
                                scale.pipeline_instructions,
                                scale.segment_instructions,
                                index,
                                scale.backend,
                            ),
                            deps=previous or (trace,),
                        )
                        previous = (segment,)
                    add(
                        "pipeline",
                        (
                            workload,
                            dep.predictor,
                            scale.iterations,
                            scale.pipeline_instructions,
                            scale.segment_instructions,
                            scale.backend,
                        ),
                        deps=(trace,) + previous,
                    )
                elif dep.kind == "measurement":
                    families = families_by_predictor.get(
                        dep.predictor, tuple(sorted(set(dep.families)))
                    )
                    add(
                        "measurement",
                        (dep.predictor, workload, scale.iterations, families),
                        deps=(trace,),
                    )
                elif dep.kind == "gating":
                    add(
                        "gating",
                        (
                            workload,
                            dep.estimator,
                            dep.threshold,
                            scale.iterations,
                            scale.pipeline_instructions,
                            scale.backend,
                        ),
                        deps=(trace,),
                    )
                elif dep.kind == "eager":
                    add(
                        "eager",
                        (
                            workload,
                            dep.estimator,
                            scale.iterations,
                            scale.pipeline_instructions,
                            scale.backend,
                        ),
                        deps=(trace,),
                    )
                elif dep.kind == "inversion":
                    add(
                        "inversion",
                        (workload, dep.estimator, scale.iterations),
                        deps=(trace,),
                    )
    return list(nodes.values())


def plan_warm_levels(
    selected: Sequence[str],
    scale: Scale,
    measurement_families: Optional[MeasurementPlan] = None,
) -> List[List[WarmTask]]:
    """The artifact warm-up schedule, one task wave per DAG level.

    A task only ever runs after every artifact it depends on exists;
    tasks within one wave are independent and run concurrently.  This
    is what keeps a segmented cell's ``pipeline-segment`` chain ordered
    (segment ``i`` sits one level below segment ``i + 1``) while
    independent (workload, predictor) cells shard across the pool.
    """
    levels = topological_levels(
        plan_artifact_nodes(selected, scale, measurement_families)
    )
    return [[node.key for node in level] for level in levels]


# ----------------------------------------------------------------------
# worker-side entry points (must be module-level for pickling)
# ----------------------------------------------------------------------


def _init_worker(cache_root: str, cache_enabled: bool) -> None:
    artifact_cache.configure(root=cache_root, enabled=cache_enabled)
    # re-read REPRO_FAULTS/REPRO_FAULTS_STATE in this process so forked
    # workers do not reuse the parent's in-memory occurrence counters
    faults.reset_active_faults()


def _task_baseline() -> Tuple[CacheStats, MetricsSnapshot]:
    return (
        artifact_cache.get_cache().stats.snapshot(),
        REGISTRY.snapshot(),
    )


def _task_deltas(
    baseline: Tuple[CacheStats, MetricsSnapshot],
) -> Tuple[CacheStats, MetricsSnapshot]:
    stats_before, metrics_before = baseline
    return (
        artifact_cache.get_cache().stats.since(stats_before),
        REGISTRY.since(metrics_before),
    )


def _warm_worker(task: WarmTask) -> Tuple[CacheStats, MetricsSnapshot, float]:
    baseline = _task_baseline()
    started = time.perf_counter()
    kind, args = task
    if kind == "trace":
        workload, iterations = args
        _trace(workload, iterations)
    elif kind == "pipeline":
        (
            workload,
            predictor,
            iterations,
            max_instructions,
            segment_instructions,
            backend,
        ) = args
        _pipeline_result(
            workload,
            predictor,
            iterations,
            max_instructions,
            segment_instructions=segment_instructions,
            backend=backend,
        )
    elif kind == "pipeline-segment":
        (
            workload,
            predictor,
            iterations,
            max_instructions,
            segment_instructions,
            segment,
            backend,
        ) = args
        warm_segment(
            workload,
            predictor,
            iterations,
            max_instructions,
            False,
            segment_instructions,
            segment,
            backend,
        )
    elif kind == "measurement":
        predictor, workload, iterations, families = args
        measurement_cell(predictor, workload, iterations, tuple(families))
    elif kind == "gating":
        gating_cell(*args)
    elif kind == "eager":
        eager_cell(*args)
    elif kind == "inversion":
        inversion_cell(*args)
    else:  # pragma: no cover - plan and worker are defined together
        raise ValueError(f"unknown warm task kind {kind!r}")
    duration = time.perf_counter() - started
    stats, metrics = _task_deltas(baseline)
    return stats, metrics, duration


def _experiment_worker(
    experiment_id: str, scale: Scale, plan: MeasurementPlan = ()
) -> Tuple[ExperimentResult, float, CacheStats, MetricsSnapshot]:
    faults.active_faults().on_experiment(experiment_id)
    activate_measurement_plan(plan)
    try:
        baseline = _task_baseline()
        started = time.perf_counter()
        result = run_experiment(experiment_id, scale)
        duration = time.perf_counter() - started
        stats, metrics = _task_deltas(baseline)
    finally:
        deactivate_measurement_plan()
    return result, duration, stats, metrics


# ----------------------------------------------------------------------
# parent-side supervisor
# ----------------------------------------------------------------------


def default_jobs(journal: Journal = None) -> int:
    """``REPRO_JOBS`` from the environment, else 1 (serial).

    An unparseable value is *not* silently swallowed: the degradation
    to serial execution is announced on stderr and, when a journal is
    active, as a ``warning`` event naming the bad value.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            message = (
                f"repro: ignoring unparseable REPRO_JOBS={raw!r};"
                " running serially (jobs=1)"
            )
            print(message, file=sys.stderr)
            coalesce(journal).emit("warning", message=message, context="REPRO_JOBS")
    return 1


def _merge_worker_state(stats: CacheStats, metrics: MetricsSnapshot) -> None:
    artifact_cache.merge_stats(stats)
    REGISTRY.merge(metrics)


def _run_serially(
    selected: Iterable[str],
    scale: Scale,
    journal: Journal = None,
    measurement_families: Optional[MeasurementPlan] = None,
) -> Dict[str, ExperimentResult]:
    journal = coalesce(journal)
    results: Dict[str, ExperimentResult] = {}
    selected = list(selected)
    if measurement_families is None:
        measurement_families = measurement_plan(
            SPECS[eid] for eid in selected if eid in SPECS
        )
    activate_measurement_plan(measurement_families)
    try:
        for experiment_id in selected:
            if _ABORT.is_set():
                raise RunAborted(results)
            journal.emit(
                "experiment_started", experiment=experiment_id, mode="serial"
            )
            started = time.perf_counter()
            with REGISTRY.timed(f"experiment.{experiment_id}"):
                # looked up per call: bench/layers.py rebinds spec.run
                result = SPECS[experiment_id].run(scale)
            result.duration_s = time.perf_counter() - started
            results[experiment_id] = result
            store_checkpoint(experiment_id, scale, result)
            journal.emit(
                "experiment_finished",
                experiment=experiment_id,
                mode="serial",
                duration_s=result.duration_s,
            )
    finally:
        deactivate_measurement_plan()
    return results


def _format_error(error: BaseException) -> Tuple[str, str]:
    """``(summary, traceback_text)`` for a raised future."""
    summary = f"{type(error).__name__}: {error}"
    trace = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    return summary, trace


class _Supervisor:
    """Round-based retrying scheduler for wave 3 (the experiments).

    One *round* submits every still-pending experiment to the pool and
    harvests the futures in selection order, each against its own
    deadline.  Failures are classified, journaled and -- when the
    class is retryable and the budget allows -- carried into the next
    round after a deterministic backoff sleep.  A hung or broken pool
    is recycled between rounds; a pool that cannot be built at all
    flips the supervisor into serial degradation.
    """

    def __init__(
        self,
        selected: Sequence[str],
        scale: Scale,
        jobs: int,
        journal,
        task_timeout: Optional[float],
        retries: int,
        backoff_s: float,
        measurement_families: MeasurementPlan = (),
    ):
        self.selected = list(selected)
        self.scale = scale
        self.jobs = jobs
        self.journal = journal
        self.task_timeout = task_timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.plan: MeasurementPlan = tuple(measurement_families)
        self.results: Dict[str, ExperimentResult] = {}
        self.attempts: Dict[str, int] = {eid: 0 for eid in self.selected}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.warm_done = False
        self.pool_unavailable = False

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> bool:
        if self.pool is not None:
            return True
        cache = artifact_cache.get_cache()
        try:
            self.pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(str(cache.root), cache.enabled),
            )
        except Exception as error:  # noqa: BLE001 - degrade, never die
            self._pool_failed(error)
            return False
        if not self.warm_done:
            self.warm_done = True
            self._run_warm_waves()
        return self.pool is not None

    def _pool_failed(self, error: BaseException) -> None:
        message = (
            f"repro: parallel execution unavailable"
            f" ({type(error).__name__}: {error}); falling back to serial"
        )
        print(message, file=sys.stderr)
        self.journal.emit("warning", message=message, context="pool")
        REGISTRY.count("supervisor.pool_failures")
        self.pool_unavailable = True
        self._recycle_pool(reason="pool_failure", journal_event=False)

    def _recycle_pool(self, reason: str, journal_event: bool = True) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if journal_event:
            self.journal.emit("pool_recycled", reason=reason)
            REGISTRY.count("supervisor.pool_recycles")
        # grab worker handles BEFORE shutdown (which nulls _processes),
        # then SIGKILL them: a worker stuck in an uninterruptible state
        # would otherwise keep the executor's manager thread -- and the
        # whole interpreter, via its atexit join -- alive forever.
        # _processes is private but there is no public kill switch.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - best effort
            pass
        for process in processes:
            try:
                process.kill()
            except Exception:  # noqa: BLE001 - already dead
                pass

    # -- warm waves -----------------------------------------------------

    def _run_warm_waves(self) -> None:
        """Run the warm-up waves, journaling each task.

        A failing warm task is non-fatal: the artifact simply is not
        pre-cached and the owning experiment computes (or fails and
        falls back) on its own.  A *hung* warm task additionally
        recycles the pool and abandons the rest of the warm-up.
        """
        cache = artifact_cache.get_cache()
        waves = plan_warm_levels(self.selected, self.scale, self.plan)
        if not cache.enabled:
            return
        for wave in waves:
            if not wave or self.pool is None:
                continue
            try:
                futures = [
                    (task, self.pool.submit(_warm_worker, task), time.monotonic())
                    for task in wave
                ]
            except Exception as error:  # noqa: BLE001 - pool refused work
                self._pool_failed(error)
                return
            for task, future, submitted in futures:
                kind, args = task
                try:
                    stats, metrics, duration = future.result(
                        timeout=self._remaining(submitted)
                    )
                except FutureTimeoutError:
                    self.journal.emit(
                        "warm_task",
                        kind=kind,
                        args=list(args),
                        ok=False,
                        error=f"timeout after {self.task_timeout}s",
                    )
                    REGISTRY.count("supervisor.timeouts")
                    self._recycle_pool(reason="hung_warm_task")
                    return
                except Exception as error:  # noqa: BLE001 - worker died
                    summary, __ = _format_error(error)
                    self.journal.emit(
                        "warm_task",
                        kind=kind,
                        args=list(args),
                        ok=False,
                        error=summary,
                    )
                    if isinstance(error, BrokenExecutor):
                        self._recycle_pool(reason="broken_pool_warmup")
                        return
                    continue
                _merge_worker_state(stats, metrics)
                REGISTRY.count("warm.tasks")
                self.journal.emit(
                    "warm_task",
                    kind=kind,
                    args=list(args),
                    ok=True,
                    duration_s=duration,
                )

    # -- experiment rounds ----------------------------------------------

    def _remaining(self, submitted: float) -> Optional[float]:
        if self.task_timeout is None:
            return None
        return max(0.0, submitted + self.task_timeout - time.monotonic())

    def _record_failure(
        self, experiment_id: str, error: BaseException, classification: str
    ) -> None:
        if isinstance(error, FutureTimeoutError):
            summary = (
                f"TimeoutError: worker exceeded the {self.task_timeout}s"
                " task timeout"
            )
            trace = ""
        else:
            summary, trace = _format_error(error)
        print(
            f"repro: experiment {experiment_id} failed"
            f" [{classification}] ({summary})",
            file=sys.stderr,
        )
        self.journal.emit(
            "experiment_failed",
            experiment=experiment_id,
            error=summary,
            traceback=trace,
            classification=classification,
            attempt=self.attempts[experiment_id],
        )
        REGISTRY.count("experiments.failed_parallel")
        REGISTRY.count(f"supervisor.failures.{classification}")
        if classification == "timeout":
            REGISTRY.count("supervisor.timeouts")

    def _attempt_round(self, pending: List[str]) -> List[str]:
        """Submit one attempt for every pending experiment.

        Returns the experiments to retry next round.  Experiments whose
        retry budget is exhausted (or whose failure was fatal) stay
        unresolved and are handled by the serial degradation tail.
        """
        if not self._ensure_pool():
            return pending
        futures: List[Tuple[str, object, float]] = []
        try:
            for experiment_id in pending:
                self.attempts[experiment_id] += 1
                futures.append(
                    (
                        experiment_id,
                        self.pool.submit(
                            _experiment_worker,
                            experiment_id,
                            self.scale,
                            self.plan,
                        ),
                        time.monotonic(),
                    )
                )
                self.journal.emit(
                    "experiment_started",
                    experiment=experiment_id,
                    mode="parallel",
                    attempt=self.attempts[experiment_id],
                )
        except Exception as error:  # noqa: BLE001 - pool refused work
            self._pool_failed(error)
            return [eid for eid in pending if eid not in self.results]

        need_recycle: Optional[str] = None
        failed: List[Tuple[str, str]] = []
        for experiment_id, future, submitted in futures:
            try:
                result, duration, stats, metrics = future.result(
                    timeout=self._remaining(submitted)
                )
            except BaseException as error:  # noqa: BLE001 - classified below
                classification = classify_failure(error)
                if classification == "timeout":
                    future.cancel()
                    need_recycle = "hung_worker"
                elif isinstance(error, BrokenExecutor):
                    need_recycle = need_recycle or "broken_pool"
                self._record_failure(experiment_id, error, classification)
                failed.append((experiment_id, classification))
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise
                continue
            result.duration_s = duration
            _merge_worker_state(stats, metrics)
            REGISTRY.observe_seconds(f"experiment.{experiment_id}", duration)
            self.results[experiment_id] = result
            store_checkpoint(experiment_id, self.scale, result)
            self.journal.emit(
                "experiment_finished",
                experiment=experiment_id,
                mode="parallel",
                duration_s=duration,
            )
        if need_recycle:
            self._recycle_pool(reason=need_recycle)

        retry: List[str] = []
        for experiment_id, classification in failed:
            if (
                classification != "fatal"
                and self.attempts[experiment_id] <= self.retries
            ):
                delay = self.backoff_s * (2 ** (self.attempts[experiment_id] - 1))
                self.journal.emit(
                    "experiment_retry",
                    experiment=experiment_id,
                    attempt=self.attempts[experiment_id] + 1,
                    classification=classification,
                    delay_s=delay,
                )
                REGISTRY.count("supervisor.retries")
                retry.append(experiment_id)
        return retry

    def run(self) -> Dict[str, ExperimentResult]:
        # a state dir this supervisor creates is released when the
        # battery ends: leaking the exported tempdir (and its claim
        # markers) made a second battery in the same process inherit
        # stale occurrence numbers, so its `times=1` faults never fired
        inherited_state = os.environ.get(faults.STATE_ENV)
        state_dir = faults.ensure_state_dir()
        owns_state = state_dir is not None and not inherited_state
        try:
            pending = list(self.selected)
            round_number = 0
            while pending and not self.pool_unavailable:
                if _ABORT.is_set():
                    # each round already drained its futures, so every
                    # harvested result is checkpointed; stop here
                    self._recycle_pool(reason="aborted", journal_event=False)
                    raise RunAborted(dict(self.results))
                if round_number > 0:
                    # deterministic, jitter-free backoff: identical runs
                    # retry on an identical schedule
                    time.sleep(self.backoff_s * (2 ** (round_number - 1)))
                pending = self._attempt_round(pending)
                round_number += 1
            # a healthy pool shuts down gracefully; hung pools were
            # already recycled inside the round that saw them hang
            pool, self.pool = self.pool, None
            if pool is not None:
                pool.shutdown(wait=True)

            if _ABORT.is_set():
                raise RunAborted(dict(self.results))
            unresolved = [
                eid for eid in self.selected if eid not in self.results
            ]
            if unresolved:
                # graceful degradation: exhausted/fatal/unschedulable
                # experiments run serially in the parent, in selection
                # order, so the battery completes iff a serial run would
                try:
                    self.results.update(
                        _run_serially(
                            unresolved,
                            self.scale,
                            self.journal,
                            measurement_families=self.plan,
                        )
                    )
                except RunAborted as aborted:
                    self.results.update(aborted.results)
                    raise RunAborted(dict(self.results)) from None
            return {eid: self.results[eid] for eid in self.selected}
        finally:
            if owns_state:
                faults.release_state_dir(state_dir)


def run_parallel(
    selected: Sequence[str],
    scale: Scale,
    jobs: int,
    journal: Journal = None,
    task_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
    measurement_families: Optional[MeasurementPlan] = None,
) -> Dict[str, ExperimentResult]:
    """Run ``selected`` experiments with ``jobs`` supervised workers.

    Results are merged in the order of ``selected`` and carry
    ``duration_s`` stamps.  ``task_timeout``/``retries``/``backoff_s``
    default from ``REPRO_TASK_TIMEOUT``/``REPRO_TASK_RETRIES``/
    ``REPRO_RETRY_BACKOFF``; a timeout from either source that is not
    a finite number > 0 (``0``, ``-1``, ``nan``) means no timeout.
    ``measurement_families`` is the battery-wide estimator-bank plan
    (defaults to the plan derived from ``selected``'s specs); workers
    install it so every experiment shares one bank cell per (workload,
    predictor) pair.  See the
    module docstring for the failure model; the short version is that a
    failing, hanging or crashing worker costs bounded retries of its
    own experiment, and the battery completes whenever a serial run
    would.
    """
    journal = coalesce(journal)
    jobs = max(1, jobs)
    if measurement_families is None:
        measurement_families = measurement_plan(
            SPECS[eid] for eid in selected if eid in SPECS
        )
    if jobs == 1 or len(selected) == 0:
        return _run_serially(
            selected, scale, journal, measurement_families=measurement_families
        )
    supervisor = _Supervisor(
        selected,
        scale,
        jobs,
        journal,
        task_timeout=(
            _timeout_or_off(task_timeout)
            if task_timeout is not None
            else task_timeout_from_env()
        ),
        retries=retries if retries is not None else retries_from_env(),
        backoff_s=backoff_s if backoff_s is not None else backoff_from_env(),
        measurement_families=measurement_families,
    )
    return supervisor.run()
