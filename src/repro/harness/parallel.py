"""Resilient parallel execution of the experiment battery.

The battery is embarrassingly parallel: each experiment replays
independent workload traces through independent predictor/estimator
stacks.  This module fans ``run_all`` out over a
:class:`~concurrent.futures.ProcessPoolExecutor` in three waves:

1. **trace warm-up** -- one task per workload generates/executes the
   program and persists its branch trace in the artifact cache;
2. **heavy-artifact warm-up** -- one task per artifact runs the
   pipeline simulations, estimator-bank measurements and speculation
   cells the selected experiments will need, again into the persistent
   cache (a segmented pipeline cell takes one wave per link of its
   chain, and a speculation cell runs one wave after the pipeline run
   it compares against, see :func:`plan_warm_levels`).  A measurement
   task is one experiment's (workload, predictor, families) cell; two
   cells of one pair that land on different workers each repeat the
   pair's predictor scan, which a single process memoises;
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
lives in :mod:`repro.faults` (``REPRO_FAULTS``).  The pool initializer
installs the parent's :mod:`repro.settings` record in every worker, so
workers agree with the parent about cache, engines and faults without
reading the environment.

Workers ship back per-task deltas of the artifact-cache statistics and
the metrics registry (:mod:`repro.obs.registry`); the parent folds both
in, so throughput and cache hit-rate accounting is identical to a
serial run.
"""

from __future__ import annotations

import pickle
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import settings
from ..engine import cache as artifact_cache
from ..engine import workload_run
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
    measurement_cell,
    run_experiment,
)
from .shard import segment_count, warm_segment
from .spec import SPECS
from .speculation import eager_cell, gating_cell

Journal = Optional[object]  # RunJournal | NullJournal; kwarg convenience

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


#: A warm task ``(kind, args)``: the call ``_WARM_FUNCTIONS[kind](*args)``.
WarmTask = Tuple[str, Tuple]

#: The memoised function behind each warm task kind -- the same ones the
#: experiments call, with the same positional arguments, so a warm call
#: and the experiment's later call share one cache (and memo) entry.
_WARM_FUNCTIONS: Dict[str, Callable] = {
    "trace": workload_run,
    "pipeline": _pipeline_result,
    "pipeline-segment": warm_segment,
    "measurement": measurement_cell,
    "gating": gating_cell,
    "eager": eager_cell,
}


def plan_warm_levels(
    selected: Sequence[str], scale: Scale
) -> List[List[WarmTask]]:
    """The artifact warm-up schedule: waves of independent warm tasks.

    Every spec's declared :class:`~repro.harness.spec.ArtifactDep` list
    is expanded over the scale's workloads into warm tasks,
    deduplicated across experiments.  Traces go in wave 0 and
    measurements in wave 1.  A ``pipeline`` cell's final run goes in
    wave ``chain + 1``: a segmented cell is a chain whose segment ``i``
    goes in wave ``i + 1`` (it resumes segment ``i - 1``'s snapshot),
    and a whole run has ``chain = 0``.  Gating and eager cells go one
    wave later, in ``chain + 2``, because each reads its workload's
    gshare ``pipeline`` run as its ungated baseline.  So a task only
    ever runs after every artifact it reads exists, while independent
    (workload, predictor) cells shard across the pool.  Within a wave,
    tasks keep the order they were planned in.

    A measurement task carries the estimator families its dep declares,
    sorted as the experiment asks for them, so it warms exactly the cell
    that experiment reads, whatever else is selected.
    """
    chain = segment_count(scale.pipeline_instructions, scale.segment_instructions)
    # the trailing arguments of every speculation cell
    budget = (
        scale.iterations,
        scale.pipeline_instructions,
        scale.segment_instructions,
        scale.backend,
    )
    waves: Dict[WarmTask, int] = {}

    def add(wave: int, kind: str, *args) -> None:
        waves.setdefault((kind, args), wave)

    for experiment_id in selected:
        spec = SPECS.get(experiment_id)
        if spec is None:
            continue
        for dep in spec.deps:
            for workload in scale.workloads:
                add(0, "trace", workload, scale.iterations)
                if dep.kind == "pipeline":
                    cell = (
                        workload,
                        dep.predictor,
                        scale.iterations,
                        scale.pipeline_instructions,
                        scale.segment_instructions,
                    )
                    for index in range(chain):
                        add(index + 1, "pipeline-segment", *cell, index, scale.backend)
                    add(chain + 1, "pipeline", *cell, scale.backend)
                elif dep.kind == "measurement":
                    families = tuple(sorted(set(dep.families)))
                    add(1, "measurement", dep.predictor, workload, scale.iterations, families)
                elif dep.kind == "gating":
                    add(chain + 2, "gating", workload, dep.estimator, dep.threshold, *budget)
                elif dep.kind == "eager":
                    add(chain + 2, "eager", workload, dep.estimator, *budget)
    levels: List[List[WarmTask]] = [[] for _ in range(max(waves.values(), default=-1) + 1)]
    for task, wave in waves.items():
        levels[wave].append(task)
    return levels


# ----------------------------------------------------------------------
# worker-side entry points (must be module-level for pickling)
# ----------------------------------------------------------------------


def _init_worker(record: settings.Settings) -> None:
    settings.install(record)
    # forked workers inherit the parent's cache stats and fault
    # occurrence counters; each worker starts its own
    artifact_cache.reset_active_cache()
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
    _WARM_FUNCTIONS[kind](*args)
    duration = time.perf_counter() - started
    stats, metrics = _task_deltas(baseline)
    return stats, metrics, duration


def _experiment_worker(
    experiment_id: str, scale: Scale
) -> Tuple[ExperimentResult, float, CacheStats, MetricsSnapshot]:
    faults.active_faults().on_experiment(experiment_id)
    baseline = _task_baseline()
    started = time.perf_counter()
    result = run_experiment(experiment_id, scale)
    duration = time.perf_counter() - started
    stats, metrics = _task_deltas(baseline)
    return result, duration, stats, metrics


# ----------------------------------------------------------------------
# parent-side supervisor
# ----------------------------------------------------------------------


def _merge_worker_state(stats: CacheStats, metrics: MetricsSnapshot) -> None:
    artifact_cache.merge_stats(stats)
    REGISTRY.merge(metrics)


def _run_serially(
    selected: Iterable[str], scale: Scale, journal: Journal
) -> Dict[str, ExperimentResult]:
    results: Dict[str, ExperimentResult] = {}
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
    ):
        self.selected = list(selected)
        self.scale = scale
        self.jobs = jobs
        self.journal = journal
        self.task_timeout = task_timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.results: Dict[str, ExperimentResult] = {}
        self.attempts: Dict[str, int] = {eid: 0 for eid in self.selected}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.warm_done = False
        self.pool_unavailable = False

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> bool:
        if self.pool is not None:
            return True
        try:
            self.pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(settings.current(),),
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
        waves = plan_warm_levels(self.selected, self.scale)
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
                            _experiment_worker, experiment_id, self.scale
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
        # armed faults need one occurrence ledger for the workers and the
        # serial fallback; one created here is released when the battery
        # ends, or the next battery's `times=1` faults would never fire
        record = settings.current()
        ledger = None
        if record.faults and not record.faults_state:
            ledger = tempfile.mkdtemp(prefix="repro-faults-")
            settings.install(replace(record, faults_state=ledger))
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
                        _run_serially(unresolved, self.scale, self.journal)
                    )
                except RunAborted as aborted:
                    self.results.update(aborted.results)
                    raise RunAborted(dict(self.results)) from None
            return {eid: self.results[eid] for eid in self.selected}
        finally:
            if ledger is not None:
                settings.install(record)
                faults.release_state_dir(ledger)


def run_parallel(
    selected: Sequence[str],
    scale: Scale,
    jobs: int,
    journal: Journal = None,
    task_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
) -> Dict[str, ExperimentResult]:
    """Run ``selected`` experiments with ``jobs`` supervised workers.

    Results are merged in the order of ``selected`` and carry
    ``duration_s`` stamps.  ``task_timeout``/``retries``/``backoff_s``
    default from the installed :mod:`repro.settings` record
    (``REPRO_TASK_TIMEOUT``/``REPRO_TASK_RETRIES``/``REPRO_RETRY_BACKOFF``);
    a timeout from either source that is not a finite number > 0
    (``0``, ``-1``, ``nan``) means no timeout.  See the module docstring
    for the failure model; the short version is that a failing, hanging
    or crashing worker costs bounded retries of its own experiment, and
    the battery completes whenever a serial run would.
    """
    journal = coalesce(journal)
    jobs = max(1, jobs)
    if jobs == 1 or len(selected) == 0:
        return _run_serially(selected, scale, journal)
    record = settings.current()
    supervisor = _Supervisor(
        selected,
        scale,
        jobs,
        journal,
        task_timeout=(
            settings.timeout_or_off(task_timeout)
            if task_timeout is not None
            else record.task_timeout
        ),
        retries=retries if retries is not None else record.retries,
        backoff_s=backoff_s if backoff_s is not None else record.backoff_s,
    )
    return supervisor.run()
