"""Run experiment batteries and render a full report.

``run_all`` executes every experiment in DESIGN.md's index -- serially
or across a process pool (``jobs``) -- and returns the results;
``render_report`` turns them into the text that EXPERIMENTS.md embeds,
including a battery-performance section (per-experiment wall time,
simulation throughput, artifact-cache hit rates, journal census) so the
effect of caching and parallelism is visible in the output.  The CLI
exposes both.

Passing a :class:`repro.obs.journal.RunJournal` makes the run narrate
itself as schema-validated JSONL events: ``run_started`` first, then
per-experiment (and, in parallel mode, per-warm-task) events, and a
closing ``cache_stats`` / ``metrics_snapshot`` / ``run_finished``
triple describing the run's own deltas.  The ``sim.branches`` counter
in the ``metrics_snapshot`` event and the "simulated N branches" note
in the report come from the same metrics registry, so they can never
disagree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from .. import settings
from ..engine import (
    BRANCHES_METRIC,
    REPLAY_TIMER,
    get_cache,
)
from ..engine import cache as artifact_cache
from ..obs.journal import (
    NullJournal,
    coalesce,
    finished_experiments,
    read_journal_tolerant,
)
from ..obs.registry import REGISTRY
from .checkpoint import load_checkpoint
from .experiments import FULL, ExperimentResult, Scale
from .spec import SPECS
from .tables import TextTable

Journal = Optional[object]  # RunJournal | NullJournal


@dataclass
class ResumePlan:
    """What a prior run's journal says about continuing it.

    ``selection``/``scale`` come from the ``run_started`` event (either
    may be ``None`` for a journal killed before that line survived);
    ``finished`` is the checkpoint ledger; ``problems`` are the
    truncated/invalid lines the tolerant reader skipped.
    """

    journal_path: Path
    selection: Optional[List[str]]
    scale: Optional[Scale]
    finished: List[str]
    problems: List[str]


def plan_resume(path: Union[str, Path]) -> ResumePlan:
    """Read a (possibly truncated) journal into a :class:`ResumePlan`."""
    events, problems = read_journal_tolerant(path)
    started = next(
        (event for event in events if event.get("event") == "run_started"), None
    )
    selection: Optional[List[str]] = None
    scale: Optional[Scale] = None
    if started is not None:
        raw_selection = started.get("selection")
        if isinstance(raw_selection, list):
            selection = [str(eid) for eid in raw_selection]
        raw_scale = started.get("scale")
        if isinstance(raw_scale, dict):
            try:
                scale = Scale(
                    iterations=raw_scale.get("iterations"),
                    pipeline_instructions=raw_scale["pipeline_instructions"],
                    workloads=tuple(raw_scale["workloads"]),
                    # absent in pre-segmentation journals: resume as whole runs
                    segment_instructions=raw_scale.get("segment_instructions"),
                    # absent in pre-backend journals: resume as in-order
                    backend=raw_scale.get("backend") or "inorder",
                )
            except (KeyError, TypeError):
                scale = None
    return ResumePlan(
        journal_path=Path(path),
        selection=selection,
        scale=scale,
        finished=finished_experiments(events),
        problems=problems,
    )


def run_all(
    scale: Scale = FULL,
    only: Optional[Iterable[str]] = None,
    jobs: int = 1,
    journal: Journal = None,
    resume: Optional[Union[str, Path]] = None,
    task_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
) -> Dict[str, ExperimentResult]:
    """Run every (or the selected) experiment; returns id -> result.

    ``jobs > 1`` fans the battery out over a supervised process pool
    (see :mod:`repro.harness.parallel`); results are merged in
    selection order and are identical to a serial run.  Each result
    carries a ``duration_s`` wall-time stamp.  ``journal`` (a
    :class:`repro.obs.journal.RunJournal`) receives the structured
    event stream for the run.

    ``resume`` names a prior run's journal: experiments it records as
    finished are restored from their checkpoints in the artifact cache
    (``experiment_skipped`` events) and only the remainder executes.  A
    finished experiment whose checkpoint is missing or stale (different
    scale, bumped code salt) silently re-runs, so a resumed battery can
    never produce different output than a fresh one.

    ``task_timeout``/``retries``/``backoff_s`` tune the supervisor
    (default from the installed :mod:`repro.settings` record).  Each
    malformed ``REPRO_*`` value that record ignored becomes a ``warning``
    event with the variable as ``context``.
    """
    journal = coalesce(journal)
    selected = list(only) if only is not None else list(SPECS)
    unknown = [experiment_id for experiment_id in selected if experiment_id not in SPECS]
    if unknown:
        raise KeyError(f"unknown experiment ids: {', '.join(unknown)}")
    from .parallel import RunAborted, run_parallel

    restored: Dict[str, ExperimentResult] = {}
    if resume is not None:
        plan = plan_resume(resume)
        for experiment_id in selected:
            if experiment_id not in plan.finished:
                continue
            hit, result = load_checkpoint(experiment_id, scale)
            if hit and result is not None:
                restored[experiment_id] = result

    journal.emit(
        "run_started",
        selection=selected,
        jobs=jobs,
        mode="parallel" if jobs > 1 else "serial",
        scale={
            "iterations": scale.iterations,
            "pipeline_instructions": scale.pipeline_instructions,
            "segment_instructions": scale.segment_instructions,
            "backend": scale.backend,
            "workloads": list(scale.workloads),
        },
    )
    for variable, message in settings.current().warnings():
        journal.emit("warning", message=message, context=variable)
    if resume is not None:
        journal.emit(
            "run_resumed",
            journal=str(resume),
            skipped=[eid for eid in selected if eid in restored],
        )
        for experiment_id in selected:
            if experiment_id in restored:
                journal.emit(
                    "experiment_skipped",
                    experiment=experiment_id,
                    source="checkpoint",
                )
                REGISTRY.count("supervisor.experiments_resumed")

    # cache degradations (failed stores, corrupt entries) become
    # journal warnings for the duration of the run
    sink_installed = not isinstance(journal, NullJournal)
    if sink_installed:
        previous_sink = artifact_cache.set_warning_sink(
            lambda context, message: journal.emit(
                "warning", message=message, context=context
            )
        )
    cache_baseline = get_cache().stats.snapshot()
    metrics_baseline = REGISTRY.snapshot()
    started = time.perf_counter()
    try:
        fresh = run_parallel(
            [eid for eid in selected if eid not in restored],
            scale,
            jobs,
            journal=journal,
            task_timeout=task_timeout,
            retries=retries,
            backoff_s=backoff_s,
        )
    except RunAborted as aborted:
        # close the journal the way a finished run does -- stats triple
        # then the (fsynced) terminal event -- so `--resume` of an
        # aborted run sees a well-formed prefix and skips exactly the
        # experiments that were checkpointed before the interrupt
        finished = [
            eid
            for eid in selected
            if eid in restored or eid in aborted.results
        ]
        journal.emit(
            "cache_stats", **get_cache().stats.since(cache_baseline).as_dict()
        )
        journal.emit(
            "metrics_snapshot", **REGISTRY.since(metrics_baseline).as_dict()
        )
        journal.emit("run_aborted", reason="signal", finished=finished)
        raise
    finally:
        if sink_installed:
            artifact_cache.set_warning_sink(previous_sink)
    duration = time.perf_counter() - started
    results = {
        experiment_id: restored.get(experiment_id, fresh.get(experiment_id))
        for experiment_id in selected
    }
    for experiment_id, result in results.items():
        rows = result.data.get("journal_rows")
        if rows:
            journal.emit(
                "speculation_summary", experiment=experiment_id, rows=rows
            )
    journal.emit("cache_stats", **get_cache().stats.since(cache_baseline).as_dict())
    journal.emit("metrics_snapshot", **REGISTRY.since(metrics_baseline).as_dict())
    journal.emit("run_finished", experiments=list(results), duration_s=duration)
    return results


def _default_clock() -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S")


def render_performance(
    results: Dict[str, ExperimentResult], journal: Journal = None
) -> str:
    """The battery-performance section of a report."""
    table = TextTable(
        title="Battery performance",
        headers=["experiment", "wall time"],
    )
    total = 0.0
    for experiment_id, result in results.items():
        if result.duration_s is None:
            continue
        total += result.duration_s
        table.add_row([experiment_id, f"{result.duration_s:8.3f}s"])
    table.add_row(["total (sum)", f"{total:8.3f}s"])
    branches = int(REGISTRY.counter_value(BRANCHES_METRIC))
    if branches:
        seconds = REGISTRY.timer_value(REPLAY_TIMER).seconds
        rate = branches / seconds if seconds > 0 else 0.0
        table.add_note(
            f"simulated {branches:,} branches in"
            f" {seconds:.3f}s"
            f" ({rate:,.0f} branches/s)"
        )
    stats = get_cache().stats
    lookups = stats.hits + stats.misses
    if lookups:
        table.add_note(
            f"artifact cache: {stats.hits} hits, {stats.misses} misses"
            f" ({stats.hits / lookups:.0%} hit rate),"
            f" {stats.writes} writes"
        )
    failed = int(REGISTRY.counter_value("experiments.failed_parallel"))
    if failed:
        table.add_note(
            f"{failed} failed experiment attempt(s) were retried or"
            " re-run serially"
        )
    retries = int(REGISTRY.counter_value("supervisor.retries"))
    if retries:
        table.add_note(f"supervisor scheduled {retries} retry attempt(s)")
    recycles = int(REGISTRY.counter_value("supervisor.pool_recycles"))
    if recycles:
        table.add_note(f"worker pool recycled {recycles} time(s)")
    resumed = int(REGISTRY.counter_value("supervisor.experiments_resumed"))
    if resumed:
        table.add_note(
            f"{resumed} experiment(s) restored from checkpoints (--resume)"
        )
    injected = int(REGISTRY.counter_value("faults.injected"))
    if injected:
        table.add_note(f"{injected} fault(s) injected (REPRO_FAULTS)")
    if journal is not None and not isinstance(journal, NullJournal):
        census = ", ".join(
            f"{name}={journal.event_counts[name]}"
            for name in sorted(journal.event_counts)
        )
        where = f" -> {journal.path}" if getattr(journal, "path", None) else ""
        table.add_note(
            f"journal: {journal.events_written} events ({census}){where}"
        )
    return table.to_text()


def render_speculation_control(
    results: Dict[str, ExperimentResult],
) -> Optional[str]:
    """The "Speculation control" summary section of a report.

    Built from the ``speculation-gating`` (and, when present,
    ``speculation-eager``) results: one row per workload/estimator with
    the paper's two axes -- wrong-path instructions saved and IPC delta
    -- so the trade-off is readable without digging through the
    per-experiment tables.  Returns ``None`` when no speculation
    experiment ran.
    """
    gating = results.get("speculation-gating")
    eager = results.get("speculation-eager")
    if gating is None and eager is None:
        return None
    from .tables import pct1, spct1

    lines: List[str] = ["## Speculation control", ""]
    if gating is not None:
        table = TextTable(
            title="Speculation control summary: savings vs slowdown"
            " per workload (pipeline gating)",
            headers=[
                "workload",
                "estimator",
                "thr",
                "wrong-path saved",
                "squash cut",
                "ipc delta",
                "slowdown",
            ],
        )
        for (workload, estimator, threshold), cell in gating.data["cells"].items():
            table.add_row(
                [
                    workload,
                    estimator,
                    threshold,
                    cell.wrong_path_saved,
                    pct1(cell.extra_work_reduction),
                    spct1(cell.ipc_delta),
                    spct1(cell.slowdown),
                ]
            )
        lines.append(table.to_text())
        lines.append("")
    if eager is not None:
        table = TextTable(
            title="Speculation control summary: dual-path forks per workload",
            headers=["workload", "estimator", "forks", "covered", "speedup"],
        )
        for (workload, estimator), cell in eager.data["cells"].items():
            table.add_row(
                [
                    workload,
                    estimator,
                    cell.forks,
                    cell.covered_mispredictions,
                    spct1(cell.speedup),
                ]
            )
        lines.append(table.to_text())
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def render_report(
    results: Dict[str, ExperimentResult],
    scale: Scale,
    clock: Optional[Callable[[], str]] = None,
    performance: bool = True,
    journal: Journal = None,
) -> str:
    """Render all experiment output as one report document.

    ``clock`` returns the ``generated:`` timestamp string; injecting a
    fixed clock (and ``performance=False``) makes the report
    deterministic and diffable in CI.  ``journal`` adds an event census
    to the battery-performance section.
    """
    timestamp = (clock or _default_clock)()
    # Note: the scale line deliberately omits segment_instructions --
    # segmentation is an execution strategy, not an input, and a
    # segmented report must stay byte-identical to the whole-run one.
    # The backend IS an input (it changes every cycle-level number),
    # but the historical in-order default is omitted so existing golden
    # reports stay byte-identical.
    backend_suffix = (
        f", backend={scale.backend}" if scale.backend != "inorder" else ""
    )
    lines: List[str] = [
        "# Experiment report",
        "",
        f"generated: {timestamp}",
        f"scale: iterations={scale.iterations or 'profile default'}, "
        f"pipeline_instructions={scale.pipeline_instructions}, "
        f"workloads={','.join(scale.workloads)}"
        f"{backend_suffix}",
        "",
    ]
    positions = {eid: index for index, eid in enumerate(results)}

    def _render_key(experiment_id: str):
        spec = SPECS.get(experiment_id)
        order = spec.order if spec is not None else float("inf")
        return (order, positions[experiment_id])

    for experiment_id in sorted(results, key=_render_key):
        lines.append(results[experiment_id].to_text())
        lines.append("")
    speculation = render_speculation_control(results)
    if speculation:
        lines.append(speculation)
        lines.append("")
    if performance and any(
        result.duration_s is not None for result in results.values()
    ):
        lines.append(render_performance(results, journal=journal))
        lines.append("")
    return "\n".join(lines)
