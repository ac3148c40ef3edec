"""Command-line front end.

Usage examples::

    repro list                         # experiments and workloads
    repro run tab2                     # one experiment, full scale
    repro run --scale smoke --jobs 4   # whole battery, small + parallel
    repro run --journal run.jsonl      # + structured JSONL run journal
    repro run --resume run.jsonl       # continue a killed/crashed run
    repro run --jobs 4 --task-timeout 300 --retries 3   # supervised sweep
    repro cache verify                 # detect corrupt cache entries
    repro bench --json bench.json      # machine-readable battery benchmark
    repro list --markdown              # the README battery table
    repro run-all --out report.txt     # the whole battery
    repro speculate --scale smoke      # the speculation-control battery
    repro profile tab2 --scale smoke   # cProfile one experiment
    repro profile fig6 --hot-branches  # + top mispredicting sites
    repro journal run.jsonl            # validate/summarise a journal
    repro cache info                   # artifact-cache contents
    repro workload gcc --iterations 50 # inspect a synthetic workload
    repro trace gcc out.rbt.gz         # dump a branch trace file
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from typing import List, Optional

from .engine import (
    BANK_PASSES_METRIC,
    BRANCHES_METRIC,
    PASSES_SAVED_METRIC,
    PIPELINE_BRANCHES_METRIC,
    PIPELINE_TIMER,
    REPLAY_TIMER,
    SCALAR_FALLBACK_METRIC,
    TRACE_BRANCHES_METRIC,
    TRACE_TIMER,
    VECTOR_BRANCHES_METRIC,
)
from .engine import cache as artifact_cache
from .engine import trace_branches, workload_program, workload_run
from .harness import (
    SCALES,
    SPECS,
    SPECULATION_BATTERY,
    RunAborted,
    Scale,
    clear_abort,
    default_jobs,
    plan_resume,
    render_report,
    request_abort,
    run_all,
    run_experiment,
)
from .harness.spec import SECTIONS
from .obs.registry import REGISTRY
from .pipeline import BACKEND_NAMES, normalize_backend
from .harness.plot import distance_chart, figure1_chart, sweep_chart
from .obs import journal as obs_journal
from .obs.journal import RunJournal
from .obs.profile import SORT_KEYS, hot_branches, profile_experiment
from .workloads import SUITE, generate_source, get_profile


#: Environment fallback for ``--segment-instructions`` (CI shard jobs
#: set it once instead of threading the flag through every command).
SEGMENT_ENV = "REPRO_SEGMENT_INSTRUCTIONS"

#: Environment fallback for ``--backend`` (CI backend jobs set it once
#: instead of threading the flag through every command).
BACKEND_ENV = "REPRO_BACKEND"


def _backend_from_env() -> Optional[str]:
    raw = os.environ.get(BACKEND_ENV, "").strip()
    if not raw:
        return None
    try:
        return normalize_backend(raw)
    except ValueError as error:
        raise SystemExit(f"invalid {BACKEND_ENV}={raw!r}: {error}")


def _segment_instructions_from_env() -> Optional[int]:
    raw = os.environ.get(SEGMENT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(
            f"invalid {SEGMENT_ENV}={raw!r}: expected an integer"
            " instruction count (0 disables segmentation)"
        )
    return value if value > 0 else None


def _scale_from_args(
    args: argparse.Namespace, fallback: Optional[Scale] = None
) -> Scale:
    preset_name = getattr(args, "scale", None)
    segment_flag = getattr(args, "segment_instructions", None)
    backend_flag = getattr(args, "backend", None)
    if (
        preset_name is None
        and fallback is not None
        and args.iterations is None
        and args.pipeline_instructions is None
        and args.workloads is None
        and segment_flag is None
        and backend_flag is None
    ):
        # --resume with no explicit sizing: reuse the prior run's scale
        return fallback
    preset = SCALES[preset_name or "full"]
    iterations = args.iterations if args.iterations is not None else preset.iterations
    pipeline_instructions = (
        args.pipeline_instructions
        if args.pipeline_instructions is not None
        else preset.pipeline_instructions
    )
    workloads = (
        tuple(args.workloads.split(",")) if args.workloads else preset.workloads
    )
    # flag beats environment beats preset; 0 explicitly disables
    if segment_flag is not None:
        segment_instructions = segment_flag if segment_flag > 0 else None
    else:
        segment_instructions = (
            _segment_instructions_from_env() or preset.segment_instructions
        )
    # same precedence for the backend dimension
    backend = backend_flag or _backend_from_env() or preset.backend
    return Scale(
        iterations=iterations,
        pipeline_instructions=pipeline_instructions,
        workloads=workloads,
        segment_instructions=segment_instructions,
        backend=normalize_backend(backend),
    )


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="scale preset (default: full, or the resumed run's scale"
        " with --resume); explicit flags below override its values",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="outer-loop iterations per workload (default: preset/profile value)",
    )
    parser.add_argument(
        "--pipeline-instructions",
        type=int,
        default=None,
        help="committed-instruction budget for pipeline experiments",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload subset (default: preset suite)",
    )
    parser.add_argument(
        "--segment-instructions",
        type=int,
        default=None,
        metavar="N",
        help="shard pipeline simulations into checkpointable segments of"
        " N committed instructions (0 disables; default:"
        " $REPRO_SEGMENT_INSTRUCTIONS or the preset's value; see"
        " docs/performance.md)",
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help="pipeline backend for cycle-level experiments (default:"
        " $REPRO_BACKEND or inorder; see docs/pipeline-backends.md)",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the battery (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk artifact cache for this invocation",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write a structured JSONL run journal to PATH"
        " (see docs/observability.md for the event schema)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="resume a prior run from its journal: finished experiments"
        " are restored from checkpoints, only the rest execute"
        " (see docs/robustness.md)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock timeout; a hung worker is classified,"
        " the pool recycled and the task retried; 0, a negative value or"
        " nan means off"
        " (default: $REPRO_TASK_TIMEOUT or off)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for a failed experiment before serial"
        " fallback (default: $REPRO_TASK_RETRIES or 2)",
    )
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="render the report without timestamps or the performance"
        " section, so two equivalent runs diff byte-identical",
    )


def _open_journal(args: argparse.Namespace) -> Optional[RunJournal]:
    path = getattr(args, "journal", None)
    return RunJournal(path) if path else None


def _resolve_execution(
    args: argparse.Namespace, journal: Optional[RunJournal] = None
) -> int:
    """Apply --no-cache and resolve the worker count."""
    if getattr(args, "no_cache", False):
        artifact_cache.configure(enabled=False)
    jobs = getattr(args, "jobs", None)
    return max(1, jobs) if jobs is not None else default_jobs(journal)


#: Dependency kinds that run the cycle-level pipeline simulator and
#: therefore honour the ``--backend`` dimension; everything else is
#: trace-level and backend-independent.
_PIPELINE_DEP_KINDS = frozenset({"pipeline", "gating", "eager"})


def battery_table_markdown() -> str:
    """The README's battery table, generated from the spec registry."""
    lines = [
        "| experiment | paper artifact | title | backends | command |",
        "|---|---|---|---|---|",
    ]
    for spec in SPECS.in_order():
        paper_ref = spec.paper_ref or "--"
        backends = (
            ", ".join(BACKEND_NAMES)
            if _PIPELINE_DEP_KINDS & set(spec.dep_kinds())
            else "--"
        )
        lines.append(
            f"| `{spec.experiment_id}` | {paper_ref} | {spec.title}"
            f" | {backends} | `repro run {spec.experiment_id}` |"
        )
    return "\n".join(lines)


def _command_list(args: argparse.Namespace) -> int:
    if getattr(args, "markdown", False):
        print(battery_table_markdown())
        return 0
    for section, specs in SPECS.by_section().items():
        print(f"experiments ({SECTIONS.get(section, section)}):")
        for spec in specs:
            ref = f" [{spec.paper_ref}]" if spec.paper_ref else ""
            print(f"  {spec.experiment_id:22s} {spec.title}{ref}")
    print("workloads:")
    for name in SUITE:
        profile = get_profile(name)
        print(f"  {name:10s} {profile.description}")
    return 0


def _resume_plan(args: argparse.Namespace):
    path = getattr(args, "resume", None)
    return plan_resume(path) if path else None


#: Exit status for an interrupted run (128 + SIGINT, shell convention).
ABORT_EXIT_STATUS = 130


@contextlib.contextmanager
def _graceful_interrupts():
    """Drain-then-stop signal handling around a battery run.

    The first SIGINT/SIGTERM raises the harness abort flag: in-flight
    experiments finish and are checkpointed, then the run raises
    :class:`RunAborted` (journaled as a terminal ``run_aborted`` event,
    so ``--resume`` works).  A second signal falls back to an immediate
    ``KeyboardInterrupt`` for genuinely stuck runs.
    """
    signals_seen = {"count": 0}

    def _handler(signum, frame):  # noqa: ARG001 - signal API
        signals_seen["count"] += 1
        if signals_seen["count"] > 1:
            raise KeyboardInterrupt
        print(
            "repro: interrupt received; draining in-flight experiments"
            " (interrupt again to stop immediately)",
            file=sys.stderr,
        )
        request_abort()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # non-main thread / unsupported
            pass
    try:
        yield
    finally:
        clear_abort()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _report_abort(aborted: RunAborted, args: argparse.Namespace) -> int:
    finished = len(aborted.results)
    journal_path = getattr(args, "journal", None)
    hint = f" (resume with --resume {journal_path})" if journal_path else ""
    print(
        f"repro: run aborted; {finished} experiment(s) finished and"
        f" checkpointed{hint}",
        file=sys.stderr,
    )
    return ABORT_EXIT_STATUS


def _render(results, scale, journal, args: argparse.Namespace) -> str:
    if getattr(args, "deterministic", False):
        return render_report(
            results,
            scale,
            clock=lambda: "(timestamp stripped)",
            performance=False,
            journal=journal,
        )
    return render_report(results, scale, journal=journal)


def _command_run(args: argparse.Namespace) -> int:
    journal = _open_journal(args)
    try:
        with _graceful_interrupts():
            return _run_command_body(args, journal)
    except RunAborted as aborted:
        return _report_abort(aborted, args)
    finally:
        if journal is not None:
            journal.close()


def _run_command_body(args: argparse.Namespace, journal) -> int:
    jobs = _resolve_execution(args, journal)
    plan = _resume_plan(args)
    scale = _scale_from_args(args, fallback=plan.scale if plan else None)
    if args.experiment is None:
        # no experiment named: run the whole battery as a report
        # (with --resume, the prior run's selection)
        only = plan.selection if plan and plan.selection else None
        results = run_all(
            scale,
            only=only,
            jobs=jobs,
            journal=journal,
            resume=args.resume,
            task_timeout=args.task_timeout,
            retries=args.retries,
        )
        print(_render(results, scale, journal, args))
        return 0
    if jobs > 1 or journal is not None or args.resume:
        results = run_all(
            scale,
            only=[args.experiment],
            jobs=jobs,
            journal=journal,
            resume=args.resume,
            task_timeout=args.task_timeout,
            retries=args.retries,
        )
        result = results[args.experiment]
    else:
        result = run_experiment(args.experiment, scale)
    print(result.to_json() if args.json else result.to_text())
    return 0


def _run_battery_command(
    args: argparse.Namespace, only: Optional[List[str]]
) -> int:
    """Shared run-all/speculate body: battery -> rendered report."""
    journal = _open_journal(args)
    try:
        jobs = _resolve_execution(args, journal)
        plan = _resume_plan(args)
        scale = _scale_from_args(args, fallback=plan.scale if plan else None)
        with _graceful_interrupts():
            results = run_all(
                scale,
                only=only,
                jobs=jobs,
                journal=journal,
                resume=args.resume,
                task_timeout=args.task_timeout,
                retries=args.retries,
            )
        report = _render(results, scale, journal, args)
    except RunAborted as aborted:
        return _report_abort(aborted, args)
    finally:
        if journal is not None:
            journal.close()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _command_run_all(args: argparse.Namespace) -> int:
    plan = _resume_plan(args)
    only = args.only.split(",") if args.only else None
    if only is None and plan and plan.selection:
        only = plan.selection
    return _run_battery_command(args, only)


def _command_speculate(args: argparse.Namespace) -> int:
    """Run the speculation-control battery and render its report."""
    return _run_battery_command(args, list(SPECULATION_BATTERY))


#: ``--metric`` choices: which bench section carries the gated
#: branches/s figure.  ``replay`` is trace-measurement throughput
#: (``simulation``); ``pipeline`` is cycle-level simulator throughput
#: (``pipeline``, new in repro-bench/3; carries a ``backend`` field
#: since repro-bench/4).
BENCH_METRIC_SECTIONS = {"replay": "simulation", "pipeline": "pipeline"}


def _bench_backend(payload: dict) -> str:
    """Pipeline backend a bench snapshot measured.

    Pre-``repro-bench/4`` snapshots have no ``backend`` field -- they
    all measured the in-order pipeline, so absent means ``inorder``.
    """
    return payload.get("pipeline", {}).get("backend") or "inorder"


def _bench_branches_per_second(
    payload: dict, metric: str = "replay"
) -> Optional[float]:
    """Throughput of a bench snapshot's ``metric`` section, or ``None``
    if that work did not run (warm cache, or a pre-``repro-bench/3``
    snapshot without a ``pipeline`` section).  ``repro-bench/1`` wrote
    ``0.0`` for "no replay"; treat that the same as the explicit
    ``null`` of later schemas."""
    section = BENCH_METRIC_SECTIONS[metric]
    value = payload.get(section, {}).get("branches_per_second")
    if not value:  # None, absent or the v1 0.0 sentinel
        return None
    return float(value)


def _bench_compare(args: argparse.Namespace) -> int:
    """Compare two bench snapshots; gate speedup/regression for CI."""
    baseline_path, candidate_path = args.compare
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(candidate_path) as handle:
        candidate = json.load(handle)
    metric = args.metric
    section = BENCH_METRIC_SECTIONS[metric]
    if metric == "pipeline":
        base_backend = _bench_backend(baseline)
        cand_backend = _bench_backend(candidate)
        if base_backend != cand_backend:
            # Different backends execute different cycle-level work, so
            # a throughput ratio between them is meaningless -- refuse
            # outright rather than gating on a bogus number.
            print(
                f"FAIL: cannot compare pipeline throughput across"
                f" backends: baseline measured {base_backend!r}"
                f" ({baseline_path}), candidate measured"
                f" {cand_backend!r} ({candidate_path}); re-run bench"
                f" with matching --backend values"
            )
            return 1
    base_bps = _bench_branches_per_second(baseline, metric)
    cand_bps = _bench_branches_per_second(candidate, metric)
    speedup = (
        cand_bps / base_bps
        if base_bps is not None and cand_bps is not None
        else None
    )

    def fmt(value: Optional[float], pattern: str = "{:,.0f}") -> str:
        return pattern.format(value) if value is not None else "n/a"

    print(
        f"bench compare ({metric}): {baseline_path} -> {candidate_path}"
    )
    print(f"  {'metric':24s} {'baseline':>14s} {'candidate':>14s} {'ratio':>8s}")
    rows = [
        ("branches/s", base_bps, cand_bps, speedup),
        (
            "wall seconds",
            baseline.get("wall_seconds"),
            candidate.get("wall_seconds"),
            None,
        ),
        (
            "measured branches",
            baseline.get(section, {}).get("branches"),
            candidate.get(section, {}).get("branches"),
            None,
        ),
    ]
    for label, base, cand, ratio in rows:
        pattern = "{:,.2f}" if label == "wall seconds" else "{:,.0f}"
        ratio_text = f"{ratio:7.2f}x" if ratio is not None else f"{'n/a':>8s}"
        print(
            f"  {label:24s} {fmt(base, pattern):>14s}"
            f" {fmt(cand, pattern):>14s} {ratio_text}"
        )
    status = 0
    if speedup is None and (
        args.min_speedup is not None or args.max_regression is not None
    ):
        # One side measured no work in this section (warm-cache run, or
        # a pre-repro-bench/3 snapshot without it): there is nothing to
        # gate.  Failing here turned every warm-baseline comparison into
        # a spurious CI red, so incomparable rows skip the gates.
        which = "baseline" if base_bps is None else "candidate"
        print(
            f"skip: {which} has no {metric} branches/s"
            " (warm cache or missing section); gates not applied"
        )
        return 0
    if args.min_speedup is not None:
        if speedup < args.min_speedup:
            print(
                f"FAIL: speedup {speedup:.2f}x below required"
                f" {args.min_speedup:.2f}x"
            )
            status = 1
        else:
            print(f"ok: speedup {speedup:.2f}x >= {args.min_speedup:.2f}x")
    if args.max_regression is not None:
        floor = 1.0 - args.max_regression
        if speedup < floor:
            print(
                f"FAIL: candidate at {speedup:.2f}x of baseline,"
                f" below the {floor:.2f}x regression floor"
                f" (max regression {args.max_regression:.0%})"
            )
            status = 1
        else:
            print(
                f"ok: candidate at {speedup:.2f}x of baseline"
                f" (regression floor {floor:.2f}x)"
            )
    return status


def _command_bench(args: argparse.Namespace) -> int:
    """Run a battery and emit a machine-readable benchmark summary."""
    if args.compare:
        return _bench_compare(args)
    jobs = _resolve_execution(args)
    scale = _scale_from_args(args)
    only = args.only.split(",") if args.only else None
    cache = artifact_cache.get_cache()
    cache_baseline = cache.stats.snapshot()
    metrics_baseline = REGISTRY.snapshot()
    started = time.perf_counter()
    results = run_all(scale, only=only, jobs=jobs)
    wall_seconds = time.perf_counter() - started
    stats = cache.stats.since(cache_baseline)
    metrics = REGISTRY.since(metrics_baseline)
    branches = metrics.counters.get(BRANCHES_METRIC, 0.0)
    sim_seconds = metrics.timers.get(REPLAY_TIMER, None)
    sim_seconds = sim_seconds.seconds if sim_seconds is not None else 0.0
    trace_seconds = metrics.timers.get(TRACE_TIMER, None)
    trace_seconds = trace_seconds.seconds if trace_seconds is not None else 0.0
    pipeline_branches = metrics.counters.get(PIPELINE_BRANCHES_METRIC, 0.0)
    pipeline_seconds = metrics.timers.get(PIPELINE_TIMER, None)
    pipeline_seconds = (
        pipeline_seconds.seconds if pipeline_seconds is not None else 0.0
    )
    lookups = stats.hits + stats.misses
    payload = {
        "schema": "repro-bench/4",
        "scale": {
            "iterations": scale.iterations,
            "pipeline_instructions": scale.pipeline_instructions,
            "segment_instructions": scale.segment_instructions,
            "backend": scale.backend,
            "workloads": list(scale.workloads),
        },
        "jobs": jobs,
        "wall_seconds": wall_seconds,
        "experiments": [
            {
                "id": experiment_id,
                "duration_s": result.duration_s,
            }
            for experiment_id, result in results.items()
        ],
        "simulation": {
            "branches": int(branches),
            "seconds": sim_seconds,
            # null, not 0.0, when the run replayed nothing (warm cache):
            # an inflated or zero rate would poison bench comparisons.
            "branches_per_second": (
                branches / sim_seconds
                if branches > 0 and sim_seconds > 0
                else None
            ),
            "vector_branches": int(
                metrics.counters.get(VECTOR_BRANCHES_METRIC, 0.0)
            ),
            "scalar_fallback_branches": int(
                metrics.counters.get(SCALAR_FALLBACK_METRIC, 0.0)
            ),
        },
        "pipeline": {
            "backend": scale.backend,
            "branches": int(pipeline_branches),
            "seconds": pipeline_seconds,
            # same null-not-zero discipline as "simulation" above
            "branches_per_second": (
                pipeline_branches / pipeline_seconds
                if pipeline_branches > 0 and pipeline_seconds > 0
                else None
            ),
        },
        "trace_generation": {
            "branches": int(
                metrics.counters.get(TRACE_BRANCHES_METRIC, 0.0)
            ),
            "seconds": trace_seconds,
        },
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "writes": stats.writes,
            "hit_rate": stats.hits / lookups if lookups else 0.0,
        },
        "session": {
            "bank_passes": int(metrics.counters.get(BANK_PASSES_METRIC, 0.0)),
            "passes_saved": int(
                metrics.counters.get(PASSES_SAVED_METRIC, 0.0)
            ),
        },
    }
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    if args.json_path:
        with open(args.json_path, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.json_path}")
    else:
        print(rendered)
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    """cProfile one experiment; optionally census hot branch sites."""
    scale = _scale_from_args(args)
    result, stats_text = profile_experiment(
        args.experiment, scale, sort=args.sort, limit=args.limit
    )
    print(f"# profile: {args.experiment} ({result.title})")
    print(stats_text)
    if args.hot_branches:
        for workload in scale.workloads:
            __, table = hot_branches(
                workload, args.predictor, scale, top=args.top
            )
            print(table.to_text())
            print()
    return 0


def _command_journal(args: argparse.Namespace) -> int:
    """Validate journal files against the event schema."""
    status = 0
    for path in args.paths:
        print(obs_journal.summarize(path))
        __, errors = obs_journal.validate_journal(path)
        if errors:
            status = 1
    return status


def _command_cache(args: argparse.Namespace) -> int:
    cache = artifact_cache.get_cache()
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifacts from {cache.root}")
        return 0
    if args.cache_command == "verify":
        report = cache.verify()
        print(f"cache directory: {cache.root}")
        print(f"checked:         {report['checked']} entries")
        print(f"ok:              {report['ok']}")
        print(f"corrupt:         {len(report['corrupt'])}")
        for key in report["corrupt"]:
            print(f"  corrupt: {key}")
        print(f"unreadable:      {len(report['unreadable'])}")
        for key in report["unreadable"]:
            print(f"  unreadable: {key}")
        return 1 if report["corrupt"] or report["unreadable"] else 0
    info = cache.info()
    stats = info["stats"]
    print(f"cache directory: {info['root']}")
    print(f"enabled:         {info['enabled']}")
    print(f"version salt:    {info['salt']}")
    print(f"entries:         {info['files']} files, {info['bytes']:,} bytes")
    print(
        "session stats:   "
        f"{stats['hits']} hits, {stats['misses']} misses,"
        f" {stats['writes']} writes, {stats['errors']} errors,"
        f" {stats['corrupt']} corrupt"
    )
    for kind, detail in info["kinds"].items():
        print(f"  {kind:14s} {detail['files']:4d} files  {detail['bytes']:,} bytes")
    return 0


def _plottable() -> tuple:
    """Experiment ids whose specs declare a plotted figure."""
    return tuple(
        spec.experiment_id for spec in SPECS.in_order() if spec.plot
    )


PLOTTABLE = _plottable()


def _command_plot(args: argparse.Namespace) -> int:
    """Render a figure experiment as ASCII charts."""
    result = run_experiment(args.experiment, _scale_from_args(args))
    experiment_id = args.experiment
    if experiment_id == "fig1":
        print(figure1_chart(result.data["curves"]))
        return 0
    if experiment_id == "fig3":
        lines = {"enhanced": result.data["enhanced"], "original": result.data["original"]}
        for metric in ("pvp", "pvn"):
            print(sweep_chart(lines, f"Figure 3: {metric} vs threshold", metric))
            print()
        return 0
    if experiment_id in ("fig4", "fig5"):
        lines = {
            f"{size} MDCs": line for size, line in result.data["lines"].items()
        }
        for metric in ("pvp", "pvn"):
            print(sweep_chart(lines, f"{result.title}: {metric}", metric))
            print()
        return 0
    # distance figures
    print(
        distance_chart(
            {"all": result.data["all"], "committed": result.data["committed"]},
            result.title,
        )
    )
    return 0


def _command_workload(args: argparse.Namespace) -> int:
    profile = get_profile(args.name)
    if args.source:
        print(generate_source(profile, iterations=args.iterations))
        return 0
    program = workload_program(args.name, args.iterations)
    run = workload_run(args.name, args.iterations)
    print(f"workload {profile.name}: {profile.description}")
    print(f"  static sites:     {len(profile.sites)}")
    print(f"  code size:        {len(program)} instructions")
    print(f"  dynamic instr:    {run.stats.instructions:,}")
    print(f"  dynamic branches: {run.stats.branches:,}")
    print(f"  branch fraction:  {run.stats.branch_fraction:.1%}")
    print(f"  taken rate:       {run.trace.taken_rate:.1%}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    program = workload_program(args.name, args.iterations)
    traced = trace_branches(program)
    traced.trace.save(args.output)
    print(
        f"wrote {len(traced.trace):,} branches"
        f" ({traced.stats.instructions:,} instructions) to {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Confidence Estimation for Speculation Control (ISCA 1998)"
        " -- reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list experiments and workloads"
    )
    list_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit the battery table as markdown (what README.md embeds)",
    )

    run_parser = subparsers.add_parser(
        "run", help="run one experiment (or the whole battery if omitted)"
    )
    run_parser.add_argument(
        "experiment", nargs="?", default=None, choices=sorted(SPECS)
    )
    run_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_scale_arguments(run_parser)
    _add_execution_arguments(run_parser)

    run_all_parser = subparsers.add_parser("run-all", help="run the whole battery")
    run_all_parser.add_argument("--only", default=None, help="comma-separated ids")
    run_all_parser.add_argument("--out", default=None, help="write report to a file")
    _add_scale_arguments(run_all_parser)
    _add_execution_arguments(run_all_parser)

    speculate_parser = subparsers.add_parser(
        "speculate",
        help="run the speculation-control battery"
        f" ({', '.join(SPECULATION_BATTERY)})",
    )
    speculate_parser.add_argument(
        "--out", default=None, help="write the report to a file"
    )
    _add_scale_arguments(speculate_parser)
    _add_execution_arguments(speculate_parser)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run a battery and emit a machine-readable benchmark summary"
        " (wall time, branches/s, cache hit rate, bank passes saved)",
    )
    bench_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the JSON summary to PATH instead of stdout",
    )
    bench_parser.add_argument(
        "--only", default=None, help="comma-separated experiment ids"
    )
    bench_parser.add_argument(
        "--compare",
        nargs=2,
        default=None,
        metavar=("BASELINE.json", "CANDIDATE.json"),
        help="compare two bench snapshots instead of running a battery:"
        " print the speedup table and apply --min-speedup /"
        " --max-regression gates (exit 1 on violation)",
    )
    bench_parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="with --compare: fail unless candidate branches/s is at"
        " least X times the baseline's",
    )
    bench_parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="FRACTION",
        help="with --compare: fail if candidate branches/s regresses"
        " more than FRACTION (e.g. 0.25) below the baseline",
    )
    bench_parser.add_argument(
        "--metric",
        choices=sorted(BENCH_METRIC_SECTIONS),
        default="replay",
        help="with --compare: which throughput to gate -- trace-replay"
        " branches/s (replay, default) or cycle-level pipeline"
        " branches/s (pipeline, repro-bench/3+ snapshots)",
    )
    _add_scale_arguments(bench_parser)
    bench_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the battery (default: $REPRO_JOBS or 1)",
    )
    bench_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk artifact cache for this invocation",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk artifact cache"
    )
    cache_parser.add_argument(
        "cache_command",
        choices=("info", "clear", "verify"),
        help="info: show location/size/hit-rates; clear: delete all"
        " entries; verify: unpickle every entry and report corrupt ones"
        " (exit 1 if any)",
    )

    profile_parser = subparsers.add_parser(
        "profile",
        help="run one experiment under cProfile"
        " (optionally with a hot-branch census)",
    )
    profile_parser.add_argument("experiment", choices=sorted(SPECS))
    _add_scale_arguments(profile_parser)
    profile_parser.add_argument(
        "--sort", choices=SORT_KEYS, default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    profile_parser.add_argument(
        "--limit", type=int, default=25, help="pstats rows to print"
    )
    profile_parser.add_argument(
        "--hot-branches",
        action="store_true",
        help="also print the top mispredicting branch sites per workload",
    )
    profile_parser.add_argument(
        "--predictor",
        default="gshare",
        help="predictor for the hot-branch census (default: gshare)",
    )
    profile_parser.add_argument(
        "--top", type=int, default=10, help="hot-branch sites to list"
    )

    journal_parser = subparsers.add_parser(
        "journal", help="validate and summarise JSONL run journals"
    )
    journal_parser.add_argument("paths", nargs="+", metavar="JOURNAL")

    plot_parser = subparsers.add_parser(
        "plot", help="render a figure experiment as an ASCII chart"
    )
    plot_parser.add_argument("experiment", choices=PLOTTABLE)
    _add_scale_arguments(plot_parser)

    workload_parser = subparsers.add_parser(
        "workload", help="inspect a synthetic workload"
    )
    workload_parser.add_argument("name", choices=SUITE)
    workload_parser.add_argument("--iterations", type=int, default=None)
    workload_parser.add_argument(
        "--source", action="store_true", help="print the generated assembly"
    )

    trace_parser = subparsers.add_parser(
        "trace", help="write a workload's branch trace to a file"
    )
    trace_parser.add_argument("name", choices=SUITE)
    trace_parser.add_argument("output")
    trace_parser.add_argument("--iterations", type=int, default=None)

    return parser


_COMMANDS = {
    "list": _command_list,
    "run": _command_run,
    "run-all": _command_run_all,
    "speculate": _command_speculate,
    "bench": _command_bench,
    "cache": _command_cache,
    "plot": _command_plot,
    "profile": _command_profile,
    "journal": _command_journal,
    "workload": _command_workload,
    "trace": _command_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
