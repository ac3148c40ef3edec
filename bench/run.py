"""Run the benchmark: host time of the paper's battery, end to end and per layer.

    python bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                        [--trace 0|1] [--out DIR]
    python bench/run.py --write-reference [--workload NAME|all]

Load model: one closed-loop client.  For ``--seconds`` seconds this
script starts one invocation at a time -- a fresh ``child.py`` process
with its own artifact cache running ``repro.harness.run_all`` with
``jobs=1`` -- and waits for it to exit before starting the next.  Every
number is host time or host memory, reported as the median over the
window's invocations.  Each child runs pinned to the host's quietest
CPU, and its two times are scaled to the reference host speed by a
calibration taken on that CPU around it (``host.py``); the measured
times are printed next to them.  Simulated statistics are only checked,
against the committed references in ``reference/`` for seeds 0 and 1
and for agreement between invocations for any other seed.

``--trace 1`` alternates untraced and traced invocations and reports
the per-layer split (``layers.py``) of the traced ones, the time no
span covers, and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``
(experiments) and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import host
import layers
import reference
from suite import BENCH_DIR, ROOT, WORKLOADS, Workload, load_benchmark, summarize

WORK_DIR = ROOT / ".bench_work"
#: One workload's invocations end within this.
DEADLINE_S = 170.0
#: Printed and saved with the end-to-end metrics: what ``wall_s`` and
#: ``setup_s`` were scaled from.
HOST_SUMMARIES = ("measured_wall_s", "measured_setup_s", "calibration_s")


@dataclass
class Invocation:
    traced: bool
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    cache_mb: float
    output: Optional[dict]  # None when the child exited non-zero
    #: Mean of ``host.calibrate()`` on the child's CPU just before and
    #: just after it.
    calibration_s: float = host.REFERENCE_CALIBRATION_S

    @property
    def total_s(self) -> float:
        return self.setup_s + self.wall_s

    def at_reference_speed(self, seconds: float) -> float:
        return seconds * host.REFERENCE_CALIBRATION_S / self.calibration_s


def _tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def _child_env(cache_dir: Path) -> Dict[str, str]:
    # the battery's own knobs stay at their defaults; only the cache
    # location (a deployment path) is set
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # like jobs=1: a second BLAS thread on a two-core host would time
    # the scheduler, not the program
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(
    workload: Workload,
    seed: int,
    directory: Path,
    traced: bool = False,
    deadline: Optional[float] = None,
) -> Invocation:
    """Run one child in ``directory`` and measure it; the child is killed
    (and counts as failed) if it is still running at ``deadline``."""
    directory.mkdir(parents=True)
    cache_dir, out_file = directory / "cache", directory / "out.json"
    command = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--out", str(out_file),
    ]
    if traced:
        command.append("--trace")
    spawned = time.perf_counter()
    if deadline is None:
        deadline = spawned + DEADLINE_S
    child = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(cache_dir), stdout=subprocess.PIPE
    )
    watchdog = threading.Timer(max(deadline - spawned, 1.0), child.kill)
    watchdog.start()
    try:
        child.stdout.readline()  # "ready", or EOF if the child died first
        ready = time.perf_counter()
        child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        exited = time.perf_counter()
    finally:
        watchdog.cancel()
        if child.returncode is None:
            child.kill()
            child.wait()
        child.stdout.close()
    output = None
    if child.returncode == 0:
        with open(out_file, encoding="utf-8") as handle:
            output = json.load(handle)
    invocation = Invocation(
        traced=traced,
        setup_s=ready - spawned,
        wall_s=exited - ready,
        peak_rss_mb=usage.ru_maxrss * 1024 / layers.MB,
        cache_mb=_tree_bytes(cache_dir) / layers.MB if cache_dir.exists() else 0.0,
        output=output,
    )
    shutil.rmtree(directory, ignore_errors=True)
    return invocation


@dataclass
class WorkloadRun:
    workload: Workload
    seed: int
    invocations: List[Invocation]

    def good(self, traced: bool) -> List[Invocation]:
        return [
            inv for inv in self.invocations if inv.output is not None and inv.traced == traced
        ]


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> WorkloadRun:
    """Invocations of ``workload`` for ``seconds``.

    The window admits another invocation only while the previous one's
    duration still fits, so a run measures ``seconds`` and never much
    more; it always holds at least one invocation (two when traced, one
    untraced and one traced).  It stops early on a failed invocation.
    Each invocation runs on the CPU that calibrates fastest just before
    it and is calibrated again there just after it.
    """
    start = time.perf_counter()
    deadline, window_end = start + DEADLINE_S, start + seconds
    cpus = host.allowed_cpus()
    invocations: List[Invocation] = []
    minimum = 2 if trace else 1
    try:
        while len(invocations) < minimum or (
            time.perf_counter() + invocations[-1].total_s <= window_end
        ):
            before = host.pin_quietest_cpu(cpus)
            invocation = invoke(
                workload,
                seed,
                work / f"invocation-{len(invocations)}",
                traced=trace and len(invocations) % 2 == 1,
                deadline=deadline,
            )
            invocation.calibration_s = (before + host.calibrate()) / 2
            invocations.append(invocation)
            if invocation.output is None:
                break
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return WorkloadRun(workload, seed, invocations)


def check(run: WorkloadRun) -> Dict[str, object]:
    """Experiments attempted/failed over every invocation, with how checked."""
    experiments = run.workload.experiments
    expected = reference.load_reference(run.workload.name, run.seed)
    path = reference.reference_path(run.workload.name, run.seed)
    source = f"reference {path.relative_to(ROOT)}"
    if expected is None:
        # no reference for this seed: invocations of one seed must agree
        source = "unverified (no reference for this seed); invocations compared to each other"
        expected = next((inv.output["blocks"] for inv in run.invocations if inv.output), None)
    attempted = failed = 0
    for invocation in run.invocations:
        blocks = invocation.output["blocks"] if invocation.output else None
        attempted += len(experiments)
        failed += len(reference.failed_experiments(experiments, blocks, expected))
    return {"source": source, "attempted": attempted, "failed": failed}


def end_to_end(run: WorkloadRun) -> Dict[str, Dict[str, float]]:
    """Summaries of the end-to-end metrics, and of what the two times
    were scaled from: the measured times and the calibration."""
    good = run.good(traced=False)
    return {
        "wall_s": summarize([inv.at_reference_speed(inv.wall_s) for inv in good]),
        "setup_s": summarize([inv.at_reference_speed(inv.setup_s) for inv in good]),
        "peak_rss_mb": summarize([inv.peak_rss_mb for inv in good]),
        "cache_mb": summarize([inv.cache_mb for inv in good]),
        "measured_wall_s": summarize([inv.wall_s for inv in good]),
        "measured_setup_s": summarize([inv.setup_s for inv in good]),
        "calibration_s": summarize([inv.calibration_s for inv in good]),
    }


def per_layer(run: WorkloadRun) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-layer summaries over the traced invocations, and the worst
    share of a traced wall time that the layer self times plus
    ``unattributed_s`` leave out (a span outside ``layers.LAYERS``)."""
    samples: Dict[str, List[float]] = {}
    gap = 0.0
    for invocation in run.good(traced=True):
        output = invocation.output
        metrics = layers.layer_metrics(output["spans"], invocation.wall_s, output["counters"])
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
        covered = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
        missing = invocation.wall_s - covered - metrics["unattributed_s"]
        gap = max(gap, abs(missing) / invocation.wall_s)
    summaries = {name: summarize(values) for name, values in samples.items()}
    # invocations alternate untraced, traced: compare neighbours, each
    # at the reference speed, so host-speed drift cancels
    summaries["trace_overhead"] = summarize(
        [
            traced.at_reference_speed(traced.wall_s) / plain.at_reference_speed(plain.wall_s)
            - 1.0
            for plain, traced in zip(run.invocations[0::2], run.invocations[1::2])
            if plain.output and traced.output
        ]
    )
    return summaries, gap


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, benchmark: dict, out: Optional[Path]
) -> Optional[dict]:
    """Measure, check and print one workload; returns its result or None."""
    workload = WORKLOADS[name]
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    verdict = check(run)
    print(
        f"workload {name} seed {seed} trace {int(trace)}:"
        f" {len(run.invocations)} invocation(s) in a {seconds:g} s window"
    )
    if not run.good(traced=False) or (trace and not run.good(traced=True)):
        print(f"error: workload {name}: no invocation succeeded", file=sys.stderr)
        return None
    if trace:
        summaries, gap = per_layer(run)
        wanted = benchmark["per_layer"]
    else:
        summaries, wanted = end_to_end(run), benchmark["end_to_end"]
    metrics = {}
    for metric in wanted:
        summary = summaries[metric["name"]]
        metrics[metric["name"]] = {"value": summary["median"], "unit": metric["unit"]}
        _print_summary(metric["name"], summary, metric["unit"])
    if not trace:
        for name in HOST_SUMMARIES:
            _print_summary(name, summaries[name], "s")
    attempted, failed = verdict["attempted"], verdict["failed"]
    print(f"  {'fail_frac':<40} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    if trace:
        _warn_absent(run)
        print(f"split: layer self times + unattributed_s = traced wall_s within {gap:.3%}")
    print(f"check: {verdict['source']}: {attempted - failed}/{attempted} experiment outputs ok")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if out is not None:
        _save(out, run, trace, seconds, result, summaries)
    return result


def _print_summary(name: str, summary: Dict[str, float], unit: str) -> None:
    print(
        f"  {name:<40} {summary['median']:>14.6g} {unit:<6}"
        f" q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  n {summary['n']}"
    )


def _warn_absent(run: WorkloadRun) -> None:
    names = {name for inv in run.good(traced=True) for name in inv.output["absent"]}
    for name in sorted(names):
        print(f"warning: traced call {name} not found; its layer reads 0", file=sys.stderr)


def _save(
    out: Path, run: WorkloadRun, trace: bool, seconds: float, result: dict, summaries
) -> None:
    """Append the result, with the in-run quartiles of every metric (and
    the host summaries when untraced), to ``out/results.json``; when
    traced, also write the last traced invocation's spans."""
    out.mkdir(parents=True, exist_ok=True)
    results_file = out / "results.json"
    records = json.loads(results_file.read_text()) if results_file.exists() else []
    record = {"workload": run.workload.name, "seed": run.seed, "trace": int(trace)}
    record.update(seconds=seconds, **result)
    record["metrics"] = {
        name: {**value, **{k: summaries[name][k] for k in ("q1", "q3", "n")}}
        for name, value in result["metrics"].items()
    }
    if not trace:
        record["host"] = {name: summaries[name] for name in HOST_SUMMARIES}
    records.append(record)
    results_file.write_text(json.dumps(records, indent=1) + "\n")
    if trace:
        last = run.good(traced=True)[-1]
        (out / f"trace-{run.workload.name}.json").write_text(
            json.dumps(
                {
                    "workload": run.workload.name,
                    "seed": run.seed,
                    "wall_s": last.wall_s,
                    "absent": last.output["absent"],
                    "spans": last.output["spans"],
                }
            )
        )


def write_reference(names: List[str]) -> int:
    """Regenerate ``reference/<workload>.seed{0,1}.txt`` from one invocation each."""
    for name in names:
        for seed in (0, 1):
            work = WORK_DIR / f"reference-{name}-{seed}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                invocation = invoke(WORKLOADS[name], seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if invocation.output is None:
                print(f"error: {name} seed {seed} failed", file=sys.stderr)
                return 1
            path = reference.reference_path(name, seed)
            path.parent.mkdir(exist_ok=True)
            blocks = invocation.output["blocks"]
            path.write_text(reference.format_blocks(blocks), encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append results (and traces) here")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # on SIGTERM, still stop and reap the current child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.write_reference:
            return write_reference(names)
        return run_workloads(names, args, benchmark)
    finally:
        # removed only when empty: a concurrent run may still be using it
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def run_workloads(names: List[str], args: argparse.Namespace, benchmark: dict) -> int:
    """Run ``names`` in turn; print the result JSON (combined over all)."""
    results = {}
    for name in names:
        result = run_workload(
            name, args.seed, args.seconds, bool(args.trace), benchmark, args.out
        )
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
