"""Compare two sets of benchmark invocations, such as two runs of one commit.

    python bench/agree.py A B

``A`` and ``B`` are result sets written by ``run.py --out DIR`` (the
directory, or its ``results.json``); ``A`` is the baseline side.  For
every (workload, end-to-end metric) the table gives each side's median,
q1, q3 and n over its untraced invocations and the change of B's median
against A's, signed so that positive is worse.  A row is

* ``unresolved`` when A's own spread (q3 - q1) is wider than the bound
  times A's median: the set cannot resolve a change that small;
* ``agree`` when B's median is within the bound of A's, either way;
* ``disagree`` otherwise, or when one side has no invocation.

Bounds come only from BENCHMARK.json.  Exits 1 on any ``disagree``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from suite import load_benchmark, summarize


def load_values(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> [value per untraced invocation]``."""
    if path.is_dir():
        path = path / "results.json"
    values: Dict[str, Dict[str, List[float]]] = {}
    for record in json.loads(path.read_text(encoding="utf-8")):
        if record["trace"]:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values


def verdict(
    baseline: Optional[Dict[str, float]],
    candidate: Optional[Dict[str, float]],
    bound: float,
) -> str:
    if baseline is None or candidate is None:
        return "disagree"
    median = baseline["median"]
    if baseline["q3"] - baseline["q1"] > bound * abs(median):
        return "unresolved"
    return "agree" if abs(candidate["median"] - median) <= bound * abs(median) else "disagree"


def _cell(summary: Optional[Dict[str, float]]) -> str:
    if summary is None:
        return f"{'-':>34}"
    return (
        f"{summary['median']:>10.4f} [{summary['q1']:.4f}, {summary['q3']:.4f}]"
        f" n={summary['n']}"
    ).rjust(34)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = (load_values(Path(arg)) for arg in argv)
    benchmark = load_benchmark()
    print(f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}"
          f" {'change':>8} {'bound':>6}  verdict")
    disagreements = 0
    for workload in sorted(set(side_a) | set(side_b)):
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            summaries = [
                summarize(side[workload][name])
                if name in side.get(workload, {}) else None
                for side in (side_a, side_b)
            ]
            row = verdict(*summaries, bound=bound)
            change = "-"
            if None not in summaries:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                base = summaries[0]["median"]
                change = f"{sign * (summaries[1]['median'] - base) / base:+.2%}"
            disagreements += row == "disagree"
            print(f"{workload:<12} {name:<12} {_cell(summaries[0])} {_cell(summaries[1])}"
                  f" {change:>8} {bound:>6.0%}  {row}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
