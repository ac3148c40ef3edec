"""The benchmark's workloads and the helpers its scripts share.

Each workload is one battery selection at one scale, run through the
public ``repro.harness.run_all`` with ``jobs=1``.  The sizes are cut so
that several invocations of every workload fit in one measuring window
(BENCHMARK.json ``run_seconds``); BENCHMARK.json records why each
workload exists, README.md what each one stresses.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SUITE = ("compress", "gcc", "perl", "go", "m88ksim", "xlisp", "vortex", "jpeg")
REPLAY = ("fig1", "tab2", "tab2d", "tab3", "tab4", "fig3", "fig4", "fig5", "boost")
PIPELINE = ("tab1", "fig6", "fig7", "fig8", "fig9")


@dataclass(frozen=True)
class Workload:
    """One battery selection; ``scale`` holds ``repro.harness.Scale`` fields."""

    name: str
    experiments: Tuple[str, ...]
    scale: Mapping[str, object] = field(default_factory=dict)


#: The ``quick`` preset.  Each workload below cuts it to about one
#: second per invocation on a quiet two-core host, so that a 30 s window
#: holds 10-25 invocations and its medians average over the host's
#: second-to-second swings.
_QUICK = {"iterations": 120, "pipeline_instructions": 100_000, "workloads": SUITE}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("replay", REPLAY, {**_QUICK, "iterations": 60}),
        Workload(
            "pipeline", PIPELINE, {**_QUICK, "iterations": 40, "pipeline_instructions": 20_000}
        ),
        Workload(
            "speculation",
            ("speculation-gating", "speculation-eager", "speculation-inversion"),
            {
                **_QUICK,
                "iterations": 40,
                "pipeline_instructions": 3_000,
                "workloads": ("gcc", "go", "vortex", "jpeg"),
            },
        ),
        Workload(
            "ooo",
            ("fig6", "fig7", "fig8", "fig9"),
            {**_QUICK, "pipeline_instructions": 3_000, "backend": "ooo"},
        ),
    )
}


def repro_modules() -> List[object]:
    """Every loaded ``repro`` module, for rebinding names in all of them."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles``) and n."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
