"""One benchmark invocation: run a workload's battery in a fresh process.

``run.py`` starts this script with ``REPRO_CACHE_DIR`` naming the
invocation's own artifact cache and waits for the line ``ready`` on
standard output; the time from spawn to that line is set-up
(interpreter, imports, reseeding, wrappers, cache-dir preparation) and
the time from it to exit is the run.  The outputs -- every
experiment's ``to_text()`` block as it appears in the deterministic
report, registry counters and, when traced, the spans -- go to the JSON
file named by ``--out``.

    python bench/child.py --workload NAME --seed N --out FILE [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import layers
import seeding
from suite import WORKLOADS

#: ``generated:`` line of the report, so its text is reproducible.
FIXED_CLOCK = "1998-06-27 00:00:00"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import repro.harness as harness
    from repro.obs.registry import REGISTRY

    seeding.reseed(args.seed)
    recorder = installation = None
    if args.trace:
        recorder = layers.SpanRecorder()
        installation = layers.install(recorder)
    os.makedirs(os.environ["REPRO_CACHE_DIR"])
    scale = harness.Scale(**workload.scale)
    before = {name: REGISTRY.counter_value(name) for name in layers.COUNTERS}
    print("ready", flush=True)

    results = harness.run_all(scale, only=workload.experiments, jobs=1)
    report = harness.render_report(
        results, scale, clock=lambda: FIXED_CLOCK, performance=False
    )
    blocks = {eid: result.to_text() for eid, result in results.items()}
    output = {
        # a block the report does not print counts as a failed experiment
        "blocks": {eid: text if text in report else None for eid, text in blocks.items()},
        "counters": {
            name: REGISTRY.counter_value(name) - start for name, start in before.items()
        },
    }
    if recorder is not None:
        output["spans"] = recorder.as_json()
        output["absent"] = installation.absent
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
