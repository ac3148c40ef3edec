"""Unit tests of the benchmark's own machinery: ``pytest bench/``."""

from __future__ import annotations

import os
import re
import sys

import pytest

from suite import ROOT, WORKLOADS, load_benchmark, repro_modules

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import repro.harness  # noqa: E402,F401  (loads every module the battery uses)

import agree  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import seeding  # noqa: E402


def _span(name, parent, start, end, counts=None):
    return {"name": name, "parent": parent, "start": start, "end": end, "counts": counts}


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("harness.experiment", -1, 0.0, 10.0),
        _span("engine.measure", 0, 1.0, 4.0),
        _span("engine.vector", 1, 2.0, 3.0),
        _span("engine.vector", 0, 5.0, 9.0),
        _span("harness.render", -1, 10.5, 11.0),
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 0.5])
    assert layers.top_level_seconds(spans) == pytest.approx(10.5)


def test_layer_self_times_and_unattributed_add_up_to_wall():
    spans = [
        _span("harness.experiment", -1, 0.0, 6.0),
        _span("speculation", 0, 0.5, 5.5),
        _span("pipeline.run.inorder", 1, 1.0, 2.0,
              {"branches": 100, "cycles": 400, "committed": 900, "squashed": 100}),
        _span("pipeline.run.gated", 1, 2.0, 4.0,
              {"branches": 50, "cycles": 500, "committed": 900, "squashed": 0}),
        _span("engine.cache.store", -1, 6.0, 6.25, {"bytes": 1 << 20}),
    ]
    metrics = layers.layer_metrics(spans, wall_s=7.0, counters={})
    self_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_total + metrics["unattributed_s"] == pytest.approx(7.0)
    assert metrics["unattributed_s"] == pytest.approx(0.75)
    assert metrics["speculation.self_s"] == pytest.approx(2.0)
    assert metrics["pipeline.run.inorder.branches_per_s"] == pytest.approx(100.0)
    assert metrics["pipeline.run.inorder.useful_ratio"] == pytest.approx(0.9)
    assert metrics["pipeline.run.gated.calls"] == 1
    assert metrics["engine.cache.write_mb"] == pytest.approx(1.0)
    assert {name for name, _, _ in layers.metric_definitions()} == set(metrics) | {
        "trace_overhead"
    }


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------


def test_seed_zero_leaves_profiles_unchanged():
    profiles = sys.modules["repro.workloads.profiles"]
    original = profiles.get_profile
    before = original("gcc")
    assert seeding.reseed(0) == []
    assert profiles.get_profile is original
    assert profiles.get_profile("gcc") == before


def test_seed_one_is_deterministic_with_odd_nonzero_lcg_seed():
    profiles = sys.modules["repro.workloads.profiles"]
    original = profiles.get_profile
    rebound = seeding.reseed(1)
    try:
        corpus = sys.modules["repro.engine.corpus"]
        assert corpus.get_profile is profiles.get_profile is not original
        for name in ("gcc", "jpeg"):
            first, second = profiles.get_profile(name), profiles.get_profile(name)
            assert first == second
            assert first.lcg_seed % 2 == 1 and 0 < first.lcg_seed < 2**30
            assert (first.data_seed, first.lcg_seed) == seeding.derived_seeds(1, name)
            assert first.sites == original(name).sites
            assert first.default_iterations == original(name).default_iterations
            assert first != original(name)
    finally:
        seeding.restore(rebound)
    assert profiles.get_profile is original


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _bindings():
    found = {
        (module.__name__, attr): value
        for module in repro_modules()
        for attr, value in vars(module).items()
    }
    for target in layers.TARGETS:
        owner, _, attr = target.name.rpartition(".")
        if owner:
            cls = getattr(sys.modules[target.module], owner)
            found[(target.module, target.name)] = vars(cls)[attr]
    for eid, spec in sys.modules["repro.harness.spec"].SPECS.items():
        found[("SPECS", eid)] = spec.run
    return found


def test_install_then_remove_restores_identical_objects():
    before = _bindings()
    recorder = layers.SpanRecorder()
    installation = layers.install(recorder)
    try:
        assert installation.absent == []
        runner = sys.modules["repro.harness.runner"]
        assert runner.render_report is not before[("repro.harness.runner", "render_report")]
        assert sys.modules["repro.harness"].render_report is runner.render_report
        assert sys.modules["repro.harness.spec"].SPECS["tab2"].run is not before[("SPECS", "tab2")]
        runner.render_report({}, repro.harness.SMOKE, clock=lambda: "t", performance=False)
        assert [span[0] for span in recorder.spans] == ["harness.render"]
    finally:
        layers.remove(installation)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_missing_target_is_reported_absent():
    ghost = layers.Target("workloads", "repro.workloads.generator", "no_such_function")
    installation = layers.install(layers.SpanRecorder(), targets=(ghost,))
    layers.remove(installation)
    assert installation.absent == ["repro.workloads.generator.no_such_function"]


def test_battery_does_not_load_the_serving_tier():
    assert "repro.serve" not in sys.modules


# ----------------------------------------------------------------------
# reference check
# ----------------------------------------------------------------------


def test_reference_check_flags_one_character_and_raised_experiments():
    expected = reference.load_reference("replay", 0)
    experiments = WORKLOADS["replay"].experiments
    assert list(expected) == list(experiments)
    assert reference.parse_blocks(reference.format_blocks(expected)) == expected
    assert reference.failed_experiments(experiments, dict(expected), expected) == []

    changed = dict(expected)
    index = changed["tab2"].index("%")
    changed["tab2"] = changed["tab2"][: index - 1] + "#" + changed["tab2"][index:]
    assert reference.failed_experiments(experiments, changed, expected) == ["tab2"]

    raised = dict(expected, boost=None)
    assert reference.failed_experiments(experiments, raised, expected) == ["boost"]
    assert reference.failed_experiments(experiments, None, expected) == list(experiments)
    # without a reference only raised or missing outputs fail
    assert reference.failed_experiments(experiments, changed, None) == []
    assert reference.failed_experiments(experiments, raised, None) == ["boost"]


def test_every_workload_has_both_seed_references():
    for name, workload in WORKLOADS.items():
        for seed in (seeding.DEV_SEED, seeding.HELD_OUT_SEED):
            blocks = reference.load_reference(name, seed)
            assert blocks is not None and list(blocks) == list(workload.experiments)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_counts():
    benchmark = load_benchmark()
    end_to_end = [metric["name"] for metric in benchmark["end_to_end"]]
    per_layer = [metric["name"] for metric in benchmark["per_layer"]]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = end_to_end + per_layer + [workload["name"] for workload in benchmark["workloads"]]
    assert all(_NAME.fullmatch(name) for name in names)
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == (
        layers.metric_definitions()
    )
    assert [workload["name"] for workload in benchmark["workloads"]] == list(WORKLOADS)
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------


def _invocation(setup_s, wall_s, calibration_s, traced=False):
    return run.Invocation(traced, setup_s, wall_s, 50.0, 1.0, {}, calibration_s)


def test_times_are_scaled_to_the_reference_speed():
    reference_s = host.REFERENCE_CALIBRATION_S
    slow = _invocation(0.6, 2.0, 2 * reference_s)
    assert slow.at_reference_speed(slow.wall_s) == pytest.approx(1.0)
    summaries = run.end_to_end(
        run.WorkloadRun(WORKLOADS["ooo"], 0, [slow, _invocation(0.3, 1.2, reference_s)])
    )
    assert summaries["wall_s"]["median"] == pytest.approx(1.1)
    assert summaries["setup_s"]["median"] == pytest.approx(0.3)
    assert summaries["measured_wall_s"]["median"] == pytest.approx(1.6)
    assert summaries["calibration_s"]["median"] == pytest.approx(1.5 * reference_s)


def test_calibration_pins_to_an_allowed_cpu():
    cpus = host.allowed_cpus()
    try:
        assert host.pin_quietest_cpu(cpus) > 0
        if len(cpus) > 1:
            assert len(os.sched_getaffinity(0)) == 1 and os.sched_getaffinity(0) <= cpus
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


def test_agree_verdicts():
    base = {"median": 10.0, "q1": 9.9, "q3": 10.1, "n": 5}
    assert agree.verdict(base, dict(base, median=10.5), bound=0.1) == "agree"
    assert agree.verdict(base, dict(base, median=11.5), bound=0.1) == "disagree"
    assert agree.verdict(base, dict(base, median=8.5), bound=0.1) == "disagree"
    wide = dict(base, q1=9.0, q3=11.5)
    assert agree.verdict(wide, dict(base, median=13.0), bound=0.1) == "unresolved"
    assert agree.verdict(base, None, bound=0.1) == "disagree"
