"""Tests for the speculation-control battery: experiment registration,
cell caching, parallel equivalence, report section, journal events and
the ``repro speculate`` CLI entry point."""

import dataclasses
import json

import pytest

from repro.confidence import SaturatingCountersEstimator
from repro.engine import cache as artifact_cache
from repro.engine import clear_cache, vector, workload_program
from repro.harness import (
    GATE_THRESHOLDS,
    SPECS,
    SPECULATION_BATTERY,
    SPECULATION_ESTIMATORS,
    Scale,
    clear_memoised,
    plan_warm_levels,
    render_report,
    render_speculation_control,
    run_all,
    run_experiment,
)
from repro.harness import experiments, speculation
from repro.harness.experiments import STANDARD_FAMILIES, _pipeline_result
from repro.harness.speculation import SPECULATION_PREDICTOR
from repro.obs.journal import RunJournal, read_journal
from repro.obs.registry import REGISTRY
from repro.pipeline import (
    OutOfOrderSimulator,
    PipelineConfig,
    PipelineSimulator,
    create_simulator,
    decoded_run,
)
from repro.predictors import GsharePredictor, make_predictor
from repro.speculation import inversion

#: Small enough for unit tests, big enough to gate/fork at least once.
TINY = Scale(iterations=40, pipeline_instructions=4000, workloads=("compress",))


@pytest.fixture()
def isolated_cache(tmp_path):
    """A fresh disk cache + empty in-process memo tier."""
    previous_root = artifact_cache.get_cache().root
    previous_enabled = artifact_cache.get_cache().enabled
    artifact_cache.configure(root=tmp_path / "cache", enabled=True)
    clear_memoised()
    clear_cache()
    yield artifact_cache.get_cache()
    artifact_cache.configure(root=previous_root, enabled=previous_enabled)
    clear_memoised()
    clear_cache()


class TestRegistration:
    def test_battery_registered_in_experiments(self):
        for experiment_id in SPECULATION_BATTERY:
            assert experiment_id in SPECS

    def test_direct_import_order_also_registers(self):
        # importing the speculation module first must not break the
        # bottom-of-module self-registration
        from repro.harness import speculation

        registered = {
            eid for eid in SPECS if SPECS.registrant(eid) == speculation.__name__
        }
        assert registered == set(SPECULATION_BATTERY)


class TestGatingExperiment:
    def test_table_and_cells(self, isolated_cache):
        result = run_experiment("speculation-gating", TINY)
        (table,) = result.tables
        assert "Speculation control" in table.title
        expected_rows = (
            len(TINY.workloads) * len(SPECULATION_ESTIMATORS) * len(GATE_THRESHOLDS)
        )
        assert len(table.rows) == expected_rows
        assert len(result.data["cells"]) == expected_rows

    def test_gating_saves_wrong_path_work(self, isolated_cache):
        result = run_experiment("speculation-gating", TINY)
        # at threshold 1 every estimator should suppress some fetch and
        # save some squashed instructions on this branchy workload
        for (__, __, threshold), cell in result.data["cells"].items():
            if threshold == 1:
                assert cell.gated_cycles > 0
                assert cell.wrong_path_saved > 0

    def test_journal_rows_are_json_safe(self, isolated_cache):
        result = run_experiment("speculation-gating", TINY)
        rows = result.data["journal_rows"]
        assert len(rows) == len(result.data["cells"])
        json.dumps(rows)  # must not raise

    def test_registry_metrics_counted(self, isolated_cache):
        before = REGISTRY.snapshot()
        run_experiment("speculation-gating", TINY)
        delta = REGISTRY.since(before).counters
        assert delta.get("speculation.gated_cycles", 0) > 0
        assert delta.get("speculation.wrong_path_instructions", 0) > 0
        assert delta.get("speculation.recovery_cycles", 0) > 0


class TestEagerAndInversionExperiments:
    def test_eager_cells(self, isolated_cache):
        result = run_experiment("speculation-eager", TINY)
        cells = result.data["cells"]
        assert len(cells) == len(TINY.workloads) * len(SPECULATION_ESTIMATORS)
        for cell in cells.values():
            assert cell.covered_mispredictions <= cell.forks
        json.dumps(result.data["journal_rows"])

    def test_inversion_negative_result_shape(self, isolated_cache):
        result = run_experiment("speculation-inversion", TINY)
        for cell in result.data["cells"].values():
            assert cell.branches > 0
            assert 0.0 <= cell.base_accuracy <= 1.0
            assert cell.flips_helped + cell.flips_hurt == cell.flips
        json.dumps(result.data["journal_rows"])

    def test_one_inversion_pass_per_workload(self, isolated_cache, monkeypatch):
        banks = spy_on_gshare_banks(monkeypatch)
        scale = dataclasses.replace(TINY, workloads=("compress", "go"))
        before = REGISTRY.snapshot()
        results = run_all(scale, only=["speculation-inversion"], jobs=1)
        flips = REGISTRY.since(before).counters["speculation.inversion_flips"]
        cells = results["speculation-inversion"].data["cells"]
        assert len(cells) == len(scale.workloads) * len(SPECULATION_ESTIMATORS)
        # one gshare bank pass per workload serves every estimator
        assert banks == [sorted(SPECULATION_ESTIMATORS)] * len(scale.workloads)
        assert flips == sum(cell.flips for cell in cells.values())
        # a warm rerun reads each workload's bank cell from disk and
        # runs no pass
        clear_memoised()
        clear_cache()
        before = isolated_cache.stats.snapshot()
        warm = run_all(scale, only=["speculation-inversion"], jobs=1)
        delta = isolated_cache.stats.since(before)
        assert len(banks) == len(scale.workloads)
        assert delta.misses == 0
        assert delta.hits == len(scale.workloads)
        assert warm["speculation-inversion"].data["cells"] == cells


def spy_on_gshare_banks(monkeypatch):
    """Record the families of every gshare estimator-bank pass."""
    banks = []
    measure_bank = experiments.measure_bank

    def counting_bank(trace, predictor, estimators, **kwargs):
        if isinstance(predictor, GsharePredictor):
            banks.append(sorted(estimators))
        return measure_bank(trace, predictor, estimators, **kwargs)

    monkeypatch.setattr(experiments, "measure_bank", counting_bank)
    return banks


class TestSharedArtifacts:
    """The speculation battery reads what the paper battery computes:
    the gshare ``pipeline`` run and the gshare predictor scan."""

    def test_tab1_and_the_cells_share_one_ungated_run(
        self, isolated_cache, monkeypatch
    ):
        built = []
        init = PipelineSimulator.__init__

        def counting_init(simulator, *args, **kwargs):
            init(simulator, *args, **kwargs)
            if type(simulator) is PipelineSimulator:
                built.append(type(simulator.predictor))

        monkeypatch.setattr(PipelineSimulator, "__init__", counting_init)
        scale = dataclasses.replace(TINY, workloads=("compress", "go"))
        run_all(
            scale,
            only=["tab1", "speculation-gating", "speculation-eager"],
            jobs=1,
        )
        assert built == [GsharePredictor] * len(scale.workloads)

    def test_tab2_and_inversion_share_one_gshare_scan(
        self, isolated_cache, monkeypatch, knobs
    ):
        knobs(vector=True)
        banks = spy_on_gshare_banks(monkeypatch)
        scanned = []
        key, scan, apply = vector._PREDICTOR_SCANS[GsharePredictor]

        def counting_scan(trace, predictor):
            scanned.append(trace.name)
            return scan(trace, predictor)

        monkeypatch.setitem(
            vector._PREDICTOR_SCANS, GsharePredictor, (key, counting_scan, apply)
        )
        evaluated = []
        oracle = inversion.evaluate_inversion

        def counting_oracle(*args, **kwargs):
            evaluated.append(args)
            return oracle(*args, **kwargs)

        # and under the name a harness import of the oracle would bind
        monkeypatch.setattr(inversion, "evaluate_inversion", counting_oracle)
        monkeypatch.setattr(
            speculation, "evaluate_inversion", counting_oracle, raising=False
        )
        scale = dataclasses.replace(TINY, workloads=("compress", "go"))
        results = run_all(scale, only=["tab2", "speculation-inversion"], jobs=1)
        assert not evaluated
        # each experiment measures its own gshare cell per workload...
        assert banks == [sorted(STANDARD_FAMILIES)] * len(scale.workloads) + [
            sorted(SPECULATION_ESTIMATORS)
        ] * len(scale.workloads)
        # ...over one gshare predictor scan per workload
        assert scanned == list(scale.workloads)
        cells = results["speculation-inversion"].data["cells"]
        assert len(cells) == len(scale.workloads) * len(SPECULATION_ESTIMATORS)

    @pytest.mark.parametrize("segment_instructions", (None, 1000))
    def test_cells_are_planned_after_their_pipeline_run(
        self, segment_instructions
    ):
        scale = dataclasses.replace(
            TINY,
            workloads=("compress", "go"),
            segment_instructions=segment_instructions,
        )
        wave_of = {
            task: index
            for index, wave in enumerate(plan_warm_levels(list(SPECULATION_BATTERY), scale))
            for task in wave
        }
        cells = [
            (kind, args) for kind, args in wave_of if kind in ("gating", "eager")
        ]
        assert len(cells) == len(scale.workloads) * len(SPECULATION_ESTIMATORS) * (
            len(GATE_THRESHOLDS) + 1
        )
        for kind, args in cells:
            baseline = (
                "pipeline",
                (
                    args[0],
                    SPECULATION_PREDICTOR,
                    scale.iterations,
                    scale.pipeline_instructions,
                    segment_instructions,
                    scale.backend,
                ),
            )
            assert wave_of[baseline] < wave_of[kind, args], (kind, args)


#: Every estimator a speculation cell attaches, plus the saturating
#: counters the examples gate on.
ATTACHED_ESTIMATORS = {
    **SPECULATION_ESTIMATORS,
    "satcnt": SaturatingCountersEstimator.for_predictor,
}

#: The base simulator class of each backend (the ungated baseline's).
BASE_SIMULATORS = {"inorder": PipelineSimulator, "ooo": OutOfOrderSimulator}


class TestUngatedBaseline:
    """One ungated run serves every gating and eager cell of a workload:
    an attached estimator only observes it, never steers it."""

    @pytest.mark.parametrize("workload", ("compress", "go"))
    @pytest.mark.parametrize("estimator", sorted(ATTACHED_ESTIMATORS))
    @pytest.mark.parametrize("backend", sorted(BASE_SIMULATORS))
    def test_attached_estimator_leaves_stats_unchanged(
        self, isolated_cache, backend, estimator, workload
    ):
        iterations, budget = TINY.iterations, TINY.pipeline_instructions
        predictor = make_predictor(SPECULATION_PREDICTOR)
        observed = create_simulator(
            workload_program(workload, iterations),
            predictor,
            backend=backend,
            config=PipelineConfig(),
            estimators={"probe": ATTACHED_ESTIMATORS[estimator](predictor)},
            decoded=decoded_run(workload, iterations),
        ).run(max_instructions=budget)
        baseline = _pipeline_result(
            workload, SPECULATION_PREDICTOR, iterations, budget, backend=backend
        )
        # PipelineStats is a dataclass: == compares it field by field
        assert observed.stats == baseline.stats

    @pytest.mark.parametrize("backend", sorted(BASE_SIMULATORS))
    def test_one_baseline_run_per_workload(
        self, isolated_cache, monkeypatch, backend
    ):
        runs = []
        run = PipelineSimulator.run

        def counting_run(simulator, *args, **kwargs):
            runs.append(type(simulator))
            return run(simulator, *args, **kwargs)

        monkeypatch.setattr(PipelineSimulator, "run", counting_run)
        scale = dataclasses.replace(
            TINY, workloads=("compress", "go"), backend=backend
        )
        run_all(scale, only=["speculation-gating", "speculation-eager"], jobs=1)
        base = BASE_SIMULATORS[backend]
        assert sum(kind is base for kind in runs) == len(scale.workloads)
        # every other run is one gated or eager cell
        cells = len(SPECULATION_ESTIMATORS) * (len(GATE_THRESHOLDS) + 1)
        assert len(runs) == len(scale.workloads) * (cells + 1)


class TestWarmPlan:
    def test_speculation_kinds_planned(self):
        kinds = {}
        for wave in plan_warm_levels(list(SPECULATION_BATTERY), TINY)[1:]:
            for kind, args in wave:
                kinds.setdefault(kind, []).append(args)
        assert len(kinds["gating"]) == (
            len(TINY.workloads) * len(SPECULATION_ESTIMATORS) * len(GATE_THRESHOLDS)
        )
        assert len(kinds["eager"]) == len(TINY.workloads) * len(
            SPECULATION_ESTIMATORS
        )
        # the ungated baselines and the inversion ledgers are paper
        # battery artifacts: one gshare pipeline run and one gshare bank
        # cell per workload
        assert kinds["pipeline"] == [
            (
                workload,
                SPECULATION_PREDICTOR,
                TINY.iterations,
                TINY.pipeline_instructions,
                None,
                TINY.backend,
            )
            for workload in TINY.workloads
        ]
        assert kinds["measurement"] == [
            (
                SPECULATION_PREDICTOR,
                workload,
                TINY.iterations,
                tuple(sorted(SPECULATION_ESTIMATORS)),
            )
            for workload in TINY.workloads
        ]

    def test_trace_still_warmed(self):
        trace_tasks = plan_warm_levels(["speculation-inversion"], TINY)[0]
        assert {args[0] for __kind, args in trace_tasks} == set(TINY.workloads)


class TestParallelEquivalence:
    def test_gating_jobs2_identical_to_serial(self, isolated_cache):
        serial = run_all(TINY, only=["speculation-gating"], jobs=1)
        clear_memoised()
        parallel = run_all(TINY, only=["speculation-gating"], jobs=2)
        assert (
            serial["speculation-gating"].to_text()
            == parallel["speculation-gating"].to_text()
        )

    def test_warm_rerun_hits_disk(self, isolated_cache):
        run_all(TINY, only=["speculation-gating"], jobs=1)
        assert isolated_cache.stats.writes > 0
        clear_memoised()
        clear_cache()
        before = isolated_cache.stats.snapshot()
        run_all(TINY, only=["speculation-gating"], jobs=1)
        delta = isolated_cache.stats.since(before)
        assert delta.hits > 0
        assert delta.misses == 0


    @pytest.mark.parametrize(
        "experiment_id", ("speculation-gating", "speculation-eager")
    )
    def test_warm_rerun_reads_the_cold_cells(self, isolated_cache, experiment_id):
        cold = run_all(TINY, only=[experiment_id], jobs=1)
        clear_memoised()
        clear_cache()
        before = isolated_cache.stats.snapshot()
        warm = run_all(TINY, only=[experiment_id], jobs=1)
        assert isolated_cache.stats.since(before).misses == 0
        cells = cold[experiment_id].data["cells"]
        assert cells
        assert warm[experiment_id].data["cells"] == cells


class TestReportSection:
    def test_report_has_speculation_control_section(self, isolated_cache):
        results = run_all(
            TINY, only=["speculation-gating", "speculation-eager"], jobs=1
        )
        report = render_report(results, TINY)
        assert "## Speculation control" in report
        assert "wrong-path saved" in report
        assert "ipc delta" in report

    def test_section_absent_without_speculation_results(self, isolated_cache):
        results = run_all(TINY, only=["fig1"], jobs=1)
        assert render_speculation_control(results) is None
        assert "## Speculation control" not in render_report(results, TINY)


#: Each experiment's journal-row keys: the identifiers its cells are
#: keyed by, then each value's property on the cached result.
ROW_PROPERTIES = {
    "speculation-gating": (
        ("workload", "estimator", "threshold"),
        {
            "wrong_path_saved": "wrong_path_saved",
            "squash_reduction": "extra_work_reduction",
            "ipc_delta": "ipc_delta",
            "slowdown": "slowdown",
            "gated_cycles": "gated_cycles",
        },
    ),
    "speculation-eager": (
        ("workload", "estimator"),
        {
            "forks": "forks",
            "covered": "covered_mispredictions",
            "wasted_slots": "wasted_slots",
            "speedup": "speedup",
        },
    ),
    "speculation-inversion": (
        ("workload", "estimator"),
        {
            "flips": "flips",
            "accuracy_delta": "accuracy_delta",
            "flip_pvn": "flip_pvn",
        },
    ),
}


class TestJournalRows:
    @pytest.mark.parametrize("experiment_id", SPECULATION_BATTERY)
    def test_rows_read_the_cached_results(self, isolated_cache, experiment_id):
        identifiers, properties = ROW_PROPERTIES[experiment_id]
        result = run_experiment(experiment_id, TINY)
        rows = result.data["journal_rows"]
        cells = result.data["cells"]
        assert len(rows) == len(cells)
        for row, (key, cell) in zip(rows, cells.items()):
            assert list(row) == [*identifiers, *properties]
            assert tuple(row[name] for name in identifiers) == key
            for name, attribute in properties.items():
                assert row[name] == getattr(cell, attribute), (key, name)


class TestJournalEvents:
    def test_speculation_summary_emitted_and_valid(
        self, isolated_cache, tmp_path
    ):
        path = tmp_path / "spec.jsonl"
        with RunJournal(path) as journal:
            run_all(TINY, only=["speculation-gating"], jobs=1, journal=journal)
        events = read_journal(path)  # validates every line
        summaries = [e for e in events if e["event"] == "speculation_summary"]
        assert [e["experiment"] for e in summaries] == ["speculation-gating"]
        rows = summaries[0]["rows"]
        assert {row["workload"] for row in rows} == set(TINY.workloads)
        assert all("ipc_delta" in row for row in rows)


class TestCli:
    def test_speculate_subcommand(self, isolated_cache, tmp_path, capsys):
        from repro.cli import main

        journal_path = tmp_path / "speculate.jsonl"
        status = main(
            [
                "speculate",
                "--scale",
                "smoke",
                "--workloads",
                "compress",
                "--iterations",
                "40",
                "--pipeline-instructions",
                "4000",
                "--journal",
                str(journal_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "## Speculation control" in out
        for experiment_id in SPECULATION_BATTERY:
            assert experiment_id in out
        events = read_journal(journal_path)
        assert sum(e["event"] == "speculation_summary" for e in events) == len(
            SPECULATION_BATTERY
        )

    def test_run_accepts_speculation_ids(self, isolated_cache, capsys):
        from repro.cli import main

        status = main(
            [
                "run",
                "speculation-inversion",
                "--scale",
                "smoke",
                "--workloads",
                "compress",
                "--iterations",
                "40",
            ]
        )
        assert status == 0
        assert "inversion" in capsys.readouterr().out
