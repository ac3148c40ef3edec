"""Spec registry, artifact DAG, estimator bank, and bench contract.

The declarative layer's guarantees, each pinned by a test:

* the registry holds the whole battery and refuses duplicate ids;
* warm-up waves derived from the declared artifact DAG reproduce the
  legacy hardcoded schedule exactly (trace wave + heavy wave);
* one estimator-bank pass yields per-family quadrants and accuracy
  identical to dedicated single-estimator ``measure`` passes for every
  (workload, predictor, family) triple at smoke scale;
* a cold battery records ``session.passes_saved > 0`` in the journal's
  ``metrics_snapshot``;
* ``repro bench --json`` emits the documented schema;
* the README battery table matches ``repro list --markdown``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import battery_table_markdown, main
from repro.engine import cache as artifact_cache
from repro import settings
from repro.engine import clear_cache, workload_run
from repro.engine.measure import measure, measure_accuracy
from repro.harness import (
    SMOKE,
    SPECS,
    ArtifactDep,
    ExperimentSpec,
    clear_memoised,
    measurement_cell,
    measurement_plan,
    plan_warm_levels,
    run_all,
    spec_fingerprint,
)
from repro.harness.experiments import (
    BANK_FAMILIES,
    PREDICTORS,
    STANDARD_FAMILIES,
    _family_estimator,
)
from repro.harness import spec
from repro.harness.spec import SECTIONS, SpecRegistry
from repro.harness.speculation import (
    GATE_THRESHOLDS,
    SPECULATION_BATTERY,
    SPECULATION_ESTIMATORS,
)
from repro.obs.journal import RunJournal, read_journal
from repro.predictors import make_predictor


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


def _spec(experiment_id="demo", order=1, **kwargs):
    defaults = dict(
        title="demo",
        run=lambda scale: None,
        section="paper",
    )
    defaults.update(kwargs)
    return ExperimentSpec(experiment_id=experiment_id, order=order, **defaults)


class TestSpecRegistry:
    def test_registry_covers_the_whole_battery(self):
        assert len(SPECS) == 17
        assert set(SPECULATION_BATTERY) <= set(SPECS)

    def test_iteration_is_report_order(self):
        orders = [SPECS[eid].order for eid in SPECS]
        assert orders == sorted(orders)
        sections = [SPECS[eid].section for eid in SPECS]
        # paper experiments render before speculation control
        assert sections.index("speculation") == len(
            [s for s in sections if s == "paper"]
        )

    def test_by_section_uses_known_sections(self):
        grouped = SPECS.by_section()
        assert set(grouped) <= set(SECTIONS)
        assert [s.experiment_id for s in grouped["speculation"]] == list(
            SPECULATION_BATTERY
        )

    def test_registrants_recorded(self):
        assert SPECS.registrant("tab2") == "repro.harness.experiments"
        assert (
            SPECS.registrant("speculation-gating")
            == "repro.harness.speculation"
        )

    def test_duplicate_registration_names_both_registrants(self):
        registry = SpecRegistry()
        registry.register(_spec(), registrant="first.module")
        with pytest.raises(ValueError) as excinfo:
            registry.register(_spec(), registrant="second.module")
        message = str(excinfo.value)
        assert "first.module" in message
        assert "second.module" in message
        assert "'demo'" in message

    def test_unknown_dep_kind_rejected(self):
        # the columnar lowering and the decoded program are in-process
        # views, not artifacts an experiment can depend on
        for kind in ("nope", "trace-columnar", "program-decoded"):
            with pytest.raises(ValueError, match="unknown artifact dependency"):
                ArtifactDep(kind=kind)


class TestMeasurementPlan:
    def test_full_battery_unions_per_predictor(self):
        plan = dict(measurement_plan(SPECS[eid] for eid in SPECS))
        standard = tuple(sorted(("accuracy",) + STANDARD_FAMILIES))
        # speculation-inversion reads its ledgers off the gshare bank
        assert plan["gshare"] == tuple(
            sorted(set(standard) | {"distance", "boosted-distance"})
        )
        assert plan["sag"] == standard
        assert plan["mcfarling"] == tuple(
            sorted(standard + ("satcnt-either",))
        )

    def test_single_experiment_plan_is_minimal(self):
        plan = dict(measurement_plan([SPECS["tab3"]]))
        assert plan == {"mcfarling": ("satcnt", "satcnt-either")}


class TestWarmPlanLegacyEquivalence:
    """The DAG-derived schedule equals the old hardcoded waves."""

    def _heavy_by_kind(self, selected):
        kinds = {}
        for wave in plan_warm_levels(selected, SMOKE)[1:]:
            for kind, args in wave:
                kinds.setdefault(kind, set()).add(args)
        return kinds

    def test_trace_wave_is_the_workload_set(self):
        # the first wave holds the dependency-free shared artifacts:
        # exactly one trace per workload
        trace_tasks = plan_warm_levels(list(SPECS), SMOKE)[0]
        assert sorted(trace_tasks) == sorted(
            ("trace", (workload, SMOKE.iterations))
            for workload in SMOKE.workloads
        )

    def test_full_battery_heavy_wave_matches_legacy_sets(self):
        kinds = self._heavy_by_kind(list(SPECS))
        iters = SMOKE.iterations
        instrs = SMOKE.pipeline_instructions
        # figures 6-9 warmed pipeline runs for gshare and mcfarling
        assert kinds["pipeline"] == {
            (workload, predictor, iters, instrs, None, "inorder")
            for workload in SMOKE.workloads
            for predictor in ("gshare", "mcfarling")
        }
        # the measurement grid covers the legacy table2 grid exactly
        assert {
            (args[0], args[1]) for args in kinds["measurement"]
        } == {
            (predictor, workload)
            for predictor in PREDICTORS
            for workload in SMOKE.workloads
        }
        assert kinds["gating"] == {
            (workload, estimator, threshold, iters, instrs, None, "inorder")
            for workload in SMOKE.workloads
            for estimator in SPECULATION_ESTIMATORS
            for threshold in GATE_THRESHOLDS
        }
        assert kinds["eager"] == {
            (workload, estimator, iters, instrs, None, "inorder")
            for workload in SMOKE.workloads
            for estimator in SPECULATION_ESTIMATORS
        }
        # inversion reads the gshare measurement cells: no task of its own
        assert set(kinds) == {"pipeline", "measurement", "gating", "eager"}

    def test_dag_has_exactly_three_levels(self):
        # traces; then pipeline runs and measurements; then the gating
        # and eager cells, which read their workload's gshare pipeline run
        levels = plan_warm_levels(list(SPECS), SMOKE)
        assert len(levels) == 3
        assert {kind for kind, __ in levels[0]} == {"trace"}
        assert {kind for kind, __ in levels[1]} == {"pipeline", "measurement"}
        assert {kind for kind, __ in levels[2]} == {"gating", "eager"}

    def test_measurement_tasks_carry_the_battery_plan(self):
        kinds = self._heavy_by_kind(list(SPECS))
        plan = dict(measurement_plan(SPECS[eid] for eid in SPECS))
        for predictor, workload, __, families in kinds["measurement"]:
            assert families == plan[predictor]


class TestBankEquivalence:
    """One bank pass == N single-estimator passes, family by family."""

    @pytest.mark.parametrize("predictor_name", PREDICTORS)
    def test_bank_matches_single_measure_passes(
        self, isolated_cache, predictor_name
    ):
        iterations = SMOKE.iterations
        for workload in SMOKE.workloads:
            cell = measurement_cell(
                predictor_name, workload, iterations, BANK_FAMILIES
            )
            trace = workload_run(workload, iterations).trace
            baseline = measure_accuracy(trace, make_predictor(predictor_name))
            assert cell.accuracy == baseline.accuracy
            assert cell.branches == baseline.branches
            assert cell.mispredictions == baseline.mispredictions
            for family in BANK_FAMILIES:
                if family == "accuracy":
                    continue
                predictor = make_predictor(predictor_name)
                estimator = _family_estimator(
                    family, predictor_name, predictor, workload, iterations
                )
                single = measure(trace, predictor, {family: estimator})
                assert (
                    cell.quadrants[family] == single.quadrants[family]
                ), (predictor_name, workload, family)

    def test_unmeasured_family_raises_with_inventory(self, isolated_cache):
        cell = measurement_cell(
            "mcfarling", "compress", SMOKE.iterations, ("jrs",)
        )
        with pytest.raises(KeyError, match="not measured"):
            cell.quadrant("static")


class TestPassesSaved:
    def test_cold_battery_journal_reports_saved_passes(
        self, isolated_cache, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            run_all(
                SMOKE, only=["tab1", "tab2", "tab3"], jobs=1, journal=journal
            )
        snapshots = [
            event
            for event in read_journal(path)
            if event["event"] == "metrics_snapshot"
        ]
        assert snapshots, "battery must journal a metrics snapshot"
        counters = snapshots[-1]["counters"]
        assert counters.get("session.bank_passes", 0) > 0
        assert counters.get("session.passes_saved", 0) > 0


class TestSpecFingerprint:
    def test_stable_and_compact(self):
        one = spec_fingerprint("tab2", SMOKE)
        two = spec_fingerprint("tab2", SMOKE)
        assert one == two
        assert len(one) == 16
        int(one, 16)  # hex

    def test_distinguishes_dependency_sets(self):
        assert spec_fingerprint("fig1", SMOKE) != spec_fingerprint(
            "tab2", SMOKE
        )
        assert spec_fingerprint("tab2", SMOKE) != spec_fingerprint(
            "tab3", SMOKE
        )

    def test_pipeline_schema_rekeys_only_pipeline_readers(self, monkeypatch):
        """A checkpoint rendered from another pipeline result layout
        (before ``pipeline-result/2`` an empty distance bucket printed
        0.0%, not n/a) re-runs on resume; other checkpoints stay."""
        assert ArtifactDep("pipeline", predictor="gshare").key_parts()[-1] == (
            spec.PIPELINE_SCHEMA
        )
        assert ArtifactDep("gating", estimator="jrs").key_parts()[-1] == (
            spec.CELL_SCHEMA
        )
        assert len(ArtifactDep("trace").key_parts()) == 5
        ids = ("tab1", "fig6", "fig9", "tab2", "boost")
        before = {eid: spec_fingerprint(eid, SMOKE) for eid in ids}
        monkeypatch.setitem(spec._DEP_SCHEMAS, "pipeline", "pipeline-result/1")
        moved = {eid for eid in ids if spec_fingerprint(eid, SMOKE) != before[eid]}
        assert moved == {"tab1", "fig6", "fig9"}


class TestBenchCli:
    def test_bench_json_contract(self, isolated_cache, tmp_path, capsys):
        out = tmp_path / "bench.json"
        exit_code = main(
            [
                "bench",
                "--scale",
                "smoke",
                "--only",
                "tab1,tab2,tab3",
                "--jobs",
                "1",
                "--json",
                str(out),
            ]
        )
        assert exit_code == 0
        assert str(out) in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench/4"
        assert payload["jobs"] == 1
        assert payload["scale"]["workloads"] == list(SMOKE.workloads)
        assert payload["scale"]["backend"] == "inorder"
        assert [e["id"] for e in payload["experiments"]] == [
            "tab1",
            "tab2",
            "tab3",
        ]
        assert all(
            e["duration_s"] >= 0 for e in payload["experiments"]
        )
        assert payload["wall_seconds"] > 0
        assert payload["simulation"]["branches"] > 0
        assert payload["simulation"]["branches_per_second"] > 0
        assert payload["simulation"]["scalar_fallback_branches"] >= 0
        if settings.current().vector:
            assert payload["simulation"]["vector_branches"] > 0
        # trace generation is accounted separately from replay
        assert payload["trace_generation"]["branches"] > 0
        assert payload["trace_generation"]["seconds"] > 0
        # tab1's fetch-to-commit column runs the cycle-level pipeline,
        # so the repro-bench/3+ pipeline section is populated on a cold run
        assert payload["pipeline"]["backend"] == "inorder"
        assert payload["pipeline"]["branches"] > 0
        assert payload["pipeline"]["branches_per_second"] > 0
        assert 0.0 <= payload["cache"]["hit_rate"] <= 1.0
        assert payload["session"]["bank_passes"] > 0
        # cold run: the bank subsumed tab1/tab2/tab3 single-purpose passes
        assert payload["session"]["passes_saved"] > 0

    def test_warm_bench_reports_no_replay_throughput(
        self, isolated_cache, tmp_path, capsys
    ):
        """Satellite regression: a fully cached battery must report
        ``branches_per_second: null`` -- not a rate inflated by counting
        cached cells' branches against near-zero replay time."""
        argv = [
            "bench",
            "--scale",
            "smoke",
            "--only",
            "tab2",
            "--jobs",
            "1",
        ]
        assert main(argv + ["--json", str(tmp_path / "cold.json")]) == 0
        # drop in-process memos so the warm run exercises the on-disk
        # cache exactly as a fresh CI process would
        clear_memoised()
        warm = tmp_path / "warm.json"
        assert main(argv + ["--json", str(warm)]) == 0
        capsys.readouterr()
        payload = json.loads(warm.read_text())
        assert payload["simulation"]["branches"] == 0
        assert payload["simulation"]["branches_per_second"] is None
        # same null-not-zero discipline for the pipeline section
        assert payload["pipeline"]["branches"] == 0
        assert payload["pipeline"]["branches_per_second"] is None

    def test_compare_gates(self, tmp_path, capsys):
        def snapshot(path, bps, branches):
            payload = {
                "schema": "repro-bench/3",
                "wall_seconds": 1.0,
                "simulation": {
                    "branches": branches,
                    "seconds": branches / bps if bps else 0.0,
                    "branches_per_second": bps,
                },
            }
            path.write_text(json.dumps(payload))
            return str(path)

        slow = snapshot(tmp_path / "slow.json", 100_000.0, 1_000_000)
        fast = snapshot(tmp_path / "fast.json", 1_500_000.0, 1_000_000)
        warm = snapshot(tmp_path / "warm.json", None, 0)

        assert (
            main(["bench", "--compare", slow, fast, "--min-speedup", "10"])
            == 0
        )
        assert (
            main(["bench", "--compare", slow, fast, "--min-speedup", "20"])
            == 1
        )
        assert (
            main(["bench", "--compare", fast, slow, "--max-regression", "0.25"])
            == 1
        )
        assert (
            main(["bench", "--compare", fast, fast, "--max-regression", "0.25"])
            == 0
        )
        # a warm snapshot has no throughput: the row renders "n/a" and
        # the gates are skipped (exit 0) -- an incomparable pair is not
        # a regression (see TestBenchCompareIncomparable)
        assert (
            main(["bench", "--compare", slow, warm, "--min-speedup", "10"])
            == 0
        )
        out = capsys.readouterr().out
        assert "n/a" in out
        assert "skip: candidate has no replay branches/s" in out

    def test_compare_pipeline_metric(self, tmp_path, capsys):
        """``--metric pipeline`` gates on the cycle-level section, and an
        old repro-bench/2 snapshot (no such section) reads as n/a."""

        def snapshot(path, bps, branches, schema="repro-bench/3"):
            payload = {
                "schema": schema,
                "wall_seconds": 1.0,
                "simulation": {
                    "branches": 0,
                    "seconds": 0.0,
                    "branches_per_second": None,
                },
            }
            if schema == "repro-bench/3":
                payload["pipeline"] = {
                    "branches": branches,
                    "seconds": branches / bps if bps else 0.0,
                    "branches_per_second": bps,
                }
            path.write_text(json.dumps(payload))
            return str(path)

        slow = snapshot(tmp_path / "slow.json", 40_000.0, 400_000)
        fast = snapshot(tmp_path / "fast.json", 220_000.0, 400_000)
        old = snapshot(tmp_path / "old.json", None, 0, schema="repro-bench/2")
        argv = ["bench", "--metric", "pipeline", "--compare"]

        assert main(argv + [slow, fast, "--min-speedup", "5"]) == 0
        assert main(argv + [slow, fast, "--min-speedup", "6"]) == 1
        assert main(argv + [fast, fast, "--max-regression", "0.40"]) == 0
        # a pre-repro-bench/3 snapshot has no pipeline section: the
        # gate is skipped rather than failed
        assert main(argv + [slow, old, "--min-speedup", "5"]) == 0
        out = capsys.readouterr().out
        assert "bench compare (pipeline):" in out
        assert "n/a" in out
        assert "skip: candidate has no pipeline branches/s" in out


class TestBenchCompareIncomparable:
    """Satellite regression: ``bench --compare`` against a warm
    snapshot (``branches_per_second: null``) must render ``n/a`` and
    skip the exit gates instead of failing CI.  Before the fix a warm
    *baseline* -- the normal state of a cached CI job -- turned every
    gated comparison into a spurious exit 1."""

    @staticmethod
    def _snapshot(path, bps, branches):
        payload = {
            "schema": "repro-bench/3",
            "wall_seconds": 1.0,
            "simulation": {
                "branches": branches,
                "seconds": branches / bps if bps else 0.0,
                "branches_per_second": bps,
            },
        }
        path.write_text(json.dumps(payload))
        return str(path)

    def test_warm_baseline_skips_gates(self, tmp_path, capsys):
        warm = self._snapshot(tmp_path / "warm.json", None, 0)
        fast = self._snapshot(tmp_path / "fast.json", 1_500_000.0, 1_000_000)

        argv = ["bench", "--compare", warm, fast]
        assert main(argv + ["--min-speedup", "10"]) == 0
        out = capsys.readouterr().out
        assert "skip: baseline has no replay branches/s" in out
        assert "FAIL" not in out
        assert "n/a" in out

        # both gates at once, still skipped exactly once
        assert (
            main(argv + ["--min-speedup", "10", "--max-regression", "0.1"])
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("skip:") == 1
        assert "FAIL" not in out

    def test_both_warm_skips_gates(self, tmp_path, capsys):
        warm_a = self._snapshot(tmp_path / "a.json", None, 0)
        warm_b = self._snapshot(tmp_path / "b.json", None, 0)
        argv = ["bench", "--compare", warm_a, warm_b, "--max-regression", "0.1"]
        assert main(argv) == 0
        assert "skip: baseline has no replay branches/s" in capsys.readouterr().out

    def test_ungated_compare_still_renders(self, tmp_path, capsys):
        warm = self._snapshot(tmp_path / "warm.json", None, 0)
        fast = self._snapshot(tmp_path / "fast.json", 1_500_000.0, 1_000_000)
        assert main(["bench", "--compare", fast, warm]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out
        assert "skip" not in out  # nothing to gate, nothing to skip


class TestReadmeBatteryTable:
    def test_readme_table_matches_registry(self):
        readme = (
            Path(__file__).resolve().parents[1] / "README.md"
        ).read_text()
        begin = "<!-- BEGIN GENERATED: battery table (repro list --markdown) -->"
        end = "<!-- END GENERATED: battery table -->"
        assert begin in readme and end in readme, (
            "README must keep the generated battery-table markers"
        )
        block = readme.split(begin, 1)[1].split(end, 1)[0].strip()
        assert block == battery_table_markdown(), (
            "README battery table is stale; regenerate with"
            " `repro list --markdown`"
        )
