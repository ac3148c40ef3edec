"""Tests for the experiment harness: every experiment runs at test
scale, and the paper's qualitative shapes hold."""

import pytest

from repro.harness import SPECS, Scale, run_all, run_experiment
from repro.harness.runner import render_report
from repro.harness.tables import TextTable, pct

#: One shared small scale so the memoised intermediates are reused.
SCALE = Scale(
    iterations=150,
    pipeline_instructions=15_000,
    workloads=("compress", "gcc", "go", "vortex"),
)


@pytest.fixture(scope="module")
def results():
    return run_all(SCALE)


class TestBattery:
    def test_all_experiments_present(self, results):
        assert set(results) == set(SPECS)

    def test_every_experiment_renders(self, results):
        for result in results.values():
            text = result.to_text()
            assert result.experiment_id in text
            assert len(text) > 100

    def test_report_rendering(self, results):
        report = render_report(results, SCALE)
        assert "tab2" in report and "fig6" in report

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("tab9", SCALE)
        with pytest.raises(KeyError):
            run_all(SCALE, only=["nope"])


class TestFigure1Shapes:
    def test_pvp_monotone_in_sens(self, results):
        for curve in results["fig1"].data["curves"]:
            if curve.varying != "sens":
                continue
            pvps = [pvp for __, pvp, __ in curve.points]
            assert all(b >= a - 1e-12 for a, b in zip(pvps, pvps[1:]))

    def test_pvn_monotone_in_spec(self, results):
        for curve in results["fig1"].data["curves"]:
            if curve.varying != "spec":
                continue
            pvns = [pvn for __, __, pvn in curve.points]
            assert all(b >= a - 1e-12 for a, b in zip(pvns, pvns[1:]))


class TestTable1Shapes:
    def test_fetch_commit_ratio_in_paper_range(self, results):
        for workload, ratio in results["tab1"].data["ratios"].items():
            assert 1.05 <= ratio <= 2.5, workload

    def test_predictability_ordering(self, results):
        accuracies = results["tab1"].data["accuracies"]
        assert accuracies["go"]["gshare"] < accuracies["gcc"]["gshare"]
        assert accuracies["gcc"]["gshare"] < accuracies["vortex"]["gshare"]

    def test_mcfarling_beats_gshare(self, results):
        accuracies = results["tab1"].data["accuracies"]
        for workload, accs in accuracies.items():
            assert accs["mcfarling"] >= accs["gshare"] - 0.01, workload


class TestTable2Shapes:
    """The paper's qualitative claims about the estimator landscape."""

    def test_jrs_has_highest_pvp_on_gshare(self, results):
        averages = results["tab2"].data["averages"]
        jrs_pvp = averages[("gshare", "jrs")].pvp
        for estimator in ("satcnt", "pattern", "static"):
            assert jrs_pvp >= averages[("gshare", estimator)].pvp - 0.02

    def test_satcnt_more_sensitive_less_specific_than_jrs(self, results):
        averages = results["tab2"].data["averages"]
        assert (
            averages[("gshare", "satcnt")].sens > averages[("gshare", "jrs")].sens
        )
        assert (
            averages[("gshare", "satcnt")].spec < averages[("gshare", "jrs")].spec
        )

    def test_pattern_collapses_on_global_history(self, results):
        averages = results["tab2"].data["averages"]
        assert averages[("gshare", "pattern")].sens < 0.25
        assert averages[("mcfarling", "pattern")].sens < 0.25

    def test_pattern_recovers_on_sag(self, results):
        averages = results["tab2"].data["averages"]
        assert (
            averages[("sag", "pattern")].sens
            > 3 * averages[("gshare", "pattern")].sens
        )

    def test_pvn_drops_with_better_predictor(self, results):
        """Fewer mispredictions left to find: every estimator's PVN
        sinks moving gshare -> McFarling (paper §5)."""
        averages = results["tab2"].data["averages"]
        for estimator in ("jrs", "satcnt"):
            assert (
                averages[("mcfarling", estimator)].pvn
                < averages[("gshare", estimator)].pvn
            )

    def test_no_estimator_inverts_prediction_profitably(self, results):
        """§2.2: PVN consistently > 50% (or PVP < 50%) never happens."""
        averages = results["tab2"].data["averages"]
        for quadrant in averages.values():
            assert quadrant.pvn < 0.5 or quadrant.pvp > 0.5


class TestJRSSweepShapes:
    def test_enhanced_dominates_original(self, results):
        """Figure 3: at the saturation threshold the enhanced index has
        at least the PVP and PVN of the original."""
        enhanced = results["fig3"].data["enhanced"].point(15).quadrant
        original = results["fig3"].data["original"].point(15).quadrant
        assert enhanced.pvn >= original.pvn - 0.01
        assert enhanced.pvp >= original.pvp - 0.01

    def test_bigger_tables_help(self, results):
        lines = results["fig4"].data["lines"]
        small = lines[64].point(15).quadrant
        large = lines[4096].point(15).quadrant
        assert large.pvp >= small.pvp - 0.01

    def test_threshold16_pvn_equals_misprediction_rate(self, results):
        for figure in ("fig4", "fig5"):
            lines = results[figure].data["lines"]
            for line in lines.values():
                quadrant = line.point(16).quadrant
                assert quadrant.high_confidence == 0
                assert quadrant.pvn == pytest.approx(
                    quadrant.misprediction_rate, abs=1e-9
                )

    def test_mcfarling_pvn_lower_than_gshare(self, results):
        gshare = results["fig4"].data["lines"][4096].point(15).quadrant
        mcfarling = results["fig5"].data["lines"][4096].point(15).quadrant
        assert mcfarling.pvn < gshare.pvn


class TestTable3Shapes:
    def test_both_strong_is_more_specific(self, results):
        both = results["tab3"].data["both_mean"]
        either = results["tab3"].data["either_mean"]
        assert both.spec > either.spec
        assert either.sens > both.sens


class TestDistanceFigures:
    def test_mispredictions_cluster(self, results):
        for figure in ("fig6", "fig7"):
            curve = results[figure].data["all"]
            assert curve.clustering_ratio > 1.3, figure

    def test_all_branches_worse_than_committed_near_zero(self, results):
        curve_all = results["fig6"].data["all"]
        curve_committed = results["fig6"].data["committed"]
        assert (
            curve_all.buckets[0].misprediction_rate
            >= curve_committed.buckets[0].misprediction_rate - 0.02
        )

    def test_perceived_skewed_to_larger_distances(self, results):
        """Figures 8/9: detection delay stretches the elevated-rate
        region, so at distance 1-3 the perceived curve sits above the
        precise curve."""
        precise = results["fig6"].data["all"]
        perceived = results["fig8"].data["all"]
        near_precise = sum(
            bucket.mispredictions for bucket in precise.buckets[1:4]
        ) / max(1, sum(bucket.branches for bucket in precise.buckets[1:4]))
        near_perceived = sum(
            bucket.mispredictions for bucket in perceived.buckets[1:4]
        ) / max(1, sum(bucket.branches for bucket in perceived.buckets[1:4]))
        assert near_perceived > near_precise

    def test_rates_decay_with_distance(self, results):
        curve = results["fig6"].data["all"]
        head = curve.buckets[0].misprediction_rate
        tail = curve.buckets[-1].misprediction_rate
        assert head > 1.5 * tail


class TestTable4Shapes:
    def test_distance_threshold_trades_sens_for_spec(self, results):
        rows = results["tab4"].data["rows"]
        for predictor in ("gshare", "mcfarling"):
            sens = [rows[("distance", predictor, t)].sens for t in range(1, 8)]
            spec = [rows[("distance", predictor, t)].spec for t in range(1, 8)]
            assert sens == sorted(sens, reverse=True)
            assert spec == sorted(spec)

    def test_distance_estimator_is_competitive(self, results):
        """A single counter approaches the cheap estimators' PVN."""
        rows = results["tab4"].data["rows"]
        distance_pvn = rows[("distance", "gshare", 2)].pvn
        jrs_pvn = rows[("jrs", "gshare", None)].pvn
        assert distance_pvn > 0.5 * jrs_pvn


class TestBoosting:
    def test_boosted_pvn_exceeds_base(self, results):
        boosting = results["boost"].data["boosting"]
        for (label, k), (base, empirical, analytic) in boosting.items():
            if k == 1:
                assert empirical == pytest.approx(base, abs=1e-9)
            else:
                assert empirical > base

    def test_bernoulli_model_is_accurate(self, results):
        boosting = results["boost"].data["boosting"]
        for (label, k), (base, empirical, analytic) in boosting.items():
            assert empirical == pytest.approx(analytic, abs=0.10)


class TestTextTable:
    def test_row_width_validation(self):
        table = TextTable(title="t", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(["only one"])

    def test_rendering_alignment(self):
        table = TextTable(title="t", headers=["name", "value"])
        table.add_row(["x", "1"])
        table.add_note("a note")
        text = table.to_text()
        assert "name" in text and "note: a note" in text

    def test_pct(self):
        assert pct(0.567) == "57%"
