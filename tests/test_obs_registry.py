"""Metrics registry: counters/timers/histograms, snapshot-delta-merge."""

import pickle

import pytest

from repro.obs.registry import MetricsRegistry, TimerStat


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_count_accumulates(self, registry):
        registry.count("a")
        registry.count("a", 2.5)
        assert registry.counter_value("a") == pytest.approx(3.5)

    def test_missing_counter_is_zero(self, registry):
        assert registry.counter_value("nope") == 0.0


class TestTimers:
    def test_observe_seconds(self, registry):
        registry.observe_seconds("t", 0.5)
        registry.observe_seconds("t", 1.5, count=3)
        stat = registry.timer_value("t")
        assert stat.seconds == pytest.approx(2.0)
        assert stat.count == 4
        assert stat.mean_seconds == pytest.approx(0.5)

    def test_timed_context_manager(self, registry):
        with registry.timed("block"):
            pass
        stat = registry.timer_value("block")
        assert stat.count == 1
        assert stat.seconds >= 0.0

    def test_timer_value_is_a_copy(self, registry):
        registry.observe_seconds("t", 1.0)
        registry.timer_value("t").add(100.0)
        assert registry.timer_value("t").seconds == pytest.approx(1.0)


class TestHistograms:
    def test_record_and_top(self, registry):
        for __ in range(3):
            registry.record("h", "x")
        registry.record("h", "y", 5)
        registry.record("h", "z")
        assert registry.top("h", 2) == [("y", 5), ("x", 3)]

    def test_top_breaks_ties_by_key(self, registry):
        registry.record("h", "b")
        registry.record("h", "a")
        assert registry.top("h") == [("a", 1), ("b", 1)]


class TestSnapshotDeltaMerge:
    def test_since_drops_untouched_metrics(self, registry):
        registry.count("old", 7)
        registry.observe_seconds("old.t", 1.0)
        base = registry.snapshot()
        registry.count("new", 1)
        delta = registry.since(base)
        assert delta.counters == {"new": 1}
        assert delta.timers == {}
        assert delta.histograms == {}

    def test_delta_histogram_is_per_key(self, registry):
        registry.record("h", "a", 2)
        base = registry.snapshot()
        registry.record("h", "a")
        registry.record("h", "b")
        delta = registry.since(base)
        assert delta.histograms == {"h": {"a": 1, "b": 1}}

    def test_merge_is_the_inverse_of_since(self, registry):
        registry.count("c", 1)
        registry.observe_seconds("t", 0.25)
        registry.record("h", "k", 4)
        base = registry.snapshot()
        registry.count("c", 2)
        registry.observe_seconds("t", 0.75)
        registry.record("h", "k")
        delta = registry.since(base)

        other = MetricsRegistry()
        other.count("c", 1)
        other.merge(delta)
        assert other.counter_value("c") == pytest.approx(3)
        assert other.timer_value("t").seconds == pytest.approx(0.75)
        assert other.histogram_value("h") == {"k": 1}

    def test_snapshot_is_picklable(self, registry):
        registry.count("c", 1)
        registry.observe_seconds("t", 0.5)
        registry.record("h", "k")
        restored = pickle.loads(pickle.dumps(registry.snapshot()))
        assert restored.counters == {"c": 1}
        assert restored.timers["t"].seconds == pytest.approx(0.5)
        assert restored.histograms == {"h": {"k": 1}}

    def test_as_dict_key_order_is_deterministic(self, registry):
        registry.count("zeta", 1)
        registry.count("alpha", 1)
        registry.record("h", "z")
        registry.record("h", "a")
        rendered = registry.as_dict()
        assert list(rendered["counters"]) == ["alpha", "zeta"]
        assert list(rendered["histograms"]["h"]) == ["a", "z"]

    def test_merge_order_does_not_change_totals(self):
        """Parallel completion order must not matter (determinism)."""
        deltas = []
        for amount in (1, 2, 3):
            worker = MetricsRegistry()
            worker.count("c", amount)
            worker.record("h", "k", amount)
            deltas.append(worker.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for delta in deltas:
            forward.merge(delta)
        for delta in reversed(deltas):
            backward.merge(delta)
        assert forward.as_dict() == backward.as_dict()


class TestManagement:
    def test_discard(self, registry):
        registry.count("c", 1)
        registry.discard("c")
        assert registry.counter_value("c") == 0.0

    def test_reset(self, registry):
        registry.count("c", 1)
        registry.observe_seconds("t", 1.0)
        registry.record("h", "k")
        registry.reset()
        assert registry.as_dict() == {
            "counters": {},
            "timers": {},
            "histograms": {},
        }


class TestSimulationCountersRemoval:
    """Simulation throughput lives in the registry, not a facade."""

    def test_engine_no_longer_exports_facade(self):
        import repro.engine as engine

        assert not hasattr(engine, "SIMULATION_COUNTERS")

    def test_record_simulation_feeds_global_registry(self):
        from repro.engine import BRANCHES_METRIC, REPLAY_TIMER, record_simulation
        from repro.obs.registry import REGISTRY

        branches_before = REGISTRY.counter_value(BRANCHES_METRIC)
        timer_before = REGISTRY.timer_value(REPLAY_TIMER)
        record_simulation(branches=7, seconds=0.25)
        assert REGISTRY.counter_value(BRANCHES_METRIC) == branches_before + 7
        after = REGISTRY.timer_value(REPLAY_TIMER)
        assert after.seconds == pytest.approx(timer_before.seconds + 0.25)
        assert after.count == timer_before.count + 1


class TestTimerStat:
    def test_copy_is_independent(self):
        stat = TimerStat(seconds=1.0, count=2)
        clone = stat.copy()
        clone.add(1.0)
        assert stat.seconds == pytest.approx(1.0)
        assert stat.count == 2
