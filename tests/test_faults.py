"""Fault-injection layer tests: spec grammar, deterministic occurrence
accounting (in-process and cross-process via marker files), and the two
injection sites."""

import os

import pytest

from repro import settings
from repro.faults import (
    CORRUPTION_BYTES,
    FaultRegistry,
    FaultSpecError,
    InjectedCrash,
    active_faults,
    parse_spec,
    parse_specs,
    reset_active_faults,
)

FAULTS_ENV = "REPRO_FAULTS"


@pytest.fixture(autouse=True)
def clean_fault_env(knobs):
    """No ambient fault configuration leaks into (or out of) a test."""
    knobs(faults=(), faults_state=None)
    reset_active_faults()
    yield
    reset_active_faults()


class TestSpecGrammar:
    def test_minimal_spec(self):
        spec = parse_spec("crash", index=0)
        assert spec.kind == "crash"
        assert spec.experiment == "*"
        assert spec.times is None  # unbounded
        assert spec.site == "experiment"

    def test_full_spec(self):
        spec = parse_spec(
            "crash:experiment=tab*:times=2:after=1:p=0.5:seed=7", index=3
        )
        assert spec.experiment == "tab*"
        assert spec.times == 2
        assert spec.after == 1
        assert spec.p == 0.5
        assert spec.seed == 7
        assert spec.index == 3

    def test_flaky_defaults_to_once(self):
        assert parse_spec("flaky", index=0).times == 1

    def test_hang_and_slow_default_seconds(self):
        assert parse_spec("hang", index=0).seconds == 3600.0
        assert parse_spec("slow", index=0).seconds == 0.5

    def test_corrupt_targets_cache_site(self):
        spec = parse_spec("corrupt:artifact=trace", index=0)
        assert spec.site == "cache"
        assert spec.artifact == "trace"

    def test_spec_list_with_whitespace_and_empties(self):
        specs = parse_specs(" crash:experiment=tab3 , , flaky ")
        assert [s.kind for s in specs] == ["crash", "flaky"]
        assert [s.index for s in specs] == [0, 1]

    @pytest.mark.parametrize(
        "bad",
        [
            "explode",  # unknown kind
            "crash:times",  # not key=value
            "crash:wat=1",  # unknown parameter
            "crash:times=many",  # not an integer
            "slow:seconds=-1",  # negative
            "crash:p=1.5",  # probability > 1
            "crash:server=worker",  # server= selects no site
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad, index=0)

    def test_describe_is_stable(self):
        spec = parse_spec("flaky:experiment=tab3", index=2)
        assert spec.describe() == "flaky[2]:experiment=tab3:times=1"


class TestOccurrenceAccounting:
    def test_local_counting_fires_times_then_stops(self):
        registry = FaultRegistry(parse_specs("flaky:experiment=tab3"))
        with pytest.raises(InjectedCrash):
            registry.on_experiment("tab3")
        # second occurrence: consumed, no longer fires
        registry.on_experiment("tab3")
        registry.on_experiment("tab3")

    def test_after_skips_leading_occurrences(self):
        registry = FaultRegistry(parse_specs("crash:after=2:times=1"))
        registry.on_experiment("fig1")
        registry.on_experiment("fig1")
        with pytest.raises(InjectedCrash):
            registry.on_experiment("fig1")
        registry.on_experiment("fig1")

    def test_glob_selects_experiments(self):
        registry = FaultRegistry(parse_specs("crash:experiment=tab*"))
        registry.on_experiment("fig1")  # no match, never fires
        with pytest.raises(InjectedCrash):
            registry.on_experiment("tab3")

    def test_marker_files_share_occurrences_across_registries(self, tmp_path):
        """Two registries with the same state dir model two worker
        processes: a flaky fault consumed by one is consumed for all."""
        state = str(tmp_path / "state")
        specs = parse_specs("flaky:experiment=tab3")
        first = FaultRegistry(specs, state_dir=state)
        second = FaultRegistry(specs, state_dir=state)
        with pytest.raises(InjectedCrash):
            first.on_experiment("tab3")
        second.on_experiment("tab3")  # occurrence 1: past the budget
        assert sorted(os.listdir(state)) == ["spec0.occ0", "spec0.occ1"]

    def test_seeded_coin_is_deterministic(self):
        def fire_pattern(seed):
            registry = FaultRegistry(
                parse_specs(f"crash:p=0.5:seed={seed}")
            )
            pattern = []
            for _ in range(20):
                try:
                    registry.on_experiment("fig1")
                    pattern.append(False)
                except InjectedCrash:
                    pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)
        assert any(fire_pattern(7))  # p=0.5 over 20 draws: some fire
        assert not all(fire_pattern(7))  # ... and some do not
        assert fire_pattern(7) != fire_pattern(8)

    def test_raised_crash_is_pickle_safe(self):
        """The exception crosses the worker/parent process boundary."""
        import pickle

        registry = FaultRegistry(parse_specs("crash:experiment=tab3"))
        with pytest.raises(InjectedCrash) as exc_info:
            registry.on_experiment("tab3")
        revived = pickle.loads(pickle.dumps(exc_info.value))
        assert isinstance(revived, InjectedCrash)
        assert "tab3" in str(revived)


class TestSleepingFaults:
    def test_hang_and_slow_sleep_their_seconds(self):
        naps = []
        registry = FaultRegistry(
            parse_specs("hang:experiment=tab3:seconds=9:times=1,slow:seconds=0.1"),
            sleep=naps.append,
        )
        registry.on_experiment("tab3")
        assert naps == [9.0, 0.1]
        registry.on_experiment("fig1")  # hang consumed; slow still fires
        assert naps == [9.0, 0.1, 0.1]


class TestCacheSite:
    def test_corrupt_fault_garbles_stored_entry(self, tmp_path):
        registry = FaultRegistry(parse_specs("corrupt:artifact=trace:times=1"))
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"valid pickle bytes, allegedly")
        assert registry.on_cache_store("trace", path)
        assert path.read_bytes() == CORRUPTION_BYTES
        # budget exhausted: the next store survives
        path.write_bytes(b"fresh")
        assert not registry.on_cache_store("trace", path)
        assert path.read_bytes() == b"fresh"

    def test_corrupt_fault_respects_artifact_glob(self, tmp_path):
        registry = FaultRegistry(parse_specs("corrupt:artifact=trace"))
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"pipeline bytes")
        assert not registry.on_cache_store("pipeline", path)
        assert path.read_bytes() == b"pipeline bytes"

    def test_experiment_faults_ignore_cache_site_and_vice_versa(self, tmp_path):
        registry = FaultRegistry(
            parse_specs("crash:experiment=tab3,corrupt:artifact=trace")
        )
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"x")
        assert registry.on_cache_store("trace", path)  # corrupt fires
        registry.on_experiment("fig1")  # crash does not match fig1


class TestGrammarEdgeCases:
    def test_overlapping_experiment_globs_count_independently(self):
        """Two specs matching the same experiment keep separate
        occurrence ledgers: each consumes its own budget."""
        registry = FaultRegistry(
            parse_specs("flaky:experiment=tab*,flaky:experiment=*3")
        )
        with pytest.raises(InjectedCrash):  # first spec fires
            registry.on_experiment("tab3")
        with pytest.raises(InjectedCrash):  # second spec still armed
            registry.on_experiment("tab3")
        registry.on_experiment("tab3")  # both budgets consumed

    def test_overlapping_artifact_globs_share_one_store(self, tmp_path):
        """Two corrupt specs matching the same artifact both spend
        their budget on the same store; the next store survives."""
        registry = FaultRegistry(
            parse_specs(
                "corrupt:artifact=tr*:times=1,corrupt:artifact=*ace:times=1"
            )
        )
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"first")
        assert registry.on_cache_store("trace", path)
        assert path.read_bytes() == CORRUPTION_BYTES
        path.write_bytes(b"second")
        assert not registry.on_cache_store("trace", path)
        assert path.read_bytes() == b"second"

    def test_p_zero_never_fires(self):
        registry = FaultRegistry(parse_specs("crash:p=0"))
        for _ in range(50):
            registry.on_experiment("tab3")

    def test_p_one_always_fires_within_budget(self):
        registry = FaultRegistry(parse_specs("crash:p=1:times=2"))
        for _ in range(2):
            with pytest.raises(InjectedCrash):
                registry.on_experiment("tab3")
        registry.on_experiment("tab3")  # times=2 exhausted

    def test_after_window_interacts_with_times(self):
        """``after=2:times=2`` fires exactly on occurrences 2 and 3."""
        registry = FaultRegistry(parse_specs("crash:after=2:times=2"))
        pattern = []
        for _ in range(6):
            try:
                registry.on_experiment("fig1")
                pattern.append(False)
            except InjectedCrash:
                pattern.append(True)
        assert pattern == [False, False, True, True, False, False]

    def test_after_equal_to_skipped_budget_with_p(self):
        """``after`` skips occurrences before the coin is even tossed:
        a p=0 spec with after still claims occurrence numbers."""
        registry = FaultRegistry(parse_specs("crash:after=1:p=0"))
        for _ in range(10):
            registry.on_experiment("tab3")

    def test_times_zero_never_fires(self):
        registry = FaultRegistry(parse_specs("crash:times=0"))
        for _ in range(5):
            registry.on_experiment("tab3")

    def test_shared_exported_ledger_survives_registry_reset(
        self, knobs, tmp_path
    ):
        """A kill/resume pair sharing REPRO_FAULTS_STATE: the second
        process (modelled by a registry reset under the same record)
        sees the first one's claims, so ``times=1`` stays
        once-per-ledger."""
        state = tmp_path / "ledger"
        knobs(faults=tuple(parse_specs("flaky:experiment=tab3")), faults_state=str(state))
        reset_active_faults()
        with pytest.raises(InjectedCrash):
            active_faults().on_experiment("tab3")
        reset_active_faults()  # "new process": same record, fresh registry
        active_faults().on_experiment("tab3")  # already consumed
        assert sorted(os.listdir(state)) == ["spec0.occ0", "spec0.occ1"]


class TestEnvironmentWiring:
    def test_specs_from_env_parses_faults(self):
        record = settings.from_env({FAULTS_ENV: "flaky:experiment=tab3,slow:seconds=0.1"})
        specs = record.faults
        assert [s.kind for s in specs] == ["flaky", "slow"]
        assert record.faults

    def test_active_registry_caches_until_reset(self, monkeypatch, knobs):
        assert not active_faults()
        monkeypatch.setenv(FAULTS_ENV, "crash")
        assert not active_faults()  # stale: the installed record wins
        knobs(faults=settings.from_env().faults)
        assert active_faults()

    def test_registry_follows_record_and_keeps_counters(self, knobs, tmp_path):
        """A record with new fault fields rebuilds the registry; an equal
        one keeps it, occurrence counters included."""
        knobs(faults=tuple(parse_specs("flaky:experiment=tab3")))
        registry = active_faults()
        with pytest.raises(InjectedCrash):
            registry.on_experiment("tab3")
        settings.install(settings.current())
        assert active_faults() is registry
        active_faults().on_experiment("tab3")  # times=1: already fired
        knobs(faults_state=str(tmp_path / "ledger"))
        assert active_faults() is not registry
        assert active_faults().state_dir == str(tmp_path / "ledger")
