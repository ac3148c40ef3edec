"""Tests for the workload generator and the benchmark profiles."""

import hashlib

import pytest

from repro.engine import trace_branches
from repro.isa import Machine
from repro.workloads import (
    SUITE,
    all_profiles,
    generate_program,
    generate_source,
    get_profile,
)
from repro.workloads.generator import GuardSpec, WorkloadProfile
from repro.workloads.sites import BiasedSite


#: (profile, iterations) -> (program digest, source digest), computed
#: before assembly was memoised: memos and fast paths must not move a
#: single instruction, data word, label or source byte.
PINNED_PROGRAMS = {
    ("compress", 1): ("beff37328a7a65f8", "6fff09bd96c101b3"),
    ("compress", 40): ("becfac834304d300", "b73fdaf369581da4"),
    ("compress", 120): ("9bef78c6dbd2ca69", "def01f82e90ec0b6"),
    ("gcc", 1): ("e38a47d99ccb6870", "d2844236cacd7df8"),
    ("gcc", 40): ("4a2f344b1eeb12fe", "a5de99dc9d5ee007"),
    ("gcc", 120): ("735672f99b6957a2", "6936082fe19e0b52"),
    ("perl", 1): ("66a531f99be75a3f", "4d2961f6b7ed2922"),
    ("perl", 40): ("699159f03e85062f", "f8fdf9906cdce27a"),
    ("perl", 120): ("d6135154e5c0573f", "1084dec89f6608dc"),
    ("go", 1): ("aeb6bd6a07ea7fd0", "82a58d94742b2769"),
    ("go", 40): ("769e6d1cdfdff004", "facfe32837ad4250"),
    ("go", 120): ("b6723545b3d21d87", "e804926c7abc84ae"),
    ("m88ksim", 1): ("02b9597109d6a0f5", "dc1a4c078c9b8d55"),
    ("m88ksim", 40): ("9d58303772a5051a", "1b4b8d6fa2f1fcee"),
    ("m88ksim", 120): ("d2d6959dd3ead394", "96ad37e3ecc61feb"),
    ("xlisp", 1): ("01e623ffc9d64604", "312bdb9d6f622e6e"),
    ("xlisp", 40): ("fe9bf32f0f7d325b", "d10f49700e7c60e5"),
    ("xlisp", 120): ("72464c1e382ffcf5", "cce7b42667b52881"),
    ("vortex", 1): ("8a088e3eebf4a1eb", "ee3147064f30c662"),
    ("vortex", 40): ("d9fc28019417e9bb", "c18d65ebe5d260b9"),
    ("vortex", 120): ("a8479c9fd3fef12a", "e4dfc224cb59b695"),
    ("jpeg", 1): ("8e526eff0d938036", "a69076726cb73968"),
    ("jpeg", 40): ("7c56c83fcbb94a60", "e6d257f92fecc5b1"),
    ("jpeg", 120): ("eca222cf65ba8e8b", "bfa673ea4ce59e4e"),
}


def program_digest(program):
    payload = repr(
        (
            [
                (i.opcode.value, i.rd, i.rs1, i.rs2, i.imm, i.target_label)
                for i in program.instructions
            ],
            list(program.data.items()),
            list(program.labels.items()),
            program.entry,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TestPinnedPrograms:
    @pytest.mark.parametrize("name, iterations", sorted(PINNED_PROGRAMS))
    def test_program_and_source_match_their_pins(self, name, iterations):
        profile = get_profile(name)
        source = generate_source(profile, iterations=iterations)
        program = generate_program(profile, iterations=iterations)
        assert (
            program_digest(program),
            hashlib.sha256(source.encode("utf-8")).hexdigest()[:16],
        ) == PINNED_PROGRAMS[name, iterations]


class TestGenerator:
    def test_source_is_assemblable_for_every_profile(self):
        for profile in all_profiles():
            program = generate_program(profile, iterations=2)
            assert len(program) > 10

    def test_every_profile_runs_to_halt(self):
        for name in SUITE:
            program = generate_program(get_profile(name), iterations=3)
            machine = Machine(program)
            machine.run(max_steps=500_000)
            assert machine.halted, f"{name} did not halt"

    def test_generation_is_deterministic(self):
        first = generate_source(get_profile("gcc"), iterations=5)
        second = generate_source(get_profile("gcc"), iterations=5)
        assert first == second

    def test_trace_is_deterministic(self):
        one = trace_branches(generate_program(get_profile("perl"), iterations=20))
        two = trace_branches(generate_program(get_profile("perl"), iterations=20))
        assert list(one.trace) == list(two.trace)

    def test_iterations_scale_instruction_count(self):
        profile = get_profile("compress")
        small = trace_branches(generate_program(profile, iterations=10))
        large = trace_branches(generate_program(profile, iterations=40))
        assert large.stats.instructions > 3 * small.stats.instructions

    def test_iterations_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_source(get_profile("gcc"), iterations=0)

    def test_guarded_block_is_sometimes_skipped(self):
        site = BiasedSite(threshold=512, field_shift=15)
        guarded = WorkloadProfile(
            name="guarded",
            description="one guarded site",
            sites=(site,),
            guards={0: GuardSpec(field_shift=17, threshold=512)},
        )
        traced = trace_branches(generate_program(guarded, iterations=400))
        by_pc = {}
        for pc, taken in traced.trace:
            by_pc.setdefault(pc, []).append(taken)
        counts = sorted(len(seq) for seq in by_pc.values())
        # the guard runs every iteration, the site only ~half the time
        assert counts[0] < 300
        assert counts[-1] >= 400

    def test_subroutine_profiles_use_calls(self):
        source = generate_source(get_profile("gcc"), iterations=1)
        assert "jal sub_0" in source
        assert "jr r31" in source

    def test_guard_index_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad",
                description="guard out of range",
                sites=(BiasedSite(threshold=10, field_shift=15),),
                guards={5: GuardSpec(field_shift=15, threshold=10)},
            )

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="empty", description="", sites=())


class TestProfiles:
    def test_suite_has_eight_benchmarks(self):
        assert len(SUITE) == 8

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_profile("specfp")

    def test_each_profile_is_built_once(self):
        for name in SUITE:
            assert get_profile(name) is get_profile(name)
        assert all(a is b for a, b in zip(all_profiles(), map(get_profile, SUITE)))

    def test_profiles_have_distinct_site_populations(self):
        gcc = get_profile("gcc")
        compress = get_profile("compress")
        assert len(gcc.sites) > 2 * len(compress.sites)

    def test_branch_fraction_is_realistic(self):
        """SPECint-like: roughly a branch every 4-7 instructions."""
        for name in SUITE:
            traced = trace_branches(
                generate_program(get_profile(name), iterations=30)
            )
            assert 0.12 <= traced.stats.branch_fraction <= 0.35, name

    def test_predictability_ordering_matches_paper(self):
        """go must be the hardest workload, vortex among the easiest."""
        from repro.engine import measure_accuracy
        from repro.predictors import GsharePredictor

        accuracy = {}
        for name in ("go", "vortex", "gcc"):
            traced = trace_branches(
                generate_program(get_profile(name), iterations=150)
            )
            accuracy[name] = measure_accuracy(
                traced.trace, GsharePredictor()
            ).accuracy
        assert accuracy["go"] < accuracy["gcc"] < accuracy["vortex"]
