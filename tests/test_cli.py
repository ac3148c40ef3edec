"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "tab9"])

    def test_workload_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "specfp"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run-all", "--only", "tab1,tab9"], "unknown experiment ids: tab9 ("),
            (["bench", "--only", "tab9,boost"], "unknown experiment ids: tab9 ("),
            (
                ["run-all", "--workloads", "compress,specfp,spice"],
                "unknown workload: specfp, spice (",
            ),
            (["run", "tab2", "--workloads", "gcc,specfp"], "unknown workload: specfp ("),
            (["speculate", "--workloads", "specfp"], "unknown workload: specfp ("),
        ],
    )
    def test_unknown_names_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, raw",
        [
            (["run-all", "--pipeline-instructions", "-5"], "--pipeline-instructions", "-5"),
            (["run-all", "--pipeline-instructions", "0"], "--pipeline-instructions", "0"),
            (["speculate", "--pipeline-instructions", "0"], "--pipeline-instructions", "0"),
            (["run", "tab1", "--pipeline-instructions", "x"], "--pipeline-instructions", "x"),
            (["run-all", "--iterations", "0"], "--iterations", "0"),
            (["run-all", "--iterations", "-1"], "--iterations", "-1"),
            (["bench", "--iterations", "0"], "--iterations", "0"),
            (["profile", "--iterations", "0"], "--iterations", "0"),
            (["plot", "fig6", "--pipeline-instructions", "0"], "--pipeline-instructions", "0"),
            (["workload", "gcc", "--iterations", "0"], "--iterations", "0"),
            (["trace", "gcc", "out.trace", "--iterations", "-3"], "--iterations", "-3"),
            (["run", "--jobs", "0"], "--jobs", "0"),
            (["run-all", "--jobs", "-3"], "--jobs", "-3"),
            (["speculate", "--jobs", "0"], "--jobs", "0"),
            (["bench", "--jobs", "0"], "--jobs", "0"),
        ],
    )
    def test_non_positive_sizes_are_usage_errors(self, argv, flag, raw, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        message = f"argument {flag}: expected a positive integer, got '{raw}'"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, raw",
        [
            (["run-all", "--retries", "-4"], "--retries", "-4"),
            (["run-all", "--segment-instructions", "-5"], "--segment-instructions", "-5"),
            (["bench", "--segment-instructions", "x"], "--segment-instructions", "x"),
        ],
    )
    def test_negative_counts_are_usage_errors(self, argv, flag, raw, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        message = f"argument {flag}: expected a non-negative integer, got '{raw}'"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, missing",
        [
            (["run-all", "--only", "fig1", "--out", "{tmp}/no/report.txt"], "--out", "{tmp}/no"),
            (["run", "fig1", "--journal", "{tmp}/no/j.jsonl"], "--journal", "{tmp}/no"),
            (["run-all", "--resume", "{tmp}/absent.jsonl"], "--resume", "{tmp}/absent.jsonl"),
            (
                ["bench", "--compare", "{tmp}/absent.json", "{tmp}/absent.json"],
                "--compare",
                "{tmp}/absent.json",
            ),
        ],
    )
    def test_missing_paths_are_usage_errors(self, argv, flag, missing, tmp_path, capsys):
        from repro.engine.cache import get_cache

        argv = [arg.format(tmp=tmp_path) for arg in argv]
        before = get_cache().stats.snapshot()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and missing.format(tmp=tmp_path) in err
        # refused before any work: not one cache lookup
        assert get_cache().stats.since(before) == type(before)()

    def test_journal_of_missing_file_is_invalid(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["journal", str(missing)]) == 1
        assert f"journal: {missing}\nINVALID: cannot read" in capsys.readouterr().out

    def test_retries_and_segment_zero_parse(self):
        args = build_parser().parse_args(
            ["run-all", "--retries", "0", "--segment-instructions", "0", "--jobs", "1"]
        )
        assert (args.retries, args.segment_instructions, args.jobs) == (0, 0, 1)

    def test_positive_sizes_parse(self):
        args = build_parser().parse_args(
            ["run-all", "--iterations", "1", "--pipeline-instructions", "2000"]
        )
        assert (args.iterations, args.pipeline_instructions) == (1, 2000)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tab2" in out and "compress" in out

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_run_with_scale_flags(self, capsys):
        code = main(
            [
                "run",
                "tab3",
                "--iterations",
                "40",
                "--workloads",
                "compress,vortex",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compress" in out and "vortex" in out

    def test_workload_summary(self, capsys):
        assert main(["workload", "compress", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "dynamic branches" in out

    def test_workload_source(self, capsys):
        assert main(["workload", "jpeg", "--iterations", "2", "--source"]) == 0
        assert ".text" in capsys.readouterr().out

    def test_trace_writes_file(self, tmp_path, capsys):
        target = str(tmp_path / "out.rbt")
        assert main(["trace", "compress", target, "--iterations", "10"]) == 0
        from repro.workloads import BranchTrace

        trace = BranchTrace.load(target)
        assert len(trace) > 100

    def test_run_all_subset_to_file(self, tmp_path, capsys):
        target = str(tmp_path / "report.txt")
        code = main(
            [
                "run-all",
                "--only",
                "fig1",
                "--out",
                target,
                "--iterations",
                "20",
                "--workloads",
                "compress",
            ]
        )
        assert code == 0
        content = open(target).read()
        assert "fig1" in content


class TestScaleAndJobs:
    def test_scale_preset_smoke(self, capsys):
        assert main(["run", "tab3", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "vortex" in out

    def test_scale_flags_override_preset(self):
        from repro.cli import _scale_from_args, build_parser

        args = build_parser().parse_args(
            ["run", "tab3", "--scale", "smoke", "--iterations", "99"]
        )
        scale = _scale_from_args(args)
        assert scale.iterations == 99
        assert scale.workloads == ("compress", "vortex")

    @pytest.mark.parametrize(
        "flags, changed",
        [
            (["--backend", "inorder"], {"backend": "inorder"}),
            (["--segment-instructions", "2000"], {"segment_instructions": 2000}),
            (["--backend", "ooo"], {"backend": "ooo"}),
        ],
    )
    def test_resume_flags_override_the_resumed_scale(
        self, flags, changed, knobs
    ):
        from dataclasses import replace

        from repro.cli import _scale_from_args
        from repro.harness import SMOKE

        knobs(backend=None, segment_instructions=None)
        args = build_parser().parse_args(["run-all", "--resume", "j", *flags])
        assert _scale_from_args(args, fallback=SMOKE) == replace(SMOKE, **changed)

    @pytest.mark.parametrize(
        "flags, changed",
        [
            ([], {}),
            (["--iterations", "30"], {"iterations": 30}),
            (["--workloads", "gcc"], {"workloads": ("gcc",)}),
        ],
    )
    def test_resume_ignores_backend_and_segment_knobs(self, flags, changed, knobs):
        """The resumed run's backend and segment size hold whatever
        other flag is given: the environment never overrides them."""
        from dataclasses import replace

        from repro.cli import _scale_from_args
        from repro.harness import SMOKE

        knobs(backend="ooo", segment_instructions=2000)
        args = build_parser().parse_args(["run-all", "--resume", "j", *flags])
        assert _scale_from_args(args, fallback=SMOKE) == replace(SMOKE, **changed)

    @pytest.mark.parametrize(
        "argv, knob, segment, backend",
        [
            (["run-all", "--scale", "smoke"], 2000, 2000, "ooo"),
            (["run-all"], 2000, 2000, "ooo"),
            (["run-all", "--resume", "j", "--scale", "smoke"], 2000, 2000, "ooo"),
            (["run-all", "--scale", "smoke", "--segment-instructions", "0"], 2000, None, "ooo"),
            (["run-all", "--scale", "smoke", "--backend", "inorder"], 2000, 2000, "inorder"),
            (["run-all", "--scale", "paper"], 0, None, "ooo"),
            (["run-all", "--scale", "paper"], None, 750_000, "ooo"),
        ],
    )
    def test_knobs_fill_the_preset_and_flags_win(
        self, argv, knob, segment, backend, knobs
    ):
        from repro.cli import _scale_from_args
        from repro.harness import SMOKE

        knobs(backend="ooo", segment_instructions=knob)
        args = build_parser().parse_args(argv)
        scale = _scale_from_args(args, fallback=SMOKE if args.resume else None)
        assert (scale.segment_instructions, scale.backend) == (segment, backend)

    def test_run_without_experiment_runs_battery(self, capsys):
        code = main(
            ["run", "--scale", "smoke", "--workloads", "compress", "--iterations", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# Experiment report" in out
        assert "tab2" in out and "boost" in out
        assert "Battery performance" in out

    def test_jobs_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["run-all", "--jobs", "2"])
        assert args.jobs == 2


class TestCacheCommand:
    def test_cache_info(self, capsys):
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "cache directory:" in out and "entries:" in out

    def test_cache_clear(self, capsys):
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "0 files" in capsys.readouterr().out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestNewCommands:
    def test_run_json_output(self, capsys):
        import json

        assert main(["run", "fig1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig1"
        assert payload["tables"]
        assert payload["tables"][0]["headers"]

    def test_tab2d_detail(self, capsys):
        code = main(
            ["run", "tab2d", "--iterations", "40", "--workloads", "compress"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "95% CI" in out and "±" in out
        assert "(accuracy)" in out

    def test_plot_fig4(self, capsys):
        code = main(
            ["plot", "fig4", "--iterations", "40", "--workloads", "compress"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4096 MDCs" in out


class TestSupervisorFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run-all",
                "--resume",
                "prior.jsonl",
                "--task-timeout",
                "120",
                "--retries",
                "3",
                "--deterministic",
            ]
        )
        assert args.resume == "prior.jsonl"
        assert args.task_timeout == 120.0
        assert args.retries == 3
        assert args.deterministic is True

    def test_deterministic_report_is_reproducible(self, tmp_path, capsys):
        argv = [
            "run-all",
            "--only",
            "fig1",
            "--scale",
            "smoke",
            "--deterministic",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "(timestamp stripped)" in first
        assert "Battery performance" not in first

    def test_resume_via_cli_skips_finished_and_reuses_scale(
        self, tmp_path, capsys
    ):
        journal = str(tmp_path / "first.jsonl")
        assert (
            main(
                [
                    "run-all",
                    "--only",
                    "fig1,tab3",
                    "--scale",
                    "smoke",
                    "--journal",
                    journal,
                    "--deterministic",
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        # no --only, no --scale: both come from the resumed journal
        assert main(["run-all", "--resume", journal, "--deterministic"]) == 0
        second = capsys.readouterr().out
        assert first == second

        from repro.obs.journal import read_journal

        events = read_journal(journal)
        assert [
            e["experiment"]
            for e in events
            if e["event"] == "experiment_finished"
        ] == ["fig1", "tab3"]


class TestCacheVerifyCommand:
    def test_verify_clean_cache_exits_zero(self, capsys):
        assert main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "checked:" in out and "corrupt:" in out

    def test_verify_flags_corrupt_entry(self, capsys):
        from repro.engine.cache import get_cache

        cache = get_cache()
        key = cache.key("clitest", x=1)
        cache.store(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"garbage")
        try:
            assert main(["cache", "verify"]) == 1
            out = capsys.readouterr().out
            assert f"corrupt: {key}" in out
        finally:
            cache.path_for(key).unlink()

    def test_info_reports_corrupt_stat(self, capsys):
        assert main(["cache", "info"]) == 0
        assert "corrupt" in capsys.readouterr().out
