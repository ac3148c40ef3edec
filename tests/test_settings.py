"""The settings record: one parser for every ``REPRO_*`` knob, one
reader of the environment, and an explicit handoff to pool workers."""

import ast
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import settings
from repro.engine import cache as artifact_cache
from repro.engine import clear_cache
from repro.faults import parse_specs
from repro.harness import SMOKE, clear_memoised, run_all
from repro.harness.parallel import _init_worker
from repro.obs.journal import read_journal

SRC = Path(repro.__file__).resolve().parents[1]

BOOLEAN_CASES = [
    ("0", False, False),
    ("off", False, False),
    ("FALSE", False, False),
    ("No", False, False),
    ("1", True, False),
    ("yes", True, False),
    ("ON", True, False),
    ("True", True, False),
    ("", True, False),
    ("maybe", True, True),
]

#: ``(variable, raw value, field, parsed value, ignored)``: valid, empty,
#: malformed and out-of-range values of every variable.
PARSER_CASES = [
    ("REPRO_JOBS", "6", "jobs", 6, False),
    ("REPRO_JOBS", "", "jobs", 1, False),
    ("REPRO_JOBS", "abc", "jobs", 1, True),
    ("REPRO_JOBS", "0", "jobs", 1, True),
    ("REPRO_JOBS", "-3", "jobs", 1, True),
    ("REPRO_TASK_TIMEOUT", "30", "task_timeout", 30.0, False),
    ("REPRO_TASK_TIMEOUT", " 2.5 ", "task_timeout", 2.5, False),
    ("REPRO_TASK_TIMEOUT", "", "task_timeout", None, False),
    ("REPRO_TASK_TIMEOUT", "soon", "task_timeout", None, True),
    ("REPRO_TASK_TIMEOUT", "0", "task_timeout", None, False),
    ("REPRO_TASK_TIMEOUT", "-1", "task_timeout", None, False),
    ("REPRO_TASK_TIMEOUT", "nan", "task_timeout", None, False),
    ("REPRO_TASK_TIMEOUT", "inf", "task_timeout", None, False),
    ("REPRO_TASK_RETRIES", "5", "retries", 5, False),
    ("REPRO_TASK_RETRIES", "0", "retries", 0, False),
    ("REPRO_TASK_RETRIES", "", "retries", settings.DEFAULT_RETRIES, False),
    ("REPRO_TASK_RETRIES", "2.7", "retries", settings.DEFAULT_RETRIES, True),
    ("REPRO_TASK_RETRIES", "-4", "retries", settings.DEFAULT_RETRIES, True),
    ("REPRO_RETRY_BACKOFF", "0.1", "backoff_s", 0.1, False),
    ("REPRO_RETRY_BACKOFF", "0", "backoff_s", 0.0, False),
    ("REPRO_RETRY_BACKOFF", "", "backoff_s", settings.DEFAULT_BACKOFF_S, False),
    ("REPRO_RETRY_BACKOFF", "x", "backoff_s", settings.DEFAULT_BACKOFF_S, True),
    ("REPRO_RETRY_BACKOFF", "inf", "backoff_s", settings.DEFAULT_BACKOFF_S, True),
    ("REPRO_RETRY_BACKOFF", "-1", "backoff_s", settings.DEFAULT_BACKOFF_S, True),
    ("REPRO_SEGMENT_INSTRUCTIONS", "2000", "segment_instructions", 2000, False),
    ("REPRO_SEGMENT_INSTRUCTIONS", "0", "segment_instructions", 0, False),
    ("REPRO_SEGMENT_INSTRUCTIONS", "", "segment_instructions", None, False),
    ("REPRO_SEGMENT_INSTRUCTIONS", "x", "segment_instructions", None, True),
    ("REPRO_SEGMENT_INSTRUCTIONS", "-5", "segment_instructions", None, True),
    *(("REPRO_CACHE", raw, "cache_enabled", value, bad) for raw, value, bad in BOOLEAN_CASES),
    *(("REPRO_VECTOR", raw, "vector", value, bad) for raw, value, bad in BOOLEAN_CASES),
    *(
        ("REPRO_PIPELINE_FAST", raw, "pipeline_fast", value, bad)
        for raw, value, bad in BOOLEAN_CASES
    ),
    ("REPRO_CACHE_DIR", "/data/cache", "cache_dir", Path("/data/cache"), False),
    ("REPRO_BACKEND", "ooo", "backend", "ooo", False),
    ("REPRO_BACKEND", "", "backend", None, False),
    ("REPRO_FAULTS", "", "faults", (), False),
    (
        "REPRO_FAULTS",
        "flaky:experiment=tab3",
        "faults",
        tuple(parse_specs("flaky:experiment=tab3")),
        False,
    ),
    ("REPRO_FAULTS_STATE", "/tmp/ledger", "faults_state", "/tmp/ledger", False),
    ("REPRO_FAULTS_STATE", "", "faults_state", None, False),
]


class TestParser:
    @pytest.mark.parametrize("variable, raw, field, value, ignored", PARSER_CASES)
    def test_every_variable(self, variable, raw, field, value, ignored, capsys):
        record = settings.from_env({variable: raw})
        assert getattr(record, field) == value
        warning = f"repro: ignoring unparseable {variable}={raw.strip()!r}"
        if ignored:
            assert record.ignored == ((variable, raw.strip()),)
            assert capsys.readouterr().err == warning + "\n"
        else:
            assert record.ignored == ()
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "variable, raw", [("REPRO_BACKEND", "bad"), ("REPRO_FAULTS", "bogus")]
    )
    def test_malformed_backend_or_faults_is_an_error(self, variable, raw):
        with pytest.raises(settings.SettingsError, match=f"invalid {variable}='{raw}'"):
            settings.from_env({variable: raw})

    def test_cache_dir_default(self, tmp_path):
        xdg = settings.from_env({"XDG_CACHE_HOME": str(tmp_path)})
        assert xdg.cache_dir == tmp_path / "repro"
        home = settings.from_env({"REPRO_CACHE_DIR": "", "XDG_CACHE_HOME": ""})
        assert home.cache_dir == Path.home() / ".cache" / "repro"

    def test_defaults(self):
        assert settings.from_env({}) == settings.Settings(
            cache_dir=Path.home() / ".cache" / "repro"
        )


def test_only_settings_reads_the_environment():
    """No module under ``src/repro`` but ``settings.py`` reads or writes
    the process environment."""
    names = {"environ", "environb", "getenv", "putenv", "unsetenv"}
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path == SRC / "repro" / "settings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and names & {alias.name for alias in node.names}
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


class TestHandoff:
    def test_configured_cache_reaches_workers_without_the_environment(
        self, tmp_path, monkeypatch
    ):
        """Workers write into the configured root A, not into the
        ``REPRO_CACHE_DIR`` they inherit, and nothing writes the
        environment."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "B"))
        previous = artifact_cache.get_cache()
        environment = dict(os.environ)
        artifact_cache.configure(root=tmp_path / "A", enabled=True)
        clear_memoised()
        clear_cache()
        try:
            run_all(SMOKE, only=["fig1", "tab3"], jobs=2)
        finally:
            artifact_cache.configure(root=previous.root, enabled=previous.enabled)
            clear_memoised()
            clear_cache()
        assert dict(os.environ) == environment
        kinds = {path.name.split("-")[0] for path in (tmp_path / "A").glob("*.pkl")}
        assert {"trace", "measurement", "checkpoint"} <= kinds
        assert not (tmp_path / "B").exists()

    def test_spawn_worker_installs_the_parent_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "B"))
        record = replace(settings.current(), cache_dir=tmp_path / "A", vector=False)
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(record,),
        ) as pool:
            assert pool.submit(settings.current).result(timeout=120) == record
            assert pool.submit(artifact_cache.get_cache).result(timeout=120).root == (
                tmp_path / "A"
            )

    def test_installed_restores_the_previous_record(self, tmp_path):
        before = settings.current()
        with settings.installed(replace(before, cache_dir=tmp_path)) as record:
            assert settings.current() is record
            assert artifact_cache.get_cache().root == tmp_path
        assert settings.current() is before
        assert artifact_cache.get_cache().root == before.cache_dir


def _cli(tmp_path, argv, **variables):
    """Run ``repro`` in a fresh process with only ``variables`` set."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.update(variables)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestCommandLine:
    @pytest.mark.parametrize(
        "variable, raw, jobs",
        [
            ("REPRO_FAULTS", "bogus", "1"),
            ("REPRO_FAULTS", "bogus", "2"),
            ("REPRO_BACKEND", "bad", "1"),
        ],
    )
    def test_malformed_backend_or_faults_exits_2_before_any_work(
        self, tmp_path, variable, raw, jobs
    ):
        argv = ["run-all", "--scale", "smoke", "--only", "fig1", "--jobs", jobs]
        proc = _cli(tmp_path, argv, **{variable: raw})
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and f"{variable}='{raw}'" in lines[0]
        assert not list((tmp_path / "cache").glob("*.pkl"))

    def test_malformed_execution_knobs_warn_once_and_journal(self, tmp_path):
        journal = tmp_path / "knobs.jsonl"
        argv = ["run-all", "--scale", "smoke", "--only", "fig1", "--deterministic"]
        argv += ["--journal", str(journal), "--out", str(tmp_path / "report.txt")]
        proc = _cli(
            tmp_path, argv, REPRO_JOBS="two", REPRO_TASK_TIMEOUT="soon", REPRO_VECTOR="maybe"
        )
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stderr.splitlines() if "ignoring" in line] == [
            "repro: ignoring unparseable REPRO_JOBS='two'",
            "repro: ignoring unparseable REPRO_TASK_TIMEOUT='soon'",
            "repro: ignoring unparseable REPRO_VECTOR='maybe'",
        ]
        contexts = [e["context"] for e in read_journal(journal) if e["event"] == "warning"]
        assert contexts == ["REPRO_JOBS", "REPRO_TASK_TIMEOUT", "REPRO_VECTOR"]
