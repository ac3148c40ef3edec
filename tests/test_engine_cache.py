"""Tests for the content-addressed artifact cache."""

import os
import pickle

import pytest

from repro import settings
from repro.engine.cache import (
    ArtifactCache,
    CacheStats,
    configure,
    get_cache,
    set_warning_sink,
)


@pytest.fixture()
def warnings_sink():
    """Capture ``(context, message)`` cache degradation warnings."""
    captured = []
    previous = set_warning_sink(lambda context, message: captured.append((context, message)))
    yield captured
    set_warning_sink(previous)


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(root=tmp_path / "artifacts")


class TestKeying:
    def test_key_is_stable(self, cache):
        a = cache.key("trace", workload="gcc", iterations=50)
        b = cache.key("trace", iterations=50, workload="gcc")
        assert a == b

    def test_key_changes_with_any_part(self, cache):
        base = cache.key("trace", workload="gcc", iterations=50, profile="abc")
        assert base != cache.key("trace", workload="go", iterations=50, profile="abc")
        assert base != cache.key("trace", workload="gcc", iterations=60, profile="abc")
        assert base != cache.key("trace", workload="gcc", iterations=50, profile="xyz")

    def test_key_changes_with_kind_and_salt(self, cache, tmp_path):
        other = ArtifactCache(root=tmp_path, salt="other-salt")
        assert cache.key("trace", w="gcc") != cache.key("pipeline", w="gcc")
        assert cache.key("trace", w="gcc") != other.key("trace", w="gcc")

    def test_key_embeds_kind_prefix(self, cache):
        assert cache.key("pipeline", w="gcc").startswith("pipeline-")


class _ConstantRepr:
    """Two distinct configs whose ``str()`` is identical."""

    def __init__(self, payload):
        self.payload = payload

    def __str__(self):
        return "config"

    __repr__ = __str__


class TestNonJsonParts:
    """``key`` used to fall back to ``json.dumps(..., default=str)``:
    distinct objects with matching reprs silently collided, and objects
    whose repr embeds ``object at 0x...`` never hit the cache again."""

    def test_colliding_reprs_raise_instead_of_colliding(self, cache):
        with pytest.raises(TypeError, match=r"estimator"):
            cache.key("thing", estimator=_ConstantRepr(1))
        # the bug: these two used to produce the SAME key
        with pytest.raises(TypeError):
            cache.key("thing", estimator=_ConstantRepr(2))

    def test_address_bearing_repr_raises_instead_of_missing(self, cache):
        # the bug: repr embeds `object at 0x...`, a fresh key each call
        with pytest.raises(TypeError, match=r"config"):
            cache.key("thing", config=object())

    def test_error_names_every_offending_part(self, cache):
        with pytest.raises(TypeError, match=r"config, estimator"):
            cache.key(
                "thing",
                estimator=object(),
                config=object(),
                workload="gcc",
            )

    def test_error_names_kind(self, cache):
        with pytest.raises(TypeError, match=r"'pipeline'"):
            cache.key("pipeline", config=object())

    def test_cached_propagates_key_error_without_computing(self, cache):
        calls = []
        with pytest.raises(TypeError):
            cache.cached("thing", lambda: calls.append(1), bad=object())
        assert not calls

    def test_json_representable_parts_still_work(self, cache):
        key = cache.key(
            "thing",
            text="gcc",
            number=3,
            ratio=0.5,
            flag=True,
            nothing=None,
            seq=(1, 2, 3),
            mapping={"a": 1},
        )
        assert key.startswith("thing-")


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return {"value": 42}

        first = cache.cached("thing", compute, x=1)
        second = cache.cached("thing", compute, x=1)
        assert first == second == {"value": 42}
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_different_parts_recompute(self, cache):
        calls = []
        cache.cached("thing", lambda: calls.append(1), x=1)
        cache.cached("thing", lambda: calls.append(1), x=2)
        assert len(calls) == 2

    def test_disabled_cache_always_computes(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=False)
        calls = []
        cache.cached("thing", lambda: calls.append(1) or 7, x=1)
        value = cache.cached("thing", lambda: calls.append(1) or 7, x=1)
        assert value == 7
        assert len(calls) == 2
        assert not list(tmp_path.glob("*.pkl"))


class TestCorruption:
    def test_corrupt_entry_falls_back_to_recompute(self, cache):
        key = cache.key("thing", x=1)
        cache.store(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle at all")
        value = cache.cached("thing", lambda: [4, 5, 6], x=1)
        assert value == [4, 5, 6]
        assert cache.stats.errors == 1
        assert cache.stats.corrupt == 1
        # the corrupt file was replaced by the recomputed artifact
        hit, reloaded = cache.load(key)
        assert hit and reloaded == [4, 5, 6]

    def test_truncated_pickle_is_a_miss(self, cache):
        key = cache.key("thing", x=1)
        cache.store(key, list(range(1000)))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        hit, __ = cache.load(key)
        assert not hit

    def test_unreadable_root_never_raises(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "file-not-dir")
        (tmp_path / "file-not-dir").write_text("i am a file")
        cache.store(cache.key("k", x=1), 1)  # swallowed, counted
        assert cache.stats.errors == 1

    def test_corrupt_entry_warns_with_key_and_unlinks(self, cache, warnings_sink):
        key = cache.key("thing", x=1)
        cache.store(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"garbage")
        hit, __ = cache.load(key)
        assert not hit
        assert [(c, key in m) for c, m in warnings_sink] == [
            ("corrupt_artifact", True)
        ]
        # corrupt entries are dropped so the recompute can replace them
        assert not cache.path_for(key).exists()

    def test_transient_read_error_keeps_entry_and_warns(
        self, cache, warnings_sink, monkeypatch
    ):
        """A flaky disk is not corruption: the entry survives and the
        corrupt counter stays untouched."""
        key = cache.key("thing", x=1)
        cache.store(key, [1, 2, 3])
        path = cache.path_for(key)

        import builtins

        real_open = builtins.open

        def failing_open(file, *args, **kwargs):
            if str(file) == str(path) and "r" in args[0]:
                raise PermissionError("flaky disk")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        hit, __ = cache.load(key)
        monkeypatch.undo()

        assert not hit
        assert cache.stats.errors == 1
        assert cache.stats.corrupt == 0
        assert [(c, key in m) for c, m in warnings_sink] == [("cache_read", True)]
        assert path.exists()  # it may be perfectly healthy next time
        hit, value = cache.load(key)
        assert hit and value == [1, 2, 3]

    def test_failed_store_warns_with_key(self, tmp_path, warnings_sink):
        cache = ArtifactCache(root=tmp_path / "file-not-dir")
        (tmp_path / "file-not-dir").write_text("i am a file")
        key = cache.key("k", x=1)
        cache.store(key, 1)
        assert [(c, key in m) for c, m in warnings_sink] == [("cache_store", True)]

    def test_warnings_fall_back_to_stderr_without_sink(self, cache, capsys):
        key = cache.key("thing", x=1)
        cache.store(key, [1])
        cache.path_for(key).write_bytes(b"garbage")
        cache.load(key)
        err = capsys.readouterr().err
        assert "repro:" in err and key in err

    def test_kind_of_inverts_key(self, cache):
        assert ArtifactCache.kind_of(cache.key("pipeline", x=1)) == "pipeline"


class TestVerify:
    def test_verify_classifies_entries(self, cache):
        good = cache.key("thing", x=1)
        bad = cache.key("thing", x=2)
        cache.store(good, [1])
        cache.store(bad, [2])
        cache.path_for(bad).write_bytes(b"garbage")
        report = cache.verify()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["corrupt"] == [bad]
        assert report["unreadable"] == []
        # verify reports, it does not delete
        assert cache.path_for(bad).exists()

    def test_verify_empty_root(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "never-created")
        assert cache.verify() == {
            "checked": 0,
            "ok": 0,
            "corrupt": [],
            "unreadable": [],
        }


class TestManagement:
    def test_clear_empties_directory(self, cache):
        for x in range(5):
            cache.store(cache.key("thing", x=x), x)
        assert cache.info()["files"] == 5
        assert cache.clear() == 5
        assert cache.info()["files"] == 0
        assert not list(cache.root.glob("*.pkl"))

    def test_info_breakdown_by_kind(self, cache):
        cache.store(cache.key("trace", x=1), b"x" * 100)
        cache.store(cache.key("trace", x=2), b"x" * 100)
        cache.store(cache.key("pipeline", x=1), b"y")
        info = cache.info()
        assert info["kinds"]["trace"]["files"] == 2
        assert info["kinds"]["pipeline"]["files"] == 1
        assert info["bytes"] > 0

    def test_stats_since_and_merge(self):
        stats = CacheStats(hits=5, misses=3, writes=2, errors=1)
        snap = stats.snapshot()
        stats.hits += 2
        delta = stats.since(snap)
        assert delta.hits == 2 and delta.misses == 0
        total = CacheStats()
        total.merge(stats)
        assert total.hits == stats.hits


class TestEnvironment:
    def test_configure_changes_the_installed_record(self, tmp_path):
        previous = get_cache()
        environment = dict(os.environ)
        configured = configure(root=tmp_path / "c", enabled=True)
        try:
            assert get_cache() is configured
            assert settings.current().cache_dir == tmp_path / "c"
            assert settings.current().cache_enabled
            configure(enabled=False)
            assert not settings.current().cache_enabled
            assert not get_cache().enabled
            assert get_cache().root == tmp_path / "c"
            assert dict(os.environ) == environment
        finally:
            configure(root=previous.root, enabled=previous.enabled)

    def test_an_unchanged_record_keeps_the_cache_and_its_stats(self, tmp_path):
        previous = get_cache()
        configured = configure(root=tmp_path / "c", enabled=True)
        try:
            configured.stats.hits += 3
            settings.install(settings.current())
            assert configure(root=tmp_path / "c") is configured
            assert get_cache().stats.hits == 3
        finally:
            configure(root=previous.root, enabled=previous.enabled)

    def test_store_is_pickle_roundtrip(self, cache):
        from array import array

        payload = {"pcs": array("L", [1, 2, 3]), "outcomes": bytearray(b"\x01\x00")}
        key = cache.key("roundtrip", x=1)
        cache.store(key, payload)
        hit, value = cache.load(key)
        assert hit
        assert value == payload
        assert pickle.dumps(value)
