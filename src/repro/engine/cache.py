"""Content-addressed on-disk artifact cache.

The expensive intermediates of the experiment battery -- generated
workload traces, pipeline branch-record streams, static-estimator
profiles and full estimator measurements -- are pure functions of
(workload profile, scale, generator/pipeline configuration).  This
module persists them across processes so that a warm rerun of the
battery, a pytest session, or a pool of parallel workers pays each
simulation exactly once per machine instead of once per process.

Keys are content addresses: a SHA-256 over the artifact *kind*, every
parameter that feeds the computation (including a fingerprint of the
workload profile and the pipeline configuration) and a code-version
salt that is bumped whenever simulator semantics change.  A stale or
corrupt cache entry can therefore never be confused with a valid one;
unreadable files are treated as misses and recomputed.

The active cache follows the installed :mod:`repro.settings` record:
``REPRO_CACHE=0`` (or ``--no-cache``) disables it and
``REPRO_CACHE_DIR`` moves it (default ``$XDG_CACHE_HOME/repro`` or
``~/.cache/repro``).  :func:`configure` changes those two fields of the
installed record, and pool workers receive the parent's record from
their initializer.  ``repro cache {info,clear,verify}`` inspects it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from .. import settings
from ..obs.registry import REGISTRY

T = TypeVar("T")

#: Bump whenever a change to the generator/tracer/pipeline/estimator
#: code alters what any cached artifact would contain.
CODE_SALT = "repro-artifacts-v2"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance.

    ``errors`` counts every I/O problem (failed writes, unreadable
    entries); ``corrupt`` is the subset that was *corruption* -- an
    entry that existed, was readable, but did not unpickle.  The two
    are distinguished so ``repro cache info`` can tell a flaky disk
    apart from damaged artifacts.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0
    corrupt: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.writes += other.writes
        self.errors += other.errors
        self.corrupt += other.corrupt

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.writes, self.errors, self.corrupt
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            writes=self.writes - earlier.writes,
            errors=self.errors - earlier.errors,
            corrupt=self.corrupt - earlier.corrupt,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
            "corrupt": self.corrupt,
        }


# ----------------------------------------------------------------------
# warning sink
# ----------------------------------------------------------------------

#: ``(context, message)`` callback for cache degradations.  The runner
#: points this at the active run journal so failed stores and corrupt
#: entries become ``warning`` events; without a sink they go to stderr
#: (silence was the bug -- see docs/robustness.md).
WarningSink = Callable[[str, str], None]

_WARNING_SINK: Optional[WarningSink] = None


def set_warning_sink(sink: Optional[WarningSink]) -> Optional[WarningSink]:
    """Install ``sink`` (or ``None`` to restore stderr); returns the old one."""
    global _WARNING_SINK
    previous = _WARNING_SINK
    _WARNING_SINK = sink
    return previous


def _warn(context: str, message: str) -> None:
    if _WARNING_SINK is not None:
        _WARNING_SINK(context, message)
    else:
        print(f"repro: {message}", file=sys.stderr)


def _json_representable(value: Any) -> bool:
    try:
        json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):
        return False
    return True


@dataclass
class ArtifactCache:
    """A directory of pickled artifacts addressed by content hash."""

    root: Path
    enabled: bool = True
    salt: str = CODE_SALT
    stats: CacheStats = field(default_factory=CacheStats)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def key(self, kind: str, **parts: Any) -> str:
        """Content address for one artifact.

        ``parts`` must be JSON-representable (tuples become lists);
        insertion order does not matter.  Anything else -- an estimator
        instance, a config object -- raises :class:`TypeError` instead
        of being silently stringified: ``str()`` fallbacks collide when
        reprs match and spuriously miss when they embed ``object at
        0x...`` addresses.
        """
        try:
            payload = json.dumps(
                {"kind": kind, "salt": self.salt, "parts": parts},
                sort_keys=True,
            )
        except (TypeError, ValueError) as error:
            offending = sorted(
                name
                for name, value in parts.items()
                if not _json_representable(value)
            )
            raise TypeError(
                f"cache key parts for kind {kind!r} must be "
                f"JSON-representable; offending part(s): "
                f"{', '.join(offending) or '<unknown>'} ({error})"
            ) from None
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return f"{kind}-{digest[:40]}"

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # ------------------------------------------------------------------
    # load / store
    # ------------------------------------------------------------------

    def load(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a corrupt entry counts as a miss.

        Corruption (the file exists and is readable but does not
        unpickle) is distinguished from a transient read error (disk
        I/O, permissions): a corrupt entry is unlinked so the recompute
        can replace it, and announced as a ``corrupt_artifact`` warning
        naming the key; a transient error leaves the file alone -- it
        may be perfectly healthy next time.
        """
        if not self.enabled:
            self.stats.misses += 1
            return False, None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except OSError as error:
            # transient I/O failure: recompute, but keep the entry
            self.stats.misses += 1
            self.stats.errors += 1
            REGISTRY.count("cache.read_errors")
            _warn(
                "cache_read",
                f"artifact cache read failed for {key}"
                f" ({type(error).__name__}: {error}); recomputing",
            )
            return False, None
        except Exception as error:
            # truncated/corrupt entry: drop it and recompute
            self.stats.misses += 1
            self.stats.errors += 1
            self.stats.corrupt += 1
            REGISTRY.count("cache.corrupt_entries")
            _warn(
                "corrupt_artifact",
                f"corrupt artifact cache entry {key}"
                f" ({type(error).__name__}); dropped, recomputing",
            )
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.stats.hits += 1
        return True, value

    @staticmethod
    def kind_of(key: str) -> str:
        """The artifact kind a cache key was minted for."""
        return key.rsplit("-", 1)[0]

    def store(self, key: str, value: Any) -> None:
        """Persist ``value`` atomically (safe under concurrent writers)."""
        if not self.enabled:
            return
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp_name, path)
            finally:
                if os.path.exists(temp_name):
                    try:
                        os.unlink(temp_name)
                    except OSError:
                        pass
        except OSError as error:
            # a read-only or full disk never breaks the computation,
            # but it is not swallowed silently either
            self.stats.errors += 1
            REGISTRY.count("cache.store_errors")
            _warn(
                "cache_store",
                f"artifact cache store failed for {key}"
                f" ({type(error).__name__}: {error}); continuing uncached",
            )
            return
        self.stats.writes += 1
        # chaos hook: an armed corrupt fault garbles the entry we just
        # wrote so the next load exercises the corruption path
        from ..faults.injector import active_faults

        active_faults().on_cache_store(self.kind_of(key), path)

    def cached(self, kind: str, compute: Callable[[], T], **parts: Any) -> T:
        """``compute()`` memoised under ``key(kind, **parts)``."""
        key = self.key(kind, **parts)
        hit, value = self.load(key)
        if hit:
            return value
        value = compute()
        self.store(key, value)
        return value

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------

    def entries(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(files, bytes)`` breakdown of the cache directory."""
        breakdown: Dict[str, Tuple[int, int]] = {}
        if not self.root.is_dir():
            return breakdown
        for path in self.root.glob("*.pkl"):
            kind = path.stem.rsplit("-", 1)[0]
            files, size = breakdown.get(kind, (0, 0))
            try:
                size += path.stat().st_size
            except OSError:
                continue
            breakdown[kind] = (files + 1, size)
        return breakdown

    def info(self) -> Dict[str, Any]:
        breakdown = self.entries()
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "salt": self.salt,
            "files": sum(files for files, __ in breakdown.values()),
            "bytes": sum(size for __, size in breakdown.values()),
            "kinds": {
                kind: {"files": files, "bytes": size}
                for kind, (files, size) in sorted(breakdown.items())
            },
            "stats": self.stats.as_dict(),
        }

    def verify(self) -> Dict[str, Any]:
        """Scan every entry on disk and classify it.

        Returns ``{"checked": n, "ok": n, "corrupt": [keys...],
        "unreadable": [keys...]}``.  Corrupt entries (present but not
        unpicklable) are reported, not deleted -- ``load`` drops them
        on the next use; a transient read error is listed separately.
        """
        checked = ok = 0
        corrupt: list = []
        unreadable: list = []
        if self.root.is_dir():
            for path in sorted(self.root.glob("*.pkl")):
                checked += 1
                try:
                    with open(path, "rb") as handle:
                        pickle.load(handle)
                except OSError:
                    unreadable.append(path.stem)
                except Exception:
                    corrupt.append(path.stem)
                else:
                    ok += 1
        return {
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt,
            "unreadable": unreadable,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self.root.glob("*.pkl")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed


# ----------------------------------------------------------------------
# process-wide active cache
# ----------------------------------------------------------------------

_ACTIVE: Optional[ArtifactCache] = None


def get_cache() -> ArtifactCache:
    """The process-wide cache for the installed settings record.

    Rebuilt, with fresh stats, only when the record's cache directory or
    enablement changes.
    """
    global _ACTIVE
    record = settings.current()
    wanted = (record.cache_dir, record.cache_enabled)
    if _ACTIVE is None or (_ACTIVE.root, _ACTIVE.enabled) != wanted:
        _ACTIVE = ArtifactCache(root=record.cache_dir, enabled=record.cache_enabled)
    return _ACTIVE


def configure(
    root: Optional[os.PathLike] = None, enabled: Optional[bool] = None
) -> ArtifactCache:
    """Change the installed record's cache fields (tests use this)."""
    record = settings.current()
    root = record.cache_dir if root is None else Path(root)
    enabled = record.cache_enabled if enabled is None else enabled
    settings.install(replace(record, cache_dir=root, cache_enabled=enabled))
    return get_cache()


def reset_active_cache() -> None:
    """Forget the active cache; the next use rebuilds it with fresh stats."""
    global _ACTIVE
    _ACTIVE = None


def merge_stats(stats: CacheStats) -> None:
    """Fold a worker's cache counters into the active cache's stats."""
    get_cache().stats.merge(stats)
