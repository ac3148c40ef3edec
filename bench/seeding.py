"""Per-seed workload inputs: rebind ``get_profile`` in every loaded module.

Seed 0 is the development seed and uses the committed, calibrated
profiles untouched.  Any other seed keeps each profile's site
structure and iteration counts but replaces its two random streams --
``data_seed`` (generator-side array contents) and ``lcg_seed`` (the
program's own LCG) -- with values derived from ``(seed, profile name)``
by sha256.  ``profile_fingerprint`` hashes the whole profile, so
reseeded artifacts never share cache keys with the calibrated ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from typing import Callable, List, Tuple

from suite import repro_modules

#: Seed 0 tunes the benchmark; seed 1 is held out to check claims on.
DEV_SEED = 0
HELD_OUT_SEED = 1


def derived_seeds(seed: int, name: str) -> Tuple[int, int]:
    """``(data_seed, lcg_seed)`` for profile ``name`` under ``seed``.

    ``lcg_seed`` is odd and nonzero, and stays below 2**30 like the
    calibrated default so the program's ``li`` immediate is unchanged
    in kind.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    data_seed = int.from_bytes(digest[:4], "big")
    lcg_seed = (int.from_bytes(digest[4:8], "big") & 0x3FFFFFFF) | 1
    return data_seed, lcg_seed


def reseed(seed: int) -> List[Tuple[object, str, Callable]]:
    """Rebind ``get_profile`` for ``seed``; returns what to restore.

    A no-op for seed 0.  Must run after ``repro`` is imported: every
    loaded ``repro.*`` module that binds the original function gets the
    reseeded one.
    """
    if seed == DEV_SEED:
        return []
    original = sys.modules["repro.workloads.profiles"].get_profile

    def get_profile(name: str):
        profile = original(name)
        data_seed, lcg_seed = derived_seeds(seed, profile.name)
        return dataclasses.replace(profile, data_seed=data_seed, lcg_seed=lcg_seed)

    rebound = []
    for module in repro_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, get_profile)
                rebound.append((module, attr, original))
    return rebound


def restore(rebound: List[Tuple[object, str, Callable]]) -> None:
    """Undo :func:`reseed`."""
    for module, attr, original in reversed(rebound):
        setattr(module, attr, original)
