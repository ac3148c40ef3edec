"""Deterministic, seedable fault injection for the experiment harness.

``REPRO_FAULTS`` spec strings (see :mod:`repro.faults.spec` for the
grammar) arm crash / flaky / hang / slow / corrupt faults at injection
sites inside the parallel workers and the artifact cache; the resilient
supervisor in :mod:`repro.harness.parallel` is what turns those faults
into retries, pool recycles and serial fallbacks instead of lost runs.
See ``docs/robustness.md``.
"""

from .injector import (
    CORRUPTION_BYTES,
    FaultRegistry,
    InjectedCrash,
    InjectedFault,
    active_faults,
    reset_active_faults,
)
from .spec import (
    DEFAULT_HANG_SECONDS,
    DEFAULT_SLOW_SECONDS,
    KINDS,
    FaultSpec,
    FaultSpecError,
    parse_spec,
    parse_specs,
)

__all__ = [
    "CORRUPTION_BYTES",
    "FaultRegistry",
    "InjectedCrash",
    "InjectedFault",
    "active_faults",
    "reset_active_faults",
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_SLOW_SECONDS",
    "KINDS",
    "FaultSpec",
    "FaultSpecError",
    "parse_spec",
    "parse_specs",
]
