"""Set-associative LRU caches (instruction and data sides share this).

Addresses are word-granular (matching the ISA); a line holds
``line_words`` consecutive words.  Replacement is true LRU within a
set, implemented as a recency-ordered list per set -- sets are small
(the associativity), so list operations beat any cleverer structure in
pure Python.  A set's list is created the first time a line maps to
it (``None`` until then reads as an empty set): a short run touches a
fraction of the sets, and thousands of empty lists per simulator cost
allocation and garbage-collection passes for nothing.  The fused
pipeline loop (:mod:`repro.pipeline.core`) inlines :meth:`Cache.access`
with the same rule.
"""

from __future__ import annotations

from typing import List, Optional

from .config import CacheConfig


class Cache:
    """One level of set-associative cache with LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_words.bit_length() - 1
        #: per-set list of resident line tags, most recently used last;
        #: ``None`` until a line first maps to the set
        self._sets: List[Optional[List[int]]] = [None] * config.num_sets
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit (and updates LRU)."""
        line = address >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        if ways is not None and line in ways:
            self.hits += 1
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return True
        self.misses += 1
        if ways is None:
            self._sets[index] = [line]
        else:
            ways.append(line)
            if len(ways) > self.config.associativity:
                ways.pop(0)
        return False

    def contains(self, address: int) -> bool:
        """Presence probe without LRU side effects (tests)."""
        line = address >> self._line_shift
        ways = self._sets[line & self._set_mask]
        return ways is not None and line in ways

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
