"""Tests for the set-associative LRU caches."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import Cache, CacheConfig


def direct_mapped(lines=4, line_words=4):
    return Cache(
        CacheConfig(
            size_words=lines * line_words, line_words=line_words, associativity=1
        )
    )


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        cache = direct_mapped()
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(3)  # same line

    def test_line_granularity(self):
        cache = direct_mapped(line_words=8)
        cache.access(0)
        assert cache.access(7)
        assert not cache.access(8)

    def test_direct_mapped_conflict(self):
        cache = direct_mapped(lines=4, line_words=4)
        cache.access(0)  # set 0
        cache.access(16)  # also set 0 (4 sets * 4 words)
        assert not cache.access(0)  # evicted

    def test_two_way_keeps_both(self):
        cache = Cache(CacheConfig(size_words=32, line_words=4, associativity=2))
        cache.access(0)
        cache.access(16)  # same set, second way
        assert cache.access(0)
        assert cache.access(16)

    def test_lru_evicts_least_recent(self):
        cache = Cache(CacheConfig(size_words=32, line_words=4, associativity=2))
        cache.access(0)
        cache.access(16)
        cache.access(0)  # 16 is now LRU
        cache.access(32)  # same set: evicts 16
        assert cache.access(0)
        assert not cache.access(16)

    def test_statistics(self):
        cache = direct_mapped()
        cache.access(0)
        cache.access(0)
        cache.access(100)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.miss_rate == pytest.approx(2 / 3)
        cache.reset_statistics()
        assert cache.accesses == 0

    def test_contains_has_no_side_effects(self):
        cache = Cache(CacheConfig(size_words=32, line_words=4, associativity=2))
        cache.access(0)
        cache.access(16)
        assert cache.contains(0)
        before = [list(ways or ()) for ways in cache._sets]
        cache.contains(0)
        assert [list(ways or ()) for ways in cache._sets] == before


class ListPerSetCache:
    """Reference model: every set an eagerly allocated LRU list."""

    def __init__(self, config):
        self.config = config
        self.sets = [[] for __ in range(config.num_sets)]
        self.hits = self.misses = 0

    def access(self, address):
        line = address // self.config.line_words
        ways = self.sets[line % self.config.num_sets]
        if line in ways:
            self.hits += 1
            ways.remove(line)
            ways.append(line)
            return True
        self.misses += 1
        ways.append(line)
        if len(ways) > self.config.associativity:
            ways.pop(0)
        return False


class TestSetsOnFirstUse:
    def test_fresh_cache_holds_no_set_list(self):
        cache = Cache(CacheConfig(size_words=1024))
        assert cache._sets == [None] * cache.config.num_sets
        assert not cache.contains(0)
        assert cache._sets == [None] * cache.config.num_sets
        cache.access(5)
        allocated = [ways for ways in cache._sets if ways is not None]
        assert allocated == [[5 // cache.config.line_words]]

    @pytest.mark.parametrize("associativity", [1, 2, 4])
    def test_matches_eagerly_allocated_sets(self, associativity):
        config = CacheConfig(size_words=256, line_words=4, associativity=associativity)
        cache, reference = Cache(config), ListPerSetCache(config)
        rng = random.Random(associativity)
        for __ in range(3000):
            address = rng.randrange(2048)
            assert cache.access(address) == reference.access(address)
            probe = rng.randrange(2048)
            line = probe // config.line_words
            expected = line in reference.sets[line % config.num_sets]
            assert cache.contains(probe) == expected
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        assert [ways or [] for ways in cache._sets] == reference.sets


class TestConfigValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            CacheConfig(size_words=100)

    def test_cache_must_hold_a_set(self):
        with pytest.raises(ValueError):
            CacheConfig(size_words=8, line_words=8, associativity=2)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_words=64, miss_penalty=-1)

    def test_geometry_properties(self):
        config = CacheConfig(size_words=64, line_words=8, associativity=2)
        assert config.num_lines == 8
        assert config.num_sets == 4


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300)
)
def test_sets_never_exceed_associativity(addresses):
    cache = Cache(CacheConfig(size_words=128, line_words=4, associativity=2))
    for address in addresses:
        cache.access(address)
        assert all(len(ways or ()) <= 2 for ways in cache._sets)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300)
)
def test_repeated_access_is_always_a_hit(addresses):
    cache = Cache(CacheConfig(size_words=128, line_words=4, associativity=2))
    for address in addresses:
        cache.access(address)
        assert cache.access(address)  # immediately re-touching must hit
