"""``Cache.fill_clean`` against one clean ``insert`` per line.

The harness warms every cache level with ``fill_clean``; it must leave
each set's LRU order, every dirty bit and the eviction stats exactly as
the per-line ``insert`` loop it replaces.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, HierarchyParams, warm_hierarchy
from repro.workloads import base as workload_base
from repro.workloads.base import TEST_SCALE

PARAMS = HierarchyParams()

#: Table I's data-side geometries, plus odd ones.
GEOMETRIES = {
    "L1D": (PARAMS.l1d_size, PARAMS.l1d_assoc),
    "L2": (PARAMS.l2_size, PARAMS.l2_assoc),
    "L3": (PARAMS.l3_size, PARAMS.l3_assoc),
    "3_sets": (3 * 4 * 64, 4),
    "12_sets_direct_mapped": (12 * 64, 1),
}


def state(cache):
    """Every set's (tag, dirty) pairs in LRU -> MRU order, and the stats."""
    return [list(ways.items()) for ways in cache._sets], cache.stats


def twins(size, assoc, line=64):
    return Cache("A", size, assoc, line), Cache("B", size, assoc, line)


def line_stream(seed, count, span_lines, line=64):
    """Lines over ``span_lines`` distinct lines, with repeats."""
    rng = random.Random(seed)
    return [rng.randrange(span_lines) * line + rng.randrange(line)
            for _ in range(count)]


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_matches_insert_loop(name):
    size, assoc = GEOMETRIES[name]
    reference, bulk = twins(size, assoc)
    capacity = size // 64
    lines = line_stream(7, 3 * capacity, 2 * capacity)
    for addr in lines:
        reference.insert(addr)
    bulk.fill_clean(lines)
    assert state(bulk) == state(reference)
    assert reference.stats.evictions > 0


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_matches_insert_loop_over_dirty_lines(name):
    size, assoc = GEOMETRIES[name]
    reference, bulk = twins(size, assoc)
    capacity = size // 64
    dirty = line_stream(11, capacity, 2 * capacity)
    for cache in (reference, bulk):
        for index, addr in enumerate(dirty):
            cache.insert(addr, dirty=index % 3 != 0)
        cache.lookup(dirty[0])
    assert state(bulk) == state(reference)
    lines = line_stream(13, 2 * capacity, 2 * capacity)
    for addr in lines:
        reference.insert(addr)
    bulk.fill_clean(lines)
    assert state(bulk) == state(reference)
    assert reference.stats.dirty_evictions > 0


def test_refill_keeps_a_dirty_line_dirty_and_makes_it_mru():
    cache = Cache("T", 2 * 64, 2)
    cache.insert(0x00, dirty=True)
    cache.insert(0x40)
    cache.fill_clean([0x08])
    assert state(cache)[0] == [[(1, False), (0, True)]]


def test_empty_fill_changes_nothing():
    reference, bulk = twins(*GEOMETRIES["3_sets"])
    for cache in (reference, bulk):
        cache.insert(0x40, dirty=True)
    bulk.fill_clean([])
    assert state(bulk) == state(reference)


@settings(max_examples=60, deadline=None)
@given(assoc=st.integers(1, 4), sets=st.integers(1, 6),
       seed_ops=st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                         max_size=30),
       lines=st.lists(st.integers(0, 40), max_size=60))
def test_random_geometries_and_histories(assoc, sets, seed_ops, lines):
    reference, bulk = twins(assoc * sets * 64, assoc)
    for cache in (reference, bulk):
        for line, dirty in seed_ops:
            cache.insert(line * 64, dirty=dirty)
    addrs = [line * 64 + 8 for line in lines]
    for addr in addrs:
        reference.insert(addr)
    bulk.fill_clean(addrs)
    assert state(bulk) == state(reference)


@pytest.mark.parametrize("workload", ["update", "btree"])
def test_warm_hierarchy_matches_the_insert_loop(workload):
    built = workload_base.build(workload, "ede", TEST_SCALE)
    reference = CacheHierarchy(MemoryController(), PARAMS)
    for line in built.warm_lines(PARAMS.line_size):
        for cache in (reference.l3, reference.l2, reference.l1d):
            cache.insert(line)
    warmed = CacheHierarchy(MemoryController(), PARAMS)
    warm_hierarchy(warmed, built)
    for level in ("l1d", "l2", "l3"):
        assert state(getattr(warmed, level)) == state(getattr(reference, level))
