"""Unit and property tests for the set-associative LRU cache."""

import pytest
from hypothesis import given, strategies as st

from repro.mem import Cache, LineState


LINE = 64


def L(n):
    """Line-id -> line-aligned byte address (the Cache API takes addresses)."""
    return n * LINE


def make_cache(size=1024, ways=4, line=64):
    return Cache(size, ways, line, name="t")


def test_geometry():
    cache = make_cache()
    assert cache.num_sets == 4
    with pytest.raises(ValueError):
        Cache(1000, 3, 64)


def test_set_count_must_be_a_power_of_two():
    with pytest.raises(ValueError, match="3 sets is not a power of two"):
        Cache(3 * 2 * LINE, 2, LINE, name="t")


def test_miss_then_hit():
    cache = make_cache()
    assert not cache.lookup(L(0))
    cache.insert(L(0))
    assert cache.lookup(L(0))


def test_lru_eviction_order():
    cache = Cache(256, 4, 64)  # 1 set, 4 ways
    for n in [0, 1, 2, 3]:
        assert cache.insert(L(n)) is None
    victim = cache.insert(L(4))
    assert victim.line == L(0)  # least recently used
    # Touch 1 so 2 becomes LRU.
    cache.lookup(L(1))
    victim = cache.insert(L(5))
    assert victim.line == L(2)


def test_insert_existing_line_refreshes_lru():
    cache = Cache(256, 4, 64)
    for n in [0, 1, 2, 3]:
        cache.insert(L(n))
    cache.insert(L(0))  # refresh: now 1 is LRU
    victim = cache.insert(L(9))
    assert victim.line == L(1)


def test_mesi_state_lifecycle():
    cache = make_cache()
    cache.insert(L(4))
    assert cache.state_of(L(4)) is LineState.SHARED  # the default fill state
    cache.set_state(L(4), LineState.MODIFIED)
    assert cache.state_of(L(4)) is LineState.MODIFIED
    cache.set_state(L(4), LineState.SHARED)
    assert cache.state_of(L(4)) is LineState.SHARED


def test_insert_never_downgrades_resident_state():
    # Re-inserting a MODIFIED line with a weaker state must not lose the
    # dirty truth: the merge keeps the stronger of the two states.
    cache = make_cache()
    cache.insert(L(4), LineState.MODIFIED)
    cache.insert(L(4), LineState.SHARED)
    assert cache.state_of(L(4)) is LineState.MODIFIED
    # ...but a stronger re-insert does upgrade.
    cache.insert(L(5), LineState.SHARED)
    cache.insert(L(5), LineState.EXCLUSIVE)
    assert cache.state_of(L(5)) is LineState.EXCLUSIVE


def test_victim_reports_its_state():
    cache = Cache(256, 4, 64)
    for n in [0, 1, 2, 3]:
        cache.insert(L(n))
    cache.set_state(L(0), LineState.MODIFIED)
    victim = cache.insert(L(4))
    assert victim.line == L(0)
    assert victim.state is LineState.MODIFIED


def test_lru_victim_on_full_set_insert_keeps_set_full():
    # Satellite edge case: inserting into a full set evicts exactly one
    # line (the LRU) and leaves the set exactly full again.
    cache = Cache(256, 4, 64)  # 1 set, 4 ways
    for n in [0, 1, 2, 3]:
        cache.insert(L(n))
    assert cache.occupancy() == 4
    victim = cache.insert(L(4))
    assert victim is not None and victim.line == L(0)
    assert cache.occupancy() == 4
    assert not cache.contains(L(0)) and cache.contains(L(4))


def test_state_transitions_on_absent_line_raise():
    cache = make_cache()
    with pytest.raises(KeyError):
        cache.set_state(L(77), LineState.MODIFIED)
    assert cache.state_of(L(77)) is LineState.INVALID


def test_invalid_state_is_never_stored():
    cache = make_cache()
    with pytest.raises(ValueError):
        cache.insert(L(3), LineState.INVALID)
    cache.insert(L(3))
    with pytest.raises(ValueError):
        cache.set_state(L(3), LineState.INVALID)


def test_invalidate():
    cache = make_cache()
    cache.insert(L(8))
    # invalidate returns the dropped state (truthy for any valid state),
    # or None when the line was not resident.
    assert cache.invalidate(L(8)) is LineState.SHARED
    assert not cache.contains(L(8))
    assert cache.invalidate(L(8)) is None  # absent: a no-op, not an error


def test_flush_clears_states_and_occupancy():
    cache = make_cache()
    cache.insert(L(1))
    cache.insert(L(2), LineState.MODIFIED)
    cache.flush()
    assert cache.occupancy() == 0
    assert cache.state_of(L(2)) is LineState.INVALID
    # Re-inserting after a flush starts clean again.
    cache.insert(L(2))
    assert cache.state_of(L(2)) is LineState.SHARED


def test_resident_lines_matches_contains_and_states():
    cache = Cache(512, 2, 64)
    for n in [0, 1, 2, 3, 4, 5]:
        cache.insert(L(n), LineState.EXCLUSIVE if n % 2 else LineState.SHARED)
    resident = set(cache.resident_lines())
    assert len(resident) == cache.occupancy()
    for line in resident:
        assert cache.contains(line)
        assert cache.state_of(line) is not LineState.INVALID


def test_contains_does_not_touch_lru():
    cache = Cache(256, 4, 64)
    for n in [0, 1, 2, 3]:
        cache.insert(L(n))
    cache.contains(L(0))  # must NOT refresh
    victim = cache.insert(L(4))
    assert victim.line == L(0)


def test_set_indexing_uses_address_bits_above_offset():
    cache = Cache(512, 4, 64)  # 2 sets: even line ids -> set 0, odd -> set 1
    for n in [0, 2, 4, 6]:
        cache.insert(L(n))
    # Set 0 full; inserting odd lines must not evict from set 0.
    assert cache.insert(L(1)) is None
    assert cache.occupancy() == 5


def test_consecutive_line_addresses_spread_across_sets():
    # Regression for the set-indexing bug: line-aligned *addresses* must
    # not all collapse into one set.
    cache = Cache(8192, 4, 64)  # 32 sets
    for n in range(32):
        cache.insert(L(n))
    assert cache.occupancy() == 32
    sets_used = {(line >> 6) % cache.num_sets for line in cache.resident_lines()}
    assert len(sets_used) == 32


def test_flush():
    cache = make_cache()
    cache.insert(L(1))
    cache.insert(L(2))
    cache.flush()
    assert cache.occupancy() == 0


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=500))
def test_occupancy_never_exceeds_capacity(line_ids):
    cache = Cache(512, 2, 64)  # 4 sets x 2 ways = 8 lines max
    for n in line_ids:
        cache.insert(L(n))
    assert cache.occupancy() <= 8
    per_set = {}
    for line in cache.resident_lines():
        per_set.setdefault((line >> 6) % cache.num_sets, []).append(line)
    for lines_in_set in per_set.values():
        assert len(lines_in_set) <= 2


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300))
def test_most_recent_insert_always_resident(line_ids):
    cache = Cache(256, 4, 64)
    for n in line_ids:
        cache.insert(L(n))
        assert cache.contains(L(n))


@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
                min_size=1, max_size=300))
def test_model_equivalence_with_reference_lru(ops):
    """The cache must match a simple reference LRU model per set."""
    cache = Cache(256, 4, 64)  # single set keeps the reference simple
    reference = []  # LRU order, least recent first
    for is_lookup, n in ops:
        line = L(n)
        if is_lookup:
            hit = cache.lookup(line)
            assert hit == (line in reference)
            if hit:
                reference.remove(line)
                reference.append(line)
        else:
            victim = cache.insert(line)
            if line in reference:
                assert victim is None
                reference.remove(line)
                reference.append(line)
            else:
                if len(reference) == 4:
                    assert victim is not None and victim.line == reference.pop(0)
                else:
                    assert victim is None
                reference.append(line)
