"""Unit tests for PhysicalMemory."""

import pytest
from hypothesis import given, strategies as st

from repro.mem import PhysicalMemory


def test_uninitialized_reads_zero():
    mem = PhysicalMemory()
    assert mem.read_word(0) == 0
    assert mem.read_word(0x1000) == 0


def test_write_then_read():
    mem = PhysicalMemory()
    mem.write_word(0x40, 3.25)
    mem.write_word(0x48, 7)
    assert mem.read_word(0x40) == 3.25
    assert mem.read_word(0x48) == 7


def test_unaligned_access_rejected():
    mem = PhysicalMemory()
    with pytest.raises(ValueError):
        mem.read_word(0x41)
    with pytest.raises(ValueError):
        mem.write_word(0x44, 1)


def test_negative_address_rejected():
    mem = PhysicalMemory()
    with pytest.raises(ValueError):
        mem.read_word(-8)


def test_read_line_returns_words_in_order():
    mem = PhysicalMemory()
    for i in range(8):
        mem.write_word(0x80 + 8 * i, i * 10)
    assert mem.read_line(0x80, 64) == [0, 10, 20, 30, 40, 50, 60, 70]


def test_read_line_requires_alignment():
    mem = PhysicalMemory()
    with pytest.raises(ValueError):
        mem.read_line(0x88, 64)


def test_read_line_fills_missing_words_with_zero():
    mem = PhysicalMemory()
    mem.write_word(0xC8, 5)
    line = mem.read_line(0xC0, 64)
    assert line == [0, 5, 0, 0, 0, 0, 0, 0]


def test_words_in_use():
    mem = PhysicalMemory()
    assert mem.words_in_use() == 0
    mem.write_word(0, 1)
    mem.write_word(8, 1)
    mem.write_word(0, 2)  # overwrite, not a new word
    assert mem.words_in_use() == 2


@given(st.dictionaries(
    st.integers(min_value=0, max_value=2**20).map(lambda w: w * 8),
    st.one_of(st.integers(), st.floats(allow_nan=False)),
    max_size=64,
))
def test_memory_behaves_like_a_dict(contents):
    mem = PhysicalMemory()
    for addr, value in contents.items():
        mem.write_word(addr, value)
    for addr, value in contents.items():
        assert mem.read_word(addr) == value


def test_write_words_and_read_words_are_consecutive():
    mem = PhysicalMemory()
    assert mem.write_words(0x100, iter([1, 2.5, 3])) == 3
    assert mem.write_words(0x200, []) == 0
    assert [mem.read_word(0x100 + 8 * i) for i in range(3)] == [1, 2.5, 3]
    assert mem.read_words(0x0F8, 5) == [0, 1, 2.5, 3, 0]
    assert mem.read_words(0x100, 0) == []
    with pytest.raises(ValueError):
        mem.write_words(0x104, [1])
    with pytest.raises(ValueError):
        mem.read_words(-8, 1)
