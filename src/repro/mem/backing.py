"""Flat word-granular physical memory.

The simulation stores data at 8-byte word granularity: every array element
occupies one word regardless of its declared C width (the paper's 4-byte
packing optimization is modeled at the MAPLE queue level, where it actually
lives — see :meth:`repro.core.api.MapleQueueHandle.consume_packed`).
Uninitialized reads return zero, like zero-filled pages from an OS.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Iterable


WORD_BYTES = 8


class PhysicalMemory:
    """Sparse backing store: byte address (8-aligned) -> Python value."""

    def __init__(self) -> None:
        self._words: Dict[int, Any] = {}

    def read_word(self, paddr: int) -> Any:
        # Inlined alignment check (read_word runs once per simulated load).
        if paddr & 7 or paddr < 0:
            self._check(paddr)
        return self._words.get(paddr, 0)

    def write_word(self, paddr: int, value: Any) -> None:
        if paddr & 7 or paddr < 0:
            self._check(paddr)
        self._words[paddr] = value

    def write_words(self, paddr: int, values: Iterable) -> int:
        """Store ``values`` in consecutive words from ``paddr``; returns
        how many were stored."""
        if paddr & 7 or paddr < 0:
            self._check(paddr)
        words = self._words
        count = 0
        for count, value in enumerate(values, 1):
            words[paddr] = value
            paddr += WORD_BYTES
        return count

    def read_words(self, paddr: int, count: int) -> list:
        """``count`` consecutive words from ``paddr``, in address order."""
        if paddr & 7 or paddr < 0:
            self._check(paddr)
        end = paddr + count * WORD_BYTES
        return list(map(self._words.get, range(paddr, end, WORD_BYTES),
                        repeat(0, count)))

    def read_line(self, line_addr: int, line_size: int) -> list:
        """All words of a cache line, in address order (used by LIMA)."""
        if line_addr % line_size:
            raise ValueError(f"line address {line_addr:#x} not {line_size}-aligned")
        return [
            self._words.get(line_addr + off, 0)
            for off in range(0, line_size, WORD_BYTES)
        ]

    def words_in_use(self) -> int:
        return len(self._words)

    @staticmethod
    def _check(paddr: int) -> None:
        if paddr < 0:
            raise ValueError(f"negative physical address {paddr:#x}")
        if paddr % WORD_BYTES:
            raise ValueError(f"unaligned word access at {paddr:#x}")
