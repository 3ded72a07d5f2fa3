"""User-level array views over simulated virtual memory.

Workload data (CSR arrays, dense vectors, frontiers) lives in the simulated
address space so that every element has a real virtual address that cores
load/store with timing, and that MAPLE can translate and fetch.  The
functional accessors here are zero-time and used only for dataset setup and
result checking.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, List

from repro.vm.address import PAGE_SIZE
from repro.vm.os_model import AddressSpace, SimOS

WORD_BYTES = 8


class SimArray:
    """A 1-D array of 8-byte elements at a virtual base address."""

    def __init__(self, os: SimOS, aspace: AddressSpace, base_vaddr: int,
                 length: int, name: str = "array"):
        self._os = os
        self.aspace = aspace
        self.base = base_vaddr
        self.length = length
        self.name = name

    def addr(self, index: int) -> int:
        """Virtual address of element ``index`` (bounds-checked)."""
        if not 0 <= index < self.length:
            raise IndexError(f"{self.name}[{index}] out of range 0..{self.length - 1}")
        return self.base + WORD_BYTES * index

    # -- functional (zero-time) access, for setup and verification ----------

    def read(self, index: int):
        paddr = self._translate(self.addr(index))
        return self._os.memsys.mem.read_word(paddr)

    def write(self, index: int, value) -> None:
        paddr = self._translate(self.addr(index))
        self._os.memsys.mem.write_word(paddr, value)

    def fill(self, values: Iterable) -> None:
        """Write ``values`` from element 0 on, translating once per page.

        Raises IndexError (after filling every element) when there are
        more values than elements."""
        mem = self._os.memsys.mem
        source = iter(values)
        index = 0
        for first in source:
            if index == self.length:
                self.addr(index)  # raises the out-of-range IndexError
            count = self._page_span(index)
            index += mem.write_words(
                self._translate(self.base + WORD_BYTES * index),
                chain((first,), islice(source, count - 1)))

    def to_list(self) -> List:
        mem = self._os.memsys.mem
        out: List = []
        index = 0
        while index < self.length:
            count = self._page_span(index)
            out += mem.read_words(
                self._translate(self.base + WORD_BYTES * index), count)
            index += count
        return out

    def _page_span(self, index: int) -> int:
        """Elements from ``index`` to the end of its page or the array."""
        offset = (self.base + WORD_BYTES * index) % PAGE_SIZE
        return min(self.length - index, (PAGE_SIZE - offset) // WORD_BYTES)

    def _translate(self, vaddr: int) -> int:
        paddr = self.aspace.page_table.lookup(vaddr)
        if paddr is None:
            raise RuntimeError(
                f"functional access to unmapped {self.name} address {vaddr:#x}; "
                "lazy arrays must be touched through the timed path first"
            )
        return paddr

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"<SimArray {self.name} len={self.length} @ {self.base:#x}>"


def alloc_array(os: SimOS, aspace: AddressSpace, data_or_length,
                name: str = "array", lazy: bool = False) -> SimArray:
    """Allocate (and optionally initialize) an array in ``aspace``.

    ``data_or_length`` is either an integer length (zero-initialized) or a
    sequence whose contents are copied in.
    """
    if isinstance(data_or_length, int):
        length, data = data_or_length, None
    else:
        data = list(data_or_length)
        length = len(data)
    if length <= 0:
        raise ValueError("array must have positive length")
    base = os.mmap(aspace, length * WORD_BYTES, lazy=lazy, name=name)
    array = SimArray(os, aspace, base, length, name)
    if data is not None:
        if lazy:
            raise ValueError("cannot pre-fill a lazily mapped array")
        array.fill(data)
    return array
