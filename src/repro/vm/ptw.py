"""Hardware page table walker with memory-hierarchy timing.

A walk issues one timed read per level through the shared LLC path —
page-table lines cache in the L2, so a warm walk costs three L2 hits while
a cold one pays DRAM.  On an invalid or non-leaf final PTE the walker
reports a :class:`TranslationFault` carrying the faulting address, which
the OS (or the MAPLE driver, §3.5) resolves.

The walker reads through its owner's memory
:class:`~repro.sim.port.Port` (a core's or MAPLE's): each PTE read is a
timed ``ptw_read`` transaction on that port, so walk traffic shows up in
the owner's telemetry tap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.dram import is_poisoned
from repro.sim.port import DataIntegrityError, Port
from repro.sim.stats import ScopedStats
from repro.vm.address import (ENTRIES_PER_TABLE, LEVELS, PAGE_SHIFT,
                              PAGE_SIZE, VA_BITS, VPN_BITS)
from repro.vm.page_table import PPN_SHIFT, PTE_R, PTE_V, PTE_W

#: (level, shift of its table index), root to leaf.
_LEVEL_SHIFTS = tuple((level, PAGE_SHIFT + VPN_BITS * (LEVELS - 1 - level))
                      for level in range(LEVELS))
_INDEX_MASK = ENTRIES_PER_TABLE - 1
_VA_LIMIT = 1 << VA_BITS
_PTE_LEAF = PTE_R | PTE_W
_FLAGS_MASK = (1 << PPN_SHIFT) - 1


@dataclass
class TranslationFault(Exception):
    """A page fault discovered by the walker."""

    vaddr: int
    level: int

    def __str__(self) -> str:
        return f"page fault at {self.vaddr:#x} (level {self.level})"


class PageTableWalker:
    """Walks a radix table rooted wherever the MMU's root register points."""

    def __init__(self, port: Port, stats: ScopedStats, name: str = "ptw"):
        self._stats = stats
        self.name = name
        #: Walks currently in flight (watchdog dumps report this so a hang
        #: inside a translation is distinguishable from one in the fetch).
        self.inflight = 0
        # The seam's lowered read: a port request itself while the seam
        # is armed.
        self._read_pte = port.lowered("ptw_read")
        # Counter handles, bound at first use: a walker that never walks
        # (or never faults) adds no zero-valued key to the stats.
        self._c_walks = None
        self._c_faults = None

    def walk(self, root_paddr: int, vaddr: int):
        """Generator: translate ``vaddr``; returns (paddr, flags).

        Raises :class:`TranslationFault` on invalid mappings.  Timing: one
        LLC-path read per level.  One loop decodes each PTE inline (the
        layout of :mod:`repro.vm.page_table`).
        """
        walks = self._c_walks
        if walks is None:
            walks = self._c_walks = self._stats.counter("walks")
        walks.value += 1
        if not 0 <= vaddr < _VA_LIMIT:
            raise ValueError(
                f"address {vaddr:#x} outside the {VA_BITS}-bit space")
        read_pte = self._read_pte
        table = root_paddr
        self.inflight += 1
        try:
            for level, shift in _LEVEL_SHIFTS:
                entry = table + 8 * ((vaddr >> shift) & _INDEX_MASK)
                pte = yield from read_pte(entry)
                if not isinstance(pte, int):
                    if is_poisoned(pte):
                        # Not a page fault the OS could resolve: a mangled
                        # PTE would translate to the wrong frame, so it
                        # must surface as an integrity error, never a
                        # retry-able TranslationFault.
                        raise DataIntegrityError(
                            f"poisoned PTE at {entry:#x} during walk of "
                            f"{vaddr:#x}",
                            component="ptw", kind="ptw_read", addr=entry)
                    break
                if not pte & PTE_V:
                    break
                if pte & _PTE_LEAF:
                    if shift != PAGE_SHIFT:
                        # Superpages are not produced by our OS; treat as
                        # a fault.
                        break
                    return (((pte >> PPN_SHIFT) << PAGE_SHIFT)
                            | (vaddr & (PAGE_SIZE - 1))), pte & _FLAGS_MASK
                table = (pte >> PPN_SHIFT) << PAGE_SHIFT
            # An invalid or superpage PTE, or a last level that is not a
            # leaf.
            faults = self._c_faults
            if faults is None:
                faults = self._c_faults = self._stats.counter("faults")
            faults.value += 1
            raise TranslationFault(vaddr, level)
        finally:
            self.inflight -= 1
