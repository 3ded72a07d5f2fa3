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
from repro.vm.address import PAGE_SHIFT, page_offset, vpn_indices
from repro.vm.page_table import pte_flags, pte_is_leaf, pte_is_valid, pte_ppn


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

    def walk(self, root_paddr: int, vaddr: int):
        """Generator: translate ``vaddr``; returns (paddr, flags).

        Raises :class:`TranslationFault` on invalid mappings.  Timing: one
        LLC-path read per level.
        """
        self._stats.bump("walks")
        table = root_paddr
        indices = vpn_indices(vaddr)
        self.inflight += 1
        try:
            for level, index in enumerate(indices):
                pte = yield from self._read_pte(table + 8 * index)
                if not isinstance(pte, int) and is_poisoned(pte):
                    # Not a page fault the OS could resolve: a mangled
                    # PTE would translate to the wrong frame, so it must
                    # surface as an integrity error, never a retry-able
                    # TranslationFault.
                    raise DataIntegrityError(
                        f"poisoned PTE at {table + 8 * index:#x} during "
                        f"walk of {vaddr:#x}",
                        component="ptw", kind="ptw_read",
                        addr=table + 8 * index)
                if not isinstance(pte, int) or not pte_is_valid(pte):
                    self._stats.bump("faults")
                    raise TranslationFault(vaddr, level)
                if pte_is_leaf(pte):
                    if level != len(indices) - 1:
                        # Superpages are not produced by our OS; treat as fault.
                        self._stats.bump("faults")
                        raise TranslationFault(vaddr, level)
                    frame = pte_ppn(pte) << PAGE_SHIFT
                    return frame | page_offset(vaddr), pte_flags(pte)
                table = pte_ppn(pte) << PAGE_SHIFT
            self._stats.bump("faults")
            raise TranslationFault(vaddr, len(indices) - 1)
        finally:
            self.inflight -= 1
