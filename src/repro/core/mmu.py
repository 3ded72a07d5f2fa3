"""MAPLE's MMU: a private TLB and hardware page-table walker (§3.5).

MAPLE receives *virtual* pointers from software, so it translates them
itself: a fully-associative 16-entry TLB (same size as the cores'), a
walker that fetches PTEs through the memory hierarchy, and a fault path —
on an invalid page the MMU records the faulting address, raises an
interrupt, and the MAPLE driver resolves it and retries.  The driver's
shootdown callback invalidates TLB entries so no stale translations
survive an ``munmap``.
"""

from __future__ import annotations

from typing import Optional

from repro.params import SoCConfig
from repro.sim.port import Port
from repro.sim.stats import ScopedStats
from repro.vm.ptw import PageTableWalker, TranslationFault
from repro.vm.tlb import Tlb


class MapleMmu:
    """Translation front-end shared by the Produce pipeline and LIMA.

    ``port`` is the engine's memory :class:`~repro.sim.port.Port`; walk
    reads become ``ptw_read`` transactions on it.
    """

    def __init__(self, port: Port, config: SoCConfig,
                 stats: ScopedStats, name: str = "maple-mmu"):
        self.name = name
        self._config = config
        self._stats = stats
        self.tlb = Tlb(config.maple_tlb_entries, stats, name=f"{name}.tlb")
        self._ptw = PageTableWalker(port, stats, name=f"{name}.ptw")
        self.root_paddr: Optional[int] = None
        self.last_fault_vaddr: Optional[int] = None
        self._fault_handler = None  # installed by the driver

    @property
    def walker(self) -> PageTableWalker:
        """The hardware walker (liveness probes read its inflight count)."""
        return self._ptw

    def set_root(self, root_paddr: int) -> None:
        """Point at a process's page table (driver-only configuration)."""
        self.root_paddr = root_paddr
        self.tlb.flush()

    def install_fault_handler(self, handler) -> None:
        """``handler(vaddr)`` is a generator the driver provides; it maps
        the page (with kernel-trap timing) or raises SegmentationFault."""
        self._fault_handler = handler

    def shootdown(self, vaddr: int) -> None:
        """The Linux callback path: invalidate one page (§3.5)."""
        self.tlb.invalidate_page(vaddr)
        self._stats.bump("shootdowns")

    def lookup(self, vaddr: int) -> Optional[int]:
        """The TLB half of a translation, synchronous: the paddr on a hit,
        ``None`` on a miss (both counted); the caller then yields from
        :meth:`translate_miss`.  A TLB hit costs no time."""
        if self.root_paddr is None:
            raise RuntimeError(f"{self.name}: translate before SET_ROOT")
        hit = self.tlb.translate(vaddr)
        return hit[0] if hit is not None else None

    def translate_miss(self, vaddr: int):
        """Generator: vaddr -> paddr after a TLB miss :meth:`lookup`
        already counted — the walk, with fault/retry timing."""
        # Loop, not retry-once: under injected eviction the page can be
        # unmapped again mid-retry; the interrupt/resolve path simply
        # fires again, exactly as the driver would re-trap (§3.5).
        while True:
            try:
                paddr, flags = yield from self._ptw.walk(self.root_paddr,
                                                         vaddr)
                break
            except TranslationFault:
                self.last_fault_vaddr = vaddr
                self._stats.bump("page_faults")
                if self._fault_handler is None:
                    raise
                yield from self._fault_handler(vaddr)
        page_mask = self._config.page_size - 1
        self.tlb.insert(vaddr, paddr & ~page_mask, flags)
        return paddr
