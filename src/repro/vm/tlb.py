"""Fully-associative TLB with LRU replacement.

Both the Ariane cores and MAPLE use 16-entry fully-associative TLBs
(§3.5).  Entries map virtual page number -> (physical frame base, flags).
Shootdowns arrive as :meth:`invalidate_page` / :meth:`flush` calls from the
OS broadcast list.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.sim.stats import ScopedStats
from repro.vm.address import PAGE_SHIFT, PAGE_SIZE


class Tlb:
    """vpn -> (frame_paddr, flags), true LRU."""

    def __init__(self, entries: int, stats: ScopedStats, name: str = "tlb"):
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.name = name
        self.capacity = entries
        self._entries: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        # Bound handles: translate() runs once per memory instruction.
        self._c_hits = stats.counter("hits")
        self._c_misses = stats.counter("misses")

    def translate(self, vaddr: int) -> Optional[Tuple[int, int]]:
        """(paddr, flags) on a hit, None on a miss. Hits refresh LRU."""
        vpn = vaddr >> PAGE_SHIFT
        entry = self._entries.get(vpn)
        if entry is None:
            self._c_misses.value += 1
            return None
        self._entries.move_to_end(vpn)
        self._c_hits.value += 1
        frame, flags = entry
        return frame | (vaddr & (PAGE_SIZE - 1)), flags

    def insert(self, vaddr: int, frame_paddr: int, flags: int) -> None:
        vpn = vaddr >> PAGE_SHIFT
        if len(self._entries) >= self.capacity and vpn not in self._entries:
            self._entries.popitem(last=False)
        self._entries[vpn] = (frame_paddr, flags)
        self._entries.move_to_end(vpn)

    def invalidate_page(self, vaddr: int) -> bool:
        """Shootdown of one page. True if an entry was dropped."""
        return self._entries.pop(vaddr >> PAGE_SHIFT, None) is not None

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<Tlb {self.name} {len(self._entries)}/{self.capacity}>"
