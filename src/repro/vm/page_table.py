"""Radix page tables stored in simulated physical memory.

Page-table entries are 64-bit words following the RISC-V PTE layout
(V/R/W/U permission bits, PPN starting at bit 10).  Because tables live in
:class:`~repro.mem.backing.PhysicalMemory`, the hardware walkers in
:mod:`repro.vm.ptw` produce real memory traffic with real timing — page
table walks are part of the latency MAPLE must tolerate (§3.5).

This module offers *functional* (zero-time) construction and mutation used
by the OS; the timed read path is the walker's.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.mem.backing import PhysicalMemory
from repro.vm.address import (ENTRIES_PER_TABLE, PAGE_SHIFT, PAGE_SIZE,
                              VPN_BITS, page_offset, vpn_indices)

PTE_V = 0x1  # valid
PTE_R = 0x2  # readable (leaf)
PTE_W = 0x4  # writable
PTE_U = 0x8  # user accessible
PPN_SHIFT = 10
_REGION_SHIFT = PAGE_SHIFT + VPN_BITS  # one leaf table maps 2 MB


def make_pte(ppn: int, flags: int) -> int:
    return (ppn << PPN_SHIFT) | flags


def pte_is_valid(pte: int) -> bool:
    return bool(pte & PTE_V)


def pte_is_leaf(pte: int) -> bool:
    return bool(pte & (PTE_R | PTE_W))


def pte_ppn(pte: int) -> int:
    return pte >> PPN_SHIFT


def _leaf_entry(table_paddr: int, vaddr: int) -> int:
    """Address of ``vaddr``'s PTE in the leaf table at ``table_paddr``."""
    return table_paddr + 8 * ((vaddr >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1))


class PageTable:
    """A three-level radix tree rooted at ``root_paddr``.

    ``alloc_frame`` supplies physical frames for intermediate tables.
    """

    def __init__(self, mem: PhysicalMemory, root_paddr: int,
                 alloc_frame: Callable[[], int]):
        if root_paddr % PAGE_SIZE:
            raise ValueError("page table root must be page aligned")
        self.mem = mem
        self.root_paddr = root_paddr
        self._alloc_frame = alloc_frame
        # 2 MB region (vaddr >> 21) -> physical address of its leaf table.
        # Intermediate tables are allocated once and never freed, so the
        # address is stable; only the leaf PTE *words* change, and those
        # are read from memory on every lookup.  Missing regions are not
        # cached (map_page can create them at any time).
        self._leaf_tables: Dict[int, int] = {}

    def _leaf_table(self, vaddr: int, create: bool) -> Optional[int]:
        """The leaf table covering ``vaddr``, or None when a level is
        missing and ``create`` is false.

        With ``create`` the missing levels are built.  No table is zeroed:
        the root and every new table come fresh from ``SimOS``'s bump
        allocator, which never reuses a frame, and unwritten words of
        physical memory read as 0, an invalid PTE.
        """
        region = vaddr >> _REGION_SHIFT
        table = self._leaf_tables.get(region)
        if table is not None:
            return table
        table = self.root_paddr
        for index in vpn_indices(vaddr)[:2]:
            entry_addr = table + 8 * index
            pte = self.mem.read_word(entry_addr)
            if pte_is_valid(pte) and not pte_is_leaf(pte):
                table = pte_ppn(pte) << PAGE_SHIFT
            elif not create:
                return None
            elif pte_is_valid(pte):
                raise ValueError("superpage in the middle of a walk")
            else:
                table = self._alloc_frame()
                self.mem.write_word(entry_addr,
                                    make_pte(table >> PAGE_SHIFT, PTE_V))
        self._leaf_tables[region] = table
        return table

    def map_page(self, vaddr: int, paddr: int, flags: int = PTE_R | PTE_W | PTE_U) -> None:
        """Install a 4 KB leaf mapping vaddr's page -> paddr's frame."""
        if paddr % PAGE_SIZE:
            raise ValueError(f"physical frame {paddr:#x} not page aligned")
        self.mem.write_word(_leaf_entry(self._leaf_table(vaddr, True), vaddr),
                            make_pte(paddr >> PAGE_SHIFT, flags | PTE_V))

    def unmap_page(self, vaddr: int) -> bool:
        """Remove a leaf mapping. Returns False if it was not mapped."""
        table = self._leaf_table(vaddr, False)
        if table is None:
            return False
        leaf_addr = _leaf_entry(table, vaddr)
        if not pte_is_valid(self.mem.read_word(leaf_addr)):
            return False
        self.mem.write_word(leaf_addr, 0)
        return True

    def lookup(self, vaddr: int) -> Optional[int]:
        """Functional translation (no timing). None if unmapped."""
        table = self._leaf_table(vaddr, False)
        if table is None:
            return None
        pte = self.mem.read_word(_leaf_entry(table, vaddr))
        if not pte_is_valid(pte) or not pte_is_leaf(pte):
            return None
        return (pte_ppn(pte) << PAGE_SHIFT) | page_offset(vaddr)
