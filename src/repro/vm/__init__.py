"""Virtual memory substrate: Sv39-like paging, TLBs, walker, OS model.

The paper's key systems claim is that MAPLE is *fully virtual-memory
compliant*: cores reach it through an OS-mapped MMIO page, and MAPLE
translates the pointers it is given with its own TLB and hardware page
table walker, raising page faults to a Linux driver and honoring TLB
shootdowns.  This package provides all of that: page tables that live in
simulated physical memory (so walks have real memory timing), 16-entry
fully-associative TLBs, a walker, and a small OS with frame allocation,
mmap, fault handling, and shootdown broadcast.
"""

from repro.vm.address import (
    PAGE_SHIFT,
    page_offset,
    page_round_up,
    vpn_indices,
)
from repro.vm.alloc import SimArray, alloc_array
from repro.vm.os_model import AddressSpace, SegmentationFault, SimOS
from repro.vm.page_table import (
    PTE_R,
    PTE_U,
    PTE_V,
    PTE_W,
    PageTable,
    pte_is_leaf,
    pte_is_valid,
    pte_ppn,
)
from repro.vm.ptw import PageTableWalker, TranslationFault
from repro.vm.tlb import Tlb

__all__ = [
    "AddressSpace",
    "PAGE_SHIFT",
    "PageTable",
    "PageTableWalker",
    "PTE_R",
    "PTE_U",
    "PTE_V",
    "PTE_W",
    "SegmentationFault",
    "SimArray",
    "SimOS",
    "Tlb",
    "alloc_array",
    "TranslationFault",
    "page_offset",
    "page_round_up",
    "pte_is_leaf",
    "pte_is_valid",
    "pte_ppn",
    "vpn_indices",
]
