"""A small SMP-Linux-like OS model.

Provides what the paper's software stack needs from the kernel:

- physical frame allocation and per-process page tables,
- ``mmap`` (eager or lazy/demand-paged) and ``munmap`` with TLB shootdown
  broadcast to every registered TLB — cores' *and* MAPLE's (§3.5),
- device page mapping, which is how a user thread gains protected access
  to a MAPLE instance's MMIO page (§3.6),
- a page-fault handler with a trap cost, invoked by core MMUs and by the
  MAPLE driver when MAPLE's walker faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.mem.hierarchy import MemorySystem
from repro.params import SoCConfig
from repro.sim import Simulator
from repro.vm.address import PAGE_SIZE, page_base, page_round_up
from repro.vm.page_table import PTE_R, PTE_U, PTE_W, PageTable
from repro.vm.tlb import Tlb


class SegmentationFault(Exception):
    """Unrecoverable fault: access outside any VMA."""

    def __init__(self, vaddr: int):
        super().__init__(f"segmentation fault at {vaddr:#x}")
        self.vaddr = vaddr


@dataclass
class Vma:
    """A virtual memory area, as in Linux's mm."""

    start: int
    end: int
    flags: int
    lazy: bool
    name: str = "anon"

    def covers(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end


class AddressSpace:
    """One process's virtual address space."""

    _NEXT_VADDR = 0x1000_0000

    def __init__(self, asid: int, page_table: PageTable):
        self.asid = asid
        self.page_table = page_table
        self.vmas: List[Vma] = []
        self._brk = AddressSpace._NEXT_VADDR

    @property
    def root_paddr(self) -> int:
        return self.page_table.root_paddr

    def find_vma(self, vaddr: int) -> Optional[Vma]:
        for vma in self.vmas:
            if vma.covers(vaddr):
                return vma
        return None

    def reserve(self, nbytes: int) -> int:
        """Carve a page-aligned virtual range out of the bump allocator."""
        start = self._brk
        self._brk += page_round_up(nbytes)
        return start


class SimOS:
    """Kernel services shared by all cores and devices."""

    #: Cost of a trap into the kernel plus fault handling (cycles).  The
    #: paper does not quantify this; 500 cycles is a conservative Linux-ish
    #: figure and only lazy mappings ever pay it.
    FAULT_HANDLING_CYCLES = 500

    # Physical layout: RAM frames from 16 MB up; device MMIO high above RAM.
    _FRAME_BASE = 16 * 1024 * 1024
    MMIO_BASE = 1 << 40

    def __init__(self, sim: Simulator, memsys: MemorySystem, config: SoCConfig):
        self._sim = sim
        self.memsys = memsys
        self.config = config
        self._next_frame = self._FRAME_BASE
        self._next_asid = 0
        self.address_spaces: Dict[int, AddressSpace] = {}
        self._tlbs: List[Tlb] = []
        self._shootdown_callbacks: List[Callable[[int], None]] = []
        #: Pages the swap model (fault injection) has unmapped, keyed by
        #: ``(asid, page_vaddr)`` and holding the original frame so the
        #: fault path restores the *same* physical page — data survives
        #: the evict/fault/remap round trip exactly as swap-in does.
        self._evicted: Dict[tuple, int] = {}
        self.stats = memsys.stats.scoped("os")

    # -- physical frames ------------------------------------------------------

    def alloc_frame(self) -> int:
        frame = self._next_frame
        self._next_frame += PAGE_SIZE
        return frame

    # -- address spaces ---------------------------------------------------------

    def create_address_space(self) -> AddressSpace:
        root = self.alloc_frame()
        table = PageTable(self.memsys.mem, root, self.alloc_frame)
        aspace = AddressSpace(self._next_asid, table)
        self.address_spaces[aspace.asid] = aspace
        self._next_asid += 1
        return aspace

    def mmap(self, aspace: AddressSpace, nbytes: int, lazy: bool = False,
             name: str = "anon") -> int:
        """Allocate a virtual range; eager mappings get frames immediately."""
        if nbytes <= 0:
            raise ValueError("mmap of non-positive size")
        start = aspace.reserve(nbytes)
        end = start + page_round_up(nbytes)
        flags = PTE_R | PTE_W | PTE_U
        aspace.vmas.append(Vma(start, end, flags, lazy, name))
        if not lazy:
            for vaddr in range(start, end, PAGE_SIZE):
                aspace.page_table.map_page(vaddr, self.alloc_frame(), flags)
        self.stats.bump("mmap_pages", (end - start) // PAGE_SIZE)
        return start

    def munmap(self, aspace: AddressSpace, start: int, nbytes: int) -> None:
        """Unmap a range and broadcast shootdowns (the driver's callback)."""
        end = start + page_round_up(nbytes)
        aspace.vmas = [v for v in aspace.vmas if not (v.start >= start and v.end <= end)]
        for vaddr in range(page_base(start), end, PAGE_SIZE):
            aspace.page_table.unmap_page(vaddr)
            self.shootdown(vaddr)

    def map_device_page(self, aspace: AddressSpace, device_page_paddr: int,
                        name: str = "mmio") -> int:
        """Map one device page (e.g. a MAPLE instance) into user space."""
        if device_page_paddr % PAGE_SIZE:
            raise ValueError("device page must be page aligned")
        vaddr = aspace.reserve(PAGE_SIZE)
        flags = PTE_R | PTE_W | PTE_U
        aspace.vmas.append(Vma(vaddr, vaddr + PAGE_SIZE, flags, False, name))
        aspace.page_table.map_page(vaddr, device_page_paddr, flags)
        self.stats.bump("device_pages")
        return vaddr

    # -- TLB shootdown ---------------------------------------------------------

    def register_tlb(self, tlb: Tlb) -> None:
        self._tlbs.append(tlb)

    def register_shootdown_callback(self, callback: Callable[[int], None]) -> None:
        """MAPLE's driver registers here to keep its MMU coherent (§3.5)."""
        self._shootdown_callbacks.append(callback)

    def shootdown(self, vaddr: int) -> None:
        for tlb in self._tlbs:
            tlb.invalidate_page(vaddr)
        for callback in self._shootdown_callbacks:
            callback(vaddr)
        self.stats.bump("shootdowns")

    # -- page eviction (the swap model behind injected page faults) ------------

    def evict_page(self, aspace: AddressSpace, vaddr: int) -> bool:
        """Unmap one resident page as if swapped out (fault injection).

        The PTE is invalidated and a shootdown broadcast, so the next
        touch — from a core MMU *or* MAPLE's walker — takes the full
        fault path (§3.5/§4); the frame is remembered and restored by
        :meth:`handle_fault`, so contents survive.  Returns ``False``
        when the page was not resident (nothing to evict).
        """
        page = page_base(vaddr)
        paddr = aspace.page_table.lookup(page)
        if paddr is None:
            return False
        if paddr >= self.MMIO_BASE:
            raise ValueError(f"cannot evict device page {page:#x}")
        aspace.page_table.unmap_page(page)
        self._evicted[(aspace.asid, page)] = paddr
        self.shootdown(page)
        self.stats.bump("evictions")
        return True

    def evicted_pages(self) -> int:
        """Pages currently swapped out (watchdog/diagnostic probes)."""
        return len(self._evicted)

    def restore_evicted(self) -> int:
        """Map every still-evicted page back in (process-exit semantics,
        and the injector's cleanup so functional result checks see a
        fully resident address space).  Returns the number restored."""
        restored = 0
        for (asid, page), frame in sorted(self._evicted.items()):
            aspace = self.address_spaces[asid]
            vma = aspace.find_vma(page)
            flags = vma.flags if vma is not None else PTE_R | PTE_W | PTE_U
            aspace.page_table.map_page(page, frame, flags)
            restored += 1
        self._evicted.clear()
        return restored

    # -- fault handling ----------------------------------------------------------

    def handle_fault(self, aspace: AddressSpace, vaddr: int):
        """Generator: the kernel fault path.

        Maps the page and returns normally when the access hit a lazy VMA
        or an evicted (swapped-out) page; raises
        :class:`SegmentationFault` otherwise.
        """
        self.stats.bump("faults")
        yield self.FAULT_HANDLING_CYCLES
        vma = aspace.find_vma(vaddr)
        if vma is None:
            raise SegmentationFault(vaddr)
        page = page_base(vaddr)
        if aspace.page_table.lookup(vaddr) is None:
            frame = self._evicted.pop((aspace.asid, page), None)
            if frame is not None:
                # Swap-in: the original frame comes back, data intact.
                aspace.page_table.map_page(page, frame, vma.flags)
                self.stats.bump("swap_ins")
            else:
                aspace.page_table.map_page(page, self.alloc_frame(), vma.flags)
                self.stats.bump("demand_mapped_pages")
