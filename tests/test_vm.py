"""Tests for paging, TLBs, the walker, and the OS model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mem import MemorySystem
from repro.params import SoCConfig
from repro.sim import Simulator, Stats
from repro.sim.port import PortRegistry
from repro.vm import (
    PageTableWalker,
    SegmentationFault,
    SimOS,
    Tlb,
    TranslationFault,
    vpn_indices,
)
from repro.vm.address import PAGE_SHIFT, PAGE_SIZE, page_round_up
from repro.vm.alloc import alloc_array
from repro.vm.page_table import PTE_R, PTE_U, PTE_V, PTE_W, make_pte


def make_os(**overrides):
    cfg = SoCConfig().with_overrides(**overrides) if overrides else SoCConfig()
    sim = Simulator()
    stats = Stats()
    memsys = MemorySystem(sim, cfg, stats)
    for core in range(cfg.num_cores):
        memsys.add_core(core)
    return sim, SimOS(sim, memsys, cfg), stats


def make_walker(sim, os, stats):
    """A walker on core 0's memory port, wired as a core wires its own."""
    port = os.memsys.connect_core_port(PortRegistry(sim), 0, tile=0)
    return PageTableWalker(port, stats.scoped("ptw"))


def make_tlb(entries):
    return Tlb(entries, Stats().scoped("tlb"))


def drive(sim, gen):
    box = {}

    def wrapper():
        box["value"] = yield from gen
        box["end"] = sim.now

    start = sim.now
    sim.spawn(wrapper())
    sim.run()
    return box.get("value"), box.get("end", sim.now) - start


# -- address arithmetic ------------------------------------------------------

def test_vpn_indices_of_zero():
    assert vpn_indices(0) == (0, 0, 0)


def test_vpn_indices_split():
    vaddr = (3 << 30) | (5 << 21) | (7 << 12) | 0x123
    assert vpn_indices(vaddr) == (3, 5, 7)


def test_vpn_indices_range_check():
    with pytest.raises(ValueError):
        vpn_indices(1 << 39)


def test_page_round_up():
    assert page_round_up(1) == PAGE_SIZE
    assert page_round_up(PAGE_SIZE) == PAGE_SIZE
    assert page_round_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE


# -- page table ---------------------------------------------------------------

def test_map_and_lookup_roundtrip():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    frame = os.alloc_frame()
    aspace.page_table.map_page(0x4000_0000, frame)
    assert aspace.page_table.lookup(0x4000_0000) == frame
    assert aspace.page_table.lookup(0x4000_0008) == frame + 8
    assert aspace.page_table.lookup(0x4000_1000) is None


def test_unmap_page():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    frame = os.alloc_frame()
    aspace.page_table.map_page(0x4000_0000, frame)
    assert aspace.page_table.unmap_page(0x4000_0000)
    assert aspace.page_table.lookup(0x4000_0000) is None
    assert not aspace.page_table.unmap_page(0x4000_0000)


def test_two_address_spaces_are_isolated():
    _, os, _ = make_os()
    a = os.create_address_space()
    b = os.create_address_space()
    frame_a = os.alloc_frame()
    frame_b = os.alloc_frame()
    a.page_table.map_page(0x5000_0000, frame_a)
    b.page_table.map_page(0x5000_0000, frame_b)
    assert a.page_table.lookup(0x5000_0000) == frame_a
    assert b.page_table.lookup(0x5000_0000) == frame_b


@given(st.lists(st.integers(min_value=0, max_value=(1 << 27) - 1), min_size=1,
                max_size=30, unique=True))
def test_many_mappings_all_resolve(vpns):
    _, os, _ = make_os()
    aspace = os.create_address_space()
    expected = {}
    for vpn in vpns:
        vaddr = vpn * PAGE_SIZE
        frame = os.alloc_frame()
        aspace.page_table.map_page(vaddr, frame)
        expected[vaddr] = frame
    for vaddr, frame in expected.items():
        assert aspace.page_table.lookup(vaddr + 0x10) == frame + 0x10


def test_first_mapping_writes_only_its_three_ptes():
    # Fresh tables are never zeroed: unwritten words already read as 0.
    _, os, _ = make_os()
    aspace = os.create_address_space()
    assert os.memsys.mem.words_in_use() == 0
    aspace.page_table.map_page(0x4000_0000, os.alloc_frame())
    assert os.memsys.mem.words_in_use() == 3  # two intermediate PTEs + leaf


def test_superpage_in_the_walk_is_refused():
    sim, os, stats = make_os()
    aspace = os.create_address_space()
    table = aspace.page_table
    vaddr = 3 << 30  # root entry 3 becomes a 1 GB leaf
    os.memsys.mem.write_word(table.root_paddr + 8 * 3,
                             make_pte(os.alloc_frame() >> PAGE_SHIFT, PTE_R | PTE_V))
    assert table.lookup(vaddr) is None
    assert not table.unmap_page(vaddr)
    with pytest.raises(ValueError, match="superpage"):
        table.map_page(vaddr, os.alloc_frame())
    # The timed walker refuses it too: a fault at the root level.
    walker = make_walker(sim, os, stats)
    faults = []

    def proc():
        try:
            yield from walker.walk(table.root_paddr, vaddr)
        except TranslationFault as fault:
            faults.append(fault.level)

    sim.spawn(proc())
    sim.run()
    assert faults == [0]
    assert stats.get("ptw.faults") == 1


_GB_PAGES = 1 << 18  # pages per 1 GB root entry
# Pages on both sides of a 2 MB (512-page) and of a 1 GB boundary.
_EDGE_VPNS = [0, 1, 511, 512, 513, _GB_PAGES - 1, _GB_PAGES, _GB_PAGES + 512,
              (1 << 27) - 1]


@given(st.lists(st.tuples(st.sampled_from(["map", "unmap", "lookup"]),
                          st.sampled_from(_EDGE_VPNS)), max_size=40))
@example([("lookup", 512), ("map", 511), ("map", 512), ("unmap", 512),
          ("lookup", 512), ("map", 512), ("map", _GB_PAGES - 1),
          ("map", _GB_PAGES), ("unmap", _GB_PAGES - 1), ("unmap", 0)])
@settings(max_examples=50, deadline=None)
def test_page_table_matches_a_dict_model(ops):
    _, os, _ = make_os()
    table = os.create_address_space().page_table
    model = {}
    for op, vpn in ops:
        vaddr = vpn * PAGE_SIZE
        if op == "map":  # remapping a mapped page replaces its frame
            model[vpn] = os.alloc_frame()
            table.map_page(vaddr, model[vpn])
        elif op == "unmap":
            assert table.unmap_page(vaddr) == (model.pop(vpn, None) is not None)
        for probe in _EDGE_VPNS:
            frame = model.get(probe)
            assert table.lookup(probe * PAGE_SIZE + 0x18) == (
                None if frame is None else frame + 0x18)


# -- TLB -------------------------------------------------------------------------

def test_tlb_hit_and_miss():
    tlb = make_tlb(4)
    assert tlb.translate(0x1000) is None
    tlb.insert(0x1000, 0x8000, PTE_R)
    assert tlb.translate(0x1234) == (0x8234, PTE_R)


def test_tlb_lru_eviction():
    tlb = make_tlb(2)
    tlb.insert(0x1000, 0xA000, 0)
    tlb.insert(0x2000, 0xB000, 0)
    tlb.translate(0x1000)          # refresh 0x1000
    tlb.insert(0x3000, 0xC000, 0)  # evicts 0x2000
    assert tlb.translate(0x2000) is None
    assert tlb.translate(0x1000) is not None


def test_tlb_invalidate_page():
    tlb = make_tlb(4)
    tlb.insert(0x1000, 0xA000, 0)
    assert tlb.invalidate_page(0x1abc)
    assert tlb.translate(0x1000) is None
    assert not tlb.invalidate_page(0x1000)


def test_tlb_flush():
    tlb = make_tlb(4)
    tlb.insert(0x1000, 0xA000, 0)
    tlb.insert(0x2000, 0xB000, 0)
    tlb.flush()
    assert len(tlb) == 0


def test_tlb_reinsert_same_page_does_not_grow():
    tlb = make_tlb(2)
    tlb.insert(0x1000, 0xA000, 0)
    tlb.insert(0x1000, 0xA000, 0)
    assert len(tlb) == 1


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_tlb_never_exceeds_capacity(pages):
    tlb = make_tlb(16)
    for vpn in pages:
        tlb.insert(vpn * PAGE_SIZE, (vpn + 1000) * PAGE_SIZE, 0)
        assert len(tlb) <= 16
    # Most recently inserted page is always resident.
    assert tlb.translate(pages[-1] * PAGE_SIZE) is not None


# -- walker ------------------------------------------------------------------------

def test_walker_translates_with_timing():
    sim, os, stats = make_os()
    aspace = os.create_address_space()
    frame = os.alloc_frame()
    aspace.page_table.map_page(0x6000_0000, frame, PTE_R | PTE_W | PTE_U)
    walker = make_walker(sim, os, stats)
    (paddr, flags), cycles = drive(sim, walker.walk(aspace.root_paddr, 0x6000_0040))
    assert paddr == frame + 0x40
    assert flags & PTE_R
    assert cycles > 0
    assert stats.get("ptw.walks") == 1


def test_walker_warm_walk_is_cheaper():
    sim, os, stats = make_os()
    aspace = os.create_address_space()
    frame = os.alloc_frame()
    aspace.page_table.map_page(0x6000_0000, frame)
    walker = make_walker(sim, os, stats)
    _, cold = drive(sim, walker.walk(aspace.root_paddr, 0x6000_0000))
    _, warm = drive(sim, walker.walk(aspace.root_paddr, 0x6000_0000))
    assert warm < cold  # page-table lines now cached in L2
    assert warm == 3 * os.config.l2_latency


def test_walker_faults_on_unmapped():
    sim, os, stats = make_os()
    aspace = os.create_address_space()
    walker = make_walker(sim, os, stats)

    def proc():
        try:
            yield from walker.walk(aspace.root_paddr, 0x7000_0000)
        except TranslationFault as fault:
            assert fault.vaddr == 0x7000_0000

    sim.spawn(proc())
    sim.run()
    assert stats.get("ptw.faults") == 1
    # An address outside the 39-bit space is a caller error, not a fault.
    with pytest.raises(ValueError, match="outside the 39-bit space"):
        next(walker.walk(aspace.root_paddr, 1 << 39))
    assert stats.get("ptw.faults") == 1


# -- OS model ------------------------------------------------------------------------

def test_mmap_eager_maps_all_pages():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    base = os.mmap(aspace, 3 * PAGE_SIZE)
    for off in range(0, 3 * PAGE_SIZE, PAGE_SIZE):
        assert aspace.page_table.lookup(base + off) is not None


def test_mmap_lazy_defers_mapping():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    base = os.mmap(aspace, PAGE_SIZE, lazy=True)
    assert aspace.page_table.lookup(base) is None
    assert aspace.find_vma(base) is not None


def test_fault_handler_maps_lazy_page():
    sim, os, _ = make_os()
    aspace = os.create_address_space()
    base = os.mmap(aspace, PAGE_SIZE, lazy=True)
    _, cycles = drive(sim, os.handle_fault(aspace, base + 0x10))
    assert cycles == SimOS.FAULT_HANDLING_CYCLES
    assert aspace.page_table.lookup(base + 0x10) is not None


def test_fault_handler_segfaults_outside_vmas():
    sim, os, _ = make_os()
    aspace = os.create_address_space()

    def proc():
        with pytest.raises(SegmentationFault):
            yield from os.handle_fault(aspace, 0x9999_0000)

    sim.spawn(proc())
    sim.run()


def test_munmap_shoots_down_registered_tlbs():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    base = os.mmap(aspace, PAGE_SIZE)
    tlb = make_tlb(4)
    os.register_tlb(tlb)
    paddr = aspace.page_table.lookup(base)
    tlb.insert(base, paddr & ~(PAGE_SIZE - 1), PTE_R)
    seen = []
    os.register_shootdown_callback(seen.append)
    os.munmap(aspace, base, PAGE_SIZE)
    assert tlb.translate(base) is None
    assert seen == [base]
    assert aspace.page_table.lookup(base) is None


def test_map_device_page():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    device_page = SimOS.MMIO_BASE
    vaddr = os.map_device_page(aspace, device_page, name="maple0")
    assert aspace.page_table.lookup(vaddr) == device_page
    assert aspace.find_vma(vaddr).name == "maple0"


def test_map_device_page_alignment_check():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    with pytest.raises(ValueError):
        os.map_device_page(aspace, SimOS.MMIO_BASE + 8)


# -- arrays ---------------------------------------------------------------------------

def test_alloc_array_roundtrip():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    array = alloc_array(os, aspace, [1.5, 2.5, 3.5], name="x")
    assert array.to_list() == [1.5, 2.5, 3.5]
    array.write(1, 9)
    assert array.read(1) == 9


def test_alloc_array_zero_initialized_by_length():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    array = alloc_array(os, aspace, 10, name="zeros")
    assert array.to_list() == [0] * 10


def test_array_bounds_checked():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    array = alloc_array(os, aspace, 4, name="x")
    with pytest.raises(IndexError):
        array.addr(4)
    with pytest.raises(IndexError):
        array.read(-1)


def test_array_spanning_pages():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    n = PAGE_SIZE // 8 + 10  # crosses a page boundary
    array = alloc_array(os, aspace, list(range(n)), name="big")
    assert array.read(0) == 0
    assert array.read(n - 1) == n - 1


def test_lazy_array_functional_access_fails_until_mapped():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    array = alloc_array(os, aspace, 4, name="lazy", lazy=True)
    with pytest.raises(RuntimeError):
        array.read(0)


def test_lazy_array_cannot_be_prefilled():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    with pytest.raises(ValueError):
        alloc_array(os, aspace, [1, 2], lazy=True)


def test_fill_and_to_list_walk_pages_with_per_element_semantics():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    n = 2 * (PAGE_SIZE // 8) + 5  # three pages
    array = alloc_array(os, aspace, n, name="three")
    array.fill(iter(range(n)))  # any iterable, consumed once
    assert array.to_list() == list(range(n))
    lookups = []
    real_lookup = aspace.page_table.lookup

    def counting_lookup(vaddr):
        lookups.append(vaddr)
        return real_lookup(vaddr)

    aspace.page_table.lookup = counting_lookup
    array.fill([7] * n)
    assert array.to_list() == [7] * n
    assert len(lookups) == 6  # one translation per page, per pass
    # More values than elements: every element written, then IndexError.
    with pytest.raises(IndexError, match=r"three\[%d\]" % n):
        array.fill(range(1, n + 2))
    assert array.to_list() == list(range(1, n + 1))


def test_fill_and_to_list_of_unmapped_pages_raise():
    _, os, _ = make_os()
    aspace = os.create_address_space()
    array = alloc_array(os, aspace, 4, name="lazy", lazy=True)
    array.fill([])  # nothing to write, nothing translated
    with pytest.raises(RuntimeError, match="unmapped"):
        array.fill([1])
    with pytest.raises(RuntimeError, match="unmapped"):
        array.to_list()
