"""Property tests tying the timed hardware paths to functional truth."""

from hypothesis import given, settings, strategies as st

from repro.mem import MemorySystem
from repro.params import SoCConfig
from repro.sim import Simulator, Stats
from repro.sim.port import PortRegistry
from repro.vm import PageTableWalker, TranslationFault
from repro.vm.address import PAGE_SIZE
from repro.vm.os_model import SimOS


def make_os():
    sim = Simulator()
    ms = MemorySystem(sim, SoCConfig(), Stats())
    ms.add_core(0)
    return sim, SimOS(sim, ms, ms.config)


def drive(sim, gen):
    box = {}

    def wrapper():
        try:
            box["v"] = yield from gen
        except TranslationFault as fault:
            box["fault"] = fault

    sim.spawn(wrapper())
    sim.run()
    return box


@given(st.lists(st.integers(min_value=0, max_value=(1 << 26) - 1),
                min_size=1, max_size=12, unique=True),
       st.integers(min_value=0, max_value=PAGE_SIZE // 8 - 1))
@settings(max_examples=20, deadline=None)
def test_timed_walker_agrees_with_functional_lookup(vpns, word):
    """The hardware walker (timed, reads PTEs through the cache
    hierarchy) must translate identically to the zero-time functional
    page-table lookup, for every mapped page — and fault exactly where
    the functional lookup says 'unmapped'."""
    sim, os = make_os()
    aspace = os.create_address_space()
    port = os.memsys.connect_core_port(PortRegistry(sim), 0, tile=0)
    walker = PageTableWalker(port, Stats().scoped("ptw"))
    mapped = {}
    for vpn in vpns[: len(vpns) // 2 + 1]:
        vaddr = vpn * PAGE_SIZE
        frame = os.alloc_frame()
        aspace.page_table.map_page(vaddr, frame)
        mapped[vpn] = frame
    for vpn in vpns:
        probe = vpn * PAGE_SIZE + word * 8
        functional = aspace.page_table.lookup(probe)
        box = drive(sim, walker.walk(aspace.root_paddr, probe))
        if vpn in mapped:
            assert functional == mapped[vpn] + word * 8
            assert box["v"][0] == functional
        else:
            assert functional is None
            assert "fault" in box


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=10, deadline=None)
def test_simulation_is_deterministic(seed):
    """Two identical simulations produce identical traces, whatever the
    process interleaving."""
    import random

    def run_once():
        sim = Simulator()
        trace = []
        rng = random.Random(seed)
        delays = [rng.randrange(1, 20) for _ in range(30)]

        def proc(pid, my_delays):
            for d in my_delays:
                yield d
                trace.append((sim.now, pid))

        for pid in range(3):
            sim.spawn(proc(pid, delays[pid * 10:(pid + 1) * 10]))
        sim.run()
        return trace

    assert run_once() == run_once()
