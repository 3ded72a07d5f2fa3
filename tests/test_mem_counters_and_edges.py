"""Edge cases and counter semantics of the memory substrate."""

import pytest

from repro.mem import MemorySystem
from repro.params import SoCConfig
from repro.sim import Simulator, Stats
from repro.vm.os_model import SimOS


def make_system(**overrides):
    cfg = SoCConfig().with_overrides(**overrides) if overrides else SoCConfig()
    sim = Simulator()
    stats = Stats()
    ms = MemorySystem(sim, cfg, stats)
    for core in range(2):
        ms.add_core(core)
    return sim, ms, stats


def drive(sim, gen):
    box = {}

    def wrapper():
        box["v"] = yield from gen

    sim.spawn(wrapper())
    sim.run()
    return box.get("v")


def test_duplicate_core_rejected():
    _, ms, _ = make_system()
    with pytest.raises(ValueError, match="already"):
        ms.add_core(0)


def test_dirty_eviction_counts_writeback():
    sim, ms, stats = make_system()
    cfg = ms.config
    sets = cfg.l1_size // (cfg.l1_ways * cfg.line_size)
    stride = cfg.line_size * sets

    def program():
        yield from ms.store(0, 0x100000, 1)  # dirty line
        for i in range(1, cfg.l1_ways + 1):  # evict it
            yield from ms.load(0, 0x100000 + i * stride)

    sim.spawn(program())
    sim.run()
    assert stats.get("l1.0.writebacks") == 1


def test_l2_dirty_writeback_counted_on_eviction():
    sim, ms, stats = make_system()
    cfg = ms.config
    l2_sets = cfg.l2_size // (cfg.l2_ways * cfg.line_size)
    stride = cfg.line_size * l2_sets

    def program():
        yield from ms.store(0, 0x200000, 1)
        # Force the dirty line out of the inclusive L2. The L1 copy is
        # dirty; the recall must count an L2-side writeback.
        for i in range(1, cfg.l2_ways + 1):
            yield from ms.load(1, 0x200000 + i * stride)

    sim.spawn(program())
    sim.run()
    assert stats.get("coherence.recalls") >= 1


def test_dram_read_write_counters():
    sim, ms, stats = make_system()

    def program():
        yield from ms.dram.access(0x1000)
        yield from ms.dram.access(0x2000, write=True)

    sim.spawn(program())
    sim.run()
    assert stats.get("dram.reads") == 1
    assert stats.get("dram.writes") == 1


def test_dram_latency_validation():
    from repro.mem.dram import DramChannel
    sim = Simulator()
    with pytest.raises(ValueError):
        DramChannel(sim, 0, 4, Stats().scoped("d"))


def test_mmio_is_uncached():
    sim, ms, _ = make_system()
    log = []

    def handler(op, paddr, value, core_id):
        log.append(op)
        yield 3
        return 1

    from repro.mem import MMIORegion
    ms.register_mmio(MMIORegion(1 << 40, (1 << 40) + 4096, handler))
    drive(sim, ms.load(0, 1 << 40))
    drive(sim, ms.load(0, 1 << 40))
    assert log == ["load", "load"]  # never served from a cache
    assert ms.is_uncacheable(1 << 40)
    assert not ms.is_uncacheable(0x1000)


def test_store_timing_only_mode_does_not_write():
    sim, ms, _ = make_system()
    ms.mem.write_word(0x3000, 7)
    drive(sim, ms.store(0, 0x3000, 99, apply=False))
    assert ms.mem.read_word(0x3000) == 7  # timing-only pass left data alone


def test_l1_would_hit_peek_does_not_disturb_lru():
    sim, ms, _ = make_system()
    drive(sim, ms.load(0, 0x4000))
    assert ms.l1_would_hit(0, 0x4000)
    assert not ms.l1_would_hit(0, 0x8000)


def test_prefetch_l2_on_complete_callback():
    sim, ms, _ = make_system()
    done = []
    ms.prefetch_l2(0x5000, on_complete=lambda: done.append(True))
    sim.run()
    assert done == [True]
    # Already-resident line: callback still fires, no second fill.
    ms.prefetch_l2(0x5000, on_complete=lambda: done.append(True))
    sim.run()
    assert done == [True, True]


def test_l2_fill_listener_sees_prefetch_flag():
    sim, ms, _ = make_system()
    events = []
    ms.l2_fill_listeners.append(lambda line, pf: events.append((line, pf)))
    ms.prefetch_l2(0x6000)
    sim.run()
    drive(sim, ms.load(0, 0x7000))
    assert (0x6000, True) in events
    assert (0x7000 & ~63, False) in events


def test_os_mmap_size_validation():
    sim, ms, _ = make_system()
    os = SimOS(sim, ms, ms.config)
    aspace = os.create_address_space()
    with pytest.raises(ValueError):
        os.mmap(aspace, 0)
