"""Integration tests for the coherent memory hierarchy timing model."""

import pytest

from repro.mem import LineState, MemorySystem, MMIORegion
from repro.params import SoCConfig
from repro.sim import Semaphore, Simulator, Stats
from repro.sim.port import PortRegistry


def make_system(num_cores=2, **overrides):
    cfg = SoCConfig().with_overrides(**overrides) if overrides else SoCConfig()
    sim = Simulator()
    stats = Stats()
    ms = MemorySystem(sim, cfg, stats)
    for core in range(num_cores):
        ms.add_core(core)
    return sim, ms, stats


def run_access(sim, gen):
    """Drive one access generator to completion, returning (value, cycles)."""
    start = sim.now
    box = {}

    def wrapper():
        box["value"] = yield from gen
        box["end"] = sim.now

    sim.spawn(wrapper())
    sim.run()
    return box["value"], box["end"] - start


def test_cold_load_pays_l1_l2_dram():
    sim, ms, stats = make_system()
    ms.mem.write_word(0x1000, 42)
    value, cycles = run_access(sim, ms.load(0, 0x1000))
    assert value == 42
    cfg = ms.config
    # L1 lookup + L2 lookup + DRAM.
    assert cycles == cfg.l1_latency + cfg.l2_latency + cfg.dram_latency
    assert stats.get("l1.0.misses") == 1
    assert stats.get("l2.misses") == 1


def test_warm_load_hits_l1():
    sim, ms, stats = make_system()
    run_access(sim, ms.load(0, 0x1000))
    value, cycles = run_access(sim, ms.load(0, 0x1000))
    assert cycles == ms.config.l1_latency
    assert stats.get("l1.0.hits") == 1


def test_l2_hit_after_other_core_fetch():
    sim, ms, stats = make_system()
    run_access(sim, ms.load(0, 0x2000))
    _, cycles = run_access(sim, ms.load(1, 0x2000))
    cfg = ms.config
    assert cycles == cfg.l1_latency + cfg.l2_latency  # L2 hit, no DRAM
    assert stats.get("l2.hits") == 1


def test_same_line_words_share_a_fill():
    sim, ms, stats = make_system()
    run_access(sim, ms.load(0, 0x3000))
    _, cycles = run_access(sim, ms.load(0, 0x3008))  # same 64B line
    assert cycles == ms.config.l1_latency


def test_store_then_load_roundtrip_value():
    sim, ms, _ = make_system()
    run_access(sim, ms.store(0, 0x4000, 3.5))
    value, _ = run_access(sim, ms.load(0, 0x4000))
    assert value == 3.5


def test_store_marks_line_dirty():
    sim, ms, _ = make_system()
    run_access(sim, ms.store(0, 0x4000, 1))
    line = 0x4000 & ~63
    assert ms.l1s[0].state_of(line) is LineState.MODIFIED


def test_store_invalidates_other_sharers():
    sim, ms, stats = make_system()
    run_access(sim, ms.load(0, 0x5000))
    run_access(sim, ms.load(1, 0x5000))
    line = 0x5000 & ~63
    assert ms.l1s[0].contains(line) and ms.l1s[1].contains(line)
    _, cycles = run_access(sim, ms.store(0, 0x5000, 9))
    assert not ms.l1s[1].contains(line)
    assert stats.get("coherence.invalidations") == 1
    # Upgrade pays an extra L2 round trip on top of the L1 hit.
    assert cycles == ms.config.l1_latency + ms.config.l2_latency


def test_load_of_remotely_dirty_line_pays_forwarding():
    sim, ms, stats = make_system()
    run_access(sim, ms.store(0, 0x6000, 7))
    value, cycles = run_access(sim, ms.load(1, 0x6000))
    assert value == 7
    assert stats.get("coherence.forwards") == 1
    line = 0x6000 & ~63
    assert ms.l1s[0].state_of(line) is LineState.SHARED  # downgraded
    cfg = ms.config
    # forwarding round trip + L2 hit path
    assert cycles == cfg.l1_latency + 2 * cfg.l2_latency


def test_ping_pong_costs_more_than_private_traffic():
    """The shared-memory decoupling queue pattern: alternating writer/reader."""
    sim, ms, _ = make_system()

    total = {}

    def ping_pong():
        start = sim.now
        for i in range(8):
            yield from ms.store(0, 0x7000, i)
            yield from ms.load(1, 0x7000)
        total["pp"] = sim.now - start

    sim.spawn(ping_pong())
    sim.run()

    sim2, ms2, _ = make_system()

    def private():
        start = sim2.now
        for i in range(8):
            yield from ms2.store(0, 0x7000, i)
            yield from ms2.load(0, 0x7000)
        total["priv"] = sim2.now - start

    sim2.spawn(private())
    sim2.run()
    assert total["pp"] > 2 * total["priv"]


def test_inflight_l2_misses_merge():
    sim, ms, stats = make_system()
    done = []

    def loader(core, delay):
        yield delay
        yield from ms.load(core, 0x8000)
        done.append(sim.now)

    sim.spawn(loader(0, 0))
    sim.spawn(loader(1, 5))  # arrives while the first fill is in flight
    sim.run()
    assert stats.get("l2.misses") == 1
    assert stats.get("l2.merged_misses") == 1
    assert stats.get("dram.reads") == 1


def test_l1_thrashing_evicts_lru_lines():
    # 8KB 4-way, 64B lines -> 32 sets; 33 lines mapping to the same set
    # cannot all be resident.
    sim, ms, stats = make_system()
    cfg = ms.config
    stride = cfg.line_size * (cfg.l1_size // (cfg.l1_ways * cfg.line_size))

    def loads():
        for i in range(5):
            yield from ms.load(0, 0x10000 + i * stride)
        # First line was evicted (4 ways); reloading misses again.
        yield from ms.load(0, 0x10000)

    sim.spawn(loads())
    sim.run()
    assert stats.get("l1.0.misses") == 6


def test_prefetch_l1_makes_later_load_hit():
    sim, ms, stats = make_system()
    ms.prefetch_l1(0, 0x9000)
    sim.run()

    _, cycles = run_access(sim, ms.load(0, 0x9000))
    assert cycles == ms.config.l1_latency
    assert stats.get("l1.0.prefetches") == 1


def test_demand_load_merges_with_inflight_prefetch():
    sim, ms, stats = make_system()
    done = {}

    def demand():
        yield 10  # prefetch already in flight
        yield from ms.load(0, 0xA000)
        done["t"] = sim.now

    ms.prefetch_l1(0, 0xA000)
    sim.spawn(demand())
    sim.run()
    assert stats.get("dram.reads") == 1
    # The demand load completes when the prefetch fill lands, not a full
    # miss later.
    cfg = ms.config
    full_miss = cfg.l1_latency + cfg.l2_latency + cfg.dram_latency
    assert done["t"] < 10 + full_miss


def test_prefetch_l2_fills_only_l2():
    sim, ms, _ = make_system()
    ms.prefetch_l2(0xB000)
    sim.run()
    line = 0xB000 & ~63
    assert ms.l2.contains(line)
    assert not ms.l1s[0].contains(line)
    _, cycles = run_access(sim, ms.load(0, 0xB000))
    assert cycles == ms.config.l1_latency + ms.config.l2_latency


def test_l2_eviction_recalls_l1_copies():
    sim, ms, stats = make_system()
    cfg = ms.config
    l2_sets = cfg.l2_size // (cfg.l2_ways * cfg.line_size)
    stride = cfg.line_size * l2_sets

    def fill():
        yield from ms.load(0, 0x0)
        # Fill the same L2 set until 0x0's line is evicted.
        for i in range(1, cfg.l2_ways + 1):
            yield from ms.load(1, i * stride)

    sim.spawn(fill())
    sim.run()
    assert not ms.l1s[0].contains(0)  # inclusion enforced
    assert stats.get("coherence.recalls") >= 1


def test_amo_returns_old_value_and_is_atomic():
    sim, ms, _ = make_system()

    def bump(core):
        for _ in range(10):
            yield from ms.amo(core, 0xC000, lambda v: v + 1)

    sim.spawn(bump(0))
    sim.spawn(bump(1))
    sim.run()
    assert ms.mem.read_word(0xC000) == 20


def test_mmio_region_dispatch():
    sim, ms, _ = make_system()
    log = []

    def handler(op, paddr, value, core_id):
        yield 7
        log.append((op, paddr, value, core_id))
        return 123 if op == "load" else None

    ms.register_mmio(MMIORegion(1 << 40, (1 << 40) + 4096, handler, name="dev"))
    value, cycles = run_access(sim, ms.load(0, (1 << 40) + 8))
    assert value == 123
    assert cycles == 7
    run_access(sim, ms.store(1, (1 << 40) + 16, 55))
    assert log == [
        ("load", (1 << 40) + 8, None, 0),
        ("store", (1 << 40) + 16, 55, 1),
    ]


def test_core_seam_needs_a_lowered_mmio_access():
    """A core reaches MMIO through its seam's lowered load, which needs the
    region's lowered access: a region with only a handler (enough for the
    direct calls above) fails loudly there, as does a kind the memory side
    does not lower."""
    sim, ms, _ = make_system()

    def handler(op, paddr, value, core_id):
        yield 1

    ms.register_mmio(MMIORegion(1 << 40, (1 << 40) + 4096, handler, name="dev"))
    client = ms.connect_core_port(PortRegistry(sim), 0, tile=0)
    with pytest.raises(RuntimeError, match="MMIO region dev"):
        client.lowered("load")(1 << 40, Semaphore(sim, 1))
    with pytest.raises(RuntimeError, match="no lowered 'amo'"):
        client.lowered("amo")


def test_mmio_overlap_rejected():
    sim, ms, _ = make_system()

    def handler(op, paddr, value, core_id):
        yield 1

    ms.register_mmio(MMIORegion(1 << 40, (1 << 40) + 4096, handler))
    with pytest.raises(ValueError):
        ms.register_mmio(MMIORegion((1 << 40) + 100, (1 << 40) + 200, handler))


def test_device_load_paths():
    sim, ms, stats = make_system()
    ms.mem.write_word(0xD000, 5)
    value, cycles = run_access(sim, ms.load_dram(0xD000))
    assert value == 5
    assert cycles == ms.config.dram_latency
    # LLC path: first access misses to DRAM, second hits at L2 latency.
    run_access(sim, ms.load_llc(0xD040))
    _, cycles = run_access(sim, ms.load_llc(0xD040))
    assert cycles == ms.config.l2_latency


def test_load_dram_line_returns_words():
    sim, ms, _ = make_system()
    for i in range(8):
        ms.mem.write_word(0xE000 + 8 * i, i)
    line, cycles = run_access(sim, ms.load_dram_line(0xE000))
    assert line == list(range(8))
    assert cycles == ms.config.dram_latency


def test_dram_concurrency_bound():
    sim, ms, stats = make_system(dram_max_inflight=2)
    times = []

    def loader(i):
        yield from ms.load_dram(0x10000 + i * 64)
        times.append(sim.now)

    for i in range(4):
        sim.spawn(loader(i))
    sim.run()
    lat = ms.config.dram_latency
    assert sorted(times) == [lat, lat, 2 * lat, 2 * lat]
