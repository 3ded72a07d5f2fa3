"""Tests for the in-order core model."""

import pytest

from repro.cpu import Alu, Amo, Load, Prefetch, Spin, Store, Sync, Thread
from repro.params import SoCConfig
from repro.system import Soc
from repro.vm.os_model import SegmentationFault


def build(**overrides):
    soc = Soc(SoCConfig().with_overrides(**overrides) if overrides else None)
    aspace = soc.new_process()
    return soc, aspace


def run_program(soc, aspace, program, core=0):
    return soc.run_threads([(core, Thread(program, aspace, "t"))])


def test_alu_costs_its_cycles():
    soc, aspace = build()

    def program():
        yield Alu(10)
        yield Alu(5)

    elapsed = run_program(soc, aspace, program())
    assert elapsed == 15
    assert soc.cores[0].stats.get("alu_ops") == 2
    assert soc.cores[0].stats.get("instructions") == 2


def test_alu_validation():
    with pytest.raises(ValueError):
        Alu(0)
    with pytest.raises(ValueError):
        Spin(0x1000, 0, backoff=0)


def test_load_returns_stored_value_and_counts():
    soc, aspace = build()
    arr = soc.array(aspace, [7.5, 8.5], name="a")
    got = []

    def program():
        got.append((yield Load(arr.addr(1))))

    run_program(soc, aspace, program())
    assert got == [8.5]
    core = soc.cores[0]
    assert core.stats.get("loads") == 1
    assert core.stats.histogram("load_latency").count == 1


def _spin_against_writer(poll):
    """Core 1 runs ``poll`` on a cell that core 0 raises to 1, 3 and 7;
    returns (value seen, cycles, core 1's counters and load samples)."""
    soc, aspace = build()
    cell = soc.array(aspace, 1, name="cell")
    got = {}

    def writer():
        for delay, value in ((2000, 1), (2000, 3), (20000, 7)):
            yield Alu(delay)
            yield Store(cell.addr(0), value)

    def spinner():
        got["v"] = yield from poll(cell.addr(0))

    cycles = soc.run_threads([(0, Thread(writer(), aspace, "w")),
                              (1, Thread(spinner(), aspace, "s"))])
    stats = soc.cores[1].stats
    counts = {name: stats.get(name)
              for name in ("instructions", "loads", "alu_ops")}
    return got["v"], cycles, counts, stats.histogram("load_latency").count


def test_spin_returns_first_value_above_and_counts_like_its_loop():
    failed = []

    def loop(vaddr):
        while True:
            value = yield Load(vaddr)
            if value > 1:
                return value
            failed.append(value)
            yield Alu(10)

    def spin(vaddr):
        return (yield Spin(vaddr, 1, backoff=10))

    looped = _spin_against_writer(loop)
    spun = _spin_against_writer(spin)
    assert spun == looped
    value, _, counts, samples = spun
    # The remote store of 3 ends the wait; 1 never satisfies it and 7
    # comes too late.
    assert value == 3
    k = len(failed)
    assert k > 0 and set(failed) == {0, 1}
    assert counts == {"instructions": 2 * k + 1, "loads": k + 1,
                      "alu_ops": k}
    assert samples == k + 1


def test_spin_satisfied_at_first_load_issues_no_alu():
    soc, aspace = build()
    cell = soc.array(aspace, [5], name="cell")
    got = []

    def program():
        got.append((yield Spin(cell.addr(0), 0, backoff=10)))

    run_program(soc, aspace, program())
    stats = soc.cores[0].stats
    assert got == [5]
    assert (stats.get("instructions"), stats.get("loads"),
            stats.get("alu_ops")) == (1, 1, 0)
    assert stats.histogram("load_latency").count == 1


def test_store_buffer_makes_stores_cheap():
    soc, aspace = build()
    arr = soc.array(aspace, 16, name="a")
    times = []

    def program():
        yield Load(arr.addr(8))  # warm the TLB (translation is blocking)
        start = soc.sim.now
        yield Store(arr.addr(0), 42)
        times.append(soc.sim.now - start)

    run_program(soc, aspace, program())
    assert arr.read(0) == 42
    # The store retires into the buffer after translation, far below a
    # DRAM write-allocate miss.
    assert times[0] < 50


def test_store_buffer_backpressure_when_full():
    soc, aspace = build(store_buffer_entries=2)
    cfg = soc.config
    # Each store misses a distinct line -> each drain takes ~DRAM latency.
    arr = soc.array(aspace, 8 * 32, name="a")

    def program():
        for i in range(8):
            yield Store(arr.addr(8 * i), i)

    elapsed = run_program(soc, aspace, program())
    # 8 stores through a 2-deep buffer cannot all hide: the run must wait
    # for several DRAM round trips.
    assert elapsed > 2 * cfg.dram_latency


def test_store_value_visible_immediately_to_other_core():
    soc, aspace = build()
    arr = soc.array(aspace, 8, name="a")
    got = {}

    def writer():
        yield Store(arr.addr(0), 99)
        yield Alu(1)

    def reader():
        yield Alu(50)  # store retired by now
        got["v"] = yield Load(arr.addr(0))

    soc.run_threads([(0, Thread(writer(), aspace, "w")),
                     (1, Thread(reader(), aspace, "r"))])
    assert got["v"] == 99


def _store_issue_run(target, traced):
    """One store to ``target`` ("plain": an array word, "mmio": a MAPLE
    produce, consumed back) on core 0; returns what a run observes: the
    cycles, engine events, the core seam's tap and next txn id, and the
    value stored."""
    soc, aspace = build()
    if traced:
        soc.ports.enable_tracing()
    arr = soc.array(aspace, 8, name="a")
    api = soc.driver.attach(aspace)
    got = {}

    def program():
        if target == "plain":
            yield Store(arr.addr(0), 41)
            got["v"] = yield Load(arr.addr(0))
        else:
            handle = yield from api.open(0)
            yield from handle.produce(41)
            got["v"] = yield from handle.consume()

    cycles = run_program(soc, aspace, program())
    port = soc.ports["core0.mem"]
    return (cycles, soc.sim.events_executed, port.tap.snapshot(),
            port._next_txn, got["v"])


@pytest.mark.parametrize("target", ["plain", "mmio"])
def test_store_issue_counts_as_the_traced_probe_and_post(target):
    """A store's issue is one synchronous call on the unarmed seam; it
    books exactly what the traced run's Port.probe and Port.post book."""
    plain = _store_issue_run(target, traced=False)
    assert plain == _store_issue_run(target, traced=True)
    _, _, tap, next_txn, value = plain
    assert value == 41
    assert next_txn == tap["requests"] + tap["posts"]
    if target == "plain":
        # The value is posted at issue; the store buffer drains it.
        assert tap["posts"] == tap["by_kind"]["write_word"] == 1
        assert tap["by_kind"]["store"] == 1
    else:
        # A produce is the store transaction itself: no post.
        assert tap["posts"] == 0 and "write_word" not in tap["by_kind"]
        assert tap["by_kind"]["store"] == 1


def test_prefetch_is_nonblocking_and_counted():
    soc, aspace = build()
    arr = soc.array(aspace, 64, name="a")
    lat = {}

    def program():
        yield Load(arr.addr(63))  # warm the TLB; different line than addr(0)
        start = soc.sim.now
        yield Prefetch(arr.addr(0))
        issue_time = soc.sim.now - start
        assert issue_time < 20  # issue slot only, not the miss
        yield Alu(600)
        start = soc.sim.now
        yield Load(arr.addr(0))
        lat["demand"] = soc.sim.now - start

    run_program(soc, aspace, program())
    core = soc.cores[0]
    assert core.stats.get("prefetches") == 1
    # The later demand load hit the prefetched line.
    assert lat["demand"] <= soc.config.l1_latency + 1
    hist = core.stats.histogram("load_latency")
    assert hist.count == 2
    assert hist.min == lat["demand"]


def test_mshr_serializes_demand_behind_prefetch():
    soc, aspace = build(core_mshrs=1)
    arr = soc.array(aspace, 64, name="a")
    lat = {}

    def program():
        yield Load(arr.addr(63))          # warm the TLB
        yield Prefetch(arr.addr(0))       # occupies the only MSHR
        start = soc.sim.now
        yield Load(arr.addr(8))           # different line: must wait
        lat["demand"] = soc.sim.now - start

    run_program(soc, aspace, program())
    # The demand miss waited for the prefetch fill before starting.
    assert lat["demand"] > 1.5 * soc.config.dram_latency


def test_amo_is_atomic_across_cores():
    soc, aspace = build()
    counter = soc.array(aspace, 1, name="c")

    def bump():
        for _ in range(25):
            yield Amo(counter.addr(0), lambda v: v + 1)

    soc.run_threads([(0, Thread(bump(), aspace, "a")),
                     (1, Thread(bump(), aspace, "b"))])
    assert counter.read(0) == 50


def test_sync_instruction_uses_barrier():
    soc, aspace = build()
    barrier = soc.barrier(2)
    times = []

    def program(delay):
        yield Alu(delay)
        yield Sync(barrier)
        times.append(soc.sim.now)

    soc.run_threads([(0, Thread(program(5), aspace, "a")),
                     (1, Thread(program(60), aspace, "b"))])
    assert times == [60, 60]


def test_segfault_propagates_out_of_thread():
    soc, aspace = build()

    def program():
        yield Load(0x7000_0000)  # no VMA there

    with pytest.raises(SegmentationFault):
        run_program(soc, aspace, program())


def test_lazy_page_faults_are_transparent():
    soc, aspace = build()
    arr = soc.array(aspace, 8, name="lazy", lazy=True)
    got = {}

    def program():
        yield Store(arr.addr(0), 5)
        got["v"] = yield Load(arr.addr(0))

    run_program(soc, aspace, program())
    assert got["v"] == 5
    assert soc.stats.get("os.demand_mapped_pages") == 1


def test_tlb_miss_then_hit_latency_difference():
    soc, aspace = build()
    arr = soc.array(aspace, 8, name="a")

    lat = []

    def program():
        for index in (0, 1):  # cold: PTW + DRAM; then TLB + L1 hit
            start = soc.sim.now
            yield Load(arr.addr(index))
            lat.append(soc.sim.now - start)

    run_program(soc, aspace, program())
    cold, warm = lat
    assert cold > warm
    assert warm == soc.config.l1_latency
    hist = soc.cores[0].stats.histogram("load_latency")
    assert (hist.count, hist.min, hist.max) == (2, warm, cold)


def test_unknown_instruction_rejected():
    soc, aspace = build()

    def program():
        yield "bogus"

    with pytest.raises(TypeError):
        run_program(soc, aspace, program())
