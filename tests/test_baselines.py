"""Tests for the comparator models: SW queue, DeSC, DROPLET."""

import sys

import pytest

from repro.baselines import (
    DescBackend,
    DropletPrefetcher,
    SwQueueBackend,
    SwQueueRing,
)
from repro.cpu import Alu, Core, Load, Spin, Store, Thread
from repro.datasets.graphs import power_law_graph
from repro.harness import techniques
from repro.harness.techniques import run_workload
from repro.sim.faults import FaultPlan, ShootdownFault
from repro.system import Soc
from repro.system.soc import coherence_stress_config
from repro.vm.address import PAGE_SHIFT


def build():
    soc = Soc()
    return soc, soc.new_process()


# -- shared-memory software queue -------------------------------------------------

def test_swqueue_transfers_values_in_order():
    soc, aspace = build()
    ring = SwQueueRing(soc, aspace, capacity=8)
    got = []

    def producer():
        backend = ring.producer()
        for i in range(20):
            yield from backend.produce(i * 3)
        yield from backend.flush()

    def consumer():
        backend = ring.consumer()
        for _ in range(20):
            got.append((yield from backend.consume()))
        yield from backend.flush()

    soc.run_threads([(0, Thread(producer(), aspace, "p")),
                     (1, Thread(consumer(), aspace, "c"))])
    assert got == [i * 3 for i in range(20)]


def test_swqueue_produce_ptr_loads_then_pushes():
    soc, aspace = build()
    data = soc.array(aspace, [5.0, 6.0], name="d")
    ring = SwQueueRing(soc, aspace, capacity=8)
    got = []
    times = {}

    def producer():
        backend = ring.producer()
        start = soc.sim.now
        yield from backend.produce_ptr(data.addr(1))
        times["produce"] = soc.sim.now - start
        yield from backend.flush()

    def consumer():
        backend = ring.consumer()
        got.append((yield from backend.consume()))

    soc.run_threads([(0, Thread(producer(), aspace, "p")),
                     (1, Thread(consumer(), aspace, "c"))])
    assert got == [6.0]
    # The Access thread paid the DRAM miss itself — the decisive stall.
    assert times["produce"] > soc.config.dram_latency


def test_swqueue_backpressure_when_consumer_lags():
    soc, aspace = build()
    ring = SwQueueRing(soc, aspace, capacity=4, publish_interval=1)
    times = {}

    def producer():
        backend = ring.producer()
        for i in range(6):
            yield from backend.produce(i)
        times["done"] = soc.sim.now
        yield from backend.flush()

    def consumer():
        backend = ring.consumer()
        yield Alu(5000)
        times["start_consume"] = soc.sim.now
        for _ in range(6):
            yield from backend.consume()
        yield from backend.flush()

    soc.run_threads([(0, Thread(producer(), aspace, "p")),
                     (1, Thread(consumer(), aspace, "c"))])
    assert times["done"] > times["start_consume"]


def test_swqueue_endpoint_misuse_rejected():
    soc, aspace = build()
    ring = SwQueueRing(soc, aspace)
    with pytest.raises(RuntimeError):
        next(ring.producer().consume())
    with pytest.raises(RuntimeError):
        next(ring.consumer().produce(1))


def test_swqueue_capacity_validation():
    soc, aspace = build()
    with pytest.raises(ValueError):
        SwQueueRing(soc, aspace, capacity=2, publish_interval=4)


def test_swqueue_coherence_traffic_visible():
    soc, aspace = build()
    ring = SwQueueRing(soc, aspace, capacity=8, publish_interval=1)

    def producer():
        backend = ring.producer()
        for i in range(16):
            yield from backend.produce(i)
        yield from backend.flush()

    def consumer():
        backend = ring.consumer()
        for _ in range(16):
            yield from backend.consume()
        yield from backend.flush()

    soc.run_threads([(0, Thread(producer(), aspace, "p")),
                     (1, Thread(consumer(), aspace, "c"))])
    # The ring ping-pongs lines between the two L1s.
    coherence_events = (soc.stats.get("coherence.invalidations")
                        + soc.stats.get("coherence.forwards"))
    assert coherence_events >= 6


# -- Spin against the Load/Alu loop it replaces ------------------------------------

class _LoopBackend(SwQueueBackend):
    """The ring endpoint with its waits written as the ``Load`` +
    ``Alu(SPIN_BACKOFF_CYCLES)`` loop that ``isa.Spin`` stands for;
    counts the loop's failed polls in ``polls["failed"]``."""

    def __init__(self, ring, producer, polls):
        super().__init__(ring, producer)
        self._polls = polls

    def produce(self, value):
        ring = self._ring
        while self._local - self._cached_remote >= ring.capacity:
            self._cached_remote = yield Load(ring.head_cell.addr(0))
            if self._local - self._cached_remote >= ring.capacity:
                self._polls["failed"] += 1
                yield Alu(self.SPIN_BACKOFF_CYCLES)
        yield Store(ring.buffer.addr(self._local % ring.capacity), value)
        self._local += 1
        yield Alu(1)
        if self._local % ring.publish_interval == 0:
            yield Store(ring.tail_cell.addr(0), self._local)

    def consume(self):
        ring = self._ring
        while self._local >= self._cached_remote:
            self._cached_remote = yield Load(ring.tail_cell.addr(0))
            if self._local >= self._cached_remote:
                self._polls["failed"] += 1
                yield Alu(self.SPIN_BACKOFF_CYCLES)
        value = yield Load(ring.buffer.addr(self._local % ring.capacity))
        self._local += 1
        yield Alu(1)
        if self._local % ring.publish_interval == 0:
            yield Store(ring.head_cell.addr(0), self._local)
        return value


def _bfs_graph():
    return power_law_graph(256, avg_degree=4, seed=1)


#: cell -> (app, threads, config, dataset factory, fault plan, traced):
#: every sw-decouple cell of tests/test_slice_golden.py, the 4x4
#: directory mesh, a traced (armed) seam and forced TLB shootdowns.
SPIN_CELLS = {
    "spmv/x2": ("spmv", 2, None, None, None, False),
    "sdhp/x2": ("sdhp", 2, None, None, None, False),
    "spmm/x2": ("spmm", 2, None, None, None, False),
    "bfs/x2": ("bfs", 2, None, _bfs_graph, None, False),
    "bfs/x4": ("bfs", 4, None, _bfs_graph, None, False),
    "spmv/x4": ("spmv", 4, None, None, None, False),
    "spmv/coherence": ("spmv", 8, coherence_stress_config(4), None, None,
                       False),
    "spmv/traced": ("spmv", 2, None, None, None, True),
    "spmv/shootdowns": ("spmv", 2, None, None,
                        FaultPlan(seed=3, shootdown=ShootdownFault(cycles=97)),
                        False),
}


#: Cells where a spin's polled line leaves the spinner's L1 (coherence
#: invalidation) or its page leaves the TLB (shootdown) mid-spin.
DEPARTS = {"bfs/x2": "l1_gone", "bfs/x4": "l1_gone",
           "spmv/coherence": "l1_gone", "spmv/shootdowns": "tlb_gone"}


def _run_spin_cell(cell, monkeypatch, loop):
    """One sw-decouple run, polling through the loop backend or through
    ``Spin``; returns what must match and what the polls saw."""
    app, threads, config, dataset, plan, traced = SPIN_CELLS[cell]
    socs = []
    seen = {"spins": 0, "repeats": 0, "l1_gone": 0, "tlb_gone": 0,
            "failed": 0}
    last_spin = {}
    plain_load = Core._load

    class RecordedSoc(Soc):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            socs.append(self)
            if traced:
                self.ports.enable_tracing()

    def watched_load(core, vaddr, aspace):
        # The instruction _execute is running: a Spin on its second or
        # later iteration checks where the polled line and page are.
        inst = sys._getframe(1).f_locals.get("inst")
        if inst.__class__ is Spin:
            if last_spin.get(core.core_id) is not inst:
                last_spin[core.core_id] = inst
                seen["spins"] += 1
            else:
                seen["repeats"] += 1
                if (vaddr >> PAGE_SHIFT) not in core.tlb._entries:
                    seen["tlb_gone"] += 1
                paddr = aspace.page_table.lookup(vaddr)
                if not socs[0].memsys.l1_would_hit(core.core_id, paddr):
                    seen["l1_gone"] += 1
        return plain_load(core, vaddr, aspace)

    with monkeypatch.context() as patch:
        patch.setattr(techniques, "Soc", RecordedSoc)
        if loop:
            patch.setattr(SwQueueRing, "producer",
                          lambda ring: _LoopBackend(ring, True, seen))
            patch.setattr(SwQueueRing, "consumer",
                          lambda ring: _LoopBackend(ring, False, seen))
        else:
            patch.setattr(Core, "_load", watched_load)
        result = run_workload(app, "sw-decouple", threads=threads, scale=1,
                              seed=0, config=config,
                              dataset=dataset() if dataset else None,
                              fault_plan=plan)
    soc = result.soc
    assert bool(soc.ports.trace_events()) == traced
    observed = (result.cycles, soc.sim.events_executed,
                soc.stats_snapshot(), soc.ports.telemetry())
    return observed, result.fallback_doall, seen


@pytest.mark.parametrize("cell", sorted(SPIN_CELLS))
def test_spin_matches_the_load_alu_loop(cell, monkeypatch):
    looped, fallback, loop_seen = _run_spin_cell(cell, monkeypatch, loop=True)
    failed_polls = loop_seen["failed"]
    spun, _, seen = _run_spin_cell(cell, monkeypatch, loop=False)
    assert spun == looped
    if fallback:  # SPMM is not decouplable: no ring, nothing to poll
        assert failed_polls == 0 and seen["spins"] == 0
        return
    # The Spin branch ran every failed poll the loop did, and where the
    # cell evicts the polled line or shoots down its page, it did so
    # between two loads of one spin.
    assert seen["spins"] > 0
    assert seen["repeats"] == failed_polls > 0
    if cell in DEPARTS:
        assert seen[DEPARTS[cell]] > 0


# -- DeSC ----------------------------------------------------------------------------

def test_desc_produce_consume_order_with_mixed_fills():
    soc, aspace = build()
    data = soc.array(aspace, [float(i) for i in range(64)], name="d")
    engine = DescBackend(soc, aspace, supply_core_id=0)
    got = []

    def supply():
        yield from engine.produce(100)          # immediate value
        yield from engine.produce_ptr(data.addr(32))  # slow DRAM fetch
        yield from engine.produce(200)          # immediate value again

    def compute():
        for _ in range(3):
            got.append((yield from engine.consume()))

    soc.run_threads([(0, Thread(supply(), aspace, "s")),
                     (1, Thread(compute(), aspace, "c"))])
    # Program order preserved even though the middle fill arrived last.
    assert got == [100, 32.0, 200]


def test_desc_fetches_overlap():
    soc, aspace = build()
    n = 12
    data = soc.array(aspace, [float(i) for i in range(n * 8)], name="d")
    engine = DescBackend(soc, aspace, supply_core_id=0)

    def supply():
        for i in range(n):
            yield from engine.produce_ptr(data.addr(8 * i))

    def compute():
        for _ in range(n):
            yield from engine.consume()

    elapsed = soc.run_threads([(0, Thread(supply(), aspace, "s")),
                               (1, Thread(compute(), aspace, "c"))])
    assert elapsed < 0.6 * n * soc.config.dram_latency  # MLP visible


def test_desc_store_ships_to_supply_and_drains():
    soc, aspace = build()
    out = soc.array(aspace, 8, name="out")
    engine = DescBackend(soc, aspace, supply_core_id=0)

    def compute():
        yield from engine.store(out.addr(2), 9.5)
        yield from engine.drain_stores()

    soc.run_threads([(1, Thread(compute(), aspace, "c"))])
    assert out.read(2) == 9.5
    assert soc.stats.get("desc.stores_via_supply") == 1


def test_desc_load_fence_blocks_behind_pending_stores():
    soc, aspace = build()
    out = soc.array(aspace, 8 * 20, name="out")
    engine = DescBackend(soc, aspace, supply_core_id=0)
    times = {}

    def compute():
        # A store that misses (cold line) keeps the store queue busy.
        yield from engine.store(out.addr(8 * 19), 1)
        start = soc.sim.now
        yield from engine.load_fence()
        times["fence"] = soc.sim.now - start

    soc.run_threads([(1, Thread(compute(), aspace, "c"))])
    assert times["fence"] > 50  # waited for the store to resolve
    assert soc.stats.get("desc.disambiguation_stalls") > 0


def test_desc_fetch_add_returns_old_value():
    soc, aspace = build()
    counter = soc.array(aspace, 1, name="c")
    counter.write(0, 10)
    engine = DescBackend(soc, aspace, supply_core_id=0)
    got = []

    def compute():
        got.append((yield from engine.fetch_add(counter.addr(0), 1)))
        got.append((yield from engine.fetch_add(counter.addr(0), 1)))

    soc.run_threads([(1, Thread(compute(), aspace, "c"))])
    assert got == [10, 11]
    assert counter.read(0) == 12


# -- DROPLET -----------------------------------------------------------------------------

def test_droplet_dereferences_once_per_line():
    soc, aspace = build()
    b = soc.array(aspace, [i * 8 for i in range(8)], name="B")
    a = soc.array(aspace, [float(i) for i in range(64)], name="A")
    prefetcher = DropletPrefetcher(soc.memsys)
    prefetcher.register_indirection(aspace, b, a)

    def program():
        for i in range(8):
            idx = yield Load(b.addr(i))
            yield Load(a.addr(idx))
        # Re-stream B after eviction pressure would re-fill its line; the
        # prefetcher must not re-dereference (done_lines).
        for i in range(8):
            yield Load(b.addr(i))

    soc.run_threads([(0, Thread(program(), aspace, "t"))])
    assert soc.stats.get("droplet.dereferences") <= 8


def test_droplet_prefetch_queue_drops_excess():
    soc, aspace = build()
    # One B line holds 8 indices; a queue of 2 must drop most of them.
    b = soc.array(aspace, [i * 8 for i in range(8)], name="B")
    a = soc.array(aspace, [0.0] * 64, name="A")
    prefetcher = DropletPrefetcher(soc.memsys, prefetch_queue=2)
    prefetcher.register_indirection(aspace, b, a)

    def program():
        yield Load(b.addr(0))

    soc.run_threads([(0, Thread(program(), aspace, "t"))])
    assert soc.stats.get("droplet.dropped") >= 6


def test_droplet_requires_mapped_index_array():
    soc, aspace = build()
    lazy = soc.array(aspace, 8, name="lazy", lazy=True)
    a = soc.array(aspace, 8, name="A")
    prefetcher = DropletPrefetcher(soc.memsys)
    with pytest.raises(ValueError, match="mapped"):
        prefetcher.register_indirection(aspace, lazy, a)


def test_droplet_speeds_up_the_gather_microbenchmark():
    def run(with_droplet):
        soc = Soc()
        aspace = soc.new_process()
        n = 32
        b = soc.array(aspace, [(i * 8) % (n * 8) for i in range(n)], name="B")
        a = soc.array(aspace, [0.0] * (n * 8), name="A")
        if with_droplet:
            pf = DropletPrefetcher(soc.memsys)
            pf.register_indirection(aspace, b, a)

        def program():
            for i in range(n):
                idx = yield Load(b.addr(i))
                yield Load(a.addr(idx))

        return soc.run_threads([(0, Thread(program(), aspace, "t"))])

    assert run(True) < run(False)
