"""The MAPLE device: NoC-facing decoder and the three pipelines (§3.4).

Request flow (Fig. 3): a core's MMIO load/store leaves its private-cache
path, crosses the request NoC, is decoded (opcode + queue from the page
offset), and is routed to one of three pipelines:

- **Configuration** — queue binding, INIT, MMU root, LIMA registers,
  performance/debug counter reads.  Non-blocking by construction.
- **Produce** — data-produce fills the reserved slot immediately;
  pointer-produce acknowledges the store as soon as the transaction is
  buffered (so the Access core retires it and keeps running), then
  translates the pointer and issues the DRAM fetch with the slot index as
  transaction ID.  A full queue back-pressures through the per-queue
  produce buffer: once the buffer is full the ack itself is delayed.
- **Consume** — pops the head entry, or buffers the load (no polling)
  until data arrives.

Separate pipelines mean a full queue never blocks consumes or
configuration — the deadlock-freedom property the paper formally verified.
The engine enforces the same invariants with runtime checks instead of SVA.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.lima import LimaUnit
from repro.core.mmu import MapleMmu
from repro.core.opcodes import LoadOp, StoreOp, decode_offset
from repro.core.queues import HwQueue, Scratchpad
from repro.mem.dram import is_poisoned
from repro.mem.hierarchy import MemorySystem, MMIORegion
from repro.noc import Network, Plane
from repro.params import SoCConfig
from repro.sim import Message, PortRegistry, Semaphore, Simulator
from repro.sim.port import DataIntegrityError
from repro.sim.stats import Stats
from repro.vm.address import PAGE_SIZE


class MapleError(RuntimeError):
    """Protocol violation at the MAPLE interface."""


_LOAD_OPS = {op.value: op for op in LoadOp}
_STORE_OPS = {op.value: op for op in StoreOp}


def _load_op(opcode: int) -> LoadOp:
    """The decoded load opcode: a table lookup, the Enum call (which
    raises) only for an unknown one."""
    op = _LOAD_OPS.get(opcode)
    return op if op is not None else LoadOp(opcode)


def _store_op(opcode: int) -> StoreOp:
    """The decoded store opcode (see :func:`_load_op`)."""
    op = _STORE_OPS.get(opcode)
    return op if op is not None else StoreOp(opcode)


class Maple:
    """One MAPLE instance on its own mesh tile."""

    def __init__(self, instance_id: int, tile_id: int, sim: Simulator,
                 memsys: MemorySystem, network: Network, config: SoCConfig,
                 stats: Stats, mmio_base: int, ports: Optional[PortRegistry] = None):
        self.instance_id = instance_id
        self.tile_id = tile_id
        self._sim = sim
        self._network = network
        self.config = config
        self.stats = stats.scoped(f"maple{instance_id}")
        # Bound handles for the per-request pipelines (see sim.stats).
        self._c_consumes = self.stats.counter("consumes")
        self._c_consumes_packed = self.stats.counter("consumes_packed")
        self._c_consume_stalls = self.stats.counter("consume_stalls")
        self._c_produces = self.stats.counter("produces")
        self._c_produce_ptrs = self.stats.counter("produce_ptrs")
        self._c_produce_backpressure = self.stats.counter("produce_backpressure")
        self._h_fetch_mlp = self.stats.histogram("fetch_mlp")
        # Bound at the first LIMA op: a run without one has no lima_ops.
        self._c_lima_ops = None
        # Per-request pipeline constant, hoisted out of _serve_mmio.
        self._pipeline_latency = config.maple_pipeline_latency
        self.page_paddr = mmio_base + instance_id * PAGE_SIZE

        # Port wiring: one memory port for every fetch MAPLE issues
        # (pointer fetches, LIMA chunks, PTE walks, LLC prefetch posts)
        # and one NoC-transported MMIO port pair that carries every core
        # access.  A standalone registry keeps direct construction (tests)
        # working outside a Soc.
        if ports is None:
            ports = PortRegistry(sim)
        self.ports = ports
        # Depth bound: fetch workers hold the in-flight semaphore and LIMA
        # runs one drain per queue, so this can never be the constraint.
        self.mem_port = memsys.connect_device_port(
            ports, f"maple{instance_id}", tile_id,
            depth=config.maple_max_inflight + config.maple_num_queues + 2)
        #: The memory seam's lowered pointer fetches (see repro.sim.port).
        self._lowered_fetch = {kind: self.mem_port.lowered(kind)
                               for kind in ("dram_load", "llc_load")}

        self.scratchpad = Scratchpad(
            sim, config.scratchpad_bytes, config.maple_num_queues,
            config.queue_entry_bytes, self.stats, ecc=config.ecc,
        )
        self.mmu = MapleMmu(self.mem_port, config, self.stats,
                            name=f"maple{instance_id}.mmu")
        self.lima = LimaUnit(self)

        #: Outstanding pointer fetches — the MLP the engine can sustain.
        self._inflight = Semaphore(sim, config.maple_max_inflight,
                                   name=f"maple{instance_id}.inflight")
        self._produce_buffers: Dict[int, Semaphore] = {
            qid: Semaphore(sim, config.produce_buffer_entries,
                           name=f"maple{instance_id}.q{qid}.buf")
            for qid in range(config.maple_num_queues)
        }
        self._consume_mutexes: Dict[int, Semaphore] = {
            qid: Semaphore(sim, 1, name=f"maple{instance_id}.q{qid}.consume")
            for qid in range(config.maple_num_queues)
        }
        #: core_id -> tile_id, provided by the SoC builder for NoC routing.
        self.core_tiles: Dict[int, int] = {}

        # The MMIO seam: the dispatch side sits at the memory system's
        # uncacheable decode, the device side at this tile; the request
        # link charges the core-side private-cache path plus the request
        # NoC, the response link the response NoC plus the return path —
        # the exact Fig. 14 segments, now derivable from the port trace.
        self.mmio_port = ports.port(f"maple{instance_id}.mmio", tile=tile_id)
        self._mmio_dispatch = ports.port(
            f"maple{instance_id}.mmio.dispatch", tile=-1,
            depth=config.num_cores + 2)
        self.mmio_port.bind(self._serve_mmio)
        ports.connect(
            self._mmio_dispatch, self.mmio_port,
            request_link=network.link(Plane.REQUEST,
                                      pre=config.mmio_path_latency),
            response_link=network.link(Plane.RESPONSE,
                                       post=config.mmio_path_latency),
        )
        # The same two legs for the lowered access (_mmio_lowered).
        self._mmio_path_latency = config.mmio_path_latency
        self._to_device = network.traversal(Plane.REQUEST)
        self._to_core = network.traversal(Plane.RESPONSE)

        memsys.register_mmio(MMIORegion(
            self.page_paddr, self.page_paddr + PAGE_SIZE, self._mmio_entry,
            name=f"maple{instance_id}", lowered=self._mmio_lowered,
        ))

    def debug_state(self) -> dict:
        """Liveness snapshot for watchdog dumps: pipeline occupancy, queue
        state, and the translation machinery's in-flight work."""
        return {
            "fetches_inflight": self._inflight.in_use,
            "fetch_waiters": self._inflight.waiting,
            "produce_buffer_in_use": {
                qid: buf.in_use for qid, buf in self._produce_buffers.items()
                if buf.in_use
            },
            "consume_blocked": sorted(
                qid for qid, mutex in self._consume_mutexes.items()
                if mutex.in_use
            ),
            "queues": {
                q.queue_id: q.debug_state()
                for q in self.scratchpad.queues if q.occupied or q.owner
            },
            "lima": self.lima.debug_state(),
            "ptw_inflight": self.mmu.walker.inflight,
        }

    # -- NoC-facing request handling -------------------------------------------

    def round_trip_cycles(self, core_tile: int) -> int:
        """Analytic core->MAPLE->core latency for a ready consume (Fig. 14)."""
        cfg = self.config
        return (
            2 * cfg.mmio_path_latency
            + self._network.one_way_latency(core_tile, self.tile_id)
            + cfg.maple_pipeline_latency
            + self._network.one_way_latency(self.tile_id, core_tile)
        )

    def _mmio_entry(self, op: str, paddr: int, value, core_id: int):
        """The MMIORegion handler: forward the access onto the MMIO port
        pair (returns the transaction generator).  The request link pays
        core pipeline -> L1 -> L1.5 -> request NoC; the response link the
        response NoC plus the return path (Fig. 14)."""
        core_tile = self.core_tiles.get(core_id, core_id)
        kind = "mmio_load" if op == "load" else "mmio_store"
        return self._mmio_dispatch.request(kind, (paddr, value, core_id),
                                           src=core_tile)

    def _mmio_lowered(self, op: str, paddr: int, value, core_id: int,
                      client):
        """Generator: the MMIORegion's lowered access — a core's whole
        MMIO access in one frame directly under the core's: the dispatch
        port's bookkeeping, the request leg (core path + request NoC),
        :meth:`_serve_mmio`'s decode and pipeline charge, the pipeline
        itself and the response leg (response NoC + return path) — the
        Fig. 14 segments, yielded exactly as the port pair yields them —
        then the close of the core-seam transaction the memory system
        opened on ``client``.  While the MMIO seam is armed or at depth
        the middle is the generic :meth:`_mmio_entry` request."""
        dispatch = self._mmio_dispatch
        load = op == "load"
        try:
            if dispatch.begin("mmio_load" if load else "mmio_store") is None:
                result = yield from self._mmio_entry(op, paddr, value,
                                                     core_id)
            else:
                try:
                    core_tile = self.core_tiles.get(core_id, core_id)
                    path = self._mmio_path_latency
                    if path:
                        yield path
                    yield self._to_device(core_tile, self.tile_id)
                    self.mmio_port.tap.served += 1
                    opcode, queue_id = decode_offset(paddr - self.page_paddr)
                    yield self._pipeline_latency
                    if load:
                        result = yield from self._dispatch_load(
                            _load_op(opcode), queue_id, core_id)
                    else:
                        result = yield from self._dispatch_store(
                            _store_op(opcode), queue_id, value, core_id)
                    yield self._to_core(self.tile_id, core_tile)
                    if path:
                        yield path
                except BaseException:
                    dispatch.end(ok=False)
                    raise
                dispatch.end()
        except BaseException:
            client.end(ok=False)
            raise
        client.end()
        return result

    def _serve_mmio(self, msg: Message):
        """Generator: decode + dispatch one MMIO transaction (device side).
        :meth:`_mmio_lowered` repeats this decode inline, one frame up;
        tests/test_seam_lowering.py pins the two paths together."""
        paddr, value, core_id = msg.payload
        opcode, queue_id = decode_offset(paddr - self.page_paddr)
        yield self._pipeline_latency  # decode + pipeline stages
        if msg.kind == "mmio_load":
            return (yield from self._dispatch_load(_load_op(opcode), queue_id,
                                                   core_id))
        return (yield from self._dispatch_store(_store_op(opcode), queue_id,
                                                value, core_id))

    # -- Consume pipeline ----------------------------------------------------------

    def _dispatch_load(self, opcode: LoadOp, queue_id: int, core_id: int):
        queue = self.scratchpad.queue(queue_id)
        if opcode == LoadOp.CONSUME:
            self._c_consumes.value += 1
            return (yield from self._consume(queue, count=1))
        if opcode == LoadOp.CONSUME_PACKED:
            if self.config.queue_entry_bytes != 4:
                raise MapleError("packed consume requires 4-byte queue entries")
            self._c_consumes_packed.value += 1
            return (yield from self._consume(queue, count=2))
        if opcode == LoadOp.OPEN:
            return self._open_queue(queue, core_id)
        if opcode == LoadOp.STAT_PRODUCED:
            return queue.produced
        if opcode == LoadOp.STAT_CONSUMED:
            return queue.consumed
        if opcode == LoadOp.STAT_OCCUPANCY:
            return queue.occupied
        if opcode == LoadOp.STAT_PTR_FETCHES:
            return queue.ptr_fetches
        if opcode == LoadOp.STAT_TLB_MISSES:
            return self.stats.get("misses")
        if opcode == LoadOp.FAULT_VADDR:
            return self.mmu.last_fault_vaddr or 0
        raise MapleError(f"unimplemented load opcode {opcode!r}")

    def _consume(self, queue: HwQueue, count: int):
        """Pop ``count`` entries in order; buffered while the queue is empty."""
        mutex = self._consume_mutexes[queue.queue_id]
        if not mutex.try_acquire():
            yield from mutex.acquire()
        try:
            if not queue.head_ready():
                self._c_consume_stalls.value += 1
            values = []
            for _ in range(count):
                value = yield from queue.pop()
                if is_poisoned(value):
                    # The producing pointer is gone once the slot was
                    # filled — an uncorrectable scratchpad error cannot be
                    # re-fetched, so it must fail loudly, never silently.
                    raise DataIntegrityError(
                        f"maple{self.instance_id} q{queue.queue_id}: consume "
                        f"of poisoned scratchpad slot",
                        component=f"maple{self.instance_id}.q{queue.queue_id}",
                        kind="scratchpad_poison")
                values.append(value)
        finally:
            mutex.release()
        return values[0] if count == 1 else tuple(values)

    def _open_queue(self, queue: HwQueue, core_id: int) -> int:
        owner = f"core{core_id}"
        if queue.owner is not None and queue.owner != owner:
            return 0  # busy
        queue.owner = owner
        self.stats.bump("opens")
        return 1

    # -- Produce + Configuration pipelines ---------------------------------------------

    def _dispatch_store(self, opcode: StoreOp, queue_id: int, value, core_id: int):
        if opcode in (StoreOp.PRODUCE, StoreOp.PRODUCE_PTR,
                      StoreOp.PRODUCE_PTR_LLC):
            yield from self._accept_produce(opcode, queue_id, value)
            return None
        if opcode == StoreOp.PREFETCH:
            self.stats.bump("prefetch_ops")
            self._sim.spawn(self._prefetch_worker(value),
                            name=f"maple{self.instance_id}.prefetch")
            return None
        if opcode == StoreOp.CLOSE:
            self.scratchpad.queue(queue_id).owner = None
            self.stats.bump("closes")
            return None
        if opcode == StoreOp.INIT:
            self.scratchpad.reset_all()
            self.stats.bump("inits")
            return None
        if opcode == StoreOp.SET_ROOT:
            self.mmu.set_root(value)
            return None
        if opcode == StoreOp.LIMA_BASE_A:
            self.lima.set_base_a(queue_id, value)
            return None
        if opcode == StoreOp.LIMA_BASE_B:
            self.lima.set_base_b(queue_id, value)
            return None
        if opcode == StoreOp.LIMA_RANGE:
            lo, hi = value
            self.lima.set_range(queue_id, lo, hi)
            return None
        if opcode == StoreOp.LIMA_START or opcode == StoreOp.LIMA_RUN:
            mode = value
            if opcode == StoreOp.LIMA_RUN:
                lo, hi, mode = value
                self.lima.set_range(queue_id, lo, hi)
            ops = self._c_lima_ops
            if ops is None:
                ops = self._c_lima_ops = self.stats.counter("lima_ops")
            ops.value += 1
            self.lima.start(queue_id, mode=mode)
            return None
        raise MapleError(f"unimplemented store opcode {opcode!r}")

    def _accept_produce(self, opcode: StoreOp, queue_id: int, value):
        """Admit a produce into the per-queue buffer; the store's ack (and
        therefore the Access core) is released as soon as it is buffered."""
        queue = self.scratchpad.queue(queue_id)
        buffer = self._produce_buffers[queue_id]
        if not buffer.try_acquire():
            if buffer.available == 0:
                self._c_produce_backpressure.value += 1
            yield from buffer.acquire()
        if opcode == StoreOp.PRODUCE:
            self._c_produces.value += 1
            self._sim.spawn(self._produce_data_worker(queue, buffer, value),
                            name=f"maple{self.instance_id}.produce")
        else:
            self._c_produce_ptrs.value += 1
            via_llc = opcode == StoreOp.PRODUCE_PTR_LLC
            self._sim.spawn(
                self._produce_ptr_worker(queue, buffer, value, via_llc=via_llc),
                name=f"maple{self.instance_id}.produce_ptr")

    def _produce_data_worker(self, queue: HwQueue, buffer: Semaphore, value):
        index = yield from queue.reserve()
        queue.fill(index, value)
        buffer.release()

    def _produce_ptr_worker(self, queue: HwQueue, buffer: Semaphore, ptr: int,
                            via_llc: bool = False):
        index = yield from queue.reserve()
        buffer.release()
        yield from self.fetch_into_slot(queue, index, ptr, via_llc=via_llc)

    def fetch_into_slot(self, queue: HwQueue, index: int, ptr: int,
                        via_llc: bool = False):
        """Generator: translate + fetch ``ptr`` and fill slot ``index``.

        Shared by the Produce pipeline and LIMA.  The slot index is the
        memory transaction ID, so out-of-order DRAM responses land in the
        right place and the queue still delivers in program order.
        """
        if not self._inflight.try_acquire():
            yield from self._inflight.acquire()
        try:
            queue.ptr_fetches += 1
            self._h_fetch_mlp.add(self._inflight.in_use)
            paddr = self.mmu.lookup(ptr)
            if paddr is None:
                paddr = yield from self.mmu.translate_miss(ptr)
            kind = "llc_load" if via_llc else "dram_load"
            limit = self.config.poison_refetch_limit
            fetch = self._lowered_fetch[kind]
            for _attempt in range(limit + 1):
                data = yield from fetch(paddr)
                if not is_poisoned(data):
                    break
                # Poisoned produce fill: the pointer is still in hand, so
                # re-issue the fetch (a fresh DRAM read draws a fresh
                # flip fate) instead of parking garbage in the queue.
                self.stats.bump("poison_refetches")
            else:
                raise DataIntegrityError(
                    f"maple{self.instance_id}: pointer fetch of {ptr:#x} "
                    f"poisoned across {limit + 1} attempts",
                    component=f"maple{self.instance_id}", kind=kind,
                    addr=paddr, attempts=limit + 1)
        finally:
            self._inflight.release()
        queue.fill(index, data)

    def _prefetch_worker(self, ptr: int):
        """Speculative prefetch: translate and push the line into the LLC."""
        yield from self._inflight.acquire()
        try:
            paddr = self.mmu.lookup(ptr)
            if paddr is None:
                paddr = yield from self.mmu.translate_miss(ptr)
        finally:
            self._inflight.release()
        self.mem_port.post("l2_prefetch", paddr)
