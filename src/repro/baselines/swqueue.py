"""Shared-memory software decoupling (the Fig. 8 software baseline).

A single-producer single-consumer ring buffer in ordinary coherent
memory: the classic Lamport queue with locally cached head/tail and
periodic publication.  Every published index and every payload slot
bounces between the producer's and consumer's L1s (upgrade +
forward coherence round trips), and — decisively — ``produce_ptr`` must
perform the indirect load on the Access core itself, stalling it for the
full DRAM latency.  This is why software-only decoupling *loses* to
plain doall parallelism on in-order cores (§5.1).
"""

from __future__ import annotations

from repro.compiler.interp import QueueBackend
from repro.cpu import isa
from repro.vm.alloc import SimArray


class SwQueueRing:
    """The in-memory ring: payload buffer plus head/tail cells.

    Head and tail live in separate arrays, hence separate pages and cache
    lines — the standard false-sharing precaution; the ping-pong this
    model charges is the *true* sharing cost of the protocol.
    """

    def __init__(self, soc, aspace, capacity: int = 64,
                 publish_interval: int = 4, name: str = "swq"):
        if capacity < publish_interval:
            raise ValueError("ring capacity must cover the publish interval")
        self.capacity = capacity
        self.publish_interval = publish_interval
        self.buffer: SimArray = soc.array(aspace, capacity, name=f"{name}.buf")
        self.head_cell: SimArray = soc.array(aspace, 1, name=f"{name}.head")
        self.tail_cell: SimArray = soc.array(aspace, 1, name=f"{name}.tail")

    def producer(self) -> "SwQueueBackend":
        return SwQueueBackend(self, producer=True)

    def consumer(self) -> "SwQueueBackend":
        return SwQueueBackend(self, producer=False)


class SwQueueBackend(QueueBackend):
    """One endpoint of the ring (producer or consumer).

    A wait on the other endpoint's published index is one ``isa.Spin``:
    loads of the index with ``SPIN_BACKOFF_CYCLES`` of backoff between
    them, until the ring has an item (consume) or a free slot (produce).
    """

    SPIN_BACKOFF_CYCLES = 10

    def __init__(self, ring: SwQueueRing, producer: bool):
        self._ring = ring
        self._is_producer = producer
        self._local = 0        # producer: tail; consumer: head
        self._cached_remote = 0  # producer: last head seen; consumer: last tail

    # -- producer side -------------------------------------------------------

    def produce(self, value):
        if not self._is_producer:
            raise RuntimeError("consumer endpoint cannot produce")
        ring = self._ring
        if self._local - self._cached_remote >= ring.capacity:
            self._cached_remote = yield isa.Spin(
                ring.head_cell.addr(0), self._local - ring.capacity,
                self.SPIN_BACKOFF_CYCLES)
        yield isa.Store(ring.buffer.addr(self._local % ring.capacity), value)
        self._local += 1
        yield isa.Alu(1)  # index arithmetic
        if self._local % ring.publish_interval == 0:
            yield isa.Store(ring.tail_cell.addr(0), self._local)

    def produce_ptr(self, addr):
        """Software queues cannot fetch pointers: load here, then push the
        value — the Access-thread stall MAPLE exists to remove."""
        value = yield isa.Load(addr)
        yield from self.produce(value)

    # -- consumer side ------------------------------------------------------------

    def consume(self):
        if self._is_producer:
            raise RuntimeError("producer endpoint cannot consume")
        ring = self._ring
        if self._local >= self._cached_remote:
            self._cached_remote = yield isa.Spin(
                ring.tail_cell.addr(0), self._local, self.SPIN_BACKOFF_CYCLES)
        value = yield isa.Load(ring.buffer.addr(self._local % ring.capacity))
        self._local += 1
        yield isa.Alu(1)
        if self._local % ring.publish_interval == 0:
            yield isa.Store(ring.head_cell.addr(0), self._local)
        return value

    # -- end-of-slice flush ------------------------------------------------------

    def flush(self):
        """Publish any unannounced progress (call when a slice finishes)."""
        if self._is_producer:
            yield isa.Store(self._ring.tail_cell.addr(0), self._local)
        else:
            yield isa.Store(self._ring.head_cell.addr(0), self._local)
