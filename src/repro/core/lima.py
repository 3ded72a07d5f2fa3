"""The LIMA unit: Loops of Indirect Memory Accesses (§3.2, §3.4).

One software operation programs a whole ``A[B[i]] for i in [lo, hi)``
pattern.  LIMA fetches the index array B in 64-byte chunks into the
scratchpad, walks the chunk word by word (one per cycle), forms each
final address ``&A[B[i]]``, and feeds it into the Produce path:

- ``mode="queue"`` (non-speculative): the data lands in the hardware
  queue, consumed in order — LIMA_PRODUCE in the paper's evaluation.
- ``mode="llc"`` (speculative): the line is prefetched into the shared
  LLC without touching the L1 — the PREFETCH variant of Fig. 4.

Because MAPLE is ISA-agnostic, the speculative path issues plain network
requests toward the shared cache rather than ISA prefetch instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.mem.dram import is_poisoned
from repro.sim.port import DataIntegrityError
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Maple

WORD_BYTES = 8

VALID_MODES = ("queue", "llc")


@dataclass
class LimaConfig:
    """Per-queue LIMA configuration registers."""

    base_a: Optional[int] = None
    base_b: Optional[int] = None
    lo: Optional[int] = None
    hi: Optional[int] = None

    def ready(self) -> bool:
        return None not in (self.base_a, self.base_b, self.lo, self.hi)


class LimaUnit:
    """Configuration registers + the chunked expansion engine."""

    def __init__(self, maple: "Maple"):
        self._maple = maple
        self._configs: Dict[int, LimaConfig] = {}
        self.active = 0  # currently running LIMA expansions
        # Runs targeting the same queue execute strictly in issue order —
        # interleaving two runs' slot reservations would scramble the FIFO.
        self._pending: Dict[int, list] = {}
        self._busy: Dict[int, bool] = {}
        # Counter handles, bound at first use so a unit that never runs
        # adds no zero-valued ``lima_*`` key to the stats.
        self._c_started: Optional[Counter] = None
        self._c_chunks: Optional[Counter] = None
        self._c_elements: Optional[Counter] = None

    def debug_state(self) -> dict:
        """Liveness snapshot: running expansions and per-queue backlog."""
        return {
            "active": self.active,
            "pending": {qid: len(runs) for qid, runs in self._pending.items()
                        if runs},
            "busy_queues": sorted(qid for qid, busy in self._busy.items()
                                  if busy),
        }

    def _config_for(self, queue_id: int) -> LimaConfig:
        return self._configs.setdefault(queue_id, LimaConfig())

    def set_base_a(self, queue_id: int, vaddr: int) -> None:
        self._config_for(queue_id).base_a = vaddr

    def set_base_b(self, queue_id: int, vaddr: int) -> None:
        self._config_for(queue_id).base_b = vaddr

    def set_range(self, queue_id: int, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"LIMA range [{lo}, {hi}) is negative")
        config = self._config_for(queue_id)
        config.lo, config.hi = lo, hi

    def start(self, queue_id: int, mode: str) -> None:
        """Kick off one expansion (the LIMA_START MMIO store)."""
        if mode not in VALID_MODES:
            raise ValueError(f"LIMA mode {mode!r} not in {VALID_MODES}")
        config = self._config_for(queue_id)
        if not config.ready():
            raise RuntimeError(f"LIMA start on queue {queue_id} before configuration")
        snapshot = LimaConfig(config.base_a, config.base_b, config.lo, config.hi)
        self.active += 1
        self._pending.setdefault(queue_id, []).append((snapshot, mode))
        if not self._busy.get(queue_id):
            self._busy[queue_id] = True
            self._maple._sim.spawn(
                self._drain(queue_id),
                name=f"maple{self._maple.instance_id}.lima.q{queue_id}",
            )

    def _drain(self, queue_id: int):
        """Process queued runs for one queue strictly in issue order."""
        pending = self._pending[queue_id]
        while pending:
            snapshot, mode = pending.pop(0)
            yield from self._run(queue_id, snapshot, mode)
        self._busy[queue_id] = False

    def _run(self, queue_id: int, config: LimaConfig, mode: str):
        maple = self._maple
        mem_port = maple.mem_port
        # The seam's lowered line fetch (it takes a port request itself
        # while the seam is armed).
        fetch_line = mem_port.lowered("dram_line")
        line_size = maple.config.line_size
        queue = maple.scratchpad.queue(queue_id)
        stats = maple.stats
        started = self._c_started
        if started is None:
            started = self._c_started = stats.counter("lima_started")
        started.value += 1
        chunks = self._c_chunks
        elements = self._c_elements
        current_line = None
        line_words = []
        for i in range(config.lo, config.hi):
            vaddr_b = config.base_b + WORD_BYTES * i
            paddr_b = maple.mmu.lookup(vaddr_b)
            if paddr_b is None:
                paddr_b = yield from maple.mmu.translate_miss(vaddr_b)
            line = paddr_b & ~(line_size - 1)
            if line != current_line:
                # Fetch the next 64 B chunk of B into the scratchpad.
                line_words = yield from fetch_line(line)
                current_line = line
                if chunks is None:
                    chunks = self._c_chunks = stats.counter("lima_chunks")
                chunks.value += 1
            index = line_words[(paddr_b - line) // WORD_BYTES]
            if is_poisoned(index):
                # The index array is still in DRAM: re-fetch the chunk (a
                # fresh read draws a fresh ECC fate) before giving up.
                limit = maple.config.poison_refetch_limit
                for _ in range(limit):
                    stats.bump("lima_poison_refetches")
                    line_words = yield from fetch_line(line)
                    index = line_words[(paddr_b - line) // WORD_BYTES]
                    if not is_poisoned(index):
                        break
                else:
                    raise DataIntegrityError(
                        f"maple{maple.instance_id} lima.q{queue_id}: index "
                        f"chunk at {line:#x} poisoned across {limit + 1} "
                        f"fetch attempts",
                        component=f"maple{maple.instance_id}.lima",
                        kind="dram_line", addr=line, attempts=limit + 1)
            if not isinstance(index, int):
                raise TypeError(
                    f"LIMA index B[{i}] = {index!r} is not an integer"
                )
            target = config.base_a + WORD_BYTES * index
            yield 1  # one element per cycle through the indirection logic
            if mode == "queue":
                slot = yield from queue.reserve()
                maple._sim.spawn(
                    maple.fetch_into_slot(queue, slot, target),
                    name=f"maple{maple.instance_id}.lima.fetch",
                )
            else:
                paddr_a = maple.mmu.lookup(target)
                if paddr_a is None:
                    paddr_a = yield from maple.mmu.translate_miss(target)
                mem_port.post("l2_prefetch", paddr_a)
            if elements is None:
                elements = self._c_elements = stats.counter("lima_elements")
            elements.value += 1
        self.active -= 1
