"""The coherent two-level memory hierarchy (private L1s, shared L2, DRAM).

Timing model (Tables 2/3): L1 hit = 2 cycles, L1-miss-to-L2-hit = +30
cycles, L2 miss = +300 cycles through the shared DRAM channel.  A
directory-style sharers map reproduces the coherence costs the paper's
software baselines suffer: a store to a line other cores hold pays an
upgrade round trip and invalidates them, and a load of a line dirty in
another L1 pays a forwarding round trip.  The L2 is inclusive — evicting an
L2 line kills the L1 copies — matching OpenPiton's L1.5/L2 organization.

Functionally, data lives only in :class:`PhysicalMemory`, so values are
always current regardless of timing state.

Quiescence audit (engine contract, see DESIGN.md): every generator here
is driven by a port transaction and ends when the access resolves — the
hierarchy never runs standing processes per bank or per core, and the
only waits are timed latency charges and the DRAM channel's bounded-
concurrency semaphore.  Idle banks schedule nothing.

MMIO regions registered with :meth:`MemorySystem.register_mmio` bypass the
caches entirely; this is how cores reach MAPLE with plain loads and stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.mem.backing import WORD_BYTES, PhysicalMemory
from repro.mem.cache import Cache
from repro.mem.coherence import CoherenceBook, LineState
from repro.mem.dram import DramChannel, Poison
from repro.params import SoCConfig
from repro.sim import Signal, Simulator
from repro.sim.faults import corrupt_value
from repro.sim.port import DataIntegrityError, Message, Port, PortRegistry
from repro.sim.stats import Counter, Stats


@dataclass
class MMIORegion:
    """An uncacheable physical range owned by a device.

    ``handler(op, paddr, value, core_id)`` is a generator completing the
    access with full device timing; its return value answers loads.
    """

    start: int
    end: int
    handler: Callable
    name: str = "mmio"

    def covers(self, paddr: int) -> bool:
        return self.start <= paddr < self.end


class MemorySystem:
    """Private L1 per core + shared inclusive L2 + one DRAM channel."""

    def __init__(self, sim: Simulator, config: SoCConfig, stats: Stats):
        self._sim = sim
        self.config = config
        self.stats = stats
        self.mem = PhysicalMemory()
        self.dram = DramChannel(
            sim, config.dram_latency, config.dram_max_inflight, stats.scoped("dram")
        )
        self.l2 = Cache(config.l2_size, config.l2_ways, config.line_size, name="l2")
        self.l1s: Dict[int, Cache] = {}
        # Hot-path constants, hoisted out of the per-access attribute chains.
        self._line_mask = ~(config.line_size - 1)
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        # Pre-resolved counter handles: the hot paths below fire these per
        # access and must never rebuild dotted stat keys (see sim.stats).
        self._c_l2_hits = stats.counter("l2.hits")
        self._c_l2_misses = stats.counter("l2.misses")
        self._c_l2_merged = stats.counter("l2.merged_misses")
        self._c_l2_prefetches = stats.counter("l2.prefetches")
        self._c_l2_writebacks = stats.counter("l2.writebacks")
        #: The shared MESI state machine both coherence backends drive
        #: (sharer sets, ownership, L1 state transitions, and the
        #: ``coherence.*`` counters) — see ``repro/mem/coherence.py``.
        self.book = CoherenceBook(stats)
        self.book.attach_l2(self.l2)
        self._c_l1_hits: Dict[int, Counter] = {}
        self._c_l1_misses: Dict[int, Counter] = {}
        self._c_l1_amos: Dict[int, Counter] = {}
        self._c_l1_prefetches: Dict[int, Counter] = {}
        self._c_l1_writebacks: Dict[int, Counter] = {}
        # ECC / poison model.  ``flip`` is the fault hook: called as
        # ``flip(addr) -> None | (nflips, leaf, bit)`` on every DRAM read
        # (``None`` keeps the path bit-identical).  With ECC armed a
        # single flip is corrected, a double flip poisons; with ECC off
        # every flip silently corrupts the data.
        self.ecc_enabled = config.ecc
        self.flip = None
        self._refetch_limit = config.poison_refetch_limit
        self._l2_poisoned: Set[int] = set()
        self._c_ecc_corrected = stats.counter("ecc.corrected")
        self._c_ecc_poisoned = stats.counter("ecc.poisoned")
        self._c_ecc_silent = stats.counter("ecc.silent")
        self._c_ecc_refetches = stats.counter("ecc.refetches")
        self._c_ecc_prefetch_drops = stats.counter("ecc.prefetch_drops")
        #: Optional home-node directory (``SoCConfig.directory=True``).
        #: When attached, store upgrades and dirty-forwards become real
        #: NoC message round trips instead of flat ``l2_latency`` charges;
        #: when ``None`` every path below is bit-identical to the legacy
        #: model.  See ``repro/mem/directory.py``.
        self.directory = None
        #: With ``SoCConfig.directory_mem_traffic`` armed, L2 refills and
        #: dirty writebacks ride the MEMORY NoC plane as real port
        #: messages through the directory's slice ports.
        self._mem_traffic = config.directory_mem_traffic
        self._l2_inflight: Dict[int, Signal] = {}
        self._l1_inflight: Dict[Tuple[int, int], Signal] = {}
        self._mmio: List[MMIORegion] = []
        self._mmio_floor: Optional[int] = None
        #: Called as listener(line_addr, was_prefetch) after every L2 fill
        #: from DRAM.  Memory-side prefetchers (DROPLET) hook here.
        self.l2_fill_listeners: List[Callable[[int, bool], None]] = []
        self._l2_prefetching: Set[int] = set()

    # -- construction -------------------------------------------------------

    def add_core(self, core_id: int) -> None:
        if core_id in self.l1s:
            raise ValueError(f"core {core_id} already has an L1")
        cfg = self.config
        self.l1s[core_id] = Cache(cfg.l1_size, cfg.l1_ways, cfg.line_size,
                                  name=f"l1.{core_id}")
        self.book.register_l1(core_id, self.l1s[core_id])
        self._c_l1_hits[core_id] = self.stats.counter(f"l1.{core_id}.hits")
        self._c_l1_misses[core_id] = self.stats.counter(f"l1.{core_id}.misses")
        self._c_l1_amos[core_id] = self.stats.counter(f"l1.{core_id}.amos")
        self._c_l1_prefetches[core_id] = self.stats.counter(
            f"l1.{core_id}.prefetches")
        self._c_l1_writebacks[core_id] = self.stats.counter(
            f"l1.{core_id}.writebacks")

    def attach_directory(self, directory) -> None:
        """Install the sliced-L2 home-node directory (built by the SoC
        when ``config.directory`` is set)."""
        self.directory = directory

    def register_mmio(self, region: MMIORegion) -> None:
        if region.end <= region.start:
            raise ValueError("empty MMIO region")
        for existing in self._mmio:
            if region.start < existing.end and existing.start < region.end:
                raise ValueError(f"MMIO region {region.name} overlaps {existing.name}")
        self._mmio.append(region)
        if self._mmio_floor is None or region.start < self._mmio_floor:
            self._mmio_floor = region.start

    def _mmio_region(self, paddr: int) -> Optional[MMIORegion]:
        if self._mmio_floor is None or paddr < self._mmio_floor:
            return None
        for region in self._mmio:
            if region.covers(paddr):
                return region
        return None

    def _line_of(self, paddr: int) -> int:
        return paddr & self._line_mask

    # -- port endpoints ------------------------------------------------------

    def connect_core_port(self, registry: PortRegistry, core_id: int,
                          tile: int) -> Port:
        """Wire the core↔memory seam for ``core_id``; returns the core's
        client port.

        Channel depth is 1 (the blocking execute slot) + MSHRs + store-
        buffer entries: every concurrent requester in the core model holds
        one of those resources first, so the bound is provably never the
        binding constraint and the port adds zero cycles.
        """
        cfg = self.config
        depth = 1 + cfg.core_mshrs + cfg.store_buffer_entries
        client = registry.port(f"core{core_id}.mem", tile=tile, depth=depth)
        server = registry.port(f"mem.core{core_id}", tile=tile)

        def handler(msg: Message):
            kind = msg.kind
            if kind == "load":
                return self.load(core_id, msg.payload)
            if kind == "store":
                paddr, value, apply = msg.payload
                return self.store(core_id, paddr, value, apply=apply)
            if kind == "amo":
                paddr, op = msg.payload
                return self.amo(core_id, paddr, op)
            if kind == "prefetch_fill":
                return self.prefetch_fill(core_id, msg.payload)
            if kind == "ptw_read":
                return self.load_llc(msg.payload)
            raise ValueError(f"core mem port: unknown request kind {kind!r}")

        def posts(kind: str, payload: Any) -> None:
            if kind == "write_word":
                paddr, value = payload
                self.mem.write_word(paddr, value)
                return None
            raise ValueError(f"core mem port: unknown post kind {kind!r}")

        def probes(kind: str, paddr: int):
            if kind == "is_uncacheable":
                return self.is_uncacheable(paddr)
            if kind == "l1_would_hit":
                return self.l1_would_hit(core_id, paddr)
            if kind == "l1_state":
                return self.l1s[core_id].state_of(self._line_of(paddr))
            raise ValueError(f"core mem port: unknown probe kind {kind!r}")

        server.bind(handler, posts=posts, probes=probes)
        registry.connect(client, server)
        return client

    def connect_device_port(self, registry: PortRegistry, name: str,
                            tile: int, depth: Optional[int] = None) -> Port:
        """Wire the memory seam for a device (MAPLE): coherent LLC loads,
        non-coherent DRAM word/line fetches, PTE reads, and LLC-prefetch
        posts.  Returns the device's client port."""
        client = registry.port(f"{name}.mem", tile=tile, depth=depth)
        server = registry.port(f"mem.{name}", tile=tile)

        def handler(msg: Message):
            kind = msg.kind
            if kind == "llc_load":
                return self.load_llc(msg.payload)
            if kind == "dram_load":
                return self.load_dram(msg.payload)
            if kind == "dram_line":
                return self.load_dram_line(msg.payload)
            if kind == "ptw_read":
                return self.load_llc(msg.payload)
            raise ValueError(f"device mem port: unknown request kind {kind!r}")

        def posts(kind: str, payload: Any) -> None:
            if kind == "l2_prefetch":
                self.prefetch_l2(payload)
                return None
            raise ValueError(f"device mem port: unknown post kind {kind!r}")

        server.bind(handler, posts=posts)
        registry.connect(client, server)
        return client

    def debug_state(self) -> Dict[str, Any]:
        """Liveness snapshot: outstanding DRAM transactions and pending
        cache fills (watchdog dumps)."""
        return {
            "dram_inflight": self.dram.inflight,
            "dram_waiting": self.dram.waiting,
            "l2_fills_inflight": sorted(self._l2_inflight),
            "l1_fills_inflight": sorted(self._l1_inflight),
            "l2_poisoned": sorted(self._l2_poisoned),
        }

    # -- core-facing accesses ------------------------------------------------

    def load(self, core_id: int, paddr: int):
        """Generator: a core's (physically-addressed) load. Returns the value."""
        region = self._mmio_region(paddr)
        if region is not None:
            value = yield from region.handler("load", paddr, None, core_id)
            return value
        line = paddr & self._line_mask
        l1 = self.l1s[core_id]
        yield self._l1_latency
        if l1.lookup(line):
            self._c_l1_hits[core_id].value += 1
        else:
            self._c_l1_misses[core_id].value += 1
            yield from self._l1_fill_clean(core_id, line)
        return self.mem.read_word(paddr)

    def store(self, core_id: int, paddr: int, value: Any, apply: bool = True):
        """Generator: a core's store (write-allocate, write-back).

        ``apply=False`` runs the timing/coherence path only — used by the
        store-buffer model, which makes the value architecturally visible
        at issue time and completes the cache work in the background.
        """
        region = self._mmio_region(paddr)
        if region is not None:
            result = yield from region.handler("store", paddr, value, core_id)
            return result
        line = paddr & self._line_mask
        l1 = self.l1s[core_id]
        yield self._l1_latency
        if l1.lookup(line):
            self._c_l1_hits[core_id].value += 1
        else:
            self._c_l1_misses[core_id].value += 1
            yield from self._l1_fill_clean(core_id, line)
        yield from self._upgrade_for_store(core_id, line)
        if l1.contains(line):
            self.book.store(core_id, line)
        if apply:
            self.mem.write_word(paddr, value)
        return None

    def is_uncacheable(self, paddr: int) -> bool:
        """Public predicate: True when ``paddr`` falls in a registered
        MMIO region (device-owned, bypasses the caches entirely)."""
        return self._mmio_region(paddr) is not None

    def amo(self, core_id: int, paddr: int, op: Callable[[Any], Any]):
        """Generator: atomic read-modify-write. Returns the old value.

        Atomicity holds because the functional update happens at a single
        point in simulated time (no yields between read and write).
        """
        line = paddr & self._line_mask
        yield self._l1_latency
        l1 = self.l1s[core_id]
        if l1.lookup(line):
            self._c_l1_hits[core_id].value += 1
        else:
            self._c_l1_misses[core_id].value += 1
            yield from self._l1_fill_clean(core_id, line)
        yield from self._upgrade_for_store(core_id, line)
        old = self.mem.read_word(paddr)
        self.mem.write_word(paddr, op(old))
        if l1.contains(line):
            self.book.store(core_id, line)
        self._c_l1_amos[core_id].value += 1
        return old

    def prefetch_fill(self, core_id: int, paddr: int):
        """Generator: fill a core's L1 for a software prefetch (the core
        wraps this in its MSHR discipline).  A poisoned fill is dropped —
        a speculative prefetch degrades to a future miss, never a wrong
        value (and never burns demand re-fetch budget)."""
        line = self._line_of(paddr)
        self._c_l1_prefetches[core_id].value += 1
        if not self.l1s[core_id].contains(line):
            yield from self._l1_fill(core_id, line)
            if line in self._l2_poisoned:
                self._c_ecc_prefetch_drops.value += 1
                self._drop_poisoned(line)

    def prefetch_l1(self, core_id: int, paddr: int) -> None:
        """Fire-and-forget software prefetch into a core's L1 (unbounded;
        cores apply their MSHR limit via :meth:`prefetch_fill`)."""
        self._sim.spawn(self.prefetch_fill(core_id, paddr), name="pf.l1")

    def l1_would_hit(self, core_id: int, paddr: int) -> bool:
        """Peek whether a load would hit the L1 (no LRU update)."""
        return self.l1s[core_id].contains(self._line_of(paddr))

    def prefetch_l2(self, paddr: int, on_complete: Optional[Callable[[], None]] = None
                    ) -> None:
        """Fire-and-forget prefetch into the shared LLC (LIMA speculative,
        DROPLET).  ``on_complete`` lets prefetchers track occupancy of
        their request queues."""
        line = self._line_of(paddr)
        self._c_l2_prefetches.value += 1

        def _run():
            try:
                if not self.l2.contains(line):
                    self._l2_prefetching.add(line)
                    try:
                        yield from self._ensure_l2(line)
                    finally:
                        self._l2_prefetching.discard(line)
                    if line in self._l2_poisoned:
                        self._c_ecc_prefetch_drops.value += 1
                        self._drop_poisoned(line)
            finally:
                if on_complete is not None:
                    on_complete()

        self._sim.spawn(_run(), name="pf.l2")

    # -- device-facing accesses (MAPLE) ---------------------------------------

    def load_llc(self, paddr: int):
        """Generator: cache-coherent device load through the shared L2.

        A poisoned fill is scrubbed and re-fetched up to the configured
        budget, then surfaces as a typed :class:`DataIntegrityError`.
        """
        line = self._line_of(paddr)
        for _ in range(self._refetch_limit + 1):
            yield from self._ensure_l2(line)
            if line not in self._l2_poisoned:
                return self.mem.read_word(paddr)
            self._c_ecc_refetches.value += 1
            self._drop_poisoned(line)
        self._poison_exhausted("llc", line)

    def load_dram(self, paddr: int):
        """Generator: non-coherent device load straight from DRAM.

        Returns the word, or a :class:`Poison` marker on an armed-ECC
        double-bit flip — the device decides whether to re-fetch.
        """
        line = self._line_of(paddr)
        yield from self.dram.access(line)
        value = self.mem.read_word(paddr)
        if self.flip is not None:
            value = self._filter_word(paddr, value)
        return value

    def load_dram_line(self, line_addr: int):
        """Generator: one full line from DRAM (LIMA's 64 B chunk fetch).

        Under an armed-ECC double-bit flip one word of the returned line
        is a :class:`Poison` marker; without ECC it is silently wrong.
        """
        yield from self.dram.access(line_addr)
        words = self.mem.read_line(line_addr, self.config.line_size)
        if self.flip is not None:
            fate = self.flip(line_addr)
            if fate is not None:
                nflips, leaf, bit = fate
                index = min(int(leaf * len(words)), len(words) - 1)
                if not self.ecc_enabled:
                    self._c_ecc_silent.value += 1
                    words[index] = corrupt_value(
                        words[index], (leaf * 7919.0) % 1.0, bit)
                elif nflips == 1:
                    self._c_ecc_corrected.value += 1
                else:
                    self._c_ecc_poisoned.value += 1
                    words[index] = Poison(line_addr + index * WORD_BYTES)
        return words

    # -- internals ------------------------------------------------------------

    def _filter_word(self, addr: int, value: Any) -> Any:
        """Apply the flip fate for one DRAM word read under the ECC policy."""
        fate = self.flip(addr)
        if fate is None:
            return value
        nflips, leaf, bit = fate
        if not self.ecc_enabled:
            self._c_ecc_silent.value += 1
            return corrupt_value(value, leaf, bit)
        if nflips == 1:
            self._c_ecc_corrected.value += 1
            return value
        self._c_ecc_poisoned.value += 1
        return Poison(addr)

    def _drop_poisoned(self, line: int) -> None:
        """Scrub a poisoned L2 line: invalidate it (recalling L1 copies,
        the inclusive discipline) so the next demand triggers a fresh
        DRAM read with a fresh flip fate."""
        self._l2_poisoned.discard(line)
        state = self.l2.invalidate(line)
        if state is not None:
            self._evict_l2_victim(line, state)

    def _poison_exhausted(self, component: str, line: int) -> None:
        raise DataIntegrityError(
            f"{component}: uncorrectable memory error on line {line:#x} "
            f"persisted across {self._refetch_limit + 1} fetch attempts",
            component=component, kind="dram_poison", addr=line,
            attempts=self._refetch_limit + 1)

    def _l1_fill_clean(self, core_id: int, line: int):
        """Demand-fill a core's L1, re-fetching past poisoned L2 fills up
        to the budget, then raising a typed error."""
        for _ in range(self._refetch_limit + 1):
            yield from self._l1_fill(core_id, line)
            if line not in self._l2_poisoned:
                return
            self._c_ecc_refetches.value += 1
            self._drop_poisoned(line)
        self._poison_exhausted(f"core{core_id}.l1", line)

    def _l1_fill(self, core_id: int, line: int):
        key = (core_id, line)
        pending = self._l1_inflight.get(key)
        if pending is not None:
            yield pending
            return
        signal = Signal(self._sim, name="l1fill")
        self._l1_inflight[key] = signal
        try:
            yield from self._snoop_dirty_elsewhere(core_id, line)
            yield from self._ensure_l2(line)
            victim = self.book.fill(core_id, line)
            if victim is not None and victim.state is LineState.MODIFIED:
                self._c_l1_writebacks[core_id].value += 1
                self.book.write_back(victim.line)
        finally:
            del self._l1_inflight[key]
            signal.fire()

    def _snoop_dirty_elsewhere(self, core_id: int, line: int):
        """If another L1 holds the line MODIFIED, pay a forwarding round
        trip.

        With a directory attached, the round trip is a real fetch/recall
        message exchange through the line's home tile; without one it is
        the legacy flat ``l2_latency`` charge.  The dirty-holder lookup
        is yield-free, so the directory-off event sequence is unchanged.
        """
        holder = self.book.dirty_holder(line, excluding=core_id)
        if holder is None:
            return
        if self.directory is not None:
            yield from self.directory.fetch(core_id, line)
            return
        yield self._l2_latency
        # The owner's copy is downgraded to shared-clean — unless it was
        # evicted/invalidated during the forwarding delay.  Its dirty
        # data lands in the shared L2 (the book marks it MODIFIED there).
        self.book.downgrade(holder, line)

    def _upgrade_for_store(self, core_id: int, line: int):
        """Invalidate other sharers before a store (directory upgrade)."""
        sharers = self.book.sharers_of(line)
        sole = not sharers or (core_id in sharers and len(sharers) == 1)
        if self.directory is not None:
            # Sole sharer: exclusivity is implied by the L1 state — the
            # directory grants silently, with no message, which keeps
            # single-core runs cycle-identical either way.  Not safe
            # while a home transaction for this line is mid-flight: a
            # silent dirty bit set behind an in-progress fan-out would
            # never be invalidated, so such stores take the message path
            # and serialize at the home like everyone else.
            directory = self.directory
            while True:
                if sole and not directory.has_pending(line):
                    directory.grant_silent(line, core_id)
                    return
                # Real upgrade round trip: requester -> home tile ->
                # parallel invalidations to every other sharer -> grant.
                granted = yield from directory.upgrade(core_id, line)
                # The store lands only under a live grant.  Ask again when
                # this grant was void but the line has been refilled since
                # (new sharers were never invalidated), or when another
                # core took ownership while the grant crossed the mesh.
                if not self.l1s[core_id].contains(line):
                    return
                if granted is not None and self.book.owner_of(line) in (
                        None, core_id):
                    return
                sharers = self.book.sharers_of(line)
                sole = not sharers or (core_id in sharers
                                       and len(sharers) == 1)
        if sole:
            return
        yield self._l2_latency
        # Re-read after the round trip: sharers may have changed.
        for other in self.book.sharers_of(line) - {core_id}:
            self.book.invalidate(other, line)

    def _ensure_l2(self, line: int):
        if self.l2.lookup(line):
            yield self._l2_latency
            self._c_l2_hits.value += 1
            return
        pending = self._l2_inflight.get(line)
        if pending is not None:
            self._c_l2_merged.value += 1
            yield pending
            return
        signal = Signal(self._sim, name="l2fill")
        self._l2_inflight[line] = signal
        try:
            self._c_l2_misses.value += 1
            yield self._l2_latency
            if self._mem_traffic and self.directory is not None:
                # The refill crosses the MEMORY NoC plane as a real port
                # message through the line's home slice (tap-visible,
                # fault-injectable); the DRAM access happens server-side.
                yield from self.directory.refill(line)
            else:
                yield from self.dram.access(line)
            if self.flip is not None:
                self._fill_flip(line)
            victim = self.l2.insert(line)
            if victim is not None:
                self._evict_l2_victim(victim.line, victim.state)
            was_prefetch = line in self._l2_prefetching
            for listener in self.l2_fill_listeners:
                listener(line, was_prefetch)
        finally:
            del self._l2_inflight[line]
            signal.fire()

    def _fill_flip(self, line: int) -> None:
        """Apply the flip fate for a coherent L2 fill from DRAM.

        With ECC off the hit word is corrupted *in backing memory* —
        silent corruption persists and flows into program results (what
        the negative-control oracle must catch).  With ECC on, a double
        flip marks the line poisoned for the demand paths to scrub.
        """
        fate = self.flip(line)
        if fate is None:
            return
        nflips, leaf, bit = fate
        if not self.ecc_enabled:
            self._c_ecc_silent.value += 1
            nwords = self.config.words_per_line
            addr = line + min(int(leaf * nwords), nwords - 1) * WORD_BYTES
            self.mem.write_word(addr, corrupt_value(
                self.mem.read_word(addr), (leaf * 7919.0) % 1.0, bit))
        elif nflips == 1:
            self._c_ecc_corrected.value += 1
        else:
            self._c_ecc_poisoned.value += 1
            self._l2_poisoned.add(line)

    def _evict_l2_victim(self, line: int, state: LineState) -> None:
        """Inclusive L2: an eviction recalls the line from every L1; a
        MODIFIED victim is written back to DRAM (a real MEMORY-plane
        message when ``directory_mem_traffic`` is armed)."""
        for core_id in self.book.sharers_of(line):
            self.book.invalidate(core_id, line, recall=True)
        if state is LineState.MODIFIED:
            self._c_l2_writebacks.value += 1
            if self._mem_traffic and self.directory is not None:
                self.directory.writeback_async(line)

    # -- directory-facing state (see repro/mem/directory.py) -----------------

    def sharers_of(self, line: int) -> Set[int]:
        """Cores currently holding ``line`` in their L1 (a copy)."""
        return self.book.sharers_of(line)
