"""The single-issue in-order core timing model.

One instruction at a time, blocking memory operations — the Ariane-class
baseline of Tables 2/3 (instruction window / ROB of 1).  The core owns a
16-entry TLB and a hardware page-table walker; faults trap into the OS and
retry.  Per-core statistics feed Figs. 10 (load counts) and 11 (average
load latency): every load-class instruction, including MMIO consumes from
MAPLE, lands in the same counters, exactly as the paper's hardware
counters measure.

All memory traffic — loads, stores, AMOs, software prefetches, and the
page-table walker's PTE reads — leaves the core through a single
:class:`~repro.sim.port.Port` into the memory system.  The core never
touches :class:`~repro.mem.hierarchy.MemorySystem` directly: uncacheable
(MMIO) checks and L1 peeks are zero-time port probes, functional store
data is a port post, and every timed access is a port transaction, so one
telemetry tap sees the core's whole memory-side behavior.  Loads, stores
and PTE reads call the seam's lowered handlers (see :mod:`repro.sim.port`):
while the seam is unarmed they run the same probes, posts and transaction
on the same tap in one frame below the core's own; armed, they are the
port calls themselves.  A store's issue is one synchronous call: the
uncacheable probe, then either the value's post or a MAPLE produce's
access, which the core runs as it runs a consume.
"""

from __future__ import annotations

from typing import Generator

from repro.cpu.isa import Alu, Amo, Load, Prefetch, Spin, Store, Sync
from repro.params import SoCConfig
from repro.sim import Port, Semaphore, Simulator
from repro.sim.stats import Stats
from repro.vm.os_model import AddressSpace, SimOS
from repro.vm.ptw import PageTableWalker, TranslationFault
from repro.vm.tlb import Tlb


class Thread:
    """A software thread: a program generator bound to an address space."""

    def __init__(self, program: Generator, aspace: AddressSpace, name: str = "thread"):
        self.program = program
        self.aspace = aspace
        self.name = name


class Core:
    """One in-order core at a mesh tile."""

    def __init__(self, core_id: int, tile_id: int, sim: Simulator,
                 mem_port: Port, os: SimOS, config: SoCConfig,
                 stats: Stats):
        self.core_id = core_id
        self.tile_id = tile_id
        self._sim = sim
        self._mem_port = mem_port
        self._os = os
        self.config = config
        self.stats = stats.scoped(f"core{core_id}")
        # Pre-resolved stat handles for the per-instruction hot path.
        self._c_instructions = self.stats.counter("instructions")
        self._c_alu_ops = self.stats.counter("alu_ops")
        self._c_loads = self.stats.counter("loads")
        self._c_stores = self.stats.counter("stores")
        self._c_prefetches = self.stats.counter("prefetches")
        self._c_amos = self.stats.counter("amos")
        self._c_syncs = self.stats.counter("syncs")
        self._h_load_latency = self.stats.histogram("load_latency")
        self.tlb = Tlb(config.core_tlb_entries, self.stats, name=f"tlb{core_id}")
        self._ptw = PageTableWalker(mem_port, self.stats, name=f"ptw{core_id}")
        #: Outstanding-L1-miss budget shared by demand loads and software
        #: prefetches (Ariane's blocking cache: 1).
        self._mshrs = Semaphore(sim, config.core_mshrs, name=f"mshr{core_id}")
        self._store_buffer = Semaphore(sim, config.store_buffer_entries,
                                       name=f"stb{core_id}")
        # Spawn names, built once (stores/prefetches spawn per instruction).
        self._stb_name = f"core{core_id}.stb"
        self._prefetch_name = f"core{core_id}.prefetch"
        # The seam's lowered load, store and store issue (see
        # repro.sim.port).
        self._mem_load = mem_port.lowered("load")
        self._mem_store = mem_port.lowered("store")
        self._store_issue = mem_port.lowered("store_issue")
        os.register_tlb(self.tlb)

    def run(self, thread: Thread):
        """Spawn the thread on this core; returns the sim Process handle."""
        return self._sim.spawn(self._execute(thread), name=f"core{self.core_id}.{thread.name}")

    # -- execution loop ------------------------------------------------------

    def _execute(self, thread: Thread):
        # Loads, ALU ops, stores and software polls — nearly every
        # instruction a slice issues — dispatch inline on their exact
        # class, with no per-instruction generator; everything else goes
        # to _perform.
        # A TLB-hit load on the unarmed seam runs the seam's lowered load
        # directly in this frame's chain (see _load).
        send = thread.program.send
        aspace = thread.aspace
        instructions = self._c_instructions
        alu_ops = self._c_alu_ops
        sim = self._sim
        load_latency = self._h_load_latency
        to_send = None
        while True:
            try:
                inst = send(to_send)
            except StopIteration as stop:
                return stop.value
            kind = inst.__class__
            if kind is Load:
                instructions.value += 1
                start = sim._now
                to_send = yield from self._load(inst.vaddr, aspace)
                load_latency.add(sim._now - start)
            elif kind is Alu:
                instructions.value += 1
                alu_ops.value += 1
                yield inst.cycles
                to_send = None
            elif kind is Store:
                instructions.value += 1
                yield from self._do_store(inst.vaddr, inst.value, aspace)
                to_send = None
            elif kind is Spin:
                # A software poll: each iteration is a Load and, until the
                # value exceeds `above`, an Alu(backoff), counted and
                # charged exactly as those two instructions are.
                load = self._load
                vaddr = inst.vaddr
                above = inst.above
                backoff = inst.backoff
                while True:
                    instructions.value += 1
                    start = sim._now
                    to_send = yield from load(vaddr, aspace)
                    load_latency.add(sim._now - start)
                    if to_send > above:
                        break
                    instructions.value += 1
                    alu_ops.value += 1
                    yield backoff
            else:
                to_send = yield from self._perform(inst, aspace)

    def _perform(self, inst, aspace: AddressSpace):
        # Exact-class dispatch for the rarer instruction kinds, then the
        # raw simulation waits a hardware-model backend blocks a thread on.
        kind = inst.__class__
        if kind is Prefetch:
            self._c_instructions.value += 1
            self._c_prefetches.value += 1
            paddr = yield from self._translate(aspace, inst.vaddr)
            self._sim.spawn(self._prefetch_through_mshr(paddr),
                            name=self._prefetch_name)
            yield 1  # issue slot
            return None
        if kind is Amo:
            self._c_instructions.value += 1
            self._c_amos.value += 1
            paddr = yield from self._translate(aspace, inst.vaddr)
            old = yield from self._mem_port.request("amo", (paddr, inst.op))
            return old
        if kind is Sync:
            self._c_instructions.value += 1
            self._c_syncs.value += 1
            yield from inst.barrier.wait()
            return None
        if isinstance(inst, int) or hasattr(inst, "_add_waiter") or hasattr(inst, "_add_joiner"):
            # A raw simulation wait (delay / Signal / Process join) from a
            # hardware-model backend the thread is blocked on: the core
            # stalls until it resolves. Not an architectural instruction.
            result = yield inst
            return result
        raise TypeError(f"core {self.core_id}: unknown instruction {inst!r}")

    def _load(self, vaddr: int, aspace: AddressSpace):
        """The generator of one load: the seam's lowered load (probes,
        MSHR, transaction and L1 access in one frame while the seam is
        unarmed).  TLB-hit translations are synchronous, so only a miss
        pays for a generator of the core's own (the walk, then the
        access)."""
        self._c_loads.value += 1
        hit = self.tlb.translate(vaddr)
        if hit is None:
            return self._walk_then_load(vaddr, aspace)
        return self._mem_load(hit[0], self._mshrs)

    def _walk_then_load(self, vaddr: int, aspace: AddressSpace):
        paddr = yield from self._translate_miss(aspace, vaddr)
        return (yield from self._mem_load(paddr, self._mshrs))

    def _do_store(self, vaddr: int, value, aspace: AddressSpace):
        """The generator of one store, plain or fenced — the single retire
        path.  The seam's store issue makes a plain store's value visible
        at once and hands back a MAPLE produce's access, which this
        returns as it is: a produce runs no deeper than a consume.  Only
        a TLB miss pays for a generator of the core's own."""
        self._c_stores.value += 1
        hit = self.tlb.translate(vaddr)
        if hit is None:
            return self._walk_then_store(vaddr, value, aspace)
        paddr = hit[0]
        # MMIO stores (MAPLE produces) are synchronous: the store retires
        # only once the device acknowledges it (§3.6).
        produce = self._store_issue(paddr, value)
        if produce is not None:
            return produce
        return self._retire_to_store_buffer(paddr, value)

    def _walk_then_store(self, vaddr: int, value, aspace: AddressSpace):
        paddr = yield from self._translate_miss(aspace, vaddr)
        produce = self._store_issue(paddr, value)
        if produce is not None:
            yield from produce
        else:
            yield from self._retire_to_store_buffer(paddr, value)

    def _retire_to_store_buffer(self, paddr: int, value):
        # Ordinary stores retire into the store buffer: the value is
        # architecturally visible now; cache/coherence work completes
        # in the background, stalling only when the buffer is full.
        if not self._store_buffer.try_acquire():
            yield from self._store_buffer.acquire()
        self._sim.spawn(self._drain_store(paddr, value), name=self._stb_name)
        yield 1

    def _drain_store(self, paddr: int, value):
        try:
            yield from self._mem_store(paddr, value)
        finally:
            self._store_buffer.release()

    def _prefetch_through_mshr(self, paddr: int):
        if not self._mshrs.try_acquire():
            yield from self._mshrs.acquire()
        try:
            yield from self._mem_port.request("prefetch_fill", paddr)
        finally:
            self._mshrs.release()

    # -- MMU -------------------------------------------------------------------

    def _translate(self, aspace: AddressSpace, vaddr: int):
        """Generator: TLB hit is free (folded into L1 latency); a miss
        walks; a fault traps to the OS and the walk retries.

        The retry loops rather than running once: with page eviction in
        play (fault injection) the page can be evicted *again* between
        the handler mapping it and the retry walk reading the PTE —
        hardware simply re-traps.  An invalid access still terminates:
        ``handle_fault`` raises SegmentationFault.  A pathological
        evict/fault livelock is the watchdog's to catch, not a hang.
        """
        hit = self.tlb.translate(vaddr)
        if hit is not None:
            return hit[0]
        return (yield from self._translate_miss(aspace, vaddr))

    def _translate_miss(self, aspace: AddressSpace, vaddr: int):
        """Generator: the walk/retry path after a TLB miss has already
        been looked up (and counted) by the caller."""
        while True:
            try:
                paddr, flags = yield from self._ptw.walk(aspace.root_paddr,
                                                         vaddr)
                break
            except TranslationFault:
                yield from self._os.handle_fault(aspace, vaddr)  # may raise
        self.tlb.insert(vaddr, paddr & ~(self.config.page_size - 1), flags)
        return paddr
