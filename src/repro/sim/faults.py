"""Seeded, replayable fault injection for the full SoC stack.

The paper's robustness story — decoupling survives queue-full pressure,
TLB shootdowns, page faults, and OS noise without deadlocking or
corrupting results (§3.3 deadlock freedom, §3.5 MMU co-design, §4 OS
events) — is exercised here by *injecting* those events into otherwise
healthy runs:

- :class:`PortDelayFault` — random extra latency on matching Port
  transactions (NoC congestion, arbitration jitter).  Aimed at MAPLE's
  MMIO ports it delays consume acks so producers outrun consumers and
  queues run full (queue-full pressure).
- :class:`DramBurstFault` — bursty DRAM: time is cut into windows and a
  seeded hash marks some windows "bursty", adding a fixed penalty to
  every access inside them (row-buffer storms, refresh).
- :class:`ShootdownFault` — periodic forced TLB shootdowns of hot pages,
  broadcast to core TLBs *and* MAPLE's MMU.
- :class:`PageEvictFault` — periodic soft page eviction: a resident data
  page is unmapped as if swapped out, so the next touch (core or MAPLE
  walker) takes the full fault path mid-kernel; the OS restores the same
  frame, so contents survive.
- :class:`PreemptFault` — spurious preemptions: a randomly chosen core
  pays a context-switch penalty on its next memory request.

The data-integrity fault domain adds *corruption* on top of timing and
OS noise:

- :class:`PortDropFault` / :class:`PortDuplicateFault` /
  :class:`PortCorruptFault` — lossy-link faults on matching Port
  transactions: a traversal of the request or response leg is dropped,
  delivered twice, or has one payload bit flipped.  Reliable ports
  (``reliable=True``) detect and retransmit; unprotected ports hang,
  re-run side effects, or silently deliver the mangled value.
- :class:`DramBitFlipFault` — per-read DRAM bit flips (single or
  double).  With ECC armed, single flips are corrected and double flips
  poison the data; without ECC every flip is silent.
- :class:`QueueSlotFlipFault` — periodic bit flips in valid MAPLE
  scratchpad slots (the SRAM analogue), under the same ECC policy.

Everything is driven by one integer seed.  A :class:`FaultPlan` is a
frozen, picklable value object; installing the same plan on the same
configuration replays the exact same fault sequence, because per-port
RNG streams are derived from ``(seed, port name)`` and burst windows
from ``(seed, window index)`` — independent of event interleaving — and
the simulator itself is deterministic.

With no plan installed every hook stays ``None`` and the timing path is
bit-identical to a fault-free build (checked by the differential fuzz
gate).
"""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.port import Message, Port

#: Hash scale for window/probability decisions: crc32 of the key, mapped
#: into [0, 1) by dividing by 2**32.
_HASH_SCALE = float(1 << 32)


def _keyed_fraction(*parts: Any) -> float:
    """Deterministic hash of ``parts`` mapped into [0, 1).

    Unlike :func:`hash`, this is stable across processes (no string-hash
    randomization), which the orchestrator's parallel == serial guarantee
    depends on.
    """
    key = "\x1f".join(str(part) for part in parts).encode()
    return zlib.crc32(key) / _HASH_SCALE


def corrupt_value(value: Any, leaf_fraction: float, bit_fraction: float) -> Any:
    """Flip one bit of one numeric leaf of ``value``, deterministically.

    ``leaf_fraction`` picks which leaf of a tuple/list payload is hit,
    ``bit_fraction`` which bit of it.  Integers flip a low-order-to-62nd
    bit; floats flip one bit of their IEEE-754 image (possibly yielding
    inf/nan — real bit flips do).  Values with no numeric leaf pass
    through unchanged (the corruption physically hit dead bits)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << int(bit_fraction * 63))
    if isinstance(value, float):
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
        bits ^= 1 << int(bit_fraction * 64)
        return struct.unpack("<d", struct.pack("<Q", bits))[0]
    if isinstance(value, (tuple, list)):
        items = list(value)
        hittable = [i for i, item in enumerate(items)
                    if isinstance(item, (bool, int, float, tuple, list))
                    or hasattr(item, "item")]
        if not hittable:
            return value
        index = hittable[min(int(leaf_fraction * len(hittable)),
                             len(hittable) - 1)]
        items[index] = corrupt_value(items[index],
                                     (leaf_fraction * 7919.0) % 1.0,
                                     bit_fraction)
        return tuple(items) if isinstance(value, tuple) else items
    if hasattr(value, "item"):  # numpy scalar
        return corrupt_value(value.item(), leaf_fraction, bit_fraction)
    return value


@dataclass(frozen=True)
class PortDelayFault:
    """Random extra cycles on matching port transactions."""

    port_pattern: str = "*"
    kind_pattern: str = "*"
    rate: float = 0.05       # probability a matching transaction is hit
    min_cycles: int = 1
    max_cycles: int = 100

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if not 0 < self.min_cycles <= self.max_cycles:
            raise ValueError("need 0 < min_cycles <= max_cycles")


@dataclass(frozen=True)
class DramBurstFault:
    """Bursty DRAM latency: some time windows pay ``extra`` cycles."""

    period: int = 5000       # window length in cycles
    rate: float = 0.3        # fraction of windows that are bursty
    extra: int = 200         # penalty per access inside a bursty window

    def __post_init__(self):
        if self.period < 1 or self.extra < 1:
            raise ValueError("period and extra must be positive")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")


@dataclass(frozen=True)
class ShootdownFault:
    """Forced TLB shootdown of a random mapped page every ``cycles``."""

    cycles: int = 10000

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("shootdown interval must be positive")


@dataclass(frozen=True)
class PageEvictFault:
    """Soft-evict a random resident page every ``cycles`` (swap model)."""

    cycles: int = 20000

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("eviction interval must be positive")


@dataclass(frozen=True)
class PreemptFault:
    """A random core pays a context-switch ``cost`` every ``cycles``."""

    cycles: int = 15000
    cost: int = 2000

    def __post_init__(self):
        if self.cycles < 1 or self.cost < 1:
            raise ValueError("preemption interval and cost must be positive")


_CHANNEL_LEGS = ("req", "resp", "both")


@dataclass(frozen=True)
class PortDropFault:
    """Matching port transfers are lost in flight at ``rate``."""

    port_pattern: str = "*"
    kind_pattern: str = "*"
    rate: float = 0.02
    leg: str = "both"        # which traversal can be lost: req/resp/both

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.leg not in _CHANNEL_LEGS:
            raise ValueError(f"leg {self.leg!r} not in {_CHANNEL_LEGS}")


@dataclass(frozen=True)
class PortDuplicateFault:
    """Matching port transfers are delivered twice at ``rate``."""

    port_pattern: str = "*"
    kind_pattern: str = "*"
    rate: float = 0.02
    leg: str = "both"

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.leg not in _CHANNEL_LEGS:
            raise ValueError(f"leg {self.leg!r} not in {_CHANNEL_LEGS}")


@dataclass(frozen=True)
class PortCorruptFault:
    """One payload bit of matching port transfers flips at ``rate``."""

    port_pattern: str = "*"
    kind_pattern: str = "*"
    rate: float = 0.02
    leg: str = "both"

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.leg not in _CHANNEL_LEGS:
            raise ValueError(f"leg {self.leg!r} not in {_CHANNEL_LEGS}")


@dataclass(frozen=True)
class DramBitFlipFault:
    """Each DRAM read flips bits at ``rate``; a ``double_rate`` fraction
    of hits are double-bit flips (uncorrectable under SECDED)."""

    rate: float = 0.001
    double_rate: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if not 0.0 <= self.double_rate <= 1.0:
            raise ValueError(f"double_rate {self.double_rate} outside [0, 1]")


@dataclass(frozen=True)
class QueueSlotFlipFault:
    """Every ``cycles``, flip bits in one valid scratchpad slot; a
    ``double_rate`` fraction of hits are double-bit flips."""

    cycles: int = 10000
    double_rate: float = 0.25

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("queue-flip interval must be positive")
        if not 0.0 <= self.double_rate <= 1.0:
            raise ValueError(f"double_rate {self.double_rate} outside [0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of every fault to inject.

    Frozen and built from primitives, so plans hash, pickle (across the
    orchestrator's worker processes), and compare by value.
    """

    seed: int = 0
    port_delays: Tuple[PortDelayFault, ...] = ()
    dram_burst: Optional[DramBurstFault] = None
    shootdown: Optional[ShootdownFault] = None
    evict: Optional[PageEvictFault] = None
    preempt: Optional[PreemptFault] = None
    # Data-integrity fault domain (all default-off, so existing plans —
    # including every FaultPlan.random drawn by the PR-4 sweep — are
    # corruption-free and replay unchanged).
    port_drops: Tuple[PortDropFault, ...] = ()
    port_dups: Tuple[PortDuplicateFault, ...] = ()
    port_corrupts: Tuple[PortCorruptFault, ...] = ()
    dram_flips: Optional[DramBitFlipFault] = None
    queue_flips: Optional[QueueSlotFlipFault] = None

    def is_empty(self) -> bool:
        return not (self.port_delays or self.dram_burst or self.shootdown
                    or self.evict or self.preempt or self.port_drops
                    or self.port_dups or self.port_corrupts
                    or self.dram_flips or self.queue_flips)

    def stable_dict(self) -> Dict[str, Any]:
        """JSON-able form with deterministic content (cache keys)."""
        return asdict(self)

    def describe(self) -> str:
        parts: List[str] = [f"seed={self.seed}"]
        for fault in self.port_delays:
            parts.append(
                f"delay[{fault.port_pattern}/{fault.kind_pattern} "
                f"p={fault.rate:g} {fault.min_cycles}-{fault.max_cycles}cyc]")
        if self.dram_burst:
            parts.append(f"dram[{self.dram_burst.period}cyc windows "
                         f"p={self.dram_burst.rate:g} "
                         f"+{self.dram_burst.extra}cyc]")
        if self.shootdown:
            parts.append(f"shootdown[every {self.shootdown.cycles}cyc]")
        if self.evict:
            parts.append(f"evict[every {self.evict.cycles}cyc]")
        if self.preempt:
            parts.append(f"preempt[every {self.preempt.cycles}cyc "
                         f"cost={self.preempt.cost}]")
        for fault in self.port_drops:
            parts.append(f"drop[{fault.port_pattern}/{fault.kind_pattern} "
                         f"p={fault.rate:g} {fault.leg}]")
        for fault in self.port_dups:
            parts.append(f"dup[{fault.port_pattern}/{fault.kind_pattern} "
                         f"p={fault.rate:g} {fault.leg}]")
        for fault in self.port_corrupts:
            parts.append(f"corrupt[{fault.port_pattern}/{fault.kind_pattern} "
                         f"p={fault.rate:g} {fault.leg}]")
        if self.dram_flips:
            parts.append(f"dramflip[p={self.dram_flips.rate:g} "
                         f"double={self.dram_flips.double_rate:g}]")
        if self.queue_flips:
            parts.append(f"queueflip[every {self.queue_flips.cycles}cyc "
                         f"double={self.queue_flips.double_rate:g}]")
        return " ".join(parts)

    @classmethod
    def random(cls, seed: int) -> "FaultPlan":
        """A random mix of faults, fully determined by ``seed``."""
        rng = random.Random(seed ^ 0x5EED_FA17)
        port_delays = []
        for _ in range(rng.randint(1, 3)):
            lo = rng.randint(1, 50)
            port_delays.append(PortDelayFault(
                port_pattern=rng.choice(
                    ["*", "core*.mem", "maple*.mem",
                     "maple*.mmio.dispatch"]),
                kind_pattern=rng.choice(
                    ["*", "mmio_*", "mmio_load", "dram_load", "ptw_read",
                     "load", "store"]),
                rate=rng.uniform(0.01, 0.2),
                min_cycles=lo,
                max_cycles=lo + rng.randint(0, 350),
            ))
        dram = shoot = evict = preempt = None
        if rng.random() < 0.5:
            dram = DramBurstFault(period=rng.randint(2000, 20000),
                                  rate=rng.uniform(0.1, 0.6),
                                  extra=rng.randint(50, 400))
        if rng.random() < 0.4:
            shoot = ShootdownFault(cycles=rng.randint(3000, 30000))
        if rng.random() < 0.4:
            evict = PageEvictFault(cycles=rng.randint(5000, 50000))
        if rng.random() < 0.4:
            preempt = PreemptFault(cycles=rng.randint(4000, 40000),
                                   cost=rng.randint(500, 5000))
        return cls(seed=seed, port_delays=tuple(port_delays),
                   dram_burst=dram, shootdown=shoot, evict=evict,
                   preempt=preempt)

    @classmethod
    def random_integrity(cls, seed: int,
                         recoverable_only: bool = False) -> "FaultPlan":
        """A random data-integrity plan, fully determined by ``seed``.

        Always injects at least one corruption kind.  With
        ``recoverable_only`` the draw is restricted to faults the armed
        stack survives deterministically: lossy-link faults on reliable
        ports and single-bit (ECC-correctable) flips.  The full draw also
        admits double-bit flips, whose poison the stack must either
        recover from (re-fetch) or convert into a typed error.
        """
        rng = random.Random(seed ^ 0x1D1E_6B17)
        port_patterns = ["*", "core*.mem", "maple*.mem",
                         "maple*.mmio.dispatch", "lima*.mem"]
        kind_patterns = ["*", "mmio_*", "dram_*", "llc_load", "load",
                         "store", "ptw_read"]
        legs = ["req", "resp", "both"]
        drops: List[PortDropFault] = []
        dups: List[PortDuplicateFault] = []
        corrupts: List[PortCorruptFault] = []
        dram = queue = None
        while not (drops or dups or corrupts or dram or queue):
            if rng.random() < 0.5:
                drops.append(PortDropFault(
                    port_pattern=rng.choice(port_patterns),
                    kind_pattern=rng.choice(kind_patterns),
                    rate=rng.uniform(0.005, 0.08),
                    leg=rng.choice(legs)))
            if rng.random() < 0.4:
                dups.append(PortDuplicateFault(
                    port_pattern=rng.choice(port_patterns),
                    kind_pattern=rng.choice(kind_patterns),
                    rate=rng.uniform(0.005, 0.08),
                    leg=rng.choice(legs)))
            if rng.random() < 0.5:
                corrupts.append(PortCorruptFault(
                    port_pattern=rng.choice(port_patterns),
                    kind_pattern=rng.choice(kind_patterns),
                    rate=rng.uniform(0.005, 0.08),
                    leg=rng.choice(legs)))
            if rng.random() < 0.4:
                dram = DramBitFlipFault(
                    rate=rng.uniform(0.0005, 0.01),
                    double_rate=0.0 if recoverable_only
                    else rng.uniform(0.0, 0.5))
            if rng.random() < 0.3:
                queue = QueueSlotFlipFault(
                    cycles=rng.randint(500, 8000),
                    double_rate=0.0 if recoverable_only
                    else rng.uniform(0.0, 0.7))
        return cls(seed=seed, port_drops=tuple(drops), port_dups=tuple(dups),
                   port_corrupts=tuple(corrupts), dram_flips=dram,
                   queue_flips=queue)


class FaultInjector:
    """Installs a :class:`FaultPlan` on a built SoC and logs every hit.

    ``soc`` is duck-typed (needs ``sim``, ``ports``, ``memsys``, ``os``,
    ``cores``); ``aspace`` is the process whose pages shootdowns and
    evictions target.  :meth:`install` arms the hooks; :meth:`finish`
    removes them and swaps evicted pages back in so functional result
    checks see a fully resident address space.
    """

    def __init__(self, soc, aspace, plan: FaultPlan):
        self._soc = soc
        self._aspace = aspace
        self.plan = plan
        #: ``(cycle, kind, detail)`` log of every fault that actually hit.
        self.events: List[Tuple[int, str, str]] = []
        self._installed = False
        self._stopped = False
        self._hooked_ports: List[Port] = []
        self._channel_ports: List[Port] = []
        #: core port name -> pending context-switch cost.
        self._pending_preempts: Dict[str, int] = {}
        #: word address -> number of DRAM reads seen (flip-fate keying).
        self._flip_counts: Dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------------

    def install(self) -> "FaultInjector":
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        self._soc.fault_injector = self
        plan = self.plan
        for port in self._soc.ports.ports:
            hook = self._build_port_hook(port)
            if hook is not None:
                if port.inject is not None:
                    raise RuntimeError(f"port {port.name} already has an "
                                       "injection hook")
                port.inject = hook
                self._hooked_ports.append(port)
            channel = self._build_channel_hook(port)
            if channel is not None:
                if port.channel is not None:
                    raise RuntimeError(f"port {port.name} already has a "
                                       "channel fault hook")
                port.channel = channel
                self._channel_ports.append(port)
        if plan.dram_burst is not None:
            self._soc.memsys.dram.inject = self._dram_inject
        if plan.dram_flips is not None:
            self._soc.memsys.flip = self._dram_flip
        if plan.queue_flips is not None:
            self._start_ticker("queue_flip", plan.queue_flips.cycles,
                               self._do_queue_flip)
        if plan.shootdown is not None:
            self._start_ticker("shootdown", plan.shootdown.cycles,
                               self._do_shootdown)
        if plan.evict is not None:
            self._start_ticker("evict", plan.evict.cycles, self._do_evict)
        if plan.preempt is not None:
            self._start_ticker("preempt", plan.preempt.cycles,
                               self._do_preempt)
        return self

    def finish(self) -> int:
        """Disarm all hooks; returns the number of pages swapped back in."""
        self._stopped = True
        for port in self._hooked_ports:
            port.inject = None
        self._hooked_ports.clear()
        for port in self._channel_ports:
            port.channel = None
        self._channel_ports.clear()
        if self.plan.dram_burst is not None:
            self._soc.memsys.dram.inject = None
        if self.plan.dram_flips is not None:
            self._soc.memsys.flip = None
        restored = self._soc.os.restore_evicted()
        if restored:
            self.events.append((self._soc.sim.now, "restore",
                                f"{restored} pages swapped back in"))
        return restored

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.finish()

    # -- port delays + preemption ---------------------------------------------

    def _build_port_hook(self, port: Port):
        """Compose the delay faults (and preemption tax) hitting ``port``."""
        matching = [fault for fault in self.plan.port_delays
                    if fnmatchcase(port.name, fault.port_pattern)]
        preemptable = (self.plan.preempt is not None
                       and port.name.startswith("core")
                       and port.name.endswith(".mem"))
        if not matching and not preemptable:
            return None
        # One private stream per (plan seed, port): delay draws on one
        # port never perturb another port's sequence.
        rng = random.Random(f"{self.plan.seed}:{port.name}")
        events = self.events
        sim = self._soc.sim
        pending = self._pending_preempts
        name = port.name

        def inject(port: Port, msg: Message) -> int:
            extra = 0
            if preemptable:
                cost = pending.pop(name, 0)
                if cost:
                    extra += cost
                    events.append((sim.now, "preempt",
                                   f"{name} pays {cost} cycles"))
            for fault in matching:
                if (fnmatchcase(msg.kind, fault.kind_pattern)
                        and rng.random() < fault.rate):
                    delay = rng.randint(fault.min_cycles, fault.max_cycles)
                    extra += delay
                    events.append((sim.now, "port_delay",
                                   f"{name}/{msg.kind} txn#{msg.txn} "
                                   f"+{delay} cycles"))
            return extra

        return inject

    # -- lossy-link channel faults ----------------------------------------------

    def _build_channel_hook(self, port: Port):
        """Compose the drop/duplicate/corrupt faults hitting ``port``.

        Returns a ``channel(port, msg, leg, attempt)`` verdict hook for
        the port layer, or ``None`` when no lossy-link fault matches —
        leaving ``port.channel`` unset keeps the fault-free fast path
        (and its bit-identical timing) intact.
        """
        plan = self.plan
        drops = [fault for fault in plan.port_drops
                 if fnmatchcase(port.name, fault.port_pattern)]
        corrupts = [fault for fault in plan.port_corrupts
                    if fnmatchcase(port.name, fault.port_pattern)]
        dups = [fault for fault in plan.port_dups
                if fnmatchcase(port.name, fault.port_pattern)]
        if not (drops or corrupts or dups):
            return None
        # A private stream per (plan seed, port), disjoint from the delay
        # stream, so arming delays never reshuffles corruption fates.
        rng = random.Random(f"{plan.seed}:chan:{port.name}")
        events = self.events
        sim = self._soc.sim
        name = port.name

        def channel(port: Port, msg: Message, leg: str, attempt: int):
            for fault in drops:
                if (fault.leg in ("both", leg)
                        and fnmatchcase(msg.kind, fault.kind_pattern)
                        and rng.random() < fault.rate):
                    events.append((sim.now, "port_drop",
                                   f"{name}/{msg.kind} txn#{msg.txn} "
                                   f"{leg} attempt={attempt}"))
                    return ("drop",)
            for fault in corrupts:
                if (fault.leg in ("both", leg)
                        and fnmatchcase(msg.kind, fault.kind_pattern)
                        and rng.random() < fault.rate):
                    leaf, bit = rng.random(), rng.random()
                    events.append((sim.now, "port_corrupt",
                                   f"{name}/{msg.kind} txn#{msg.txn} "
                                   f"{leg} attempt={attempt} "
                                   f"leaf={leaf:.4f} bit={bit:.4f}"))
                    return ("corrupt",
                            lambda value, _l=leaf, _b=bit:
                            corrupt_value(value, _l, _b))
            for fault in dups:
                if (fault.leg in ("both", leg)
                        and fnmatchcase(msg.kind, fault.kind_pattern)
                        and rng.random() < fault.rate):
                    events.append((sim.now, "port_dup",
                                   f"{name}/{msg.kind} txn#{msg.txn} "
                                   f"{leg} attempt={attempt}"))
                    return ("dup",)
            return None

        return channel

    # -- DRAM bursts ------------------------------------------------------------

    def _dram_inject(self, line_addr: int, write: bool) -> int:
        burst = self.plan.dram_burst
        window = self._soc.sim.now // burst.period
        # The window's fate is a pure function of (seed, window): no
        # matter how accesses interleave, replay sees the same bursts.
        if _keyed_fraction("dram", self.plan.seed, window) < burst.rate:
            self.events.append((self._soc.sim.now, "dram_burst",
                                f"line {line_addr:#x} +{burst.extra} cycles"))
            return burst.extra
        return 0

    # -- DRAM bit flips ---------------------------------------------------------

    def _dram_flip(self, addr: int) -> Optional[Tuple[int, float, float]]:
        """Flip fate for the nth DRAM read of word ``addr``.

        Returns ``None`` (clean) or ``(nflips, leaf, bit)`` for the
        memory system to apply under its ECC policy.  The fate is a pure
        function of (seed, address, per-address read count), so replay is
        exact *and* a poisoned-line re-fetch can legitimately observe a
        clean second read — the retry path stays both deterministic and
        survivable.
        """
        flips = self.plan.dram_flips
        count = self._flip_counts.get(addr, 0) + 1
        self._flip_counts[addr] = count
        seed = self.plan.seed
        if _keyed_fraction("dramflip", seed, addr, count) >= flips.rate:
            return None
        double = (_keyed_fraction("dramflip2", seed, addr, count)
                  < flips.double_rate)
        nflips = 2 if double else 1
        leaf = _keyed_fraction("dramflipleaf", seed, addr, count)
        bit = _keyed_fraction("dramflipbit", seed, addr, count)
        self.events.append((self._soc.sim.now, "dram_flip",
                            f"word {addr:#x} read#{count} x{nflips}"))
        return (nflips, leaf, bit)

    # -- periodic OS-event tickers -----------------------------------------------

    def _start_ticker(self, name: str, period: int, action) -> None:
        """Fire ``action`` every ``period`` cycles while the run is live.

        The tick re-arms only while *model* events remain (utility ticks
        — its own, other tickers', the watchdog's — excluded), so a
        finished or deadlocked simulation is never kept alive by the
        injector itself.
        """
        sim = self._soc.sim
        tick_index = [0]

        def tick():
            sim.utility_ticks -= 1
            if self._stopped:
                return
            tick_index[0] += 1
            action(tick_index[0])
            if getattr(sim, "model_events", 0) > 0:
                sim.utility_ticks += 1
                sim.schedule(period, tick)

        sim.utility_ticks += 1
        sim.schedule(period, tick)

    def _do_shootdown(self, tick: int) -> None:
        vaddr = self._pick_data_page("shootdown", tick)
        if vaddr is None:
            return
        self._soc.os.shootdown(vaddr)
        self.events.append((self._soc.sim.now, "shootdown",
                            f"page {vaddr:#x}"))

    def _do_evict(self, tick: int) -> None:
        vaddr = self._pick_data_page("evict", tick, resident=True)
        if vaddr is None:
            return
        if self._soc.os.evict_page(self._aspace, vaddr):
            self.events.append((self._soc.sim.now, "evict",
                                f"page {vaddr:#x}"))

    def _do_preempt(self, tick: int) -> None:
        cores = self._soc.cores
        if not cores:
            return
        index = int(_keyed_fraction("preempt", self.plan.seed, tick)
                    * len(cores))
        self._pending_preempts[f"core{cores[index].core_id}.mem"] = \
            self.plan.preempt.cost

    def _do_queue_flip(self, tick: int) -> None:
        flips = self.plan.queue_flips
        candidates = []
        for maple in getattr(self._soc, "maples", ()):
            for queue in maple.scratchpad.queues:
                for index in queue.filled_slots():
                    candidates.append((queue, index))
        if not candidates:
            return
        seed = self.plan.seed
        fraction = _keyed_fraction("queueflip", seed, tick)
        queue, index = candidates[int(fraction * len(candidates))]
        double = _keyed_fraction("queueflip2", seed, tick) < flips.double_rate
        leaf = _keyed_fraction("queueflipleaf", seed, tick)
        bit = _keyed_fraction("queueflipbit", seed, tick)
        outcome = queue.corrupt_slot(index, 2 if double else 1, leaf, bit)
        self.events.append((self._soc.sim.now, "queue_flip",
                            f"queue {queue.queue_id} slot {index} "
                            f"x{2 if double else 1} -> {outcome}"))

    def _pick_data_page(self, stream: str, tick: int,
                        resident: bool = False) -> Optional[int]:
        """A deterministic page choice from the process's data VMAs.

        Device (MMIO) mappings are never touched — evicting MAPLE's page
        would model unplugging the device, not an OS event.
        """
        os = self._soc.os
        pages: List[int] = []
        page_size = os.config.page_size
        for vma in self._aspace.vmas:
            start_paddr = self._aspace.page_table.lookup(vma.start)
            if start_paddr is not None and start_paddr >= os.MMIO_BASE:
                continue
            pages.extend(range(vma.start, vma.end, page_size))
        if not pages:
            return None
        fraction = _keyed_fraction(stream, self.plan.seed, tick)
        index = int(fraction * len(pages))
        if not resident:
            return pages[index]
        # Walk forward until a resident page turns up (bounded scan).
        for offset in range(len(pages)):
            vaddr = pages[(index + offset) % len(pages)]
            paddr = self._aspace.page_table.lookup(vaddr)
            if paddr is not None and paddr < os.MMIO_BASE:
                return vaddr
        return None
