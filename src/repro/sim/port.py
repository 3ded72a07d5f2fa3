"""Typed Port/Message protocol layer for cross-component traffic.

Every seam in the SoC model — core↔memory hierarchy, core↔MMIO devices
(MAPLE), device↔memory, page-table walks — is carried by a :class:`Port`
pair wired through a :class:`PortRegistry`.  A port pair gives every seam
the same three things:

- **A typed message protocol.**  Each transaction is a request/response
  :class:`Message` carrying source/destination tile, a payload, and a
  monotonically assigned transaction id, so traces are self-describing
  and ordering is checkable.

- **Backpressure.**  A bounded channel depth: once ``depth`` transactions
  are outstanding, the next sender *yields* until a response frees a slot
  (strict FIFO, built on the simulation :class:`~repro.sim.signal.Semaphore`'s
  direct handoff).  SoC wiring chooses depths at least as large as the
  upstream resource bounds (MSHRs + store-buffer entries for a core,
  MAPLE's in-flight fetch limit for the device), so the protocol layer
  adds zero cycles unless a seam is deliberately narrowed.

- **A telemetry tap.**  Per-port counters (requests, responses, posts,
  probes, stalls, retransmits, dup-drops, CRC errors, per-kind
  breakdown) plus an optional bounded ring buffer of ``(cycle, port,
  msg_kind, txn, phase)`` trace events, exportable as Chrome-trace JSON
  by ``tools/trace_export.py``.

- **Optional reliable delivery.**  A port built with ``reliable=True``
  runs every request through a link-level retry protocol: the transaction
  id doubles as the sequence number, payloads carry a CRC, a lost or
  corrupted transfer is detected (checksum mismatch at the receiver, ack
  timeout at the sender) and retransmitted with exponential backoff, and
  a bounded receive window suppresses duplicates so a handler's side
  effects execute exactly once.  When the retry budget is exhausted the
  request raises a typed :class:`DeliveryError` instead of silently
  losing data.  The machinery only engages when a channel fault hook is
  installed (:class:`repro.sim.faults.FaultInjector`); on a fault-free
  run a reliable port takes the exact same code path — and therefore the
  exact same yield sequence — as an unreliable one, which is what keeps
  ``reliable=True`` bit-identical under the differential-fuzz and
  Fig. 14 gates.

Timing honesty: the port layer itself never charges cycles.  Latency
lives in the connected *links* (for example the NoC transport returned by
:meth:`repro.noc.network.Network.link`) and in the bound service
handlers — exactly where the modeled hardware pays it.  That is what
keeps the refactor bit-identical to the pre-port model: the yield
sequence of a transaction is the links' and the handler's, nothing more.
The reliable-delivery path adds cycles only for the timeouts and
retransmissions a *fault* actually caused.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.signal import Semaphore, Signal

#: One trace record: (cycle, port name, message kind, txn id, phase).
#: Phases: "req" / "done" / "err" on the requesting port, "recv" / "resp"
#: on the serving port, "post" and "probe" for the synchronous paths.
TraceEvent = Tuple[int, str, str, int, str]

#: Default ring-buffer capacity when tracing is enabled.
DEFAULT_TRACE_DEPTH = 1 << 16

#: Receive-window depth for reliable ports: how many served transactions
#: the receiver remembers (txn -> result) to suppress duplicates.  Must
#: exceed any port's channel depth so an in-flight txn is never evicted.
RECV_WINDOW = 256


class DataIntegrityError(RuntimeError):
    """Detected-but-unrecoverable data corruption.

    Raised when poison (or a checksum-flagged payload) reaches a consumer
    that has no way left to re-fetch the clean value — the loud, typed
    alternative to silently computing on a flipped bit.  ``component``
    names the detecting component (a port, queue, or memory path),
    ``kind`` the operation, ``addr`` the implicated address or slot.

    ``diagnosis``/``dump_path`` are attached by the harness (the same
    structured-dump plumbing the liveness watchdog uses).
    """

    def __init__(self, message: str, *, component: Optional[str] = None,
                 kind: Optional[str] = None, addr: Optional[int] = None,
                 attempts: Optional[int] = None):
        self.component = component
        self.kind = kind
        self.addr = addr
        self.attempts = attempts
        self.diagnosis: Optional[Dict[str, Any]] = None
        self.dump_path: Optional[str] = None
        super().__init__(message)

    def describe(self) -> Dict[str, Any]:
        """Structured, JSON-able record of the failure (for dumps)."""
        return {
            "error": type(self).__name__,
            "message": str(self),
            "component": self.component,
            "kind": self.kind,
            "addr": self.addr,
            "attempts": self.attempts,
        }


class DeliveryError(DataIntegrityError):
    """A reliable port exhausted its retransmission budget.

    Every attempt was dropped or corrupted en route; rather than lose the
    transaction silently (or block forever, as an unprotected port
    would), the sender fails loudly with the port, kind, and attempt
    count attached.
    """


def _payload_crc(value: Any) -> int:
    """The modeled per-message checksum: CRC-32 over a canonical
    rendering of the payload.  Used by reliable ports to *detect*
    corruption — a mangled payload whose rendering is unchanged (i.e. no
    effective corruption) passes, everything else is caught."""
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


class QuiescenceError(RuntimeError):
    """A port still had transactions in flight when quiescence was asserted.

    ``busy`` maps each offending port name to the sorted tuple of its
    outstanding transaction ids, so a leaked transaction is immediately
    attributable to a seam (and, via the port trace, to a cycle).
    """

    def __init__(self, busy: Dict[str, Tuple[int, ...]]):
        self.busy = dict(busy)
        detail = ", ".join(
            f"{name} (txns {', '.join(f'#{t}' for t in txns)})"
            for name, txns in sorted(self.busy.items()))
        super().__init__(
            f"ports still have transactions in flight: {detail}")


class Message:
    """One transaction on a port pair.

    ``kind`` names the operation ("load", "mmio_store", "dram_line", ...);
    ``src``/``dst`` are mesh tile ids (-1 when a side is not tile-mapped);
    ``txn`` is assigned monotonically by the issuing port.
    """

    __slots__ = ("kind", "src", "dst", "payload", "txn")

    def __init__(self, kind: str, src: int, dst: int, payload: Any = None,
                 txn: int = -1):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        self.txn = txn

    def response(self, payload: Any) -> "Message":
        """The paired response record: same txn, reversed direction."""
        return Message(self.kind + ".resp", self.dst, self.src, payload, self.txn)

    def __repr__(self) -> str:
        return f"<Message #{self.txn} {self.kind} {self.src}->{self.dst}>"


class PortTap:
    """Telemetry for one port: always-on counters, optional trace ring."""

    __slots__ = ("requests", "responses", "served", "posts", "probes",
                 "stalls", "errors", "retransmits", "dup_dropped",
                 "crc_errors", "by_kind", "trace")

    def __init__(self) -> None:
        self.trace: Optional[Deque[TraceEvent]] = None
        self.reset()

    def reset(self) -> None:
        """Zero every counter; an enabled trace ring is cleared, not removed."""
        self.requests = 0
        self.responses = 0
        self.served = 0
        self.posts = 0
        self.probes = 0
        self.stalls = 0
        self.errors = 0
        #: Reliable-delivery telemetry: transmissions repeated after a
        #: timeout, duplicates suppressed by the receive window, and
        #: transfers rejected by the payload checksum.
        self.retransmits = 0
        self.dup_dropped = 0
        self.crc_errors = 0
        self.by_kind: Dict[str, int] = {}
        if self.trace is not None:
            self.trace.clear()

    def enable_trace(self, limit: int = DEFAULT_TRACE_DEPTH) -> None:
        self.trace = deque(maxlen=limit)

    def count(self, kind: str) -> None:
        by_kind = self.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        """A flat, picklable dump (mirrors Stats.snapshot conventions)."""
        return {
            "requests": self.requests,
            "responses": self.responses,
            "served": self.served,
            "posts": self.posts,
            "probes": self.probes,
            "stalls": self.stalls,
            "errors": self.errors,
            "retransmits": self.retransmits,
            "dup_dropped": self.dup_dropped,
            "crc_errors": self.crc_errors,
            "by_kind": dict(self.by_kind),
        }


class Port:
    """One endpoint of a seam.

    A *client* port issues :meth:`request` / :meth:`post` / :meth:`probe`
    toward its connected peer; a *server* port :meth:`bind`\\ s the service
    handlers.  Either side taps its own traffic.
    """

    def __init__(self, sim, name: str, tile: int = -1,
                 depth: Optional[int] = None, reliable: bool = False,
                 retry_timeout: int = 64, max_retries: int = 8,
                 retry_backoff: int = 4):
        self._sim = sim
        self.name = name
        self.tile = tile
        self.depth = depth
        self.tap = PortTap()
        self.peer: Optional["Port"] = None
        #: Transactions issued by this port that have not completed.
        self.outstanding = 0
        #: Their transaction ids (diagnosable from a watchdog dump).
        self.outstanding_txns: set = set()
        #: Busy-port index this port reports 0<->1 ``outstanding``
        #: transitions to.  A standalone port owns a private set; a
        #: registry-created port shares the registry's set, which keeps
        #: drain()/quiescence checks O(busy ports), flat in total port
        #: count (a 16x16 mesh wires >1000 mostly-idle ports).
        self._busy_index: set = set()
        #: Fault-injection hook: ``inject(port, msg) -> extra_cycles``.
        #: ``None`` (the default) is the zero-overhead, bit-identical path;
        #: :class:`repro.sim.faults.FaultInjector` installs it per plan.
        self.inject: Optional[Callable[["Port", Message], int]] = None
        #: Channel-fault hook: ``channel(port, msg, leg, attempt)`` returns
        #: ``None`` (clean transfer) or a ``("drop"|"dup"|"corrupt", ...)``
        #: verdict for one traversal of the ``"req"`` or ``"resp"`` leg.
        #: ``None`` (the default) keeps request() on the exact fast path,
        #: so an armed-but-faultless run stays bit-identical even with
        #: ``reliable=True``.
        self.channel: Optional[Callable[["Port", Message, str, int], Any]] = None
        #: Reliable-delivery knobs (see the module docstring).  With
        #: ``reliable=False`` a faulty channel is survived by nobody:
        #: drops hang, corruption silently delivers, duplicates re-run.
        self.reliable = reliable
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        #: Server-side receive window: txn -> cached handler result, so a
        #: retransmitted request never re-runs side effects.
        self._recv_seen: "OrderedDict[int, Any]" = OrderedDict()
        self._next_txn = 0
        self._credits = (Semaphore(sim, depth, name=f"{name}.credits")
                         if depth is not None else None)
        self._handler: Optional[Callable[[Message], Any]] = None
        self._post_handler: Optional[Callable[[str, Any], Any]] = None
        self._probe_handler: Optional[Callable[[str, Any], Any]] = None
        self._request_link = None
        self._response_link = None

    def __repr__(self) -> str:
        peer = self.peer.name if self.peer is not None else None
        return f"<Port {self.name} tile={self.tile} peer={peer}>"

    # -- wiring ------------------------------------------------------------

    def bind(self, handler: Callable[[Message], Any],
             posts: Optional[Callable[[str, Any], Any]] = None,
             probes: Optional[Callable[[str, Any], Any]] = None) -> None:
        """Install the service side: ``handler(msg)`` is a generator (or
        returns one) whose return value answers the request; ``posts`` and
        ``probes`` are synchronous ``f(kind, payload)`` callables."""
        self._handler = handler
        self._post_handler = posts
        self._probe_handler = probes

    def connect(self, peer: "Port", request_link=None, response_link=None) -> None:
        """Pair this (client) port with ``peer`` (server).

        ``request_link(msg)`` / ``response_link(msg)`` are optional
        generator functions charging transport latency in each direction
        (e.g. the NoC planes); with no links the transaction is a direct
        timed call into the peer's handler.
        """
        if self.peer is not None or peer.peer is not None:
            raise ValueError(f"port {self.name} or {peer.name} already connected")
        self.peer = peer
        peer.peer = self
        self._request_link = request_link
        self._response_link = response_link

    # -- transactions ------------------------------------------------------

    def request(self, kind: str, payload: Any = None,
                src: Optional[int] = None, dst: Optional[int] = None):
        """Generator: one request/response transaction with the peer.

        Blocks (yields) while the channel is at depth; otherwise adds no
        simulated time beyond the links and the peer's handler.  Returns
        the handler's return value.
        """
        peer = self.peer
        if peer is None or peer._handler is None:
            raise RuntimeError(f"port {self.name}: request on an unbound port")
        txn = self._next_txn
        self._next_txn = txn + 1
        msg = Message(kind, self.tile if src is None else src,
                      peer.tile if dst is None else dst, payload, txn)
        tap = self.tap
        tap.requests += 1
        by_kind = tap.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        # Credit check with the semaphore's uncontended path inlined
        # (request() runs once per transaction; the method calls showed
        # up in the mix profile).
        credits = self._credits
        if credits is not None:
            if credits._waiters or credits._available == 0:
                tap.stalls += 1
                yield from credits.acquire()
            else:
                credits._available -= 1
        out = self.outstanding
        self.outstanding = out + 1
        if not out:
            self._busy_index.add(self)
        self.outstanding_txns.add(txn)
        trace = tap.trace
        if trace is not None:
            trace.append((self._sim.now, self.name, kind, txn, "req"))
        try:
            inject = self.inject
            if inject is not None:
                extra = inject(self, msg)
                if extra:
                    yield extra
            if self.channel is None:
                # Fast path — the only path ever taken on a fault-free
                # run, reliable or not (the bit-identity contract).
                if self._request_link is not None:
                    yield from self._request_link(msg)
                peer_tap = peer.tap
                peer_tap.served += 1
                peer_trace = peer_tap.trace
                if peer_trace is not None:
                    peer_trace.append(
                        (self._sim.now, peer.name, kind, txn, "recv"))
                result = yield from peer._handler(msg)
                if peer_trace is not None:
                    peer_trace.append(
                        (self._sim.now, peer.name, kind, txn, "resp"))
                if self._response_link is not None:
                    yield from self._response_link(msg.response(result))
            elif self.reliable:
                result = yield from self._reliable_exchange(peer, msg)
            else:
                result = yield from self._raw_exchange(peer, msg)
            if trace is not None:
                trace.append((self._sim.now, self.name, kind, txn, "done"))
            tap.responses += 1
            return result
        except BaseException:
            tap.errors += 1
            if trace is not None:
                trace.append((self._sim.now, self.name, kind, txn, "err"))
            raise
        finally:
            out = self.outstanding - 1
            self.outstanding = out
            if not out:
                self._busy_index.discard(self)
            self.outstanding_txns.discard(txn)
            if credits is not None:
                # Uncontended release inlined; a queued waiter gets the
                # unit by direct handoff exactly as Semaphore.release.
                if credits._waiters:
                    credits._waiters.popleft().fire()
                else:
                    credits._available += 1

    # -- faulty-channel delivery ------------------------------------------------

    def _reliable_exchange(self, peer: "Port", msg: Message):
        """Generator: one transaction under the link-retry protocol.

        Each attempt pays the normal link latencies; a loss (drop, or a
        transfer the checksum rejects) additionally costs the ack timeout
        plus exponential backoff before the retransmission.  The txn id
        doubles as the sequence number: the receive window makes
        redelivery idempotent, so handler side effects run exactly once
        no matter how many copies of the request arrive.
        """
        channel = self.channel
        tap = self.tap
        trace = tap.trace
        kind, txn = msg.kind, msg.txn
        sent_crc = _payload_crc(msg.payload)
        window = peer._recv_seen
        attempt = 0
        while True:
            if attempt > self.max_retries:
                window.pop(txn, None)
                raise DeliveryError(
                    f"port {self.name}: txn #{txn} ({kind}) undeliverable "
                    f"after {attempt - 1} retransmission(s)",
                    component=self.name, kind=kind, attempts=attempt)
            if attempt:
                tap.retransmits += 1
                if trace is not None:
                    trace.append((self._sim.now, self.name, kind, txn,
                                  "rexmit"))
            fate = channel(self, msg, "req", attempt)
            action = fate[0] if fate is not None else None
            if self._request_link is not None:
                yield from self._request_link(msg)
            if action == "drop":
                yield from self._ack_timeout(attempt)
                attempt += 1
                continue
            if action == "corrupt":
                # The wire mangled the payload; the receiver's checksum
                # rejects the transfer (no ack) unless the mangling had
                # no effect on the rendered payload.
                if _payload_crc(fate[1](msg.payload)) != sent_crc:
                    peer.tap.crc_errors += 1
                    yield from self._ack_timeout(attempt)
                    attempt += 1
                    continue
            peer_tap = peer.tap
            if txn in window:
                # Retransmit of an already-served request (its response
                # was lost): re-answer from the window, no side effects.
                peer_tap.dup_dropped += 1
                result = window[txn]
            else:
                peer_tap.served += 1
                peer_trace = peer_tap.trace
                if peer_trace is not None:
                    peer_trace.append(
                        (self._sim.now, peer.name, kind, txn, "recv"))
                result = yield from peer._handler(msg)
                if peer_trace is not None:
                    peer_trace.append(
                        (self._sim.now, peer.name, kind, txn, "resp"))
                window[txn] = result
                while len(window) > RECV_WINDOW:
                    window.popitem(last=False)
            if action == "dup":
                # The wire delivered a second copy; the window kills it.
                peer_tap.dup_dropped += 1
            fate = channel(self, msg, "resp", attempt)
            action = fate[0] if fate is not None else None
            if self._response_link is not None:
                yield from self._response_link(msg.response(result))
            if action == "drop":
                yield from self._ack_timeout(attempt)
                attempt += 1
                continue
            if action == "corrupt":
                if _payload_crc(fate[1](result)) != _payload_crc(result):
                    tap.crc_errors += 1
                    yield from self._ack_timeout(attempt)
                    attempt += 1
                    continue
            if action == "dup":
                # Duplicate response: its sequence number marks it as
                # already consumed; the client discards it.
                tap.dup_dropped += 1
            window.pop(txn, None)
            return result

    def _ack_timeout(self, attempt: int):
        """Generator: the sender's wait before retransmission number
        ``attempt + 1`` — base timeout plus capped exponential backoff."""
        yield self.retry_timeout + self.retry_backoff * (1 << min(attempt, 10))

    def _raw_exchange(self, peer: "Port", msg: Message):
        """Generator: a faulty channel with NO protection (the negative
        control).  A dropped transfer blocks forever — the handshake
        never completes, and the deadlock diagnosis or quiescence audit
        names this port.  A corrupted transfer silently delivers the
        mangled value (only the kernel's golden-output oracle can tell).
        A duplicated request re-runs the handler, duplicating its side
        effects."""
        channel = self.channel
        kind, txn = msg.kind, msg.txn
        fate = channel(self, msg, "req", 0)
        action = fate[0] if fate is not None else None
        if self._request_link is not None:
            yield from self._request_link(msg)
        if action == "drop":
            yield Signal(self._sim, name=f"{self.name}.lost_req#{txn}")
            raise AssertionError("lost request completed")  # pragma: no cover
        if action == "corrupt":
            msg = Message(kind, msg.src, msg.dst, fate[1](msg.payload), txn)
        peer_tap = peer.tap
        result = None
        for _ in range(2 if action == "dup" else 1):
            peer_tap.served += 1
            peer_trace = peer_tap.trace
            if peer_trace is not None:
                peer_trace.append((self._sim.now, peer.name, kind, txn, "recv"))
            result = yield from peer._handler(msg)
            if peer_trace is not None:
                peer_trace.append((self._sim.now, peer.name, kind, txn, "resp"))
        fate = channel(self, msg, "resp", 0)
        action = fate[0] if fate is not None else None
        if self._response_link is not None:
            yield from self._response_link(msg.response(result))
        if action == "drop":
            yield Signal(self._sim, name=f"{self.name}.lost_resp#{txn}")
            raise AssertionError("lost response completed")  # pragma: no cover
        if action == "corrupt":
            result = fate[1](result)
        return result

    def post(self, kind: str, payload: Any = None) -> Any:
        """Fire-and-forget command: counted and traced here, executed
        synchronously by the peer (no simulated time at the port)."""
        peer = self.peer
        if peer is None or peer._post_handler is None:
            raise RuntimeError(f"port {self.name}: post on an unbound port")
        tap = self.tap
        tap.posts += 1
        by_kind = tap.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        txn = self._next_txn
        self._next_txn = txn + 1
        trace = tap.trace
        if trace is not None:
            trace.append((self._sim.now, self.name, kind, txn, "post"))
        return peer._post_handler(kind, payload)

    def probe(self, kind: str, payload: Any = None) -> Any:
        """Zero-time query answered combinationally by the peer (cache
        peek, uncacheable-range check, ...)."""
        peer = self.peer
        if peer is None or peer._probe_handler is None:
            raise RuntimeError(f"port {self.name}: probe on an unbound port")
        tap = self.tap
        tap.probes += 1
        trace = tap.trace
        if trace is not None:
            trace.append((self._sim.now, self.name, kind, -1, "probe"))
        return peer._probe_handler(kind, payload)


class PortRegistry:
    """Every port of one SoC instance: wiring plus a reset/drain lifecycle.

    ``reset()`` clears telemetry between measurement phases; ``drain()``
    asserts quiescence (no transaction left in flight) — the SoC calls it
    after every run, turning a leaked transaction into a loud failure
    instead of a silently wrong trace.
    """

    def __init__(self, sim):
        self._sim = sim
        self.ports: List[Port] = []
        self._by_name: Dict[str, Port] = {}
        self._reliability: Dict[str, Any] = {}
        #: Ports with outstanding transactions right now.  Ports insert/
        #: remove themselves on 0<->1 transitions, so quiescence checks
        #: cost O(busy), not O(total ports) — flat as the mesh scales.
        self._busy_ports: set = set()

    def configure_reliability(self, reliable: bool, retry_timeout: int = 64,
                              max_retries: int = 8,
                              retry_backoff: int = 4) -> None:
        """Set the delivery mode every port created *after* this call
        gets (the SoC builder calls it before wiring any seam).  With
        ``reliable=True`` every seam runs the retry protocol when a
        channel fault hook is armed; fault-free timing is unchanged."""
        self._reliability = {
            "reliable": reliable,
            "retry_timeout": retry_timeout,
            "max_retries": max_retries,
            "retry_backoff": retry_backoff,
        }

    def port(self, name: str, tile: int = -1,
             depth: Optional[int] = None) -> Port:
        if name in self._by_name:
            raise ValueError(f"duplicate port name {name!r}")
        port = Port(self._sim, name, tile=tile, depth=depth,
                    **self._reliability)
        port._busy_index = self._busy_ports
        self.ports.append(port)
        self._by_name[name] = port
        return port

    def __getitem__(self, name: str) -> Port:
        return self._by_name[name]

    def connect(self, client: Port, server: Port,
                request_link=None, response_link=None) -> None:
        client.connect(server, request_link=request_link,
                       response_link=response_link)

    # -- lifecycle ---------------------------------------------------------

    def _busy(self) -> Dict[str, Tuple[int, ...]]:
        return {p.name: tuple(sorted(p.outstanding_txns))
                for p in sorted(self._busy_ports, key=lambda p: p.name)
                if p.outstanding}

    def drain(self) -> None:
        """Raise :class:`QuiescenceError` unless every port is quiescent,
        naming each busy port and its outstanding transaction ids."""
        busy = self._busy()
        if busy:
            raise QuiescenceError(busy)

    def reset(self) -> None:
        """Clear all telemetry (counters and traces); requires quiescence."""
        self.drain()
        for port in self.ports:
            port.tap.reset()

    # -- telemetry ---------------------------------------------------------

    def enable_tracing(self, limit: int = DEFAULT_TRACE_DEPTH) -> None:
        for port in self.ports:
            port.tap.enable_trace(limit)

    def telemetry(self) -> Dict[str, Dict[str, Any]]:
        """Per-port counter snapshot, keyed by port name."""
        return {port.name: port.tap.snapshot() for port in self.ports}

    def debug_state(self, trace_tail: int = 8) -> Dict[str, Dict[str, Any]]:
        """Liveness-oriented snapshot of every port (watchdog dumps).

        Includes what :meth:`telemetry` does not: in-flight transaction
        ids, credit occupancy/waiters, and the tail of the trace ring (the
        last ``trace_tail`` events) when tracing is enabled.
        """
        state: Dict[str, Dict[str, Any]] = {}
        for port in self.ports:
            credits = port._credits
            entry: Dict[str, Any] = {
                "outstanding": port.outstanding,
                "txns": sorted(port.outstanding_txns),
                "requests": port.tap.requests,
                "responses": port.tap.responses,
            }
            if credits is not None:
                entry["credits_in_use"] = credits.in_use
                entry["credit_waiters"] = credits.waiting
            trace = port.tap.trace
            if trace is not None:
                entry["trace_tail"] = list(trace)[-trace_tail:]
            state[port.name] = entry
        return state

    def trace_events(self) -> List[TraceEvent]:
        """All ports' trace rings merged, sorted by cycle (stable within
        a port, deterministic across ports by registration order)."""
        merged: List[TraceEvent] = []
        for port in self.ports:
            if port.tap.trace is not None:
                merged.extend(port.tap.trace)
        merged.sort(key=lambda event: event[0])
        return merged
