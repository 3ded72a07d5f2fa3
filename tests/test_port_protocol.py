"""Unit suite for the repro.sim.port protocol layer.

Pins the three protocol guarantees the seam refactor rides on:
bounded-depth backpressure (a sender at channel depth yields until a
response frees a slot), monotonic transaction ids, and well-ordered
trace events — plus the registry's reset/drain lifecycle, the
synchronous post/probe paths and the ``begin``/``end`` entry the
lowered seams share with ``request``.
"""

import pytest

from repro.params import FPGA_CONFIG
from repro.sim import Signal, Simulator
from repro.sim.port import Message, PortRegistry


def make_pair(sim, depth=None, handler=None):
    registry = PortRegistry(sim)
    client = registry.port("client", tile=0, depth=depth)
    server = registry.port("server", tile=1)
    if handler is None:
        def handler(msg):
            yield 5
            return msg.payload
    server.bind(handler)
    registry.connect(client, server)
    return registry, client, server


def test_request_response_returns_handler_value_with_handler_timing():
    sim = Simulator()
    _, client, _ = make_pair(sim)
    out = []

    def proc():
        value = yield from client.request("echo", 21)
        out.append((value, sim.now))

    sim.spawn(proc())
    sim.run()
    assert out == [(21, 5)]
    assert client.tap.requests == client.tap.responses == 1
    assert client.tap.by_kind == {"echo": 1}


def test_message_records_carry_src_dst_payload_txn():
    sim = Simulator()
    seen = []

    def handler(msg):
        seen.append((msg.kind, msg.src, msg.dst, msg.payload, msg.txn))
        yield 1
        return None

    _, client, _ = make_pair(sim, handler=handler)
    sim.spawn(client.request("op", "data"))
    sim.run()
    assert seen == [("op", 0, 1, "data", 0)]
    resp = Message("op", 0, 1, "data", 0).response("result")
    assert (resp.kind, resp.src, resp.dst, resp.payload, resp.txn) == (
        "op.resp", 1, 0, "result", 0)


def test_txn_ids_assigned_monotonically_across_concurrent_senders():
    sim = Simulator()
    seen = []

    def handler(msg):
        seen.append(msg.txn)
        yield 7  # overlap the transactions
        return None

    _, client, _ = make_pair(sim, handler=handler)

    def sender(delay):
        yield delay
        yield from client.request("op", delay)

    for delay in (0, 1, 2, 3):
        sim.spawn(sender(delay))
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert all(b > a for a, b in zip(seen, seen[1:]))


def test_bounded_depth_backpressures_third_sender():
    sim = Simulator()
    holds = []

    def handler(msg):
        signal = Signal(sim, name=f"hold{msg.txn}")
        holds.append(signal)
        yield signal
        return msg.txn

    registry, client, server = make_pair(sim, depth=2, handler=handler)
    done = []

    def sender(tag):
        result = yield from client.request("op", tag)
        done.append((tag, result, sim.now))

    for tag in ("a", "b", "c"):
        sim.spawn(sender(tag))
    sim.run()
    # Two transactions occupy the channel; the third sender stalled.
    assert len(holds) == 2
    assert server.tap.served == 2
    assert client.tap.stalls == 1
    assert client.outstanding == 2

    holds[0].fire()  # completing one admits the stalled sender
    sim.run()
    assert len(holds) == 3
    assert done == [("a", 0, 0)]
    for hold in holds[1:]:
        hold.fire()
    sim.run()
    assert [tag for tag, _, _ in done] == ["a", "b", "c"]
    registry.drain()  # all complete: quiescent


def test_depth_one_serializes_transactions():
    sim = Simulator()
    _, client, _ = make_pair(sim, depth=1)
    ends = []

    def sender():
        yield from client.request("op")
        ends.append(sim.now)

    sim.spawn(sender())
    sim.spawn(sender())
    sim.run()
    # Handler charges 5 cycles; the second sender waits for the first.
    assert ends == [5, 10]
    assert client.tap.stalls == 1


def test_begin_opens_only_unarmed_seams_with_a_free_credit():
    """Port.begin is the lowered paths' entry to the bookkeeping request
    keeps: it books a transaction exactly as request does, and refuses —
    counting nothing — at depth, with an injection hook, or traced."""
    sim = Simulator()
    registry, client, server = make_pair(sim, depth=1)
    txn = client.begin("op")
    assert txn == 0
    assert (client.outstanding, client.tap.requests) == (1, 1)
    assert client.tap.by_kind == {"op": 1}
    assert client.begin("op") is None  # the one credit is held
    client.end()
    assert (client.outstanding, client.tap.responses) == (0, 1)
    registry.drain()

    client.inject = lambda port, msg: 0
    assert client.begin("op") is None
    client.inject = None
    server.tap.enable_trace()
    assert client.begin("op") is None
    assert client.tap.requests == 1
    assert client._next_txn == 1


def test_unsaturated_channel_adds_no_cycles():
    sim = Simulator()

    def handler(msg):
        return msg.payload
        yield  # pragma: no cover - makes the handler a generator

    _, client, _ = make_pair(sim, depth=4, handler=handler)
    out = []

    def proc():
        for i in range(3):
            out.append((yield from client.request("op", i)))

    sim.spawn(proc())
    sim.run()
    assert out == [0, 1, 2]
    assert sim.now == 0  # zero-latency handler, zero port overhead
    assert client.tap.stalls == 0


def test_trace_events_ordered_with_matched_phases():
    sim = Simulator()
    registry, client, server = make_pair(sim)
    registry.enable_tracing()
    sim.spawn(client.request("op", 1))
    sim.spawn(client.request("op", 2))
    sim.run()

    events = registry.trace_events()
    cycles = [event[0] for event in events]
    assert cycles == sorted(cycles)
    for txn in (0, 1):
        phases = {phase: cycle for cycle, port, kind, t, phase in events
                  if t == txn}
        assert set(phases) == {"req", "recv", "resp", "done"}
        assert (phases["req"] <= phases["recv"]
                <= phases["resp"] <= phases["done"])


def test_errors_propagate_release_credits_and_are_counted():
    sim = Simulator()

    def handler(msg):
        yield 2
        raise ValueError("device fault")

    registry, client, _ = make_pair(sim, depth=1, handler=handler)
    registry.enable_tracing()
    caught = []

    def proc():
        try:
            yield from client.request("op")
        except ValueError as err:
            caught.append(str(err))
        # The failed transaction released its slot: channel reusable.
        assert client.outstanding == 0

    sim.spawn(proc())
    sim.run()
    assert caught == ["device fault"]
    assert client.tap.errors == 1
    assert client.tap.responses == 0
    assert any(event[4] == "err" for event in registry.trace_events())
    registry.drain()


def test_post_and_probe_are_synchronous_and_counted():
    sim = Simulator()
    registry = PortRegistry(sim)
    client = registry.port("client")
    server = registry.port("server")
    written = []
    server.bind(handler=None,
                posts=lambda kind, payload: written.append((kind, payload)),
                probes=lambda kind, payload: payload * 2)
    registry.connect(client, server)

    client.post("write", (1, 2))
    assert written == [("write", (1, 2))]
    assert client.probe("double", 21) == 42
    assert client.tap.posts == 1
    assert client.tap.probes == 1
    assert sim.now == 0  # no simulated time involved


def test_registry_rejects_duplicates_and_double_connects():
    sim = Simulator()
    registry = PortRegistry(sim)
    a = registry.port("a")
    b = registry.port("b")
    with pytest.raises(ValueError):
        registry.port("a")
    registry.connect(a, b)
    c = registry.port("c")
    with pytest.raises(ValueError):
        registry.connect(a, c)
    assert registry["a"] is a


def test_unbound_port_raises():
    sim = Simulator()
    registry = PortRegistry(sim)
    lone = registry.port("lone")
    with pytest.raises(RuntimeError):
        next(lone.request("op"))
    with pytest.raises(RuntimeError):
        lone.post("op")
    with pytest.raises(RuntimeError):
        lone.probe("op")


def test_drain_flags_inflight_transaction_and_reset_clears_telemetry():
    sim = Simulator()
    hold = []

    def handler(msg):
        signal = Signal(sim, name="hold")
        hold.append(signal)
        yield signal
        return None

    registry, client, _ = make_pair(sim, handler=handler)
    registry.enable_tracing()
    sim.spawn(client.request("op"))
    sim.run()
    with pytest.raises(RuntimeError, match="client"):
        registry.drain()
    with pytest.raises(RuntimeError):
        registry.reset()  # reset demands quiescence too

    hold[0].fire()
    sim.run()
    registry.drain()
    assert client.tap.requests == 1
    registry.reset()
    assert client.tap.requests == 0
    assert client.tap.trace is not None  # tracing stays enabled
    assert list(client.tap.trace) == []


def test_soc_seams_are_ports_with_live_telemetry():
    """Integration: a Fig. 14-style probe drives every seam through the
    registry — core memory traffic, MMIO dispatch over the NoC, and
    MAPLE's device-side fetches — and the SoC drains quiescent."""
    from repro.cpu import Alu, Thread
    from repro.system import Soc

    soc = Soc(FPGA_CONFIG)
    soc.ports.enable_tracing()
    aspace = soc.new_process()
    api = soc.driver.attach(aspace)

    def probe():
        handle = yield from api.open(0)
        yield from handle.produce(1)
        yield Alu(500)
        value = yield from handle.consume()
        assert value == 1

    soc.run_threads([(0, Thread(probe(), aspace, "probe"))])
    telemetry = soc.port_telemetry()
    # Core-side: open/produce/consume are three MMIO transactions.
    assert telemetry["core0.mem"]["requests"] >= 3
    assert telemetry["maple0.mmio.dispatch"]["requests"] == 3
    assert telemetry["maple0.mmio"]["served"] == 3
    assert telemetry["maple0.mmio.dispatch"]["by_kind"] == {
        "mmio_load": 2, "mmio_store": 1}
    soc.drain()
    assert soc.ports.trace_events()
    soc.reset()
    assert soc.port_telemetry()["core0.mem"]["requests"] == 0


def test_quiescence_error_names_ports_and_txn_ids():
    """drain() failures are typed and attributable: the error carries a
    ``busy`` map of port name -> outstanding transaction ids."""
    from repro.sim.port import QuiescenceError

    sim = Simulator()
    hold = []

    def handler(msg):
        signal = Signal(sim, name="hold")
        hold.append(signal)
        yield signal
        return None

    registry, client, _ = make_pair(sim, handler=handler)
    sim.spawn(client.request("op"))
    sim.run()
    with pytest.raises(QuiescenceError) as exc:
        registry.drain()
    assert exc.value.busy == {"client": (0,)}
    assert "client" in str(exc.value) and "#0" in str(exc.value)
    hold[0].fire()
    sim.run()
    registry.drain()  # quiescent now
