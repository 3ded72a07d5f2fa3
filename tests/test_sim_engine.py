"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Signal, Simulator
from repro.sim.engine import SimulationError


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: order.append("b"))
    sim.schedule(1, lambda: order.append("a"))
    sim.schedule(9, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9


def test_same_cycle_events_run_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(3, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_process_delay_yield_advances_time():
    sim = Simulator()
    seen = []

    def proc():
        seen.append(sim.now)
        yield 10
        seen.append(sim.now)
        yield 5
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [0, 10, 15]


def test_process_return_value_visible_on_handle():
    sim = Simulator()

    def proc():
        yield 1
        return 42

    handle = sim.spawn(proc())
    sim.run()
    assert handle.finished
    assert handle.result == 42


def test_process_join_receives_result():
    sim = Simulator()
    got = []

    def child():
        yield 7
        return "payload"

    def parent():
        handle = sim.spawn(child())
        result = yield handle
        got.append((sim.now, result))

    sim.spawn(parent())
    sim.run()
    assert got == [(7, "payload")]


def test_join_already_finished_process():
    sim = Simulator()
    got = []

    def child():
        return "early"
        yield  # pragma: no cover

    def parent():
        handle = sim.spawn(child())
        yield 50  # child finishes long before we join
        result = yield handle
        got.append(result)

    sim.spawn(parent())
    sim.run()
    assert got == ["early"]


def test_signal_wakes_waiting_process_with_value():
    sim = Simulator()
    sig = Signal(sim)
    got = []

    def waiter():
        value = yield sig
        got.append((sim.now, value))

    def firer():
        yield 20
        sig.fire("data")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == [(20, "data")]


def test_signal_yield_after_fire_passes_through():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire(99)
    got = []

    def waiter():
        value = yield sig
        got.append(value)

    sim.spawn(waiter())
    sim.run()
    assert got == [99]


def test_signal_double_fire_raises():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire()
    with pytest.raises(RuntimeError):
        sig.fire()


def test_bad_yield_type_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(True))
    sim.run(until=50)
    assert not fired
    assert sim.now == 50
    sim.run()
    assert fired


def test_live_process_accounting():
    sim = Simulator()

    def proc():
        yield 3

    sim.spawn(proc())
    sim.spawn(proc())
    assert sim.live_processes == 2
    sim.run()
    assert sim.live_processes == 0


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield 1
        raise ValueError("model bug")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="model bug"):
        sim.run()


def test_zero_delay_yield_resumes_same_cycle():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield 0
        times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [0, 0]


def test_run_until_advances_clock_when_queue_drains_early():
    # Regression: run(until=N) used to leave the clock at the last event
    # time when the queue emptied before N; it must land exactly on N.
    sim = Simulator()
    done = []

    def proc():
        yield 5
        done.append(sim.now)

    sim.spawn(proc())
    assert sim.run(until=100) == 100
    assert done == [5]
    assert sim.now == 100


def test_run_until_now_when_queue_already_empty():
    sim = Simulator()
    assert sim.run(until=42) == 42
    assert sim.now == 42


def test_same_cycle_events_run_in_schedule_order():
    # Pins the (time, seq) execution order the batch-drain fast path must
    # preserve: both 5-cycle callbacks were queued before cycle 5, so a
    # zero-delay event created *during* cycle 5 runs after both of them.
    sim = Simulator()
    order = []

    def first_at_5():
        order.append("first")
        sim.schedule(0, lambda: order.append("child-of-first"))

    sim.schedule(5, first_at_5)
    sim.schedule(5, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "child-of-first"]


def test_reference_engine_matches_on_until_semantics():
    # The preserved seed engine carries the same until-drain fix so the
    # golden determinism comparison runs under identical semantics.
    from repro.sim.reference import ReferenceSimulator

    ref = ReferenceSimulator()
    fired = []
    ref.schedule(5, lambda: fired.append(ref.now))
    assert ref.run(until=100) == 100
    assert fired == [5]
    assert ref.now == 100
