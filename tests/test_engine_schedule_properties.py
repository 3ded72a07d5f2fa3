"""Hypothesis property test: randomized schedules on both engines.

The bucketed engine (``repro.sim.engine.Simulator``) must be
observationally identical to the verbatim seed engine
(``repro.sim.reference.ReferenceSimulator``) on *any* schedule, not just
the workload-shaped ones the differential fuzz replays.  Hypothesis
drives both engines through generated schedule programs that stress the
places where the two implementations actually differ:

- due cycles spread from the next cycle to ~100k cycles out, many of
  them shared (per-cycle buckets against one ``(time, seq)`` heap);
- ``schedule`` callbacks and process resumes landing in the same
  cycle's bucket;
- delay-0 storms (same-cycle ready-deque recursion);
- same-cycle spawn/join interleavings (completion vs joiner ordering);
- signal fan-out (one fire waking many waiters in insertion order);
- ``run(until=...)`` in chunks, the path ``checkpoint_every`` and a
  checkpoint resume take, against one uninterrupted ``run()``.

The observable is a single append-ordered log of every action each
process performs, tagged with the simulated time it ran at — i.e. the
exact global event order — plus the final clock and live-process count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.reference import ReferenceSimulator
from repro.sim.signal import Signal

N_SIGNALS = 3

#: Delay mix: same-cycle storms, small steps, and three narrow bands of
#: far due cycles (about 1k, 8k and 100k out) so that distant events
#: still share cycles with each other.
_delays = st.one_of(
    st.just(0),
    st.integers(0, 3),
    st.integers(1020, 1040),
    st.integers(8185, 8200),
    st.integers(100_000, 100_040),
)

_leaf_action = st.one_of(
    st.tuples(st.just("delay"), _delays),
    st.tuples(st.just("callback"), _delays),
    st.tuples(st.just("fire"), st.integers(0, N_SIGNALS - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_SIGNALS - 1)),
)

#: A child program is a short list of leaf actions; a top-level program
#: may additionally spawn children and join them.
_child_program = st.lists(_leaf_action, max_size=4)

_top_action = st.one_of(
    _leaf_action,
    st.tuples(st.just("spawn"), _child_program),
    st.tuples(st.just("join"), st.integers(0, 3)),
)

_top_program = st.lists(_top_action, max_size=6)
_schedule = st.lists(_top_program, min_size=1, max_size=5)


def _horizon(schedule):
    """An upper bound on the last event's cycle: every due cycle is a
    sum of distinct delays along one causal chain."""
    def delays(program):
        for action in program:
            if action[0] in ("delay", "callback"):
                yield action[1]
            elif action[0] == "spawn":
                yield from delays(action[1])
    return sum(sum(delays(program)) for program in schedule)


def _run_schedule(sim_cls, schedule, chunk=None):
    sim = sim_cls()
    signals = [Signal(sim, name=f"sig{i}") for i in range(N_SIGNALS)]
    log = []

    def interpret(program, name):
        children = []
        for step, action in enumerate(program):
            tag = action[0]
            if tag == "delay":
                log.append((name, step, "delay", action[1], sim.now))
                yield action[1]
            elif tag == "callback":
                log.append((name, step, "callback", action[1], sim.now))
                sim.schedule(action[1], lambda n=name, s=step: log.append(
                    (n, s, "called", sim.now)))
            elif tag == "fire":
                sig = signals[action[1]]
                if not sig.fired:
                    log.append((name, step, "fire", action[1], sim.now))
                    sig.fire((name, step))
            elif tag == "wait":
                log.append((name, step, "wait", action[1], sim.now))
                value = yield signals[action[1]]
                log.append((name, step, "woke", value, sim.now))
            elif tag == "spawn":
                child = f"{name}.{len(children)}"
                log.append((name, step, "spawn", child, sim.now))
                children.append(
                    sim.spawn(interpret(action[1], child), name=child))
            elif tag == "join":
                if children:
                    target = action[1] % len(children)
                    log.append((name, step, "join", target, sim.now))
                    result = yield children[target]
                    log.append((name, step, "joined", result, sim.now))
        log.append((name, "end", sim.now))
        return name

    for index, program in enumerate(schedule):
        sim.spawn(interpret(program, f"p{index}"), name=f"p{index}")
    if chunk is None:
        sim.run()
    else:
        # Chunked like a checkpointed run; the step grows with the
        # horizon so a 100k-cycle schedule takes a few hundred calls.
        # Each boundary is logged, pinning which events ran before it
        # (a checkpoint captures the state at exactly that point).
        horizon = _horizon(schedule)
        step = max(chunk, horizon // 400)
        while sim.now < horizon:
            sim.run(until=min(sim.now + step, horizon))
            log.append(("until", sim.now))
        sim.run()
    # Processes left blocked on never-fired signals / never-joined
    # children are part of the observable: both engines must strand the
    # exact same set.
    return log, sim.now, sim.live_processes


@settings(max_examples=60)
@given(_schedule)
def test_engines_agree_on_randomized_schedules(schedule):
    fast = _run_schedule(Simulator, schedule)
    seed = _run_schedule(ReferenceSimulator, schedule)
    assert fast == seed


@settings(max_examples=60, deadline=None)
@given(_schedule, st.integers(1, 20_000))
def test_engines_agree_when_run_in_until_chunks(schedule, chunk):
    fast = _run_schedule(Simulator, schedule, chunk)
    seed = _run_schedule(ReferenceSimulator, schedule, chunk)
    assert fast == seed
    # Chunk boundaries are invisible: same events at the same cycles as
    # one uninterrupted run.
    whole = _run_schedule(Simulator, schedule)
    assert [entry for entry in fast[0] if entry[0] != "until"] == whole[0]
    assert fast[2] == whole[2]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_engines_agree_on_signal_fanout(seed_value):
    """Dedicated fan-out shape: many same-cycle waiters, one late fire.

    Wakeups must resume waiters in insertion order on both engines
    whether the firing process runs this cycle or ~100k cycles out.
    """
    import random
    rng = random.Random(seed_value)
    n_waiters = rng.randrange(1, 12)
    fire_delay = rng.choice([0, 1, 1025, 8193, 100_001])
    waiter_delays = [rng.choice([0, 0, 1, 2]) for _ in range(n_waiters)]

    def run(sim_cls):
        sim = sim_cls()
        sig = Signal(sim, name="fanout")
        log = []

        def waiter(i):
            yield waiter_delays[i]
            log.append(("wait", i, sim.now))
            value = yield sig
            log.append(("woke", i, value, sim.now))

        def firer():
            yield fire_delay
            sig.fire("payload")
            log.append(("fired", sim.now))

        for i in range(n_waiters):
            sim.spawn(waiter(i), name=f"w{i}")
        sim.spawn(firer(), name="firer")
        sim.run()
        return log, sim.now, sim.live_processes

    assert run(Simulator) == run(ReferenceSimulator)
