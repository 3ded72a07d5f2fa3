"""The discrete-event simulator core.

The engine keeps pending event records and a notion of *processes*.  A
process wraps a generator; whatever the generator yields decides when it
is resumed:

``int``
    Resume after that many cycles (0 is legal: resume later this cycle).
``Signal``
    Resume when the signal fires; ``gen.send()`` receives the fired value.
``Process``
    Resume when that process finishes (join); receives its return value.

Exceptions raised inside a process propagate out of :meth:`Simulator.run`,
so a broken model fails loudly instead of silently dropping events.

Hot-path design (the engine executes millions of events per figure):

- Future events live in **per-cycle buckets** keyed by absolute due
  cycle, with a heap of the distinct due cycles beside them.  Enqueue
  is a dict lookup and a list append; only the first record for a
  cycle pays a ``heappush``.  Advancing the clock is one ``heappop``
  plus one batch move of that cycle's bucket into the ready deque.
  There is no horizon: a 2-cycle L1 hit and a 100k-cycle watchdog tick
  take the same path.
- A bucket holds every record due at its cycle in insertion order, and
  delay-0 work goes to the ready deque (it is always created *while
  executing* an event at the current cycle, so it sequences after every
  record already due then).  Execution order is therefore exactly the
  seed engine's ``(time, seq)`` order, with no sequence numbers.
- Event records are **polymorphic, allocation-free in the common case**:
  a bare :class:`Process` means "step this generator, sending ``None``"
  (every ``yield <int>`` resume and every spawn), a bare callable is a
  :meth:`Simulator.schedule` callback, and only a resume that carries a
  value (signal fires, join results) costs a ``(proc, payload)`` tuple.
- The generator step (send / StopIteration / dispatch-on-yield) is
  inlined into :meth:`Simulator.run` with the dominant ``yield <int>``
  case handled in-loop; only non-int yields take the out-of-line
  :meth:`_dispatch` path.  The loop carries no per-event bookkeeping
  beyond the event count, so :attr:`run_wall_seconds` measures the
  model; runaway models are the watchdog's job, not the engine's.

The scheduling *semantics* are identical to the original engine, which is
preserved as :mod:`repro.sim.reference` and checked against this one by
the golden determinism test, the differential fuzz sweep, and the
randomized-schedule property suite.
"""

from __future__ import annotations

import time as _walltime
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (bad yields, deadlock)."""


class Process:
    """Handle for a spawned generator process.

    The handle doubles as a join target: other processes can ``yield proc``
    to wait for completion, and :attr:`result` carries the generator's
    return value afterwards.
    """

    __slots__ = ("_sim", "_gen", "name", "finished", "result", "_joiners")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "proc"):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.finished = False
        self.result: Any = None
        self._joiners: list[Process] = []

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"

    def _add_joiner(self, proc: "Process") -> None:
        if self.finished:
            raise SimulationError("joining a finished process must be immediate")
        self._joiners.append(proc)

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        joiners, self._joiners = self._joiners, []
        ready = self._sim._ready
        if result is None:
            ready.extend(joiners)
        else:
            for joiner in joiners:
                ready.append((joiner, result))


class Simulator:
    """Cycle-accurate event loop.

    Time is an integer cycle count.  All scheduling is deterministic:
    events at the same cycle run in insertion order (each cycle's bucket
    preserves it), so simulations are exactly reproducible.
    """

    def __init__(self) -> None:
        self._now = 0
        #: Future records by due cycle; each bucket is in insertion order.
        self._buckets: dict = {}
        #: Heap of the distinct due cycles, one entry per bucket.
        self._times: list = []
        #: Current-cycle records in execution order.  A record is a bare
        #: :class:`Process` (send ``None``), a ``(proc, payload)`` tuple
        #: (send ``payload``), or a bare callable (invoke).
        self._ready: deque = deque()
        self._live_processes = 0
        #: Cumulative events executed / wall-clock seconds spent inside
        #: :meth:`run` — the raw material for the simcore perf harness.
        self.events_executed = 0
        self.run_wall_seconds = 0.0
        #: Queued *utility* callbacks (watchdog checks, fault tickers) —
        #: bookkeeping they maintain themselves so each can tell whether
        #: any *model* events remain (:attr:`pending_events` minus this)
        #: and stop re-arming instead of keeping each other alive.
        self.utility_ticks = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def live_processes(self) -> int:
        """Number of spawned processes that have not finished."""
        return self._live_processes

    @property
    def pending_events(self) -> int:
        """Events queued (future buckets + same-cycle deque).
        Zero with live processes remaining means every one of them is
        blocked on a handshake that can never fire — the deadlock
        signature the watchdog reports on.  The bucket population is
        summed lazily; callers are diagnostic (watchdog ticks), not the
        per-event hot path."""
        return len(self._ready) + sum(map(len, self._buckets.values()))

    @property
    def model_events(self) -> int:
        """Pending events that belong to the *model* — everything except
        the self-rescheduling utility ticks.  The re-arm condition for
        those ticks: once this hits zero the run is over (or deadlocked)
        and ticking on would keep the queue alive artificially."""
        return self.pending_events - self.utility_ticks

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` cycles (0 = later this cycle).

        :meth:`_dispatch` queues process resumes through here too, so a
        record is a callback or a bare :class:`Process`."""
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            due = self._now + delay
            bucket = self._buckets.get(due)
            if bucket is None:
                self._buckets[due] = [callback]
                heappush(self._times, due)
            else:
                bucket.append(callback)
        else:
            self._ready.append(callback)

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Register a generator as a process and start it this cycle."""
        proc = Process(self, gen, name)
        self._live_processes += 1
        self._ready.append(proc)
        return proc

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty or when simulated time would pass
        ``until``.  Returns the final simulation time; when ``until`` is given the
        clock always ends at ``until``, whether or not the queue drained
        before reaching it.  An ``until`` before :attr:`now` is an error:
        the clock never runs backwards.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is before the current cycle {self._now}")
        buckets = self._buckets
        times = self._times
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        now = self._now
        events = 0
        start = _walltime.perf_counter()
        try:
            while True:
                while ready:
                    rec = popleft()
                    events += 1
                    cls = rec.__class__
                    if cls is Process:
                        proc, payload = rec, None
                    elif cls is tuple:
                        proc, payload = rec
                    else:
                        rec()
                        continue
                    # Inlined generator step: the per-event hot path.
                    try:
                        yielded = proc._gen.send(payload)
                    except StopIteration as stop:
                        self._live_processes -= 1
                        proc._finish(stop.value)
                    else:
                        if yielded.__class__ is int:
                            if yielded > 0:
                                due = now + yielded
                                bucket = buckets.get(due)
                                if bucket is None:
                                    buckets[due] = [proc]
                                    heappush(times, due)
                                else:
                                    bucket.append(proc)
                            elif yielded == 0:
                                append(proc)
                            else:
                                raise SimulationError(
                                    f"cannot schedule into the past "
                                    f"(delay={yielded})")
                        else:
                            self._dispatch(proc, yielded)
                # This cycle is drained: advance to the next due cycle.
                if not times:
                    break
                if until is not None and times[0] > until:
                    self._now = until
                    return until
                self._now = now = heappop(times)
                ready.extend(buckets.pop(now))
        finally:
            self.events_executed += events
            self.run_wall_seconds += _walltime.perf_counter() - start
        if until is not None and until > self._now:
            # The queue drained before the horizon: the clock still
            # advances to it, matching the early-stop path above.
            self._now = until
        return self._now

    # -- process machinery -------------------------------------------------

    def _resume(self, proc: Process, value: Any) -> None:
        self._ready.append(proc if value is None else (proc, value))

    def _dispatch(self, proc: Process, yielded: Any) -> None:
        """Route a yield the inlined step in :meth:`run` does not handle
        (int subclasses such as bool, Signals, joins)."""
        if isinstance(yielded, int):
            self.schedule(yielded, proc)
        elif hasattr(yielded, "_add_waiter"):  # Signal-like
            if yielded.fired:
                self._resume(proc, yielded.value)
            else:
                yielded._add_waiter(proc)
        elif isinstance(yielded, Process):
            if yielded.finished:
                self._resume(proc, yielded.result)
            else:
                yielded._add_joiner(proc)
        else:
            raise SimulationError(
                f"process {proc.name} yielded unsupported value {yielded!r}; "
                "yield an int delay, a Signal, or a Process"
            )
