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

- Future events live in a **timing wheel**: a power-of-two ring of
  per-cycle buckets indexed by ``target_time & mask``.  Enqueue and
  dequeue are O(1) list appends — no heap comparisons, no per-event
  sequence numbers.  Because the clock only ever advances to the
  *minimum* pending time, every occupied bucket holds exactly one
  timestamp, so bucket order == insertion order == the global
  ``(time, seq)`` order the seed engine defines.
- Bucket occupancy is a single big-int **bitmap**; finding the next
  pending cycle is one shift plus one lowest-set-bit extraction instead
  of a ring scan.
- Delays beyond the wheel horizon overflow into a small ``heapq``
  fallback carrying explicit sequence numbers.  At any timestamp every
  heap record was enqueued strictly before every wheel record for that
  timestamp (a record only reaches the heap because its delay exceeded
  the horizon, and the horizon never shrinks), so draining heap-then-
  bucket reproduces the seed engine's tie-break exactly.
- The wheel is sized adaptively: when overflow traffic shows the
  observed delay distribution outgrowing the horizon, the wheel doubles
  (up to a cap) at the next moment it is empty, so no redistribution is
  ever needed.
- Event records are **polymorphic, allocation-free in the common case**:
  a bare :class:`Process` means "step this generator, sending ``None``"
  (every ``yield <int>`` resume and every spawn), a bare callable is a
  :meth:`Simulator.schedule` callback, and only a resume that carries a
  value (signal fires, join results) costs a ``(proc, payload)`` tuple.
- Same-cycle work (``spawn``, ``_resume``, ``yield 0``) bypasses the
  wheel entirely through a FIFO *ready* deque.  Events due at a
  timestamp are batch-drained into the same deque, which preserves the
  global (time, seq) execution order: delay-0 events are always created
  *while executing* an event at the current cycle, so they sequence
  after every already-queued event of that cycle.
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

#: Initial wheel span in cycles (one bucket per cycle).  Covers every
#: latency parameter in the stock SoC configs (DRAM ~300) with room.
_WHEEL_SIZE = 1024
#: Adaptive growth cap.  Delays beyond this always take the heap.
_WHEEL_MAX = 8192
#: Heap inserts that *would* have fit a bigger wheel before we grow.
_GROW_AFTER = 64

#: Precomputed per-slot masks so the hot path never re-materialises
#: ``1 << slot`` / ``~(1 << slot)`` big-ints.
_BIT = [1 << s for s in range(_WHEEL_MAX)]
_NBIT = [~(1 << s) for s in range(_WHEEL_MAX)]


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
    events at the same cycle run in insertion order (the wheel buckets
    preserve it structurally; the overflow heap carries explicit sequence
    numbers), so simulations are exactly reproducible.
    """

    def __init__(self) -> None:
        self._now = 0
        #: Tie-break counter for the overflow heap only; wheel buckets
        #: need none because insertion order is execution order.
        self._seq = 0
        #: Far-future overflow: ``(time, seq, record)`` heap entries for
        #: delays beyond the wheel horizon.  ``seq`` is unique, so the
        #: heap never compares records.
        self._queue: list = []
        #: Current-cycle records in execution order.  A record is a bare
        #: :class:`Process` (send ``None``), a ``(proc, payload)`` tuple
        #: (send ``payload``), or a bare callable (invoke).
        self._ready: deque = deque()
        #: The timing wheel: ``_wheel[t & _mask]`` is the bucket for cycle
        #: ``t``; ``_occ`` has bit ``s`` set iff bucket ``s`` is non-empty.
        self._wheel: list = [[] for _ in range(_WHEEL_SIZE)]
        self._wheel_size = _WHEEL_SIZE
        self._mask = _WHEEL_SIZE - 1
        self._occ = 0
        #: Observed-delay feedback for adaptive sizing: count and max of
        #: heap inserts that a ``_WHEEL_MAX`` wheel would have absorbed.
        self._far_fits = 0
        self._far_max = 0
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
        """Events queued (wheel + overflow heap + same-cycle deque).
        Zero with live processes remaining means every one of them is
        blocked on a handshake that can never fire — the deadlock
        signature the watchdog reports on.  The wheel population is
        summed lazily; callers are diagnostic (watchdog ticks), not the
        per-event hot path."""
        count = len(self._queue) + len(self._ready)
        if self._occ:
            count += sum(map(len, self._wheel))
        return count

    @property
    def model_events(self) -> int:
        """Pending events that belong to the *model* — everything except
        the self-rescheduling utility ticks.  The re-arm condition for
        those ticks: once this hits zero the run is over (or deadlocked)
        and ticking on would keep the queue alive artificially."""
        return self.pending_events - self.utility_ticks

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` cycles (0 = later this cycle)."""
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            if delay <= self._wheel_size:
                slot = (self._now + delay) & self._mask
                self._wheel[slot].append(callback)
                self._occ |= _BIT[slot]
            else:
                heappush(self._queue, (self._now + delay, self._seq, callback))
                self._seq += 1
                if delay <= _WHEEL_MAX:
                    self._far_fits += 1
                    if delay > self._far_max:
                        self._far_max = delay
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
        before reaching it.
        """
        queue = self._queue
        ready = self._ready
        wheel = self._wheel
        mask = self._mask
        size = self._wheel_size
        popleft = ready.popleft
        append = ready.append
        now = self._now
        events = 0
        # Occupancy bits set by the inline wheel inserts below are
        # accumulated locally and merged when the cycle drains — bits
        # only ever get *added* during a cycle (schedule/_dispatch OR
        # their own bits straight into ``_occ``), so the merge is safe,
        # and the ``finally`` flushes stragglers if a model exception
        # (or an early ``until`` return) interrupts the batch.
        occ_add = 0
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
                            if 0 < yielded <= size:
                                # Bit-set only on the empty->occupied edge;
                                # busy buckets skip the big-int OR entirely.
                                slot = (now + yielded) & mask
                                lst = wheel[slot]
                                if not lst:
                                    occ_add |= _BIT[slot]
                                lst.append(proc)
                            elif yielded == 0:
                                append(proc)
                            elif yielded > 0:
                                heappush(queue, (now + yielded, self._seq, proc))
                                self._seq += 1
                                if yielded <= _WHEEL_MAX:
                                    self._far_fits += 1
                                    if yielded > self._far_max:
                                        self._far_max = yielded
                            else:
                                raise SimulationError(
                                    f"cannot schedule into the past "
                                    f"(delay={yielded})")
                        else:
                            self._dispatch(proc, yielded)
                # This cycle is drained: advance the clock to the next
                # pending timestamp across the wheel and the overflow heap.
                occ = self._occ | occ_add
                occ_add = 0
                self._occ = occ
                if not occ:
                    if self._far_fits >= _GROW_AFTER and size < _WHEEL_MAX:
                        # The wheel is momentarily empty — the only safe
                        # point to resize, since nothing needs re-slotting.
                        size = self._grow()
                        wheel = self._wheel
                        mask = self._mask
                    if not queue:
                        break
                    time = queue[0][0]
                    wheel_due = False
                else:
                    start_slot = (now + 1) & mask
                    hi = occ >> start_slot
                    if hi:
                        wt = now + 1 + ((hi & -hi).bit_length() - 1)
                    else:
                        wt = (now + 1 + size - start_slot
                              + ((occ & -occ).bit_length() - 1))
                    if queue:
                        ht = queue[0][0]
                        time = ht if ht <= wt else wt
                    else:
                        time = wt
                    wheel_due = wt == time
                if until is not None and time > until:
                    self._now = until
                    return until
                self._now = now = time
                # Heap records drain first: at equal timestamps they were
                # enqueued strictly earlier than any wheel record (their
                # delay exceeded the horizon, which never shrinks), so
                # this order is exactly the seed engine's seq order.
                while queue and queue[0][0] == time:
                    append(heappop(queue)[2])
                if wheel_due:
                    # Records are copied out and the bucket list is kept
                    # for reuse — no per-cycle list allocation.
                    slot = time & mask
                    lst = wheel[slot]
                    ready.extend(lst)
                    lst.clear()
                    self._occ = occ & _NBIT[slot]
        finally:
            if occ_add:
                self._occ |= occ_add
            self.events_executed += events
            self.run_wall_seconds += _walltime.perf_counter() - start
        if until is not None and until > self._now:
            # The queue drained before the horizon: the clock still
            # advances to it, matching the early-stop path above.
            self._now = until
        return self._now

    # -- queue plumbing ----------------------------------------------------

    def _grow(self) -> int:
        """Double the (empty) wheel toward the observed delay ceiling.

        Called only when the wheel is empty, so no record ever needs
        re-slotting; records already in the overflow heap stay there,
        which keeps the heap-before-bucket tie-break valid (the horizon
        only ever grows).
        """
        target = 1 << max(self._far_max - 1, 1).bit_length()
        size = min(_WHEEL_MAX, max(self._wheel_size * 2, target))
        self._wheel = [[] for _ in range(size)]
        self._wheel_size = size
        self._mask = size - 1
        self._far_fits = 0
        self._far_max = 0
        return size

    # -- process machinery -------------------------------------------------

    def _resume(self, proc: Process, value: Any) -> None:
        self._ready.append(proc if value is None else (proc, value))

    def _dispatch(self, proc: Process, yielded: Any) -> None:
        """Route a yield the inlined step in :meth:`run` does not handle
        (int subclasses such as bool, Signals, joins)."""
        if isinstance(yielded, int):
            if yielded < 0:
                raise SimulationError(f"cannot schedule into the past (delay={yielded})")
            if yielded:
                if yielded <= self._wheel_size:
                    slot = (self._now + yielded) & self._mask
                    self._wheel[slot].append(proc)
                    self._occ |= _BIT[slot]
                else:
                    heappush(self._queue, (self._now + yielded, self._seq, proc))
                    self._seq += 1
                    if yielded <= _WHEEL_MAX:
                        self._far_fits += 1
                        if yielded > self._far_max:
                            self._far_max = yielded
            else:
                self._ready.append(proc)
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
