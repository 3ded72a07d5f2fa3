"""Frozen host-speed calibration for the benchmark.

A generator-churn loop under its own tiny discrete-event scheduler: the
same kind of work the simulator's engine does (resume a generator, read
the delay it yields, queue it by wake-up time), written once and never
changed.  It imports nothing from ``repro``, so no change to the
simulator can move it; only the host can.  ``bench/run.py`` runs it
around every timed pass and scales every end-to-end host time by
:func:`host_scale` of the run's best calibration time.

The development host (a 2-CPU VM) alternates between a fast and a slow
state, each lasting seconds to minutes.  The slow state stretches this
tight loop ~1.75x but the simulator only ~1.3x, so dividing by the full
calibration ratio over-corrects.  Over 11 sets of ten consecutive runs
(five workloads, quiet and noisy periods) the spread of best pass times
(interquartile range over median) averaged 18% (worst 38%) raw, 14%
(31%) divided by the calibration ratio, and 7.8% (20%) divided by its
square root, the best of the exponents tried (0 to 1); hence
``ELASTICITY``.
"""

from __future__ import annotations

import heapq
import time

#: Best calibration time on the reference host (the 2-CPU, 2.1 GHz
#: development VM in its fast state).
REFERENCE_SECONDS = 0.040
#: How strongly the simulator's host time follows the calibration loop's
#: (fitted on the development host, see above).
ELASTICITY = 0.5

PROCESSES = 64
STEPS = 1000


def _process(index: int, steps: int):
    """Yield ``steps`` delays from a fixed pseudo-random sequence."""
    state = index * 2654435761 + 1
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield 1 + (state >> 16) % 7


def churn(processes: int = PROCESSES, steps: int = STEPS) -> int:
    """Run the churn to completion; returns the final simulated time."""
    queue = []
    seq = 0
    for index in range(processes):
        queue.append((0, seq, _process(index, steps)))
        seq += 1
    heapq.heapify(queue)
    now = 0
    while queue:
        now, _, gen = heapq.heappop(queue)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        heapq.heappush(queue, (now + delay, seq, gen))
        seq += 1
    return now


def calibrate() -> float:
    """Host seconds for one fixed churn run."""
    start = time.perf_counter()
    churn()
    return time.perf_counter() - start


def host_scale(best_calibration: float) -> float:
    """Factor from this host's seconds to reference-host seconds."""
    return (REFERENCE_SECONDS / best_calibration) ** ELASTICITY


if __name__ == "__main__":
    best = min(calibrate() for _ in range(5))
    print(f"calibration: {best:.6f} s (reference {REFERENCE_SECONDS} s, "
          f"host scale {host_scale(best):.4f})")
