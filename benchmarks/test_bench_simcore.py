"""Simulation-core throughput: the engine perf-regression harness.

Three measurements, all against the preserved seed engine
(:class:`repro.sim.reference.ReferenceSimulator`) on the same host so
ratios are machine-independent:

1. **Engine churn** — a synthetic mix of timed yields, zero-delay
   yields, and process turnover with no model code at all.  This
   isolates the event loop itself (per-cycle buckets under a heap of
   due cycles, same-cycle ready deque, inlined generator stepping), where
   the fast path is worth ~5.5-6x; the floor asserts >= 5x.  Both
   engines run interleaved best-of-N, because a single run on a busy
   1-CPU host can read 20-30% slow and turn a real 5.8x into a flaky
   4.8x.

2. **Workload mix** — a fig8-sized FPGA-config run (spmv and sdhp,
   doall and MAPLE decoupling).  Events/sec comes from the engine's own
   instrumentation (``events_executed`` / ``run_wall_seconds``), which
   excludes dataset construction and SoC assembly.  Per-cell cycle
   counts and event totals must match the reference engine exactly, and
   throughput must not regress below it.  The reference run shares the
   optimized periphery (counter handles, route memoization, compiled
   kernel expressions), so this ratio only reflects the event loop —
   recorded whole-stack numbers live in ``BENCH_simcore.json`` with
   their measurement-day context.

3. **Idle mesh** — the same small workload on 4x4 / 8x8 / 16x16 meshes
   (up to 255 instantiated cores).  Components are event-driven, nothing
   polls on ``yield 1``, so executed events must track *active traffic*:
   the event count stays flat while the tile count grows 16x.

``SIMCORE_SMOKE=1`` shrinks every measurement for CI smoke runs.
"""

import gc
import json
import os
from pathlib import Path

import pytest

from conftest import run_once

import repro.system.soc as soc_module
from repro.harness.techniques import run_workload
from repro.sim.engine import Simulator
from repro.sim.reference import ReferenceSimulator
from repro.system.soc import stress_mesh_config

SMOKE = os.environ.get("SIMCORE_SMOKE") == "1"

#: (app, technique, threads) cells of the fig8-sized mix (34,396 engine
#: events at scale=1, 68,825 at scale=2, across the four cells).
CELLS = (
    [("spmv", "maple-decouple", 4)]
    if SMOKE
    else [
        ("spmv", "maple-decouple", 4),
        ("spmv", "doall", 4),
        ("sdhp", "maple-decouple", 8),
        ("sdhp", "doall", 8),
    ]
)

#: Dataset scale: the full run doubles fig8's default so each timing
#: window is long enough that host scheduling noise stays well inside
#: the ratio margin.
MIX_SCALE = 1 if SMOKE else 2

#: Synthetic churn size (processes x steps) and how many interleaved
#: fast/seed pairs to run; the ratio compares best-of-N on both sides.
CHURN_PROCS, CHURN_STEPS = (20, 500) if SMOKE else (50, 4000)
CHURN_ROUNDS = 2 if SMOKE else 5
#: Bucketed engine vs seed engine on pure churn: measured ~5.5-6x
#: interleaved best-of-5 (see BENCH_simcore.json "engine_churn").
CHURN_RATIO_FLOOR = 2.0 if SMOKE else 5.0

#: The workload mix shares the optimized periphery between both engines,
#: so only the event loop differs; the floor just catches the fast path
#: ever losing to the seed loop outright.
MIX_RATIO_FLOOR = 0.9 if SMOKE else 1.0

#: Idle-mesh scaling: mesh sides to sweep and the slack allowed on the
#: largest mesh's event count relative to the smallest (the measured
#: delta is ~0.1%, from slightly longer NoC routes).
IDLE_MESH_SIDES = (4, 8) if SMOKE else (4, 8, 16)
IDLE_MESH_EVENT_SLACK = 1.05

BENCH_RECORD = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"


def _run_mix():
    """Run every cell; return engine-level totals and per-cell cycles."""
    events = 0
    wall = 0.0
    cycles = []
    for app, technique, threads in CELLS:
        result = run_workload(app, technique, threads=threads,
                              scale=MIX_SCALE)
        sim = result.soc.sim
        events += sim.events_executed
        wall += sim.run_wall_seconds
        cycles.append(result.cycles)
    return {
        "events": events,
        "wall_seconds": wall,
        "cycles": cycles,
        "events_per_sec": events / wall,
    }


def _run_churn(sim_cls):
    """Pure engine stress: timed yields, zero-delay yields, spawn/finish."""
    sim = sim_cls()

    def worker():
        for step in range(CHURN_STEPS):
            yield 1
            if step & 3 == 0:
                yield 0

    for _ in range(CHURN_PROCS):
        sim.spawn(worker())
    sim.run()
    return {
        "events": sim.events_executed,
        "final_cycle": sim.now,
        "events_per_sec": sim.events_executed / sim.run_wall_seconds,
    }


def test_bench_simcore_events_per_sec(benchmark, monkeypatch):
    _run_mix()  # warm imports and per-module setup before timing

    gc.collect()
    fast = run_once(benchmark, _run_mix)

    monkeypatch.setattr(soc_module, "Simulator", ReferenceSimulator)
    gc.collect()
    seed = _run_mix()

    # The fast path must be invisible at the simulation level: identical
    # final cycle counts per cell and identical executed-event totals.
    assert fast["cycles"] == seed["cycles"]
    assert fast["events"] == seed["events"]

    ratio = fast["events_per_sec"] / seed["events_per_sec"]
    print(
        f"\nsimcore mix: {fast['events']} events"
        f" | optimized {fast['events_per_sec']:,.0f} ev/s"
        f" | reference-engine {seed['events_per_sec']:,.0f} ev/s"
        f" | ratio {ratio:.2f}x (floor {MIX_RATIO_FLOOR}x)"
    )
    if BENCH_RECORD.exists():
        record = json.loads(BENCH_RECORD.read_text())
        for point in record["trajectory"]:
            print(
                f"  recorded: {point['label']}: "
                f"{point['events_per_sec']:,.0f} ev/s"
            )
        # Whole-stack ev/s in the record carry their measurement-day
        # context and are not re-asserted here (host drift between
        # measurement days exceeds the engine's share of mix time); the
        # live same-host enforcement of the event loop itself is
        # test_bench_simcore_engine_churn, whose recorded floor must
        # stay in step with this file.
        assert record["engine_churn"]["ratio_floor_asserted"] >= 5.0

    assert ratio >= MIX_RATIO_FLOOR, (
        f"engine throughput regressed on the workload mix: {ratio:.2f}x "
        f"vs the reference engine (floor {MIX_RATIO_FLOOR}x); see "
        "tools/profile_run.py to find the hot spot"
    )


@pytest.mark.perf_smoke
def test_bench_simcore_engine_churn(benchmark):
    # Warm both engines (imports, allocator) before timing.
    _run_churn(Simulator)
    _run_churn(ReferenceSimulator)

    # Interleaved best-of-N on both sides: the deterministic workload
    # makes repetition measure only host noise, so the max of each side
    # is its quiet-host rate and the ratio is stable where a single
    # pair of runs flakes by 20-30% on a loaded host.
    gc.collect()
    fast = run_once(benchmark, _run_churn, Simulator)
    gc.collect()
    seed = _run_churn(ReferenceSimulator)
    for _ in range(CHURN_ROUNDS - 1):
        gc.collect()
        trial = _run_churn(Simulator)
        if trial["events_per_sec"] > fast["events_per_sec"]:
            fast = trial
        gc.collect()
        trial = _run_churn(ReferenceSimulator)
        if trial["events_per_sec"] > seed["events_per_sec"]:
            seed = trial

    assert fast["events"] == seed["events"]
    assert fast["final_cycle"] == seed["final_cycle"]

    ratio = fast["events_per_sec"] / seed["events_per_sec"]
    print(
        f"\nengine churn: {fast['events']} events"
        f" | fast {fast['events_per_sec']:,.0f} ev/s"
        f" | seed {seed['events_per_sec']:,.0f} ev/s"
        f" | speedup {ratio:.2f}x (floor {CHURN_RATIO_FLOOR}x,"
        f" best of {CHURN_ROUNDS} interleaved)"
    )
    assert ratio >= CHURN_RATIO_FLOOR, (
        f"event-loop fast path regressed: {ratio:.2f}x over the seed "
        f"engine (floor {CHURN_RATIO_FLOOR}x)"
    )


@pytest.mark.perf_smoke
def test_bench_simcore_idle_mesh_scaling():
    """Events must track active traffic, not tile count.

    The same 2-thread workload runs on growing meshes (every non-MAPLE
    tile seats a full core: TLB, PTW, MSHRs, ports).  Because every
    component is event-driven — idle cores, routers, and cache banks
    schedule nothing — the executed-event count stays flat while the
    tile count grows 16x, and port-registry quiescence checks stay
    O(busy ports) rather than O(all ports).
    """
    events = {}
    for side in IDLE_MESH_SIDES:
        cfg = stress_mesh_config(side)
        result = run_workload("spmv", "maple-decouple", config=cfg,
                              threads=2, scale=1)
        events[side] = result.soc.sim.events_executed

    smallest, largest = IDLE_MESH_SIDES[0], IDLE_MESH_SIDES[-1]
    tile_growth = (largest * largest) / (smallest * smallest)
    event_growth = events[largest] / events[smallest]
    print(
        f"\nidle mesh: events {events} | tiles x{tile_growth:.0f}"
        f" -> events x{event_growth:.3f}"
    )
    assert event_growth <= IDLE_MESH_EVENT_SLACK, (
        f"idle-mesh events grew {event_growth:.2f}x while tiles grew "
        f"{tile_growth:.0f}x: something schedules work per tile instead "
        "of per active transaction"
    )
