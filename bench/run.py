"""Simulator-cost benchmark: five workloads, end-to-end and per-layer.

Run from the repository root (no install, no ``PYTHONPATH`` needed)::

    python3 bench/run.py                      # all five workloads, both legs
    python3 bench/run.py --workload fig8-mix --seed 3 --seconds 10 --trace 0

Each selected workload runs best-of-N timed passes for ``--seconds``
seconds (round-robin when several are selected), each preceded by the
frozen calibration loop of ``bench/calib.py``, then seven set-up-only
rounds that give ``setup_s``.  ``--trace 0`` then runs
the memory leg (one pass in a fresh child process) and reports the
end-to-end metrics; ``--trace 1`` runs one traced pass under cProfile,
writes ``bench/out/layers.json`` and ``bench/out/trace.json`` and reports
the per-layer metrics; without ``--trace`` both legs run.  Every cell is
checked (functional check inside ``run_workload``, goldens in
``bench/golden.json`` at the golden seed, identical digests across
passes).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"bench: no simulator sources at {SRC / 'repro'}; "
                     "run from a checkout of the repository")
sys.path.insert(0, str(SRC))

from calib import REFERENCE_SECONDS, calibrate, host_scale  # noqa: E402
from ledger import LAYERS, Spans, fold, merge  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, PassResult, Probe, run_pass, setup_round,
)

#: End-to-end metrics (tracing off) and their units.  Host times are in
#: reference-host seconds (see bench/calib.py).
END_TO_END = {
    "setup_s": "s",
    "sim_s": "s",
    "wall_s": "s",
    "events_per_s": "events/s",
    "instr_per_s": "instr/s",
    "peak_rss_mb": "MB",
}

#: Set-up-only rounds per workload behind ``setup_s``.
SETUP_ROUNDS = 7

#: Simulated counts reported per layer (from the traced pass).
COUNTS = (
    "sim.events", "sim.cycles", "port.requests", "port.stalls",
    "port.retransmits", "noc.packets", "noc.hops", "noc.memory.packets",
    "l1.hits", "l1.misses", "l2.hits", "l2.misses", "l2.writebacks",
    "dram.reads", "directory.invalidations", "directory.transfers",
    "directory.upgrades", "directory.refills", "directory.writebacks",
    "cpu.instructions", "cpu.loads", "cpu.stores", "maple.consumes",
    "maple.produce_ptrs", "maple.consume_stalls",
    "maple.produce_backpressure", "vm.walks", "os.mmap_pages",
    "faults.events",
)

#: Ratio -> (numerator, the other outcome); the base is their sum.
RATIOS = {
    "l1.hit_ratio": ("l1.hits", "l1.misses"),
    "l2.hit_ratio": ("l2.hits", "l2.misses"),
    "maple.hit_ratio": ("maple.hits", "maple.misses"),
}

#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    **{f"host.{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **{name: "count" for name in COUNTS},
    **{name: "ratio" for name in RATIOS},
    "harness.unique_ratio": "ratio",
    "harness.dispatch_s": "s",
    "harness.worker_s": "s",
    "harness.spawns": "count",
    "trace.overhead": "ratio",
}


# -- passes ----------------------------------------------------------------------


def timed_passes(workloads: List[str], seed: int, seconds: float,
                 probe: Probe, min_passes: int = 2):
    """Round-robin passes until every workload has had ``seconds`` of
    measuring and at least ``min_passes`` passes.  Each pass is preceded
    by a garbage collection and one calibration run, and each workload
    gets one more calibration run after its last pass."""
    passes = {w: [] for w in workloads}
    calib = {w: [] for w in workloads}
    deadline = time.perf_counter() + seconds * len(workloads)
    while (time.perf_counter() < deadline
           or min(len(p) for p in passes.values()) < min_passes):
        for workload in workloads:
            gc.collect()
            calib[workload].append(calibrate())
            passes[workload].append(run_pass(workload, seed, probe))
    for workload in workloads:
        calib[workload].append(calibrate())
    return passes, calib


def setup_rounds(workload: str, seed: int, probe: Probe) -> List[float]:
    """``SETUP_ROUNDS`` set-up-only rounds, each after a collection."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        rounds.append(setup_round(workload, seed, probe))
    return rounds


def traced_pass(workload: str, seed: int, probe: Probe):
    """One pass under cProfile; returns it with its per-phase ledgers."""
    gc.collect()
    phases = ("supervisor",) if workload == "sweep" else Probe.PHASES
    probe.profilers = {phase: cProfile.Profile() for phase in phases}
    try:
        traced = run_pass(workload, seed, probe)
    finally:
        profilers, probe.profilers = probe.profilers, None
    return traced, {phase: fold(p) for phase, p in profilers.items()}


def memory_leg(workload: str, seed: int) -> Dict:
    """Peak RSS of one pass in a fresh child process (run one at a time)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--memory-leg",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return {"peak_rss_mb": 0.0, "attempted": 1, "failed": 1,
                "error": f"memory leg failed: {exc!r}"}


def memory_leg_child(workload: str, seed: int) -> None:
    """Body of the memory-leg child: one pass, then the peak RSS of this
    process and of its children (the sweep's workers), in MB.

    This process's own peak is ``VmHWM``, not ``RUSAGE_SELF``: across
    ``exec`` Linux carries the parent's peak into ``ru_maxrss``."""
    with Probe() as probe:
        result = run_pass(workload, seed, probe)
    status = Path("/proc/self/status").read_text()
    own_kb = int(status.split("VmHWM:")[1].split()[0])
    peak_kb = max(own_kb,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"peak_rss_mb": peak_kb / 1024,
                      "attempted": len(result.cells),
                      "failed": sum(1 for c in result.cells if c.error)}))


# -- correctness -----------------------------------------------------------------


def check_cells(workload: str, runs: List[PassResult], seed: int,
                golden: Dict) -> List[str]:
    """One line per failed cell.  A cell fails on an exception (which
    includes its functional check), on a golden mismatch at the golden
    seed, or on a digest that differs from its first pass."""
    expected = (golden.get("workloads", {}).get(workload)
                if seed == golden.get("seed") else None)
    first: Dict[str, str] = {}
    failures = []
    for index, run in enumerate(runs):
        for cell in run.cells:
            reason = cell.error
            if reason is None and expected is not None:
                want = expected.get(cell.label)
                got = golden_record(cell)
                if want != got:
                    reason = f"golden mismatch: got {got}, want {want}"
            if reason is None and first.setdefault(cell.label,
                                                   cell.digest) != cell.digest:
                reason = "stats digest differs from the first pass"
            if reason is not None:
                failures.append(f"{workload} pass {index} {cell.label}: "
                                f"{reason}")
    return failures


def workload_digest(run: PassResult) -> str:
    """One sha256 over every cell's cycles, events and stats digest, so
    two commits can be compared at any seed."""
    lines = "\n".join(f"{c.label}:{c.cycles}:{c.events}:{c.digest}"
                      for c in run.cells)
    return hashlib.sha256(lines.encode()).hexdigest()


def golden_record(cell) -> Dict:
    return {"cycles": cell.cycles, "events": cell.events,
            "stats_sha256": cell.digest}


# -- metrics ---------------------------------------------------------------------


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def end_to_end(runs: List[PassResult], setups: List[float],
               calib: List[float], peak_rss_mb: Optional[float]):
    """The end-to-end metrics and the measured host times behind them.

    Host times are best-of-N (``setup_s``: the median set-up round),
    scaled to reference-host seconds by the run's best calibration;
    throughput is simulated work over the scaled ``sim_s``."""
    measured = {
        "setup_s": statistics.median(setups),
        "sim_s": min(r.sim_s for r in runs),
        "wall_s": min(r.wall_s for r in runs),
    }
    scale = host_scale(min(calib))
    metrics = {name: value * scale for name, value in measured.items()}
    sim_s = metrics["sim_s"] or float("inf")  # 0 only if every cell failed
    metrics["events_per_s"] = runs[0].events / sim_s
    metrics["instr_per_s"] = runs[0].instructions / sim_s
    if peak_rss_mb is not None:
        metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, measured


def layer_metrics(traced: PassResult, phases: Dict, runs: List[PassResult]
                  ) -> Dict:
    """Per-layer metrics of one workload, plus the detail layers.json
    keeps (per-phase ledgers and the bases of every ratio)."""
    ledger = merge(list(phases.values()))
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"host.{layer}.self_s"] = ledger[layer]["self_s"]
        metrics[f"host.{layer}.calls"] = ledger[layer]["calls"]
    counts: Dict[str, float] = {}
    for cell in traced.cells:
        if cell.unique:
            for name, value in cell.counts.items():
                counts[name] = counts.get(name, 0) + value
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    bases = {}
    for name, (hits, misses) in RATIOS.items():
        base = counts.get(hits, 0) + counts.get(misses, 0)
        metrics[name] = counts.get(hits, 0) / base if base else 0.0
        bases[name] = {"numerator": counts.get(hits, 0), "base": base}
    total = len(traced.cells)
    unique = traced.unique_cells or total
    metrics["harness.unique_ratio"] = unique / total
    bases["harness.unique_ratio"] = {"numerator": unique, "base": total}
    dispatch = [done - spawn - wall for r in runs
                for spawn, done, wall in r.dispatch]
    workers = [wall for r in runs for _, _, wall in r.dispatch]
    metrics["harness.dispatch_s"] = (statistics.median(dispatch)
                                     if dispatch else 0.0)
    metrics["harness.worker_s"] = (statistics.median(workers)
                                   if workers else 0.0)
    metrics["harness.spawns"] = statistics.median(r.spawns for r in runs)
    best = min(r.wall_s for r in runs)
    metrics["trace.overhead"] = traced.wall_s / best
    detail = {
        "layers": ledger,
        "phases": phases,
        "counts": counts,
        "ratio_bases": bases,
        "traced_wall_s": traced.wall_s,
        "untraced_best_wall_s": best,
    }
    return {"metrics": metrics, "detail": detail}


def pass_spans(spans: Spans, workload: str, runs: List[PassResult],
               traced: Optional[PassResult]) -> None:
    """workload > pass > cell > setup/run/check spans (sweep cells:
    spawn > done on the worker's track)."""
    everything = runs + ([traced] if traced is not None else [])
    root = spans.add(workload, min(r.start for r in everything),
                     max(r.end for r in everything), cat="workload")
    for index, run in enumerate(everything):
        kind = "traced" if run is traced else "timed"
        parent = spans.add(f"{workload} pass {index} ({kind})", run.start,
                           run.end, root, cat="pass")
        if workload == "sweep":
            spans.add("setup", run.start, run.start + run.setup_s, parent,
                      cat="phase")
            for cell in run.cells:
                if cell.unique and cell.run_entry is not None:
                    spans.add(cell.label, cell.run_entry, cell.run_exit,
                              parent, tid=cell.worker_pid, cat="cell")
            continue
        for cell in run.cells:
            span = spans.add(cell.label, cell.start, cell.end, parent,
                             cat="cell", failed=cell.error is not None)
            entry = cell.run_entry if cell.run_entry is not None else cell.end
            exit_ = cell.run_exit if cell.run_exit is not None else entry
            spans.add("setup", cell.start, entry, span, cat="phase")
            spans.add("run", entry, exit_, span, cat="phase",
                      inside_simulator_run_s=cell.run_s)
            spans.add("check", exit_, cell.end, span, cat="phase")


# -- entry point -----------------------------------------------------------------


def run_benchmark(workloads: List[str], seed: int, seconds: float,
                  trace: Optional[int], golden: Dict,
                  min_passes: int = 2) -> Dict:
    """Measure ``workloads``; returns the full report (see ``main``)."""
    with Probe() as probe:
        passes, calib = timed_passes(workloads, seed, seconds, probe,
                                     min_passes)
        setups = {w: setup_rounds(w, seed, probe) for w in workloads}
        traced = ({w: traced_pass(w, seed, probe) for w in workloads}
                  if trace != 0 else {})
    memory = ({w: memory_leg(w, seed) for w in workloads}
              if trace != 1 else {})

    report = {"seed": seed, "workloads": {}, "failures": [],
              "attempted": 0}
    for workload in workloads:
        runs = passes[workload]
        checked = runs + ([traced[workload][0]] if workload in traced
                          else [])
        report["failures"] += check_cells(workload, checked, seed, golden)
        report["attempted"] += sum(len(r.cells) for r in checked)
        leg = memory.get(workload)
        if leg is not None:
            report["attempted"] += leg["attempted"]
            report["failures"] += ([f"{workload} memory leg: "
                                    f"{leg.get('error', 'failed cells')}"]
                                   * leg["failed"])
        metrics, measured = end_to_end(
            runs, setups[workload], calib[workload],
            leg["peak_rss_mb"] if leg is not None else None)
        samples = {"setup_s": setups[workload],
                   "sim_s": [r.sim_s for r in runs],
                   "wall_s": [r.wall_s for r in runs]}
        entry = {
            "passes": len(runs),
            "digest": workload_digest(runs[0]),
            "end_to_end": metrics,
            "measured": {
                name: (value, len(samples[name]), *quartiles(samples[name]))
                for name, value in measured.items()},
            "calibration_s": min(calib[workload]),
        }
        if workload in traced:
            entry.update(layer_metrics(*traced[workload], runs))
        report["workloads"][workload] = entry

    if traced:
        spans = Spans()
        for workload in workloads:
            pass_spans(spans, workload, passes[workload],
                       traced[workload][0] if workload in traced else None)
        spans.write(OUT_DIR / "trace.json")
        layers = {"seed": seed, "layers": list(LAYERS), "workloads": {
            w: {**e["detail"], "metrics": e["metrics"]}
            for w, e in report["workloads"].items() if "detail" in e}}
        (OUT_DIR / "layers.json").write_text(json.dumps(layers, indent=1))
    return report


def print_report(report: Dict) -> None:
    units = {**END_TO_END, **PER_LAYER}
    for workload, entry in report["workloads"].items():
        print(f"== {workload}  seed {report['seed']}  "
              f"best of {entry['passes']} passes  "
              f"calibration {entry['calibration_s']:.4f} s "
              f"(reference {REFERENCE_SECONDS} s)  "
              f"digest {entry['digest'][:16]}")
        for name, value in entry["end_to_end"].items():
            line = f"  {name:<34} {value:>16.6g} {units[name]}"
            if name in entry["measured"]:
                used, n, q1, median, q3 = entry["measured"][name]
                line += (f"   (measured {used:.4g}; median {median:.4g}, "
                         f"q1 {q1:.4g}, q3 {q3:.4g}, n {n})")
            print(line)
        for name, value in entry.get("metrics", {}).items():
            print(f"  {name:<34} {value:>16.6g} {units[name]}")
    attempted = report["attempted"]
    failed = len(report["failures"])
    print(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} "
          "cells)")
    for line in report["failures"]:
        print(f"FAILED {line}")


def result_line(report: Dict, trace: Optional[int]) -> Dict:
    """The final JSON object: end-to-end metrics (``--trace 0``),
    per-layer metrics (``--trace 1``) or both; names are prefixed with
    the workload when several ran."""
    units = {**END_TO_END, **PER_LAYER}
    several = len(report["workloads"]) > 1
    metrics = {}
    for workload, entry in report["workloads"].items():
        chosen = {}
        if trace != 1:
            chosen.update(entry["end_to_end"])
        if trace != 0:
            chosen.update(entry["metrics"])
        for name, value in chosen.items():
            key = f"{workload}.{name}" if several else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {"correct": not report["failures"],
            "attempted": report["attempted"],
            "failed": len(report["failures"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset seed (default: the golden seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end leg only, 1: traced leg only")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite bench/golden.json from one pass per "
                             "workload at the golden seed")
    parser.add_argument("--memory-leg", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN_PATH.read_text())
    seed = golden["seed"] if args.seed is None else args.seed
    workloads = args.workload or list(WORKLOADS)

    if args.memory_leg:
        memory_leg_child(workloads[0], seed)
        return 0
    if args.update_golden:
        with Probe() as probe:
            runs = {w: run_pass(w, golden["seed"], probe) for w in workloads}
        failed = [c.label for r in runs.values() for c in r.cells if c.error]
        if failed:
            print(f"not updating goldens, cells failed: {failed}")
            return 1
        golden["workloads"].update({
            w: {c.label: golden_record(c) for c in r.cells}
            for w, r in runs.items()})
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0

    report = run_benchmark(workloads, seed, args.seconds, args.trace, golden)
    print_report(report)
    print(json.dumps(result_line(report, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
