#!/usr/bin/env python
"""Measure the orchestrator: serial vs sharded wall-clock, byte-identity.

Renders a set of harness targets three ways — ``--jobs 1`` (serial
in-process), ``--jobs N`` (worker pool), and ``--jobs N`` again against
a warm cache — verifies every rendering is byte-identical, and writes
the timings to ``BENCH_orchestrator.json``.

The parallel speedup is bounded by the host's cores (a 1-core container
measures ~1x by construction; a 4-core host measures ~2x+ because the
serial run leaves three cores idle).  Byte-identity is host-independent
and always asserted.

Usage (from the repo root):

    PYTHONPATH=src python tools/bench_orchestrator.py
    PYTHONPATH=src python tools/bench_orchestrator.py --jobs 4 \\
        --targets fig13 fig15 queue-sweep --out BENCH_orchestrator.json
    PYTHONPATH=src python tools/bench_orchestrator.py --targets all
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_TARGETS = ["fig13", "fig15", "queue-sweep"]


def render_all(targets, scale, orch):
    from repro.harness import figures
    from repro.harness.__main__ import TARGETS
    plans = [TARGETS[target](scale) for target in targets]
    return dict(zip(targets, figures.run(*plans, orch=orch)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel passes "
                             "(default 4)")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--targets", nargs="+", default=DEFAULT_TARGETS,
                        help="harness targets to render (or 'all')")
    parser.add_argument("--out", default=None,
                        help="write/update this JSON report "
                             "(default: print only)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="floor on serial/parallel speedup when the "
                             "host has >= 2 CPUs; below it the report is "
                             "still written and the exit code is 1 "
                             "(default 1.5)")
    args = parser.parse_args(argv)

    from repro.harness.__main__ import TARGETS
    from repro.harness.orchestrator import DiskCache, Orchestrator

    targets = list(TARGETS) if args.targets == ["all"] else args.targets

    def timed(orch):
        start = time.perf_counter()
        rendered = render_all(targets, args.scale, orch)
        return rendered, time.perf_counter() - start

    serial_text, serial_s = timed(Orchestrator(jobs=1))
    parallel_text, parallel_s = timed(
        Orchestrator(jobs=args.jobs, timeout=600.0))

    with tempfile.TemporaryDirectory() as tmp:
        cache = DiskCache(Path(tmp))
        _, cold_cache_s = timed(Orchestrator(jobs=args.jobs, cache=cache,
                                             timeout=600.0))
        warm_text, warm_cache_s = timed(
            Orchestrator(jobs=args.jobs, cache=cache, timeout=600.0))

    assert serial_text == parallel_text == warm_text, \
        "parallel/cached rendering diverged from serial (determinism bug)"

    report = {
        "metric": "harness wall seconds, serial vs sharded vs cached",
        "description": (
            "Renders the listed targets with --jobs 1, --jobs N, and "
            "--jobs N against a warm cache; asserts all renderings are "
            "byte-identical. Speedup is host-core-bound; cached renders "
            "skip simulation entirely."),
        "targets": targets,
        "scale": args.scale,
        "jobs": args.jobs,
        "host_cpus": os.cpu_count(),
        "serial_seconds": round(serial_s, 2),
        "parallel_seconds": round(parallel_s, 2),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cold_cache_seconds": round(cold_cache_s, 2),
        "warm_cache_seconds": round(warm_cache_s, 2),
        "warm_cache_speedup": round(serial_s / warm_cache_s, 2),
        "byte_identical": True,
    }

    # --jobs scaling is a tracked check, not just a recorded number —
    # but only where it is physically measurable.  On a host with one
    # CPU a worker pool cannot beat the serial pass by construction
    # (the number measures pool overhead, not scaling), so the check is
    # skipped with the reason logged and recorded in the report instead
    # of letting a sub-1x "speedup" stand as the headline.  The report
    # is printed and written before the verdict, so a failing run keeps
    # its numbers.
    host_cpus = os.cpu_count() or 1
    passed = True
    if host_cpus >= 2 and args.jobs >= 2:
        passed = report["parallel_speedup"] >= args.min_speedup
        report["jobs_scaling"] = {
            "asserted": True,
            "floor": args.min_speedup,
            "speedup": report["parallel_speedup"],
            "passed": passed,
        }
    else:
        reason = (
            f"host exposes {host_cpus} CPU(s) and jobs={args.jobs}: "
            "parallel speedup is unmeasurable (< 2 CPUs measures pool "
            "overhead, not scaling); ratio check skipped"
        )
        print(f"jobs-scaling check SKIPPED: {reason}", file=sys.stderr)
        report["jobs_scaling"] = {
            "asserted": False,
            "floor": args.min_speedup,
            "skip_reason": reason,
        }

    print(json.dumps(report, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if not passed:
        print(f"FAIL: --jobs {args.jobs} speedup "
              f"{report['parallel_speedup']}x is below the "
              f"{args.min_speedup}x floor on a {host_cpus}-CPU host: the "
              "worker pool is no longer scaling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
