#!/usr/bin/env python
"""Replay a fuzz case or an ad-hoc run; inspect, validate or resume a checkpoint.

**Replay** (no command).  ``--case N`` reruns fault-sweep case N exactly
(same config, kernel, technique, dataset and fault plan); with
``--integrity`` it reruns integrity-sweep case N instead (protection
stack armed, corruption plan).  Without ``--case`` it drives an ad-hoc
``--app``/``--technique``/``--fault-seed`` run.  Either way the golden
oracle, the invariants and the liveness watchdog are armed (see
``repro.harness.campaign``), and the tool prints the fault event log and
the run summary, or the structured diagnosis of whatever tripped.
``--record LOG`` saves the fault-hit log and cycle count as JSON;
``--check LOG`` replays and compares them bit for bit.
``--checkpoint-out``/``--checkpoint-every`` save periodic checkpoints;
``--from-checkpoint`` resumes from one (verified replay to the saved
cycle, then continue).

**Checkpoints** (``inspect``/``validate``/``resume PATH``).  ``inspect``
prints the header, metadata and per-subsystem digests (``--json`` for
machine-readable output); ``validate`` loads the file under full
content-digest verification; ``resume`` rebuilds the embedded RunSpec's
experiment, replays to the saved cycle under digest verification, runs
it to completion and prints the final cycles and stats digest
(``--checkpoint-out`` keeps checkpointing the continued run).

Usage (from the repo root):

    PYTHONPATH=src python tools/replay.py --case 17 --events 50
    PYTHONPATH=src python tools/replay.py --integrity --case 3 \\
        --dump-dir /tmp/dumps
    PYTHONPATH=src python tools/replay.py --app bfs \\
        --technique maple-decouple --threads 2 --fault-seed 12345
    PYTHONPATH=src python tools/replay.py --case 5 --record /tmp/log.json
    PYTHONPATH=src python tools/replay.py --case 5 --check /tmp/log.json
    PYTHONPATH=src python tools/replay.py --case 5 \\
        --checkpoint-out /tmp/c5.ckpt.json --checkpoint-every 5000
    PYTHONPATH=src python tools/replay.py --case 5 \\
        --from-checkpoint /tmp/c5.ckpt.json
    PYTHONPATH=src python tools/replay.py inspect run.ckpt.json --json
    PYTHONPATH=src python tools/replay.py validate run.ckpt.json
    PYTHONPATH=src python tools/replay.py resume run.ckpt.json

Exit codes (one per outcome; 2 only ever means a usage error):

    0   ok
    2   usage error
    3   unresumable: the checkpoint carries no RunSpec (``resume``)
    4   result check failed: the golden oracle rejected the output
    5   replay diverged from ``--check LOG`` (a unified diff follows)
    6   data-integrity failure: unrecoverable corruption, typed
    7   corrupt or unreadable checkpoint
    8   checkpoint replay diverged from the saved digests
    9   liveness trip: hang, stall or deadlock
    10  invariant violation
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.campaign import FUZZ_WATCHDOG, PLANS, materialize, run_armed
from repro.sim import DataIntegrityError, InvariantViolation, LivenessError
from repro.sim.checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointDivergenceError,
    CheckpointUnresumableError,
    digest_of,
    resume_checkpoint,
)


class ReplayDiverged(Exception):
    """The replayed fault log differs from the ``--check`` recording."""


#: The exit-code table of the module docstring, as exception -> (code,
#: banner).  First match wins, so subclasses precede their bases
#: (InvariantViolation is an AssertionError).
FAILURES = (
    (CheckpointUnresumableError, 3, "UNRESUMABLE"),
    (ReplayDiverged, 5, "REPLAY DIVERGED"),
    (DataIntegrityError, 6, "DATA-INTEGRITY FAILURE"),
    (CheckpointCorruptError, 7, "CORRUPT CHECKPOINT"),
    (CheckpointDivergenceError, 8, "CHECKPOINT REPLAY DIVERGED"),
    (LivenessError, 9, "LIVENESS TRIP"),
    (InvariantViolation, 10, "INVARIANT VIOLATION"),
    (AssertionError, 4, "RESULT CHECK FAILED"),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", nargs="?",
                        choices=("inspect", "validate", "resume"),
                        help="checkpoint command (omit to replay a run)")
    parser.add_argument("path", nargs="?", help="checkpoint file")
    parser.add_argument("--json", action="store_true",
                        help="inspect: machine-readable output")
    parser.add_argument("--case", type=int, default=None,
                        help="sweep case number to replay exactly")
    parser.add_argument("--integrity", action="store_true",
                        help="use the integrity sweep (armed protection + "
                             "corruption plan) instead of the fault sweep")
    parser.add_argument("--master-seed", type=int, default=None,
                        help="override the sweep's master seed")
    parser.add_argument("--app", default="spmv",
                        help="workload for ad-hoc mode (ignored with --case)")
    parser.add_argument("--technique", default="maple-decouple")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fault-seed", type=int, default=1,
                        help="FaultPlan.random (or .random_integrity, with "
                             "--integrity) seed for ad-hoc mode")
    parser.add_argument("--events", type=int, default=20,
                        help="how many injected fault events to print")
    parser.add_argument("--dump-dir", default=None,
                        help="directory for watchdog JSON dumps on failure")
    parser.add_argument("--record", default=None, metavar="LOG",
                        help="write the fault-hit log + cycles as JSON")
    parser.add_argument("--check", default=None, metavar="LOG",
                        help="replay and compare against a recorded log")
    parser.add_argument("--checkpoint-out", default=None, metavar="CKPT",
                        help="save periodic checkpoints of the replayed or "
                             "resumed run here")
    parser.add_argument("--checkpoint-every", type=int, default=20_000,
                        help="cycles between --checkpoint-out checkpoints "
                             "(default 20000)")
    parser.add_argument("--from-checkpoint", default=None, metavar="CKPT",
                        help="resume the replay from a saved checkpoint")
    return parser


def _event_lines(cycles, events):
    """The canonical, diffable rendering of one run's fault-hit log."""
    lines = [f"cycles {cycles}"]
    lines.extend(f"@{cycle} {kind} {detail}" for cycle, kind, detail in events)
    return lines


def _checkpoint_out(args) -> dict:
    """``run_workload`` kwargs that save periodic checkpoints, if asked."""
    if not args.checkpoint_out:
        return {}
    return {"checkpoint_every": args.checkpoint_every,
            "checkpoint_path": args.checkpoint_out}


def _replay(args) -> None:
    campaign = "integrity" if args.integrity else "fault"
    if args.case is not None:
        fc = materialize(campaign, args.case, args.master_seed)
        print(fc.describe())
        workload, technique, kwargs = fc.workload, fc.technique, fc.run_kwargs()
    else:
        plan = PLANS[campaign](args.fault_seed)
        print(f"ad-hoc: {args.app}/{args.technique} x{args.threads} "
              f"scale={args.scale} {campaign}[{plan.describe()}]")
        workload, technique = args.app, args.technique
        kwargs = {"threads": args.threads, "scale": args.scale,
                  "seed": args.seed, "fault_plan": plan}

    if args.dump_dir:
        kwargs["watchdog"] = {**FUZZ_WATCHDOG, "dump_dir": args.dump_dir}
    kwargs.update(_checkpoint_out(args))
    if args.from_checkpoint:
        kwargs["resume_from"] = Checkpoint.load(args.from_checkpoint)
        print(f"resuming from checkpoint @{kwargs['resume_from'].cycle} "
              f"({args.from_checkpoint})")

    result = run_armed(workload, technique, **kwargs)
    injector = result.soc.fault_injector
    events = list(injector.events) if injector is not None else []
    print(f"\ncompleted correct: cycles={result.cycles} "
          f"fault_events={result.fault_events} "
          f"invariants_checked={result.invariants_checked}")
    if events:
        shown = events[:args.events]
        print(f"\nfault event log (first {len(shown)} of {len(events)}):")
        for cycle, kind, detail in shown:
            print(f"  @{cycle:<10} {kind:<12} {detail}")

    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump({"case": args.case, "integrity": args.integrity,
                       "cycles": result.cycles,
                       "events": [list(e) for e in events]},
                      handle, indent=2)
        print(f"\nrecorded {len(events)} event(s) -> {args.record}")

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            recorded = json.load(handle)
        want = _event_lines(recorded["cycles"],
                            [tuple(e) for e in recorded["events"]])
        got = _event_lines(result.cycles, events)
        if want != got:
            diff = difflib.unified_diff(want, got, fromfile="recorded",
                                        tofile="replayed", lineterm="")
            raise ReplayDiverged("\n".join([f"from {args.check}:", *diff]))
        print(f"\nreplay matches {args.check} "
              f"({len(events)} event(s), {result.cycles} cycles)")


def _checkpoint_command(args) -> None:
    ckpt = Checkpoint.load(args.path)
    if args.command == "validate":
        print(f"valid checkpoint: cycle={ckpt.cycle} schema={ckpt.schema} "
              f"resumable={ckpt.resumable} "
              f"content_sha256={ckpt.content_digest()[:16]}")
    elif args.command == "inspect":
        info = {
            "cycle": ckpt.cycle,
            "events_executed": ckpt.events_executed,
            "schema": ckpt.schema,
            "label": ckpt.label,
            "resumable": ckpt.resumable,
            "spec_key": ckpt.spec_key,
            "meta": dict(ckpt.meta),
            "stats_entries": len(ckpt.stats),
            "content_sha256": ckpt.content_digest(),
            "digests": dict(ckpt.digests),
        }
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return
        print(f"checkpoint {args.path}")
        for field in ("cycle", "events_executed", "schema", "label",
                      "resumable", "spec_key", "stats_entries",
                      "content_sha256"):
            print(f"  {field:18s} {info[field]}")
        for key, value in sorted(info["meta"].items()):
            print(f"  meta.{key:13s} {value}")
        print("  per-subsystem digests:")
        for name, digest in sorted(info["digests"].items()):
            print(f"    {name:12s} {digest}")
    else:
        result = resume_checkpoint(ckpt, **_checkpoint_out(args))
        print(f"resumed '{ckpt.label}' from cycle {ckpt.cycle}: "
              f"completed at cycles={result.cycles} "
              f"events={result.soc.sim.events_executed} "
              f"stats_sha256={digest_of(result.soc.stats_snapshot())[:16]}")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command and (args.path is None or args.case is not None
                         or args.record or args.check or args.from_checkpoint):
        parser.error(f"{args.command} takes one checkpoint PATH and no "
                     f"replay flags")
    try:
        if args.command:
            _checkpoint_command(args)
        else:
            _replay(args)
    except tuple(exc for exc, _, _ in FAILURES) as err:
        code, banner = next((code, banner) for exc, code, banner in FAILURES
                            if isinstance(err, exc))
        print(f"\n{banner}: {err}", file=sys.stderr)
        if isinstance(err, LivenessError):
            print(json.dumps(err.diagnosis, indent=2, sort_keys=True,
                             default=repr), file=sys.stderr)
        if isinstance(err, DataIntegrityError):
            print(json.dumps(err.describe(), indent=2, sort_keys=True),
                  file=sys.stderr)
            if err.dump_path:
                print(f"diagnosis dump: {err.dump_path}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
