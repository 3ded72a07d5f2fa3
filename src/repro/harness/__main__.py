"""Command-line figure/table regenerator.

Usage::

    python -m repro.harness fig8
    python -m repro.harness fig12 --scale 1
    python -m repro.harness fig14 table1 table2 table3 area
    python -m repro.harness all --jobs 4   # shard cells across 4 workers
    python -m repro.harness all --no-cache # force re-simulation

Each target names a plan (see :mod:`repro.harness.figures`): the
simulation cells it needs plus a pure reduction to its rendered text.
The requested targets' cells go to the orchestrator as one batch, so a
cell shared between targets (Figs. 9-11 share all of theirs) simulates
once, and every deterministic cell renders byte-identically at any
``--jobs N`` (see ``repro/harness/orchestrator.py``).  Results are cached
on disk under ``~/.cache/repro-harness`` (override with ``--cache-dir``
or ``$REPRO_CACHE_DIR``) keyed by the full SoC configuration, so
re-renders after unrelated edits are instant; ``--no-cache`` disables
both read and write.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.harness import figures, tables
from repro.harness.orchestrator import make_orchestrator


def _figure(study, index=None):
    """Target rendering ``study``'s figure (``index`` picks one figure of
    a study that yields several)."""
    def plan(scale):
        inner = study(scale=scale)

        def render(results):
            figs = inner.reduce(results)
            return (figs if index is None else figs[index]).render()
        return figures.Plan(inner.specs, render)
    return plan


def _static(text):
    """Target with no simulation cells: ``text()`` is the whole render."""
    return lambda scale: figures.Plan((), lambda results: text())


#: Target name -> plan factory taking the dataset scale; every plan
#: reduces to the target's rendered text.
TARGETS = {
    "fig8": _figure(figures.fig8),
    "fig9": _figure(figures.prefetch_study, 0),
    "fig10": _figure(figures.prefetch_study, 1),
    "fig11": _figure(figures.prefetch_study, 2),
    "fig12": _figure(figures.fig12),
    "fig13": _figure(figures.fig13),
    "fig14": _static(lambda: figures.fig14().render()),
    "fig15": _figure(figures.fig15),
    "queue-sweep": _figure(figures.queue_sweep),
    "mesh-speedup": _figure(figures.mesh_scaling_study, 0),
    "mesh-noc": _figure(figures.mesh_scaling_study, 1),
    "mesh-coherence": _figure(figures.mesh_coherence_study),
    "area": _static(figures.area_text),
    "table1": _static(tables.table1),
    "table2": _static(tables.table2),
    "table3": _static(tables.table3),
}


def _progress_printer(event: dict) -> None:
    """Structured progress on stderr (stdout stays byte-stable output)."""
    kind = event.get("event")
    if kind == "start":
        print(f"[orchestrator] {event['total']} cells on "
              f"{event['jobs']} worker(s)", file=sys.stderr)
    elif kind == "done":
        src = "cache" if event["cached"] else f"{event['wall_seconds']:.2f}s"
        print(f"[orchestrator]   {event['label']:48s} {src}",
              file=sys.stderr)
    elif kind == "timeout":
        print(f"[orchestrator]   {event['label']:48s} TIMEOUT "
              f"(attempt {event['attempt']})", file=sys.stderr)
    elif kind == "finish":
        print(f"[orchestrator] done: {event['executed']} simulated, "
              f"{event['cached']} cached, {event['timeouts']} timeouts, "
              f"{event['wall_seconds']:.1f}s wall "
              f"({event['sim_seconds']:.1f}s of simulation)",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate tables/figures of the MAPLE evaluation.")
    parser.add_argument("targets", nargs="+",
                        help=f"one of {', '.join(TARGETS)}, or 'all'")
    parser.add_argument("--scale", type=int, default=1,
                        help="dataset scale factor (default 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation cells "
                             "(default 1 = serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk experiment result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="cache location (default ~/.cache/repro-harness "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-cell seconds before a hung worker is "
                             "retried (parallel runs only; default 600)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines on stderr")
    args = parser.parse_args(argv)

    targets = list(args.targets)
    if targets == ["all"]:
        targets = list(TARGETS)
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown target(s): {', '.join(unknown)}")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    orch = make_orchestrator(
        jobs=args.jobs, use_cache=not args.no_cache,
        cache_dir=args.cache_dir, timeout=args.timeout,
        progress=None if args.quiet else _progress_printer)

    plans = [TARGETS[target](args.scale) for target in targets]
    for text in figures.run(*plans, orch=orch):
        print(text)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
