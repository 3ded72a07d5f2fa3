"""Shared benchmark helpers.

Every benchmark runs its experiment exactly once (``pedantic`` with one
round): the simulations are deterministic, so repetition only measures
host noise, and some figures take minutes of simulated work.

Every simulated figure (fig8, figs. 9-11, fig12, fig13, fig15,
queue-sweep) runs as ``figures.run(plan, orch=harness_orchestrator())``:
set ``HARNESS_JOBS=N`` to shard its cells across N worker processes.
Results are byte-identical at any job count, so the assertions don't
care.
"""

import os


from repro.harness.orchestrator import Orchestrator


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def harness_orchestrator():
    """Orchestrator honouring ``HARNESS_JOBS`` (default 1 = serial)."""
    jobs = int(os.environ.get("HARNESS_JOBS", "1"))
    return Orchestrator(jobs=jobs, timeout=600.0 if jobs > 1 else None)
