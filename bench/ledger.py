"""Per-layer host-time ledger and phase spans for the traced run.

Layers are named after the simulator's packages and modules.  cProfile's
``tottime`` of a function is its span minus its children's spans, so
summing ``tottime``/``ncalls`` over a layer's functions gives the layer's
exact self time and call count under profiling.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

import repro

#: Module (relative to the ``repro`` package) -> layer, where a package
#: is split into several layers.  Other modules of ``sim``/``mem`` fold
#: into ``sim.engine``/``mem.hierarchy``.
MODULE_LAYERS = {
    "sim/engine.py": "sim.engine",
    "sim/signal.py": "sim.engine",
    "sim/port.py": "sim.port",
    "sim/faults.py": "sim.robust",
    "sim/invariants.py": "sim.robust",
    "sim/watchdog.py": "sim.robust",
    "sim/checkpoint.py": "sim.robust",
    "sim/stats.py": "sim.stats",
    "mem/hierarchy.py": "mem.hierarchy",
    "mem/backing.py": "mem.hierarchy",
    "mem/cache.py": "mem.cache",
    "mem/coherence.py": "mem.coherence",
    "mem/directory.py": "mem.coherence",
    "mem/dram.py": "mem.dram",
}
#: Packages that are one layer each; top-level modules (``params``)
#: belong to ``system``, and everything outside ``repro`` (stdlib, numpy,
#: builtins, the benchmark itself) to ``other``.
PACKAGE_LAYERS = ("noc", "cpu", "compiler", "core", "vm", "baselines",
                  "kernels", "datasets", "system", "harness")
LAYERS = ("sim.engine", "sim.port", "sim.robust", "sim.stats",
          "mem.hierarchy", "mem.cache", "mem.coherence", "mem.dram",
          *PACKAGE_LAYERS, "other")

_REPRO_DIR = str(Path(repro.__file__).resolve().parent) + os.sep


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if not filename.startswith(_REPRO_DIR):
        return "other"
    module = filename[len(_REPRO_DIR):].replace(os.sep, "/")
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    package = module.split("/")[0]
    if package in PACKAGE_LAYERS:
        return package
    if package == "sim":
        return "sim.engine"
    if package == "mem":
        return "mem.hierarchy"
    return "system"


def fold(profiler) -> Dict[str, Dict[str, float]]:
    """{layer: {"self_s", "calls"}} from a disabled cProfile.Profile
    (``inlinetime`` is pstats' ``tottime``; builtins have no code
    object and fold into ``other``)."""
    ledger = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in profiler.getstats():
        layer = layer_of(getattr(entry.code, "co_filename", ""))
        ledger[layer]["self_s"] += entry.inlinetime
        ledger[layer]["calls"] += entry.callcount
    return ledger


def merge(ledgers: List[Dict[str, Dict[str, float]]]
          ) -> Dict[str, Dict[str, float]]:
    """Layer-wise sum of several ledgers (e.g. one per phase)."""
    total = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for ledger in ledgers:
        for layer, entry in ledger.items():
            total[layer]["self_s"] += entry["self_s"]
            total[layer]["calls"] += entry["calls"]
    return total


class Spans:
    """Phase spans kept in memory: workload > pass > cell > phase.

    Each span has an id and its parent's id; ``tid`` separates the
    sweep's worker processes in the Chrome trace.
    """

    def __init__(self):
        self.spans: List[Dict] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, tid: int = 0, **args) -> int:
        span_id = len(self.spans) + 1
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": start, "end": end, "tid": tid,
                           "args": args})
        return span_id

    def chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (complete events, microseconds)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
                   "ts": (s["start"] - origin) * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"id": s["id"], "parent": s["parent"],
                            **s["args"]}}
                  for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
