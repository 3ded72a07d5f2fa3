"""The benchmark's five workloads, and the code that runs one pass of each.

Every workload is closed loop with one client: a cell starts when the
previous one ends.  Each cell builds a fresh ``Soc`` through
``run_workload``, so every simulated cache starts empty.  The seed feeds
every dataset (and, on ``armed-mix``, every fault plan); the simulator
receives only the generated inputs.

A non-sweep cell has three phases, split at the ``Simulator.run``
boundary by :class:`Probe`: *setup* (dataset generation, ``Soc`` build,
bind) up to the first entry into ``Simulator.run``, *run* (host time
inside it) and *check* (from the last exit to the end of the cell: port
drain, functional check, result assembly).
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing.util
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import Graph, power_law_graph
from repro.harness.figures import roundtrip_config
from repro.harness.orchestrator import Orchestrator, RunSpec
from repro.harness.techniques import run_workload
from repro.kernels import ALL_WORKLOADS
from repro.params import FPGA_CONFIG, SoCConfig
from repro.sim import FaultPlan, Simulator
from repro.system.soc import coherence_stress_config

#: Workload names, in the order a full run takes them.
WORKLOADS = ("fig8-mix", "armed-mix", "bfs-lima", "mesh-coherence", "sweep")

#: (app, technique, threads) of the fig8 mix at dataset scale 2.
FIG8_MIX = (("spmv", "maple-decouple", 4), ("spmv", "doall", 4),
            ("sdhp", "maple-decouple", 8), ("sdhp", "doall", 8))
FIG8_SCALE = 2

#: Worker processes of the sweep workload (the benchmark host's nproc).
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Cell:
    """One ``run_workload`` call; ``make_dataset`` runs inside the cell."""

    label: str
    app: str
    technique: str
    threads: int
    config: SoCConfig
    make_dataset: Callable[[], object]
    options: Dict[str, object] = field(default_factory=dict)


@dataclass
class CellOutcome:
    """What one cell produced: its simulated results and its phase times."""

    label: str
    error: Optional[str] = None
    cycles: int = 0
    events: int = 0
    digest: str = ""
    counts: Dict[str, float] = field(default_factory=dict)
    #: Phase boundaries (perf_counter seconds; for sweep cells the run
    #: phase is spawn to done); ``run_s`` is the host time inside
    #: ``Simulator.run`` (sweep: the worker's own wall time).
    start: float = 0.0
    run_entry: Optional[float] = None
    run_exit: Optional[float] = None
    end: float = 0.0
    run_s: float = 0.0
    #: Sweep cells only: False for an in-batch duplicate of an earlier
    #: spec, which the orchestrator does not simulate again.
    unique: bool = True
    worker_pid: int = 0

    @property
    def setup_s(self) -> float:
        return (self.run_entry if self.run_entry is not None
                else self.end) - self.start


@dataclass
class PassResult:
    """One pass of one workload."""

    workload: str
    cells: List[CellOutcome]
    wall_s: float
    setup_s: float
    sim_s: float
    start: float
    end: float
    #: Sweep only: (spawn, done, worker wall) per executed cell, spawn
    #: events, and cells left after in-batch dedup.
    dispatch: List[Tuple[float, float, float]] = field(default_factory=list)
    spawns: int = 0
    unique_cells: int = 0

    @property
    def events(self) -> int:
        return sum(c.events for c in self.cells if c.unique)

    @property
    def instructions(self) -> float:
        return sum(c.counts.get("cpu.instructions", 0)
                   for c in self.cells if c.unique)


# -- inputs ----------------------------------------------------------------------


def rooted_power_law_graph(num_vertices: int, avg_degree: int,
                           seed: int) -> Graph:
    """``power_law_graph`` with its highest out-degree vertex relabelled 0.

    The BFS kernel starts at vertex 0.  In a seeded power-law graph of
    average degree 2, vertex 0 has no out-edges for about one seed in
    seven, which makes the traversal trivial.  From the hub the BFS
    reaches the giant component (4.3k-4.8k of 16384 vertices for seeds
    0-19), so the work depends little on the seed.
    """
    graph = power_law_graph(num_vertices, avg_degree, seed)
    degree = np.diff(graph.row_ptr)
    root = int(np.argmax(degree))
    relabel = np.arange(num_vertices)
    relabel[[0, root]] = [root, 0]
    sources = relabel[np.repeat(np.arange(num_vertices), degree)]
    targets = relabel[graph.neighbors]
    order = np.lexsort((targets, sources))
    row_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(sources, minlength=num_vertices))))
    return Graph(graph.name, num_vertices, row_ptr, targets[order])


def _default_dataset(app: str, scale: int, seed: int):
    return ALL_WORKLOADS[app]().default_dataset(scale=scale, seed=seed)


def workload_cells(workload: str, seed: int) -> List[Cell]:
    """The cells of a non-sweep workload, in run order."""
    if workload in ("fig8-mix", "armed-mix"):
        armed = workload == "armed-mix"
        config = (FPGA_CONFIG.with_overrides(reliable_ports=True, ecc=True)
                  if armed else FPGA_CONFIG)
        cells = []
        for i, (app, technique, threads) in enumerate(FIG8_MIX):
            options = (dict(fault_plan=FaultPlan.random(seed + i),
                            check_invariants=True, watchdog=True)
                       if armed else {})
            cells.append(Cell(
                f"{app}/{technique} x{threads}", app, technique, threads,
                config,
                functools.partial(_default_dataset, app, FIG8_SCALE, seed),
                options))
        return cells
    if workload == "bfs-lima":
        graph = functools.partial(rooted_power_law_graph, 16384, 2, seed)
        return [Cell("bfs/lima x1", "bfs", "lima", 1, FPGA_CONFIG, graph),
                Cell("bfs/maple-decouple x2", "bfs", "maple-decouple", 2,
                     FPGA_CONFIG, graph)]
    if workload == "mesh-coherence":
        # The software-decoupled cells pass data through shared-memory
        # rings, one writer per line: directory invalidations, upgrades,
        # transfers and writebacks without racing writers.  (BFS with
        # racing writers trips a directory single-writer error on ~4% of
        # seeds, so it is not used here.)
        mesh = coherence_stress_config(8, 4)
        return [
            Cell("spmv/sw-decouple x16", "spmv", "sw-decouple", 16, mesh,
                 functools.partial(_default_dataset, "spmv", 4, seed)),
            Cell("sdhp/sw-decouple x16", "sdhp", "sw-decouple", 16, mesh,
                 functools.partial(_default_dataset, "sdhp", 2, seed)),
            Cell("sdhp/doall x16", "sdhp", "doall", 16, mesh,
                 functools.partial(_default_dataset, "sdhp", 1, seed)),
            Cell("spmv/maple-decouple x16", "spmv", "maple-decouple", 16,
                 mesh, functools.partial(_default_dataset, "spmv", 1, seed)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def sweep_specs(seed: int) -> List[Tuple[str, RunSpec]]:
    """(label, RunSpec) grid shaped like fig13 + fig15 + the queue sweep.

    44 specs; 8 of them repeat an earlier spec's config exactly (the
    default round trip and the default queue size), so the orchestrator
    simulates 36.
    """
    apps = ("sdhp", "spmv")
    techniques = ("doall", "maple-decouple")
    grid = []
    shared = FPGA_CONFIG.with_overrides(maple_instances=1)
    for threads in (2, 4, 8):
        grid += [(f"fig13/x{threads}/{app}/{tech}",
                  RunSpec(app, tech, threads=threads, seed=seed,
                          config=shared))
                 for app in apps for tech in techniques]
    for target in (11, 25, 51, 101):
        config = roundtrip_config(FPGA_CONFIG, target)
        grid += [(f"fig15/rt{target}/{app}/{tech}",
                  RunSpec(app, tech, threads=2, seed=seed, config=config))
                 for app in apps for tech in techniques]
    for entries in (8, 16, 32, 64):
        config = FPGA_CONFIG.with_overrides(
            scratchpad_bytes=entries * FPGA_CONFIG.maple_num_queues
            * FPGA_CONFIG.queue_entry_bytes)
        grid += [(f"queue/q{entries}/{app}/{tech}",
                  RunSpec(app, tech, threads=2, seed=seed, config=config))
                 for app in apps for tech in techniques]
    return grid


# -- simulated counts --------------------------------------------------------------


def _total(snapshot: Dict[str, float], prefix: str, suffix: str) -> float:
    """Sum of ``<prefix><index><suffix>`` counters (e.g. core3.loads)."""
    total = 0
    for key, value in snapshot.items():
        if key.startswith(prefix) and key.endswith(suffix):
            middle = key[len(prefix):len(key) - len(suffix)]
            if middle.isdigit():
                total += value
    return total


def sim_counts(snapshot: Dict[str, float], cycles: int, events: int,
               fault_events: int,
               telemetry: Optional[Dict[str, Dict]] = None
               ) -> Dict[str, float]:
    """Simulated work per layer, from ``stats_snapshot()`` and, where the
    cell ran in this process, ``port_telemetry()``.  All of these repeat
    exactly for a given seed."""
    ports = list((telemetry or {}).values())
    planes = ("request", "response", "memory")
    counts = {
        "sim.events": events,
        "sim.cycles": cycles,
        "port.requests": sum(p["requests"] for p in ports),
        "port.stalls": sum(p["stalls"] for p in ports),
        "port.retransmits": sum(p["retransmits"] for p in ports),
        "noc.packets": sum(snapshot.get(f"noc.{p}.packets", 0)
                           for p in planes),
        "noc.hops": sum(snapshot.get(f"noc.{p}.hops", 0) for p in planes),
        "noc.memory.packets": snapshot.get("noc.memory.packets", 0),
        "l1.hits": _total(snapshot, "l1.", ".hits"),
        "l1.misses": _total(snapshot, "l1.", ".misses"),
        "vm.walks": (_total(snapshot, "core", ".walks")
                     + _total(snapshot, "maple", ".walks")),
        "faults.events": fault_events,
    }
    for key in ("l2.hits", "l2.misses", "l2.writebacks", "dram.reads",
                "directory.invalidations", "directory.transfers",
                "directory.upgrades", "directory.refills",
                "directory.writebacks", "os.mmap_pages"):
        counts[key] = snapshot.get(key, 0)
    for name in ("instructions", "loads", "stores"):
        counts[f"cpu.{name}"] = _total(snapshot, "core", f".{name}")
    for name in ("consumes", "produce_ptrs", "consume_stalls",
                 "produce_backpressure", "hits", "misses"):
        counts[f"maple.{name}"] = _total(snapshot, "maple", f".{name}")
    return counts


def stats_digest(snapshot: Dict[str, float]) -> str:
    """sha256 of the canonical JSON form of a stats snapshot."""
    canon = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- phase probe -------------------------------------------------------------------


class _SetupDone(Exception):
    """Ends a set-up-only round at its first entry into ``Simulator.run``
    (sweep: at its first worker spawn)."""


class Probe:
    """Splits each cell into phases at the ``Simulator.run`` boundary.

    While active it wraps ``Simulator.run`` (the class attribute, so
    every SoC built meanwhile is covered) with a timer.  In a traced
    pass it also switches the cProfile profiler there, one profiler per
    phase, so per-layer self time splits into set-up, run and check; the
    sweep's single phase is its supervisor.  With ``setup_only`` set, a
    cell ends at its first entry into ``Simulator.run``.  A forked
    orchestrator worker drops the cell and stops the profiler it
    inherited, so workers run untimed and unprofiled.
    """

    PHASES = ("setup", "run", "check")

    def __init__(self):
        self.cell: Optional[CellOutcome] = None
        self.profilers: Optional[Dict[str, object]] = None
        self.setup_only = False
        self._phase: Optional[str] = None
        self._original = None
        multiprocessing.util.register_after_fork(self, Probe._forked)

    def __enter__(self) -> "Probe":
        original = self._original = Simulator.run
        probe = self

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            cell = probe.cell
            if cell is None:
                return original(sim, *args, **kwargs)
            entry = time.perf_counter()
            if cell.run_entry is None:
                cell.run_entry = entry
            if probe.setup_only:
                raise _SetupDone
            probe.enter_phase("run")
            try:
                return original(sim, *args, **kwargs)
            finally:
                cell.run_exit = time.perf_counter()
                cell.run_s += cell.run_exit - entry
                probe.enter_phase("check")

        Simulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        Simulator.run = self._original

    def _forked(self) -> None:
        self.enter_phase(None)
        self.cell = self.profilers = None

    def enter_phase(self, phase: Optional[str]) -> None:
        """Make ``phase``'s profiler the active one (``None``: none)."""
        if self.profilers is not None:
            if self._phase is not None:
                self.profilers[self._phase].disable()
            if phase is not None:
                self.profilers[phase].enable()
        self._phase = phase

    def run_cell(self, cell: Cell) -> Tuple[CellOutcome, object]:
        """Run one cell; returns its outcome and the ExperimentResult
        (``None`` when the cell raised)."""
        outcome = CellOutcome(cell.label)
        result = None
        self.cell = outcome
        outcome.start = time.perf_counter()
        self.enter_phase("setup")
        try:
            result = run_workload(cell.app, cell.technique,
                                  threads=cell.threads, config=cell.config,
                                  dataset=cell.make_dataset(),
                                  **cell.options)
        except _SetupDone:
            pass
        except Exception as exc:  # counted as a failed cell, never fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.enter_phase(None)
            outcome.end = time.perf_counter()
            self.cell = None
        return outcome, result


def run_pass(workload: str, seed: int, probe: Probe) -> PassResult:
    """One pass of ``workload``, traced when ``probe.profilers`` is set."""
    with warnings.catch_warnings():
        # Meshes grown to seat 8 or 16 cores warn on every cell.
        warnings.simplefilter("ignore")
        if workload == "sweep":
            return _sweep_pass(seed, probe)
        return _cells_pass(workload, seed, probe)


def setup_round(workload: str, seed: int, probe: Probe) -> float:
    """The set-up time of one pass, measured without running it: each cell
    ends at its first entry into ``Simulator.run``, and the sweep at its
    first worker spawn (the orchestrator kills and joins that worker)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if workload == "sweep":
            return _sweep_setup(seed)
        probe.setup_only = True
        try:
            return sum(probe.run_cell(cell)[0].setup_s
                       for cell in workload_cells(workload, seed))
        finally:
            probe.setup_only = False


def _sweep_setup(seed: int) -> float:
    def first_spawn(event):
        if event["event"] == "spawn":
            raise _SetupDone(time.perf_counter())

    start = time.perf_counter()
    try:
        Orchestrator(jobs=SWEEP_JOBS, progress=first_spawn).run(
            [spec for _, spec in sweep_specs(seed)])
    except _SetupDone as spawned:
        return spawned.args[0] - start
    raise RuntimeError("the sweep ended without spawning a worker")


def _cells_pass(workload: str, seed: int, probe: Probe) -> PassResult:
    cells = []
    start = time.perf_counter()
    for cell in workload_cells(workload, seed):
        outcome, result = probe.run_cell(cell)
        if result is not None:
            soc = result.soc
            snapshot = soc.stats_snapshot()
            outcome.cycles = result.cycles
            outcome.events = soc.sim.events_executed
            outcome.digest = stats_digest(snapshot)
            outcome.counts = sim_counts(snapshot, result.cycles,
                                        outcome.events, result.fault_events,
                                        soc.port_telemetry())
        cells.append(outcome)
    end = time.perf_counter()
    return PassResult(workload, cells, wall_s=end - start,
                      setup_s=sum(c.setup_s for c in cells),
                      sim_s=sum(c.run_s for c in cells),
                      start=start, end=end)


def _sweep_pass(seed: int, probe: Probe) -> PassResult:
    """The sweep workload: one ``Orchestrator.run`` over the spec grid on
    ``SWEEP_JOBS`` supervised worker processes, without the disk cache."""
    progress = []
    start = time.perf_counter()
    grid = sweep_specs(seed)
    probe.enter_phase("supervisor")
    try:
        orch = Orchestrator(jobs=SWEEP_JOBS, progress=lambda event:
                            progress.append((time.perf_counter(), event)))
        results = orch.run([spec for _, spec in grid])
        error = None
    except Exception as exc:  # counted as failed cells, never fatal
        results, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        probe.enter_phase(None)
    end = time.perf_counter()

    spawns = 0
    spawned: Dict[str, float] = {}
    done: Dict[str, Tuple[float, float]] = {}
    for stamp, event in progress:
        if event["event"] == "spawn":
            spawns += 1
            spawned[event["key"]] = stamp
        elif event["event"] == "done" and not event.get("cached"):
            done[event["key"]] = (stamp, event["wall_seconds"])
    first_spawn = min(spawned.values(), default=end)
    dispatch = [(spawned[key], stamp, wall)
                for key, (stamp, wall) in done.items() if key in spawned]

    cells = []
    seen = set()
    for i, (label, _) in enumerate(grid):
        outcome = CellOutcome(label, start=start, end=end)
        if results is None:
            outcome.error = error
        else:
            result = results[i]
            short = result.key[:12]
            outcome.unique = short not in seen
            seen.add(short)
            outcome.cycles = result.cycles
            outcome.events = result.events_executed
            outcome.digest = stats_digest(result.stats)
            outcome.counts = sim_counts(result.stats, result.cycles,
                                        result.events_executed,
                                        result.fault_events)
            outcome.worker_pid = result.worker_pid
            if short in spawned and short in done:
                outcome.run_entry = spawned[short]
                outcome.run_exit = done[short][0]
                outcome.run_s = done[short][1]
        cells.append(outcome)
    return PassResult("sweep", cells, wall_s=end - start,
                      setup_s=first_spawn - start,
                      sim_s=sum(wall for _, wall in done.values()),
                      start=start, end=end, dispatch=dispatch,
                      spawns=spawns, unique_cells=len(seen))
