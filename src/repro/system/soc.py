"""Full-SoC construction and experiment execution helpers."""

from __future__ import annotations

import math
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.driver import MapleDriver
from repro.core.engine import Maple
from repro.cpu.core import Core, Thread
from repro.mem.directory import Directory, interleaved_home_tiles
from repro.mem.hierarchy import MemorySystem
from repro.noc import Mesh, Network, placement_tiles
from repro.params import SoCConfig
from repro.sim import Barrier, PortRegistry, Simulator, Stats, Watchdog
from repro.sim.watchdog import raise_liveness
from repro.vm.alloc import SimArray, alloc_array
from repro.vm.os_model import AddressSpace, SimOS


class MeshGrownWarning(UserWarning):
    """The configured mesh could not seat every tile and was resized.

    Silent growth used to be a footgun: a sweep that sets ``num_cores``
    without touching ``mesh_cols/rows`` quietly simulates a *different
    geometry* than the config names, skewing hop counts.  The warning
    carries the numbers so harnesses can log or escalate it.
    """

    def __init__(self, requested: Tuple[int, int], grown: Tuple[int, int],
                 needed: int):
        self.requested = requested
        self.grown = grown
        self.needed = needed
        super().__init__(
            f"mesh {requested[0]}x{requested[1]} cannot seat {needed} "
            f"tiles (cores + MAPLEs); grown to {grown[0]}x{grown[1]} — "
            "set mesh_cols/mesh_rows explicitly to silence this")


def fit_mesh(cfg: SoCConfig) -> SoCConfig:
    """``cfg`` itself when its mesh seats every tile (cores + MAPLEs),
    else ``cfg`` with the mesh grown to the geometry the :class:`Soc`
    picks: at least ``ceil(sqrt(tiles))`` columns, then enough rows."""
    needed = cfg.num_cores + cfg.maple_instances
    if cfg.mesh_cols * cfg.mesh_rows >= needed:
        return cfg
    cols = max(cfg.mesh_cols, math.ceil(math.sqrt(needed)))
    rows = math.ceil(needed / cols)
    return cfg.with_overrides(mesh_cols=cols, mesh_rows=rows)


def stress_mesh_config(side: int = 16, maple_instances: int = 1,
                       base: Optional[SoCConfig] = None) -> SoCConfig:
    """A ``side`` x ``side`` mesh stress configuration (16x16 = 256 tiles
    by default), every non-MAPLE tile seating a core.

    This is the scaling testbed for the quiescence contract: components
    are event-driven (nothing polls on ``yield 1``), so a mostly-idle
    large mesh must execute events proportional to *active traffic*, not
    tile count.  ``tests/test_large_mesh_scaling.py`` runs the same
    workload on 4x4 and 32x32 meshes built from this config and asserts
    the event count stays flat.
    """
    cfg = base or SoCConfig()
    return cfg.with_overrides(
        mesh_cols=side, mesh_rows=side,
        num_cores=side * side - maple_instances,
        maple_instances=maple_instances)


def coherence_stress_config(side: int = 4, maple_instances: int = 1,
                            slices: int = 4,
                            base: Optional[SoCConfig] = None) -> SoCConfig:
    """The directory-on variant of :func:`stress_mesh_config`: per-
    quadrant MAPLE placement, a sliced home-node directory, and L2
    refill/writeback traffic on the MEMORY NoC plane — the full
    protocol-accurate coherence stack the ``mesh-coherence`` figure and
    the coherence fuzz suite exercise."""
    return stress_mesh_config(side, maple_instances, base).with_overrides(
        maple_placement="per-quadrant",
        directory=True, directory_slices=slices,
        directory_mem_traffic=True)


class Soc:
    """One simulated SoC instance: build, allocate, run, measure.

    Every experiment constructs a fresh :class:`Soc` so runs are fully
    isolated and deterministic.  Tile placement is row-major: cores at
    tiles ``0..num_cores-1``, MAPLE instances right after — so with the
    default 2x2 mesh, core 0 is one hop from MAPLE 0 and the analytic
    round trip lands at the paper's ~25 cycles (Fig. 14).
    """

    def __init__(self, config: Optional[SoCConfig] = None):
        self.config = config or SoCConfig()
        cfg = self._fit_mesh(self.config)
        self.config = cfg
        self.sim = Simulator()
        self.stats = Stats()
        #: Every cross-component seam is a Port pair wired through this
        #: registry — connect at build time, reset()/drain() around runs.
        self.ports = PortRegistry(self.sim)
        if cfg.reliable_ports:
            self.ports.configure_reliability(reliable=True)
        self.memsys = MemorySystem(self.sim, cfg, self.stats)
        self.os = SimOS(self.sim, self.memsys, cfg)
        self.mesh = Mesh(cfg.mesh_cols, cfg.mesh_rows)
        self.network = Network(self.sim, self.mesh, cfg, self.stats)

        # Tile geometry.  ``legacy`` (the bit-identity baseline) packs
        # cores at 0..num_cores-1 and MAPLEs right after, row-major; the
        # geometric policies place the MAPLE tiles first and cores fill
        # the remaining tiles in ascending order.
        if cfg.maple_placement == "legacy":
            self.maple_tiles: List[int] = [
                cfg.num_cores + i for i in range(cfg.maple_instances)]
        else:
            self.maple_tiles = placement_tiles(
                cfg.mesh_cols, cfg.mesh_rows, cfg.maple_instances,
                cfg.maple_placement)
        maple_tile_set = set(self.maple_tiles)
        core_seats = [t for t in range(self.mesh.size)
                      if t not in maple_tile_set][:cfg.num_cores]

        self.cores: List[Core] = []
        for core_id, tile in enumerate(core_seats):
            self.mesh.place(tile, f"core{core_id}")
            self.memsys.add_core(core_id)
            mem_port = self.memsys.connect_core_port(self.ports, core_id, tile)
            self.cores.append(Core(core_id, tile, self.sim, mem_port,
                                   self.os, cfg, self.stats))
        self.core_tiles: Dict[int, int] = {
            core.core_id: core.tile_id for core in self.cores}

        self.maples: List[Maple] = []
        for instance, tile in enumerate(self.maple_tiles):
            self.mesh.place(tile, f"maple{instance}")
            maple = Maple(instance, tile, self.sim, self.memsys, self.network,
                          cfg, self.stats, mmio_base=SimOS.MMIO_BASE,
                          ports=self.ports)
            maple.core_tiles = dict(self.core_tiles)
            self.maples.append(maple)

        #: Sliced-L2 home-node directory (opt-in; ``None`` keeps the
        #: legacy flat-latency coherence charges bit-identical).
        self.directory: Optional[Directory] = None
        if cfg.directory:
            self.directory = Directory(
                self.sim, self.memsys, self.network, self.ports,
                interleaved_home_tiles(cfg.mesh_cols, cfg.mesh_rows,
                                       cfg.directory_slices),
                self.core_tiles, cfg, self.stats)
            self.memsys.attach_directory(self.directory)

        self.driver = MapleDriver(self.os, self.maples, self.mesh)
        #: The active :class:`~repro.sim.faults.FaultInjector`, if any —
        #: set by ``FaultInjector.install`` so post-run tooling (e.g.
        #: ``tools/replay.py``) can read the fault event log.
        self.fault_injector = None

    @staticmethod
    def _fit_mesh(cfg: SoCConfig) -> SoCConfig:
        """Grow the mesh if the configured one cannot seat every tile
        (:func:`fit_mesh`), warning with :class:`MeshGrownWarning` (the
        simulated geometry is no longer the one the config names)."""
        fitted = fit_mesh(cfg)
        if fitted is not cfg:
            warnings.warn(
                MeshGrownWarning((cfg.mesh_cols, cfg.mesh_rows),
                                 (fitted.mesh_cols, fitted.mesh_rows),
                                 cfg.num_cores + cfg.maple_instances),
                stacklevel=3)
        return fitted

    # -- process / data setup ---------------------------------------------------

    def new_process(self) -> AddressSpace:
        return self.os.create_address_space()

    def array(self, aspace: AddressSpace, data_or_length, name: str = "array",
              lazy: bool = False) -> SimArray:
        return alloc_array(self.os, aspace, data_or_length, name=name, lazy=lazy)

    def barrier(self, parties: int, name: str = "barrier") -> Barrier:
        return Barrier(self.sim, parties, name=name)

    # -- execution ------------------------------------------------------------------

    def run_threads(self, assignments: Sequence[Tuple[int, Thread]],
                    watchdog: Optional[Watchdog] = None,
                    checkpoint_every: Optional[int] = None,
                    on_checkpoint=None,
                    resume_from=None) -> int:
        """Run threads on cores until all finish; returns elapsed cycles.

        ``assignments`` is a list of ``(core_id, Thread)`` pairs; each core
        takes at most one thread (Tables 2/3: one hardware thread per
        core).  An optional armed-on-entry :class:`Watchdog` turns
        livelocks into diagnosed :class:`LivenessError`\\ s; deadlocks
        (event queue drained, threads still blocked) are diagnosed here
        regardless, naming the stuck cores and busy ports.

        Checkpoint hooks (see :mod:`repro.sim.checkpoint`):

        - ``checkpoint_every=N`` runs the engine in ``N``-cycle chunks
          and calls ``on_checkpoint(self)`` between chunks while events
          remain.  Chunk boundaries are invisible to the model (the
          engine's ``run(until=...)`` resumes exactly where it stopped),
          so checkpointed runs stay bit-identical to uninterrupted ones.
        - ``resume_from=<Checkpoint>`` first replays to the saved cycle
          and verifies every recorded state digest
          (:func:`~repro.sim.checkpoint.verify_against` — a mismatch is
          a typed :class:`CheckpointDivergenceError`), then continues
          normally.  The Soc must be freshly built from the same
          spec/arguments the checkpoint's run used.
        """
        seen_cores = set()
        finish: Dict[int, int] = {}
        for core_id, thread in assignments:
            if core_id in seen_cores:
                raise ValueError(f"core {core_id} assigned twice")
            seen_cores.add(core_id)
            proc = self.cores[core_id].run(thread)

            def waiter(p=proc, c=core_id):
                yield p
                finish[c] = self.sim.now

            self.sim.spawn(waiter(), name=f"join.core{core_id}")
        if watchdog is not None:
            watchdog.arm()
        try:
            if resume_from is not None:
                from repro.sim.checkpoint import verify_against
                self.sim.run(until=resume_from.cycle)
                verify_against(self, resume_from)
            if checkpoint_every:
                while True:
                    self.sim.run(until=self.sim.now + checkpoint_every)
                    if not self.sim.pending_events:
                        break
                    if on_checkpoint is not None:
                        on_checkpoint(self)
            else:
                self.sim.run()
        finally:
            if watchdog is not None:
                watchdog.disarm()
        if len(finish) != len(assignments):
            stuck = sorted(c for c, _ in assignments if c not in finish)
            raise_liveness(
                self, "deadlock",
                f"cores {stuck} never finished: the event queue drained "
                f"with {self.sim.live_processes} process(es) still blocked "
                "on handshakes that can never fire",
                dump_dir=watchdog.dump_dir if watchdog is not None else None)
        # With the event queue empty, every port transaction must have
        # completed; a leaked one is a model bug worth failing loudly on.
        self.ports.drain()
        return max(finish.values()) if finish else 0

    # -- checkpoint/restore -----------------------------------------------------

    def save_checkpoint(self, path, spec=None, label: str = ""):
        """Write a versioned, content-digested checkpoint of this SoC.

        Call between engine runs (e.g. from a ``run_threads``
        ``on_checkpoint`` hook).  ``spec`` (a picklable
        :class:`~repro.harness.orchestrator.RunSpec`) makes the file
        self-resuming via :meth:`resume`; without it the checkpoint can
        still be validated and resumed by a caller who rebuilds the
        experiment.  Returns the saved
        :class:`~repro.sim.checkpoint.Checkpoint`.
        """
        from repro.sim.checkpoint import capture
        return capture(self, spec=spec, label=label).save(path)

    @staticmethod
    def resume(path):
        """Resume a spec-carrying checkpoint file to completion.

        Rebuilds the experiment from the embedded spec, replays to the
        saved cycle under per-subsystem digest verification, and runs to
        the end; returns the
        :class:`~repro.harness.techniques.ExperimentResult`.  Raises the
        typed errors in :mod:`repro.sim.checkpoint` on corrupt,
        spec-less, or diverging checkpoints.
        """
        from repro.sim.checkpoint import resume_checkpoint
        return resume_checkpoint(path)

    # -- port lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Clear per-port telemetry (counters and traces) between
        measurement phases; requires all ports quiescent."""
        self.ports.reset()

    def drain(self) -> None:
        """Assert every port is quiescent (no transaction in flight)."""
        self.ports.drain()

    def port_telemetry(self) -> Dict[str, Dict[str, float]]:
        """Per-port tap snapshot (requests/responses/stalls/kind mix)."""
        return self.ports.telemetry()

    # -- reporting ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, float]:
        """Flat, picklable dump of every counter and histogram summary.

        This is the stats-dict form experiment results cross process
        boundaries in (the orchestrator's workers return it verbatim).
        """
        return self.stats.snapshot()
