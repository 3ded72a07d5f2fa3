"""Regenerate every figure of the paper's evaluation (§5).

Each figure function returns a :class:`Plan`: the independent
:class:`~repro.harness.orchestrator.RunSpec` cells the figure needs plus
a pure ``reduce`` that turns their results into a :class:`FigureResult`
with the series the paper reports (per-app bars plus geomeans).  Nothing
simulates until :func:`run`, the one place figures reach the
:class:`~repro.harness.orchestrator.Orchestrator`: it submits the union
of any number of plans as a single batch, so cells shared between
figures (Figs. 9-11 share all of theirs) simulate once.  Because every
cell is deterministic, the rendered figure is byte-identical at any job
count.  Absolute cycle counts come from this repository's simulator, so
the *shapes* — who wins, by roughly what factor — are the reproduction
target, not the paper's absolute numbers (see EXPERIMENTS.md for the
side-by-side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.area import estimate_area
from repro.harness.orchestrator import (
    Orchestrator,
    RunResult,
    RunSpec,
    freeze_dataset_kwargs,
    spec_key,
)
from repro.params import FPGA_CONFIG, SoCConfig
from repro.sim.stats import geomean

DEFAULT_APPS = ("sdhp", "spmm", "spmv", "bfs")
#: Decoupling-friendly subset used by the thread-scaling study.
SCALING_APPS = ("sdhp", "spmv")


@dataclass
class Series:
    """One group of bars: {app: value}."""

    label: str
    values: Dict[str, float] = field(default_factory=dict)

    def geomean(self) -> float:
        return geomean(list(self.values.values()))


@dataclass
class FigureResult:
    figure_id: str
    title: str
    apps: Sequence[str]
    series: List[Series]
    notes: str = ""

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def render(self) -> str:
        width = max(len(s.label) for s in self.series) + 2
        lines = [f"{self.figure_id}: {self.title}",
                 " " * width + " ".join(f"{app:>8s}" for app in self.apps)
                 + f" {'geomean':>8s}"]
        for s in self.series:
            cells = " ".join(f"{s.values[app]:8.2f}" for app in self.apps)
            lines.append(f"{s.label:{width}s}{cells} {s.geomean():8.2f}")
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Plan:
    """A figure as data: its cells plus ``reduce``, which turns their
    results (in ``specs`` order) into the figure without simulating."""

    specs: Tuple[RunSpec, ...]
    reduce: Callable[[List[RunResult]], Any]


def run(*plans: Plan, orch: Optional[Orchestrator] = None) -> List[Any]:
    """Simulate the union of the plans' cells in one orchestrator batch
    (serial in-process unless ``orch`` shards) and return each plan's
    reduction, in the order given.

    The orchestrator dedupes identical specs within a batch, so plans may
    list shared cells — a doall baseline, a whole study — and still
    simulate each once.
    """
    union = [spec for plan in plans for spec in plan.specs]
    results = (orch or Orchestrator()).run(union) if union else []
    by_key = {result.key: result for result in results}
    return [plan.reduce([by_key[spec_key(spec)] for spec in plan.specs])
            for plan in plans]


def _speedup_plan(figure_id: str, title: str, apps: Sequence[str],
                  bars: Sequence[Tuple[str, str]], config: SoCConfig,
                  scale: int, datasets: Optional[dict],
                  notes: str = "") -> Plan:
    """2-thread speedup over doall, one series per ``(label, technique)``
    bar.  The paper computes each application's bar as the geomean
    across its datasets (§5.2): ``datasets`` maps app -> list of
    ``dataset_kwargs`` dicts (absent = the app's single default dataset).
    """
    datasets = datasets or {}
    cells: Dict[Tuple[str, str], List[RunSpec]] = {}
    for app in apps:
        variants = [freeze_dataset_kwargs(kwargs)
                    for kwargs in datasets.get(app) or [None]]
        for label, technique in bars:
            cells[app, label] = [
                RunSpec(app, run_as, threads=2, scale=scale, config=config,
                        dataset_kwargs=frozen)
                for frozen in variants for run_as in ("doall", technique)]

    def reduce(results: List[RunResult]) -> FigureResult:
        results = iter(results)
        series = {label: Series(label) for label, _technique in bars}
        for (app, label), chunk in cells.items():
            pairs = [(next(results), next(results)) for _ in chunk[::2]]
            series[label].values[app] = geomean(
                [base.cycles / other.cycles for base, other in pairs])
        return FigureResult(figure_id, title, apps, list(series.values()),
                            notes=notes)

    return Plan(tuple(spec for chunk in cells.values() for spec in chunk),
                reduce)


def _decouple_sweep(figure_id: str, title: str, apps: Sequence[str],
                    points: Sequence[Tuple[str, int, SoCConfig]], scale: int,
                    notes: str = "") -> Plan:
    """Decoupling speedup over doall per app, one series per sweep point
    ``(label, threads, config)``."""
    specs = tuple(RunSpec(app, technique, threads=threads, scale=scale,
                          config=cfg)
                  for _label, threads, cfg in points
                  for app in apps
                  for technique in ("doall", "maple-decouple"))

    def reduce(results: List[RunResult]) -> FigureResult:
        results = iter(results)
        series = []
        for label, _threads, _cfg in points:
            s = Series(label)
            for app in apps:
                doall, dec = next(results), next(results)
                s.values[app] = doall.cycles / dec.cycles
            series.append(s)
        return FigureResult(figure_id, title, apps, series, notes=notes)

    return Plan(specs, reduce)


# -- Fig. 8: decoupling on the FPGA config -------------------------------------


#: The paper's dataset roster per application (§4.1): SDHP on SuiteSparse
#: surrogates and a Kronecker network; BFS on the Wikipedia, YouTube and
#: LiveJournal surrogates.  Pass as ``datasets=PAPER_DATASETS`` to fig8 or
#: fig12 to geomean each app's bar across its datasets as the paper does
#: (single-dataset runs are the default: they are 3x cheaper and the
#: shapes match).
PAPER_DATASETS = {
    "sdhp": [{"kind": "suitesparse"}, {"kind": "kronecker"}],
    "bfs": [{"which": "wikipedia"}, {"which": "youtube"},
            {"which": "livejournal"}],
}


def fig8(scale: int = 1, apps: Sequence[str] = DEFAULT_APPS,
         config: Optional[SoCConfig] = None,
         datasets: Optional[dict] = None) -> Plan:
    """Decoupling (1 Access + 1 Execute) vs 2-thread doall, plus the
    shared-memory software-decoupling baseline.

    Paper: MAPLE 1.51x over doall and 2.27x over SW decoupling (geomean).
    ``datasets`` maps app -> list of dataset_kwargs to geomean across
    (e.g. :data:`PAPER_DATASETS`).
    """
    return _speedup_plan(
        "fig8", "Decoupling speedup over 2-thread doall (FPGA config)", apps,
        (("maple-decoupling", "maple-decouple"),
         ("sw-decoupling", "sw-decouple")),
        config or FPGA_CONFIG, scale, datasets,
        notes="SPMM cannot be decoupled (RMW IMAs) and falls back to doall.")


# -- Figs. 9/10/11: the prefetching study (single thread) ------------------------


def prefetch_study(scale: int = 1, apps: Sequence[str] = DEFAULT_APPS,
                   config: Optional[SoCConfig] = None) -> Plan:
    """One pass producing Figs. 9 (speedup), 10 (load-instruction overhead)
    and 11 (average load latency), all single-thread, normalized to the
    no-prefetching baseline; the plan reduces to the three figures.

    Paper: LIMA 1.73x geomean speedup (2.35x over SW prefetching); SW
    prefetching ~2x the loads while MAPLE slightly reduces them; LIMA
    cuts average load latency ~1.85x.
    """
    cfg = config or FPGA_CONFIG
    specs = tuple(RunSpec(app, technique, threads=1, scale=scale, config=cfg)
                  for app in apps
                  for technique in ("doall", "lima", "sw-prefetch"))

    def reduce(results: List[RunResult]
               ) -> Tuple[FigureResult, FigureResult, FigureResult]:
        speedup = {"maple-lima": Series("maple-lima"),
                   "sw-prefetch": Series("sw-prefetch")}
        loads = {"maple-lima": Series("maple-lima"),
                 "sw-prefetch": Series("sw-prefetch"),
                 "no-prefetch": Series("no-prefetch")}
        latency = {"maple-lima": Series("maple-lima"),
                   "sw-prefetch": Series("sw-prefetch"),
                   "no-prefetch": Series("no-prefetch")}
        results = iter(results)
        for app in apps:
            base, lima, swpf = next(results), next(results), next(results)
            speedup["maple-lima"].values[app] = base.cycles / lima.cycles
            speedup["sw-prefetch"].values[app] = base.cycles / swpf.cycles
            loads["no-prefetch"].values[app] = 1.0
            loads["maple-lima"].values[app] = (lima.total_loads
                                               / base.total_loads)
            loads["sw-prefetch"].values[app] = (swpf.total_loads
                                                / base.total_loads)
            latency["no-prefetch"].values[app] = base.avg_load_latency
            latency["maple-lima"].values[app] = lima.avg_load_latency
            latency["sw-prefetch"].values[app] = swpf.avg_load_latency
        fig9 = FigureResult(
            "fig9", "Prefetching speedup over no prefetching (1 thread)",
            apps, [speedup["maple-lima"], speedup["sw-prefetch"]],
            notes="SPMM uses LIMA's speculative LLC mode (RMW-safe).")
        fig10 = FigureResult(
            "fig10", "Load-class instructions, normalized to no prefetching",
            apps, [loads["no-prefetch"], loads["sw-prefetch"],
                   loads["maple-lima"]],
            notes="Packed 4-byte consumes are why MAPLE reduces load counts.")
        fig11 = FigureResult(
            "fig11", "Average load latency (cycles)",
            apps, [latency["no-prefetch"], latency["sw-prefetch"],
                   latency["maple-lima"]])
        return fig9, fig10, fig11

    return Plan(specs, reduce)


# -- Fig. 12: prior hardware techniques (same machine as Fig. 8) -------------------


def fig12(scale: int = 1, apps: Sequence[str] = DEFAULT_APPS,
          config: Optional[SoCConfig] = None,
          datasets: Optional[dict] = None) -> Plan:
    """MAPLE vs DeSC decoupling vs DROPLET prefetching, 2 threads.

    Paper: MAPLE 1.96x geomean over doall (up to 3x on BFS), 1.72x over
    DeSC, 1.82x over DROPLET; DeSC leads on the decoupling-friendly
    SPMV/SDHP but loses runahead on BFS; SPMM decouples for nobody.
    Each app's bar is the geomean across its ``datasets`` variants, as in
    the paper (§5.2).  The paper ran this on MosaicSim (Table 3); here it
    runs on Fig. 8's machine, so its doall and maple-decouple cells are
    Fig. 8's and simulate once when both figures are in one batch.
    """
    return _speedup_plan(
        "fig12", "Speedup over 2-thread doall (FPGA config)", apps,
        (("maple", "maple-decouple"), ("desc", "desc"),
         ("droplet", "droplet")),
        config or FPGA_CONFIG, scale, datasets)


# -- Fig. 13: thread scaling sharing one MAPLE ----------------------------------------


def fig13(scale: int = 1, apps: Sequence[str] = SCALING_APPS,
          thread_counts: Sequence[int] = (2, 4, 8),
          config: Optional[SoCConfig] = None) -> Plan:
    """Decoupling speedup over doall at matched thread counts, with every
    Access/Execute pair sharing a single MAPLE instance.

    Paper: the speedup is maintained from 2 to 8 threads.
    """
    cfg = (config or FPGA_CONFIG).with_overrides(maple_instances=1)
    return _decouple_sweep(
        "fig13", "Decoupling speedup over doall vs thread count "
        "(one shared MAPLE)", apps,
        [(f"{threads}-threads", threads, cfg) for threads in thread_counts],
        scale)


# -- Fig. 14: round-trip latency breakdown ----------------------------------------------


@dataclass
class RoundTrip:
    """Core->MAPLE->core latency, segment by segment (Fig. 14)."""

    segments: List[Tuple[str, int]]
    measured: Optional[int] = None

    @property
    def total(self) -> int:
        return sum(cycles for _name, cycles in self.segments)

    def render(self) -> str:
        lines = ["fig14: consume round-trip latency breakdown"]
        for name, cycles in self.segments:
            lines.append(f"  {name:42s} {cycles:3d}")
        lines.append(f"  {'TOTAL (analytic)':42s} {self.total:3d}")
        if self.measured is not None:
            lines.append(f"  {'TOTAL (measured on the SoC model)':42s} "
                         f"{self.measured:3d}")
        return "\n".join(lines)


def fig14(config: Optional[SoCConfig] = None) -> RoundTrip:
    """Paper: ~25 cycles plus one per hop — comparable to an L2 access,
    an order of magnitude below DRAM."""
    from repro.cpu import Alu, Thread
    from repro.system import Soc

    soc = Soc(config or FPGA_CONFIG)
    cfg = soc.config
    maple = soc.maples[0]
    hops_out = soc.mesh.hops(soc.cores[0].tile_id, maple.tile_id)
    hops_back = soc.mesh.hops(maple.tile_id, soc.cores[0].tile_id)
    segments = [
        ("core pipeline -> L1 -> L1.5 (request path)", cfg.mmio_path_latency),
        ("NoC encode + request traversal + decode",
         cfg.noc_encode_latency + hops_out * cfg.hop_latency
         + cfg.noc_decode_latency),
        ("MAPLE decode + pipeline + queue pop", cfg.maple_pipeline_latency),
        ("NoC encode + response traversal + decode",
         cfg.noc_encode_latency + hops_back * cfg.hop_latency
         + cfg.noc_decode_latency),
        ("L1.5 -> L1 -> core (response path)", cfg.mmio_path_latency),
    ]

    # Measure the same round trip on the live model.
    aspace = soc.new_process()
    api = soc.driver.attach(aspace)
    measured = {}

    def probe():
        handle = yield from api.open(0)
        yield from handle.produce(1)
        yield Alu(500)  # let the fill land: measure a non-blocking consume
        start = soc.sim.now
        yield from handle.consume()
        measured["cycles"] = soc.sim.now - start

    soc.run_threads([(0, Thread(probe(), aspace, "probe"))])
    return RoundTrip(segments, measured=measured["cycles"])


# -- Fig. 15: sensitivity to core<->MAPLE latency --------------------------------------------


def roundtrip_config(base: SoCConfig, target: int) -> SoCConfig:
    """A config whose core0<->MAPLE round trip is ``target`` cycles.

    The fixed NoC/pipeline portion cannot shrink; the private-cache path
    absorbs the rest (Fig. 14 notes latency could be lower if requests
    skipped the L1.5)."""
    hops = 2  # core0 <-> maple round trip in the default placement
    fixed = (2 * (base.noc_encode_latency + base.noc_decode_latency)
             + hops * base.hop_latency + base.maple_pipeline_latency)
    path = max(0, (target - fixed) // 2)
    return base.with_overrides(mmio_path_latency=path)


def fig15(scale: int = 1, apps: Sequence[str] = SCALING_APPS,
          targets: Sequence[int] = (11, 25, 51, 101),
          config: Optional[SoCConfig] = None) -> Plan:
    """Decoupling speedup as the core<->MAPLE round trip grows.

    Paper: speedups are greater with a lower NoC delay.
    """
    base = config or FPGA_CONFIG
    return _decouple_sweep(
        "fig15", "Decoupling speedup vs core<->MAPLE round-trip latency",
        apps, [(f"maple-{target}cy", 2, roundtrip_config(base, target))
               for target in targets],
        scale)


# -- §5.3: queue-size sensitivity -------------------------------------------------------------


def queue_sweep(scale: int = 1, apps: Sequence[str] = SCALING_APPS,
                entries: Sequence[int] = (8, 16, 32, 64),
                config: Optional[SoCConfig] = None) -> Plan:
    """Decoupling speedup vs per-queue entry count.

    Paper: 32 entries suffice; 16 cost 5-10%; performance is stable once
    the queue covers the latency."""
    base = config or FPGA_CONFIG
    return _decouple_sweep(
        "queue-sweep", "Decoupling speedup vs queue entries (§5.3)", apps,
        [(f"{count}-entries", 2, base.with_overrides(
            scratchpad_bytes=count * base.maple_num_queues
            * base.queue_entry_bytes)) for count in entries],
        scale,
        notes=f"{base.queue_entry_bytes}B entries; scratchpad scales with "
              "the queue size.")


# -- Large-mesh scaling: MAPLE placement on MemPool-class meshes -------------------------------


#: Default axes for the large-mesh study.  The 32x32 point is exercised
#: by the ``slow``-marked scaling tests; the orchestrator smoke run stops
#: at 16x16 to stay fast.
MESH_SIDES = (4, 8, 16)
MESH_PLACEMENTS = ("edge", "center", "per-quadrant")
NOC_PLANES = ("request", "response", "memory")


def mesh_scaling_study(scale: int = 1, app: str = "spmv", threads: int = 4,
                       sides: Sequence[int] = MESH_SIDES,
                       placements: Sequence[str] = MESH_PLACEMENTS,
                       maple_instances: int = 4,
                       config: Optional[SoCConfig] = None) -> Plan:
    """Speedup and per-plane NoC utilization vs tile count, with MAPLE
    placement as the sweep axis (ROADMAP item 1: does latency tolerance
    survive MemPool-class meshes?).

    Every non-MAPLE tile seats a core (the stress-mesh geometry), the
    ``threads`` worker threads run on cores 0..threads-1 — tiles in the
    top-left region — and each Access/Execute pair binds to the MAPLE
    instance nearest its access core via the driver's assignment map.
    The columns are mesh sides, not applications: ``"8x8"`` is a 64-tile
    mesh.  Utilization is NoC hops per elapsed cycle on each of the three
    planes, from the ``maple-decouple`` cell of each configuration.  The
    plan reduces to the two figures, speedup then utilization.

    Coherence stays the flat-L2 model of ``config`` (the Table 2 machine
    by default); :func:`mesh_coherence_study` is the directory-on sweep.
    """
    from repro.system.soc import stress_mesh_config

    base = config or FPGA_CONFIG
    specs: List[RunSpec] = []
    for side in sides:
        for placement in placements:
            cfg = stress_mesh_config(side, maple_instances, base) \
                .with_overrides(maple_placement=placement)
            specs.append(RunSpec(app, "doall", threads=threads, scale=scale,
                                 config=cfg))
            specs.append(RunSpec(app, "maple-decouple", threads=threads,
                                 scale=scale, config=cfg))

    def reduce(results: List[RunResult]
               ) -> Tuple[FigureResult, FigureResult]:
        results = iter(results)
        labels = [f"{side}x{side}" for side in sides]
        speedup = {p: Series(p) for p in placements}
        util: Dict[str, Series] = {}
        for side in sides:
            col = f"{side}x{side}"
            for placement in placements:
                doall, dec = next(results), next(results)
                speedup[placement].values[col] = doall.cycles / dec.cycles
                for plane in NOC_PLANES:
                    key = f"{placement}/{plane}"
                    series = util.setdefault(key, Series(key))
                    series.values[col] = (
                        dec.stats.get(f"noc.{plane}.hops", 0.0) / dec.cycles)
        fig_speedup = FigureResult(
            "mesh-speedup",
            f"Decoupling speedup vs mesh size ({app}, {threads} threads, "
            f"{maple_instances} MAPLEs)",
            labels, [speedup[p] for p in placements],
            notes="threads sit in the top-left tile region, so placements "
                  "far from it pay the full core<->MAPLE distance")
        # A plane with zero traffic everywhere (e.g. the memory plane when
        # the workload's fetches never ride a MEMORY-plane link) cannot be
        # plotted on a geomean scale — drop it and say so.
        active = [s for s in (util[f"{p}/{plane}"] for p in placements
                              for plane in NOC_PLANES)
                  if any(s.values.values())]
        idle_planes = sorted({s.label.split("/", 1)[1]
                              for key, s in util.items() if s not in active})
        fig_util = FigureResult(
            "mesh-noc",
            f"NoC utilization (hops/cycle) vs mesh size ({app}, "
            f"maple-decouple)",
            labels, active,
            notes="per-plane hop counters over elapsed cycles"
                  + (f"; idle plane(s) omitted: {', '.join(idle_planes)}"
                     if idle_planes else ""))
        return fig_speedup, fig_util

    return Plan(tuple(specs), reduce)


def mesh_coherence_study(scale: int = 1, app: str = "spmv", threads: int = 4,
                         sides: Sequence[int] = MESH_SIDES,
                         placements: Sequence[str] = ("edge", "per-quadrant"),
                         maple_instances: int = 4,
                         directory_slices: int = 4,
                         config: Optional[SoCConfig] = None) -> Plan:
    """Decoupling speedup with the coherence backend as the sweep axis:
    flat-latency charges (``dir-off``) vs the protocol-accurate home-node
    directory with refill/writeback traffic on the MEMORY plane
    (``dir-on``), across placements and mesh sizes.

    The question this answers: does MAPLE's latency tolerance survive
    when coherence round trips become *real* NoC messages that contend
    with the decoupled traffic, instead of fixed L2 charges?  Each
    ``dir-on`` cell pays per-hop invalidation fan-out, ownership
    recalls at the home slices, and home->memory-controller refill
    round trips; the paired ``dir-off`` cell is the bit-identity
    baseline on the same geometry.
    """
    from repro.system.soc import stress_mesh_config

    base = config or FPGA_CONFIG
    specs: List[RunSpec] = []
    for side in sides:
        for placement in placements:
            for directory in (False, True):
                cfg = stress_mesh_config(side, maple_instances, base) \
                    .with_overrides(maple_placement=placement,
                                    directory=directory,
                                    directory_slices=directory_slices,
                                    directory_mem_traffic=directory)
                specs.append(RunSpec(app, "doall", threads=threads,
                                     scale=scale, config=cfg))
                specs.append(RunSpec(app, "maple-decouple", threads=threads,
                                     scale=scale, config=cfg))

    def reduce(results: List[RunResult]) -> FigureResult:
        results = iter(results)
        labels = [f"{side}x{side}" for side in sides]
        series = {f"{p}/dir-{'on' if d else 'off'}":
                  Series(f"{p}/dir-{'on' if d else 'off'}")
                  for p in placements for d in (False, True)}
        for side in sides:
            col = f"{side}x{side}"
            for placement in placements:
                for directory in (False, True):
                    doall, dec = next(results), next(results)
                    key = f"{placement}/dir-{'on' if directory else 'off'}"
                    series[key].values[col] = doall.cycles / dec.cycles
        return FigureResult(
            "mesh-coherence",
            f"Decoupling speedup: flat vs directory MESI backend ({app}, "
            f"{threads} threads, {maple_instances} MAPLEs, "
            f"{directory_slices} home slices)",
            labels, list(series.values()),
            notes="dir-on routes invalidations, recalls, and L2 refills/"
                  "writebacks over the NoC planes; dir-off charges flat L2 "
                  "latencies (the bit-identity baseline)")

    return Plan(tuple(specs), reduce)


# -- §5.4: area --------------------------------------------------------------------------------


def area_analysis(config: Optional[SoCConfig] = None, cores_served: int = 8):
    """Paper: one MAPLE (8 queues, 1 KB scratchpad) is 1.1% of the eight
    Ariane cores it can supply."""
    return estimate_area(config or FPGA_CONFIG, cores_served=cores_served)


def area_text() -> str:
    """The ``area`` target: :func:`area_analysis` of the tapeout config."""
    report = area_analysis()
    lines = ["area analysis (12 nm model, §5.4)"]
    lines += [f"  {name:35s} {mm2:8.4f} mm^2" for name, mm2 in report.rows()]
    lines.append(f"  overhead vs served cores: "
                 f"{report.overhead_fraction * 100:.2f}%")
    return "\n".join(lines)
