"""Run one (workload, technique) experiment cell on a fresh SoC.

Technique names (harness-level; they map onto compiler plans plus any
hardware the technique needs):

=================  ============================================================
``doall``          OpenMP-style block-partitioned parallelism (the baseline)
``maple-decouple`` Access/Execute slices over MAPLE hardware queues (§3.1)
``sw-decouple``    the same slices over a shared-memory ring (Fig. 8 baseline)
``desc``           DeSC-style decoupling (Fig. 12 comparator)
``droplet``        doall + the DROPLET memory-side prefetcher (Fig. 12)
``sw-prefetch``    software prefetching at distance D (Fig. 9 baseline)
``lima``           MAPLE LIMA prefetching — non-speculative into queues,
                   falling back to speculative LLC mode for RMW kernels (§3.2)
``lima-llc``       LIMA speculative mode explicitly
=================  ============================================================

How a technique becomes threads, the same way for every workload: one
dispatch (``_assignments``) maps the technique to its compiler plan and
decides the fallback once.  Non-decouplable kernels (SPMM) silently fall
back to doall under the decoupling techniques, exactly as the paper's
compiler does; LIMA first retries in its LLC mode; the result records
the fallback.  Each thread is then a core, a role opener (run on the
thread, so a queue OPEN is timed), a slice index and count, and an
end-of-slice hook (the backend's flush or store drain).  The workload's
binding supplies only how a thread runs its slice
(``binding.slice_runner``): a loop workload interprets its block of the
outer loop once; BFS runs its level driver against one shared barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from repro.baselines.desc import DescBackend
from repro.baselines.droplet import DropletPrefetcher
from repro.baselines.swqueue import SwQueueRing
from repro.compiler.analysis import analyze
from repro.compiler.interp import (
    AccessRole,
    DoallRole,
    ExecuteRole,
    LimaRole,
    MapleBackend,
    PrefetchRole,
)
from repro.compiler.plan import Technique, plan_for
from repro.core.api import QueueHandle
from repro.cpu.core import Thread
from repro.kernels import ALL_WORKLOADS
from repro.params import SoCConfig
from repro.sim import (
    DataIntegrityError,
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    Watchdog,
    collect_diagnosis,
)
from repro.sim.watchdog import write_dump
from repro.system import Soc
from repro.system.soc import fit_mesh

#: The compiler plan behind each harness technique (DROPLET is doall plus
#: the memory-side prefetcher).
_PLANS = {
    "doall": Technique.DOALL,
    "maple-decouple": Technique.MAPLE_DECOUPLE,
    "sw-decouple": Technique.SW_DECOUPLE,
    "desc": Technique.DESC_DECOUPLE,
    "droplet": Technique.DOALL,
    "sw-prefetch": Technique.SW_PREFETCH,
    "lima": Technique.LIMA_PREFETCH,
    "lima-llc": Technique.LIMA_LLC,
}
HARNESS_TECHNIQUES = tuple(_PLANS)
_DECOUPLED = (Technique.MAPLE_DECOUPLE, Technique.SW_DECOUPLE,
              Technique.DESC_DECOUPLE)
_LIMA = (Technique.LIMA_PREFETCH, Technique.LIMA_LLC)


@dataclass
class ExperimentResult:
    workload: str
    technique: str
    threads: int
    cycles: int
    soc: Soc
    fallback_doall: bool = False
    fault_plan: Optional[FaultPlan] = None
    fault_events: int = 0
    invariants_checked: Optional[tuple] = None

    @property
    def stats(self):
        return self.soc.stats

    def total_loads(self) -> int:
        """Load-class instructions (loads + software prefetches), the
        Fig. 10 metric."""
        total = 0
        for core in self.soc.cores:
            total += core.stats.get("loads") + core.stats.get("prefetches")
        return total

    def avg_load_latency(self) -> float:
        """Average cycles per load across all cores (the Fig. 11 metric)."""
        count = 0
        total = 0.0
        for core in self.soc.cores:
            hist = core.stats.histogram("load_latency")
            count += hist.count
            total += hist.total
        return total / count if count else 0.0

    def summary(self) -> Dict[str, object]:
        """Everything the figures consume, as a plain picklable dict.

        This is the worker-process boundary: a :class:`Soc` holds live
        generators and cannot cross it, but the orchestrator only needs
        the measurements.  The keys are exactly the identity fields of
        :class:`~repro.harness.orchestrator.RunResult`.
        """
        return {
            "workload": self.workload,
            "technique": self.technique,
            "threads": self.threads,
            "cycles": self.cycles,
            "fallback_doall": self.fallback_doall,
            "total_loads": self.total_loads(),
            "avg_load_latency": self.avg_load_latency(),
            "events_executed": self.soc.sim.events_executed,
            "fault_seed": (self.fault_plan.seed
                           if self.fault_plan is not None else None),
            "fault_events": self.fault_events,
            "invariants_checked": self.invariants_checked,
            "stats": self.soc.stats_snapshot(),
        }


def run_workload(workload_name: str, technique: str, *,
                 config: Optional[SoCConfig] = None,
                 threads: int = 2,
                 scale: int = 1,
                 seed: int = 0,
                 dataset=None,
                 dataset_kwargs=None,
                 lima_packed: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 check_invariants: bool = False,
                 watchdog=None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_path=None,
                 checkpoint_spec=None,
                 on_checkpoint=None,
                 resume_from=None) -> ExperimentResult:
    """Build, run, validate, and return one experiment cell.

    The machine is ``config`` alone (its ``hop_latency`` included); the
    golden-output oracle always runs on the finished cell.
    ``dataset_kwargs`` (a dict or ``(key, value)`` pairs) go to the
    workload's default dataset unless ``dataset`` is given.
    ``lima_packed=False`` runs LIMA without 4-byte entry packing (the
    packing ablation).

    Robustness knobs (all off by default, leaving the timing path
    bit-identical to a fault-free build):

    - ``fault_plan``: a :class:`~repro.sim.faults.FaultPlan` to install
      for the run; faults replay deterministically from its seed.  A
      corruption-bearing plan (drops, duplicates, bit flips) rides here
      too.  When the injected corruption is unrecoverable, the run
      raises a typed
      :class:`~repro.sim.port.DataIntegrityError` /
      :class:`~repro.sim.port.DeliveryError` annotated with a structured
      diagnosis (and a JSON dump when ``$REPRO_WATCHDOG_DUMP_DIR`` is
      set) instead of returning silently wrong results.
    - ``check_invariants``: arm live queue shadows and audit ports and
      queues at quiescence (:class:`~repro.sim.invariants.InvariantChecker`).
    - ``watchdog``: ``True`` (defaults) or a kwargs dict for
      :class:`~repro.sim.watchdog.Watchdog`; turns hangs into diagnosed
      :class:`~repro.sim.watchdog.LivenessError`\\ s.

    Crash tolerance (see :mod:`repro.sim.checkpoint`):

    - ``checkpoint_every=N`` + ``checkpoint_path``: save a checkpoint of
      the run every ``N`` cycles (atomically overwriting the same file,
      so the file always holds the latest consistent snapshot).
      ``checkpoint_spec`` (a picklable RunSpec) embeds rebuild info so
      the file is self-resuming; ``on_checkpoint(path, ckpt)`` fires
      after each successful save (the chaos harness kills workers here).
    - ``resume_from``: a :class:`~repro.sim.checkpoint.Checkpoint` (or
      path) saved by an identical run.  The fresh SoC replays to the
      saved cycle, every recorded per-subsystem digest is verified
      (typed :class:`~repro.sim.checkpoint.CheckpointDivergenceError`
      on mismatch), then the run continues to completion — bit-identical
      to the uninterrupted run, oracle checks included.
    """
    if technique not in HARNESS_TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    if _PLANS[technique] in _DECOUPLED:
        if threads % 2:
            raise ValueError("decoupling techniques need an even thread count")

    workload = ALL_WORKLOADS[workload_name]()
    base = config or SoCConfig()
    cfg = base.with_overrides(num_cores=max(threads, base.num_cores))
    if fit_mesh(base) is base:
        # The config seats its own tiles; the cores added here for the
        # threads are seated here too, on the mesh the Soc would grow
        # (a config whose own mesh is too small still warns).
        cfg = fit_mesh(cfg)
    soc = Soc(cfg)
    aspace = soc.new_process()
    if dataset is None:
        dataset = workload.default_dataset(scale=scale, seed=seed,
                                           **dict(dataset_kwargs or ()))
    binding = workload.bind(soc, aspace, dataset)

    assignments, fallback = _assignments(soc, aspace, binding, technique,
                                         threads, lima_packed)

    injector = None
    if fault_plan is not None and not fault_plan.is_empty():
        injector = FaultInjector(soc, aspace, fault_plan).install()
    checker = InvariantChecker(soc).install() if check_invariants else None
    monitor = None
    if watchdog:
        monitor = Watchdog(soc, **(watchdog if isinstance(watchdog, dict)
                                   else {}))

    save_hook = None
    if checkpoint_every and checkpoint_path is not None:
        def save_hook(live_soc):
            ckpt = live_soc.save_checkpoint(checkpoint_path,
                                            spec=checkpoint_spec)
            if on_checkpoint is not None:
                on_checkpoint(checkpoint_path, ckpt)
    if resume_from is not None and not hasattr(resume_from, "digests"):
        from repro.sim.checkpoint import Checkpoint
        resume_from = Checkpoint.load(resume_from)

    try:
        cycles = soc.run_threads(assignments, watchdog=monitor,
                                 checkpoint_every=checkpoint_every,
                                 on_checkpoint=save_hook,
                                 resume_from=resume_from)
    except DataIntegrityError as err:
        # Unrecoverable corruption: annotate the typed error with the
        # same structured diagnosis (and on-disk JSON dump) the liveness
        # watchdog produces, so a CI trip is replayable from the artifact.
        if injector is not None:
            injector.finish()
        err.diagnosis = collect_diagnosis(
            soc, reason=f"data-integrity failure: {err}")
        err.diagnosis["integrity"] = err.describe()
        err.diagnosis["fault_events"] = (len(injector.events)
                                         if injector is not None else 0)
        err.dump_path = write_dump(
            err.diagnosis,
            monitor.dump_dir if monitor is not None else None)
        raise
    if injector is not None:
        # Disarm hooks and swap evicted pages back in *before* the
        # functional check reads the arrays.
        injector.finish()
    checked = checker.verify() if checker is not None else None
    binding.check()
    return ExperimentResult(workload_name, technique, threads, cycles, soc,
                            fallback_doall=fallback, fault_plan=fault_plan,
                            fault_events=(len(injector.events)
                                          if injector is not None else 0),
                            invariants_checked=checked)


# -- one technique dispatch for every workload ---------------------------------


class _QueueAllocator:
    """Boot-time binding of consumer threads to MAPLE instances + queues.

    Each requesting core binds to its nearest instance (the driver's
    deterministic §5.3 assignment map) and takes the next free hardware
    queue on that instance.  With one instance this reproduces the
    historical numbering exactly — thread/pair ``p`` gets queue ``p`` on
    ``maple0`` — so single-instance runs stay bit-identical; with several
    instances the load spreads by mesh distance.
    """

    def __init__(self, soc: Soc, aspace):
        self._soc = soc
        self._aspace = aspace
        self._next: Dict[int, int] = {}
        self._apis: Dict[int, object] = {}

    def bind(self, core_id: int):
        """Returns ``(api, queue_id)`` on the instance nearest the core."""
        maple = self._soc.driver.pick_instance(
            self._soc.cores[core_id].tile_id)
        api = self._apis.get(maple.instance_id)
        if api is None:
            api = self._soc.driver.attach(self._aspace, maple=maple)
            self._apis[maple.instance_id] = api
        queue_id = self._next.get(maple.instance_id, 0)
        if queue_id >= self._soc.config.maple_num_queues:
            raise ValueError(
                f"core {core_id} needs a queue on maple{maple.instance_id} "
                f"but all {self._soc.config.maple_num_queues} queues are "
                "taken — use more instances or fewer threads")
        self._next[maple.instance_id] = queue_id + 1
        return api, queue_id


def _assignments(soc: Soc, aspace, binding, technique: str, threads: int,
                 lima_packed: bool):
    """Decide technique → plan → fallback once, then build the threads.

    Returns ``(assignments, fallback_doall)``.  A plan that cannot apply
    runs as doall with :class:`DoallRole` over that plan, except that
    LIMA first retries in its RMW-safe LLC mode.
    """
    analysis = analyze(binding.kernel)
    if technique == "droplet":
        prefetcher = DropletPrefetcher(soc.memsys)
        for index_name, data_name in binding.droplet_indirections:
            prefetcher.register_indirection(aspace, binding.arrays[index_name],
                                            binding.arrays[data_name])
    plan = plan_for(analysis, _PLANS[technique])
    if plan.fallback_doall and plan.technique is Technique.LIMA_PREFETCH:
        plan = plan_for(analysis, Technique.LIMA_LLC)  # RMW-safe mode
    run_slice = binding.slice_runner(threads)
    assignments = []
    for core, name, open_role, index, count, books in _threads(
            soc, aspace, plan, threads, lima_packed):
        program = _program(run_slice, open_role, index, count, books)
        assignments.append((core, Thread(program, aspace, name)))
    return assignments, plan.fallback_doall


def _program(run_slice, open_role, index: int, count: int, books: bool):
    role, end_of_slice = yield from open_role()
    yield from run_slice(role, index, count, books, end_of_slice)


def _threads(soc: Soc, aspace, plan, threads: int, lima_packed: bool):
    """Yield ``(core, name, open_role, slice index, slice count,
    bookkeeper)`` per thread, in spawn order.

    ``open_role`` is a generator returning the thread's role and its
    end-of-slice hook (or None); it runs on the thread, so a queue OPEN
    is timed.  Only slice 0's thread keeps the books, and of a decoupled
    pair only its execute side.
    """
    if plan.fallback_doall or plan.technique not in _DECOUPLED + _LIMA:
        if (plan.technique is Technique.SW_PREFETCH
                and not plan.fallback_doall):
            make_role = partial(PrefetchRole, plan)
        else:
            make_role = partial(DoallRole, plan)
        for tid in range(threads):
            yield (tid, f"{plan.technique.value}-{tid}",
                   _immediate(lambda: (make_role(), None)),
                   tid, threads, tid == 0)
    elif plan.technique in _LIMA:
        alloc = _QueueAllocator(soc, aspace)
        packed = lima_packed and soc.config.queue_entry_bytes == 4
        for tid in range(threads):
            bindings = [alloc.bind(tid) for _ in plan.lima_chains]
            yield (tid, f"lima-{tid}", _lima_opener(plan, bindings, packed),
                   tid, threads, tid == 0)
    else:
        pairs = threads // 2
        alloc = (_QueueAllocator(soc, aspace)
                 if plan.technique is Technique.MAPLE_DECOUPLE else None)
        for pair in range(pairs):
            open_access, open_execute = _pair_backends(soc, aspace, alloc,
                                                       plan, pair)
            yield (2 * pair, f"access-{pair}",
                   _side_opener(AccessRole, plan, open_access),
                   pair, pairs, False)
            yield (2 * pair + 1, f"execute-{pair}",
                   _side_opener(ExecuteRole, plan, open_execute),
                   pair, pairs, pair == 0)


def _lima_opener(plan, bindings, packed: bool):
    def open_role():
        handles = {}
        for (api, queue_id), chain in zip(bindings, plan.lima_chains):
            handle = yield from api.open(queue_id)
            handles[chain.ima_load.stmt_id] = handle
        return LimaRole(plan, handles, packed=packed), None
    return open_role


def _side_opener(role_cls, plan, open_backend):
    """One side of a decoupled pair.  Its end-of-slice hook is the
    backend's ``flush`` (no backend also has ``drain_stores``); the
    execute side, whose stores DeSC ships, drains them instead."""
    def open_role():
        backend = yield from open_backend()
        end_of_slice = getattr(backend, "flush", None)
        if end_of_slice is None and role_cls is ExecuteRole:
            end_of_slice = getattr(backend, "drain_stores", None)
        return role_cls(plan, backend), end_of_slice
    return open_role


def _pair_backends(soc: Soc, aspace, alloc, plan, pair: int):
    """(access, execute) backend openers of one decoupled pair.

    The access side's backend construction may itself need timed MMIO
    (OPEN), hence the generator shape.
    """
    access_core = 2 * pair
    if plan.technique is Technique.MAPLE_DECOUPLE:
        # The pair binds to the instance nearest its access core; both
        # endpoints share the instance and queue (one SPSC channel).
        api, queue_id = alloc.bind(access_core)

        def open_access():
            handle = yield from api.open(queue_id)
            return MapleBackend(handle)

        return open_access, _immediate(
            lambda: MapleBackend(QueueHandle(api, queue_id)))

    if plan.technique is Technique.SW_DECOUPLE:
        ring = SwQueueRing(soc, aspace, name=f"swq{pair}")
        return _immediate(ring.producer), _immediate(ring.consumer)

    # DeSC: one engine per pair, shared by both endpoints.
    engine = DescBackend(soc, aspace, supply_core_id=access_core)
    return _immediate(lambda: engine), _immediate(lambda: engine)


def _immediate(factory):
    """Wrap a plain factory as an opener that needs no timed set-up."""
    def open_gen():
        return factory()
        yield  # pragma: no cover
    return open_gen
