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

Non-decouplable kernels (SPMM) silently fall back to doall under the
decoupling techniques, exactly as the paper's compiler does; the result
records the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

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
    interpret,
)
from repro.compiler.plan import Technique, plan_for
from repro.core.api import QueueHandle
from repro.cpu.core import Thread
from repro.kernels import ALL_WORKLOADS
from repro.kernels.base import WorkloadBinding
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

HARNESS_TECHNIQUES = (
    "doall", "maple-decouple", "sw-decouple", "desc", "droplet",
    "sw-prefetch", "lima", "lima-llc",
)


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
        the measurements.
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
                 prefetch_distance: int = 4,
                 hop_latency_override: Optional[int] = None,
                 dataset=None,
                 dataset_kwargs: Optional[dict] = None,
                 lima_packed: bool = True,
                 check: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 integrity_plan: Optional[FaultPlan] = None,
                 check_invariants: bool = False,
                 watchdog=None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_path=None,
                 checkpoint_spec=None,
                 on_checkpoint=None,
                 resume_from=None) -> ExperimentResult:
    """Build, run, validate, and return one experiment cell.

    Robustness knobs (all off by default, leaving the timing path
    bit-identical to a fault-free build):

    - ``fault_plan``: a :class:`~repro.sim.faults.FaultPlan` to install
      for the run; faults replay deterministically from its seed.
    - ``integrity_plan``: a corruption-bearing :class:`FaultPlan` (drops,
      duplicates, bit flips).  Separate from ``fault_plan`` so cache keys
      distinguish timing-noise sweeps from corruption sweeps; mutually
      exclusive with it.  When the injected corruption is unrecoverable,
      the run raises a typed
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
    if fault_plan is not None and integrity_plan is not None:
        raise ValueError("fault_plan and integrity_plan are mutually "
                         "exclusive — compose one FaultPlan instead")
    if integrity_plan is not None:
        fault_plan = integrity_plan
    if technique in ("maple-decouple", "sw-decouple", "desc"):
        if threads % 2:
            raise ValueError("decoupling techniques need an even thread count")

    workload = ALL_WORKLOADS[workload_name]()
    base = config or SoCConfig()
    soc = Soc(base.with_overrides(num_cores=max(threads, base.num_cores)),
              hop_latency_override=hop_latency_override)
    aspace = soc.new_process()
    if dataset is None:
        dataset = workload.default_dataset(scale=scale, seed=seed,
                                           **(dataset_kwargs or {}))
    binding = workload.bind(soc, aspace, dataset)

    if workload.orchestrated:
        assignments, fallback = _bfs_assignments(
            soc, aspace, binding, technique, threads, prefetch_distance,
            lima_packed)
    else:
        assignments, fallback = _loop_assignments(
            soc, aspace, binding, technique, threads, prefetch_distance,
            lima_packed)

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
    if check:
        binding.check()
    return ExperimentResult(workload_name, technique, threads, cycles, soc,
                            fallback_doall=fallback, fault_plan=fault_plan,
                            fault_events=(len(injector.events)
                                          if injector is not None else 0),
                            invariants_checked=checked)


# -- loop workloads -------------------------------------------------------------


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


def _loop_assignments(soc: Soc, aspace, binding: WorkloadBinding,
                      technique: str, threads: int, distance: int,
                      lima_packed: bool = True):
    kernel = binding.kernel
    analysis = analyze(kernel)

    if technique == "droplet":
        prefetcher = DropletPrefetcher(soc.memsys)
        _register_droplet(prefetcher, aspace, binding)
        technique = "doall"

    if technique == "doall":
        plan = plan_for(analysis, Technique.DOALL)
        return _doall_threads(soc, binding, plan, threads,
                              lambda: DoallRole(plan)), False

    if technique == "sw-prefetch":
        plan = plan_for(analysis, Technique.SW_PREFETCH)
        fallback = plan.fallback_doall
        role_factory = ((lambda: DoallRole(plan)) if fallback
                        else (lambda: PrefetchRole(plan, distance)))
        return _doall_threads(soc, binding, plan, threads, role_factory), fallback

    if technique in ("lima", "lima-llc"):
        plan = plan_for(analysis, Technique.LIMA_PREFETCH
                        if technique == "lima" else Technique.LIMA_LLC)
        if plan.fallback_doall and technique == "lima":
            plan = plan_for(analysis, Technique.LIMA_LLC)  # RMW-safe mode
        if plan.fallback_doall:
            return _doall_threads(soc, binding, plan, threads,
                                  lambda: DoallRole(plan)), True
        return _lima_threads(soc, aspace, binding, plan, threads,
                             lima_packed), False

    # Decoupling techniques: pairs of (Access, Execute) threads.
    compiler_technique = {
        "maple-decouple": Technique.MAPLE_DECOUPLE,
        "sw-decouple": Technique.SW_DECOUPLE,
        "desc": Technique.DESC_DECOUPLE,
    }[technique]
    plan = plan_for(analysis, compiler_technique)
    if plan.fallback_doall:
        return _doall_threads(soc, binding, plan, threads,
                              lambda: DoallRole(plan)), True
    return _decoupled_threads(soc, aspace, binding, plan, technique, threads), False


def _doall_threads(soc: Soc, binding: WorkloadBinding, plan, threads: int,
                   role_factory: Callable):
    aspace = _aspace_of(binding)
    assignments = []
    for tid in range(threads):
        params = binding.slice_params(tid, threads)
        runtime = binding.runtime.with_params(**params)
        program = interpret(binding.kernel, runtime, role_factory())
        assignments.append(
            (tid, Thread(program, aspace, f"{plan.technique.value}-{tid}")))
    return assignments


def _aspace_of(binding: WorkloadBinding):
    first_array = next(iter(binding.runtime.arrays.values()))
    return first_array.aspace


def _lima_threads(soc: Soc, aspace, binding: WorkloadBinding, plan,
                  threads: int, lima_packed: bool = True):
    alloc = _QueueAllocator(soc, aspace)
    chains = plan.lima_chains
    packed = lima_packed and soc.config.queue_entry_bytes == 4
    assignments = []
    for tid in range(threads):
        params = binding.slice_params(tid, threads)
        runtime = binding.runtime.with_params(**params)
        bindings = [alloc.bind(tid) for _ in chains]

        def program(rt=runtime, bindings=bindings):
            handles = {}
            for (api, queue_id), chain in zip(bindings, chains):
                handle = yield from api.open(queue_id)
                handles[chain.ima_load.stmt_id] = handle
            role = LimaRole(plan, handles, packed=packed)
            yield from interpret(binding.kernel, rt, role)

        assignments.append((tid, Thread(program(), aspace, f"lima-{tid}")))
    return assignments


def _decoupled_threads(soc: Soc, aspace, binding: WorkloadBinding, plan,
                       technique: str, threads: int):
    pairs = threads // 2
    alloc = (_QueueAllocator(soc, aspace)
             if technique == "maple-decouple" else None)
    assignments = []
    for pair in range(pairs):
        params = binding.slice_params(pair, pairs)
        runtime = binding.runtime.with_params(**params)
        access_core = 2 * pair
        execute_core = 2 * pair + 1
        _, execute_backend, access_open = _backend_factory(
            soc, aspace, alloc, technique, pair, access_core)

        def access_program(rt=runtime, open_gen=access_open):
            backend = yield from open_gen()
            role = AccessRole(plan, backend)
            yield from interpret(binding.kernel, rt, role)
            if hasattr(backend, "flush"):
                yield from backend.flush()

        def execute_program(rt=runtime, backend_fn=execute_backend):
            backend = backend_fn()
            role = ExecuteRole(plan, backend)
            yield from interpret(binding.kernel, rt, role)
            if hasattr(backend, "flush"):
                yield from backend.flush()
            if hasattr(backend, "drain_stores"):
                yield from backend.drain_stores()

        assignments.append((access_core,
                            Thread(access_program(), aspace, f"access-{pair}")))
        assignments.append((execute_core,
                            Thread(execute_program(), aspace, f"execute-{pair}")))
    return assignments


def _backend_factory(soc: Soc, aspace, alloc, technique: str, pair: int,
                     access_core: int):
    """(access_open generator factory, execute backend factory).

    The access side's backend construction may itself need timed MMIO
    (OPEN), hence the generator shape.
    """
    if technique == "maple-decouple":
        # The pair binds to the instance nearest its access core; both
        # endpoints share the instance and queue (one SPSC channel).
        api, queue_id = alloc.bind(access_core)

        def access_open():
            handle = yield from api.open(queue_id)
            return MapleBackend(handle)

        def execute_backend():
            return MapleBackend(QueueHandle(api, queue_id))

        return None, execute_backend, access_open

    if technique == "sw-decouple":
        ring = SwQueueRing(soc, aspace, name=f"swq{pair}")
        return None, ring.consumer, _immediate(ring.producer)

    # DeSC: one engine per pair, shared by both endpoints.
    engine = DescBackend(soc, aspace, supply_core_id=access_core)
    return None, (lambda: engine), _immediate(lambda: engine)


def _immediate(factory):
    """Wrap a plain factory as the generator the access program expects."""
    def open_gen():
        return factory()
        yield  # pragma: no cover
    return open_gen


def _register_droplet(prefetcher: DropletPrefetcher, aspace,
                      binding) -> None:
    for index_name, data_name in binding.droplet_indirections:
        arrays = binding.runtime.arrays if hasattr(binding, "runtime") else None
        if arrays is not None:
            prefetcher.register_indirection(aspace, arrays[index_name],
                                            arrays[data_name])
        else:  # BFS binding exposes arrays directly
            prefetcher.register_indirection(
                aspace, getattr(binding, index_name), getattr(binding, data_name))


# -- BFS (orchestrated) ---------------------------------------------------------


def _bfs_assignments(soc: Soc, aspace, binding, technique: str, threads: int,
                     distance: int, lima_packed: bool = True):
    kernel = binding.kernel
    analysis = analyze(kernel)

    if technique == "droplet":
        prefetcher = DropletPrefetcher(soc.memsys)
        _register_droplet(prefetcher, aspace, binding)
        technique = "doall"

    barrier = soc.barrier(threads, name="bfs")
    assignments = []

    if technique in ("doall", "sw-prefetch", "lima", "lima-llc"):
        if technique == "doall":
            plan = plan_for(analysis, Technique.DOALL)
            factory = lambda tid: _const_role_gen(DoallRole(plan))
        elif technique == "sw-prefetch":
            plan = plan_for(analysis, Technique.SW_PREFETCH)
            factory = lambda tid: _const_role_gen(PrefetchRole(plan, distance))
        else:
            plan = plan_for(analysis, Technique.LIMA_PREFETCH
                            if technique == "lima" else Technique.LIMA_LLC)
            if plan.fallback_doall:
                plan = plan_for(analysis, Technique.DOALL)
                factory = lambda tid: _const_role_gen(DoallRole(plan))
            else:
                alloc = _QueueAllocator(soc, aspace)
                packed = lima_packed and soc.config.queue_entry_bytes == 4

                def factory(tid, plan=plan, alloc=alloc, packed=packed):
                    bindings = [alloc.bind(tid) for _ in plan.lima_chains]

                    def open_role():
                        handles = {}
                        for (api, queue_id), chain in zip(
                                bindings, plan.lima_chains):
                            handle = yield from api.open(queue_id)
                            handles[chain.ima_load.stmt_id] = handle
                        return LimaRole(plan, handles, packed=packed)
                    return open_role

        for tid in range(threads):
            def program(tid=tid, open_role=factory(tid)):
                role = yield from open_role()
                yield from binding.driver(role, tid, threads, barrier,
                                          bookkeeper=(tid == 0))
            assignments.append((tid, Thread(program(), aspace, f"bfs-{tid}")))
        return assignments, False

    # Decoupled BFS: pairs sharing the barrier with everyone.
    compiler_technique = {
        "maple-decouple": Technique.MAPLE_DECOUPLE,
        "sw-decouple": Technique.SW_DECOUPLE,
        "desc": Technique.DESC_DECOUPLE,
    }[technique]
    plan = plan_for(analysis, compiler_technique)
    if plan.fallback_doall:
        doall_plan = plan_for(analysis, Technique.DOALL)
        for tid in range(threads):
            def program(tid=tid):
                role = DoallRole(doall_plan)
                yield from binding.driver(role, tid, threads, barrier,
                                          bookkeeper=(tid == 0))
            assignments.append((tid, Thread(program(), aspace, f"bfs-{tid}")))
        return assignments, True

    pairs = threads // 2
    alloc = (_QueueAllocator(soc, aspace)
             if technique == "maple-decouple" else None)
    for pair in range(pairs):
        access_core = 2 * pair
        execute_core = 2 * pair + 1
        _, execute_backend, access_open = _backend_factory(
            soc, aspace, alloc, technique, pair, access_core)

        def access_program(pair=pair, open_gen=access_open):
            backend = yield from open_gen()
            role = AccessRole(plan, backend)
            flush = getattr(backend, "flush", None)
            yield from binding.driver(role, pair, pairs, barrier,
                                      bookkeeper=False, after_level=flush)

        def execute_program(pair=pair, backend_fn=execute_backend):
            backend = backend_fn()
            role = ExecuteRole(plan, backend)
            after = (getattr(backend, "drain_stores", None)
                     or getattr(backend, "flush", None))
            yield from binding.driver(role, pair, pairs, barrier,
                                      bookkeeper=(pair == 0), after_level=after)

        assignments.append((access_core,
                            Thread(access_program(), aspace, f"bfs-access-{pair}")))
        assignments.append((execute_core,
                            Thread(execute_program(), aspace, f"bfs-execute-{pair}")))
    return assignments, False


def _const_role_gen(role):
    def open_role():
        return role
        yield  # pragma: no cover
    return open_role
