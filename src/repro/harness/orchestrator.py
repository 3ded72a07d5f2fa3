"""Sharded parallel experiment orchestration.

The evaluation surface (Figs. 8-15, the tables, the queue/latency
sweeps) is a bag of *independent, deterministic* simulations: every cell
builds a fresh :class:`~repro.system.Soc`, runs one (workload,
technique) pair, and reports plain numbers.  That independence is the
host-side analogue of the parallelism MAPLE itself exploits — so this
module shards cells across worker processes the same way the engine
shards outstanding loads across queue slots.

The moving parts:

:class:`RunSpec`
    A frozen, picklable description of one experiment cell.  Its
    :func:`spec_key` is a stable hash over the full :class:`SoCConfig`
    plus technique/kernel/scale/seed, so identical cells dedupe within a
    batch, hit the on-disk cache across runs, and seed their workers
    deterministically.

:class:`RunResult`
    The measurements a cell produces (cycles, load counts, latencies,
    the full stats dump) plus execution metadata (wall time, attempts,
    cache provenance).  Metadata never feeds figure rendering, which is
    what makes parallel output byte-identical to serial output.

:class:`DiskCache`
    One JSON file per spec key.  Every entry embeds a sha256 over its
    own payload, verified on read; corrupt, truncated, or
    digest-mismatched files are quarantined (moved aside + logged) and
    read as misses, stale-schema files as plain misses.  Writes are
    atomic (tmp + rename) and write failures (ENOSPC and friends) are
    absorbed — the cache can only ever cost a re-simulation, never a
    wrong number or a crashed sweep.  Stale ``.tmp``/``.lock`` litter
    from dead writers is reaped at construction.

:class:`Orchestrator`
    ``run(specs)`` returns results **in submission order** regardless of
    completion order.  ``jobs=1`` is a pure in-process serial loop (no
    pool, no pickling); ``jobs>1`` runs **supervised workers**: one
    long-lived process per slot for the length of the ``run()`` call,
    fed one attempt at a time over a duplex pipe and heartbeating into
    a shared array from a daemon thread.  The supervisor multiplexes
    result pipes, process sentinels, runtime deadlines, and heartbeat
    deadlines — so it distinguishes a *crashed* worker (SIGKILL/OOM:
    process died, no result), a *wedged* one (alive but no heartbeat
    past the deadline), and a merely *slow* one (deadline exceeded) —
    retires that worker, and reschedules with the existing exponential
    backoff.  Jobs with
    ``RunSpec.checkpoint_every`` set periodically checkpoint under
    ``checkpoint_dir`` (:mod:`repro.sim.checkpoint`) and are resumed
    from their last checkpoint instead of restarting from cycle 0.
    Every exit path — success, exception, ``KeyboardInterrupt`` —
    terminates and joins all workers, idle ones included; terminal
    failures carry a structured :class:`JobError` and a JSON dump.

Workers fork from the supervisor and inherit its imports, so the worker
path imports its modules here, at module level, not inside functions: a
fresh worker then imports nothing but ``numpy.random`` (see
:func:`seed_rngs_for`) before its first cell runs, and its later cells
find everything already loaded and their kernel slices compiled.

Determinism contract: a :class:`RunSpec` fully determines its
:class:`RunResult` (the simulator is single-threaded and seeded), so
``--jobs N`` changes wall-clock only — never a number.  The
parallel-equals-serial test in ``tests/test_orchestrator.py`` and the
differential fuzz suite pin this.
"""

from __future__ import annotations

import errno
import gc
import hashlib
import json
import logging
import multiprocessing
import os
import random
import signal
import threading
import time
import traceback as _traceback
from collections import deque
from dataclasses import asdict, dataclass
from multiprocessing import connection as _mpconn
from pathlib import Path
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple,
)

from repro.harness.techniques import run_workload
from repro.params import SoCConfig
from repro.sim.checkpoint import (
    Checkpoint, CheckpointDivergenceError, CheckpointError,
)
from repro.sim.faults import FaultPlan

#: Bump when RunResult's serialized shape changes: old cache files then
#: read as misses instead of mis-parsing.  4: entries carry their own
#: sha256 (verified on read).
CACHE_SCHEMA = 4

_log = logging.getLogger("repro.harness.orchestrator")

ProgressFn = Callable[[Dict[str, Any]], None]


# -- job specification -----------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One experiment cell: everything ``run_workload`` needs, picklable.

    ``dataset_kwargs`` is a sorted tuple of ``(key, value)`` pairs (use
    :func:`freeze_dataset_kwargs`) so specs stay hashable and their JSON
    form is canonical.  ``config=None`` means the harness default
    :class:`SoCConfig`.
    """

    workload: str
    technique: str
    threads: int = 2
    scale: int = 1
    seed: int = 0
    prefetch_distance: int = 4
    hop_latency_override: Optional[int] = None
    dataset_kwargs: Tuple[Tuple[str, Any], ...] = ()
    lima_packed: bool = True
    check: bool = True
    config: Optional[SoCConfig] = None
    #: Seeded fault plan to install for the run (None = fault free).
    fault_plan: Optional[FaultPlan] = None
    #: Seeded corruption plan (drops/dups/bit flips); mutually exclusive
    #: with ``fault_plan`` — a separate cell field so corruption sweeps
    #: never collide with timing-noise sweeps in the cache.
    integrity_plan: Optional[FaultPlan] = None
    #: Arm live queue shadows + the quiescence audit for this cell.
    check_invariants: bool = False
    #: Arm the liveness watchdog (default parameters) for this cell.
    watchdog: bool = False
    #: Checkpoint the run every N cycles (requires the orchestrator's
    #: ``checkpoint_dir``); a crashed/killed worker then resumes from
    #: its last checkpoint instead of cycle 0.  Deliberately **not**
    #: part of :func:`spec_key`: checkpointing is bit-identity-neutral
    #: (the engine chunks are invisible to the model), so the same cell
    #: with and without it must share one cache entry.
    checkpoint_every: Optional[int] = None

    def label(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.dataset_kwargs)
        cfg = self.config.name if self.config is not None else "default"
        fault = (f" faults#{self.fault_plan.seed}"
                 if self.fault_plan is not None else "")
        integrity = (f" integrity#{self.integrity_plan.seed}"
                     if self.integrity_plan is not None else "")
        return (f"{self.workload}/{self.technique} x{self.threads} "
                f"[{cfg}]{extra}{fault}{integrity}")

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``run_workload`` (minus workload/technique)."""
        return {
            "config": self.config,
            "threads": self.threads,
            "scale": self.scale,
            "seed": self.seed,
            "prefetch_distance": self.prefetch_distance,
            "hop_latency_override": self.hop_latency_override,
            "dataset_kwargs": dict(self.dataset_kwargs),
            "lima_packed": self.lima_packed,
            "check": self.check,
            "fault_plan": self.fault_plan,
            "integrity_plan": self.integrity_plan,
            "check_invariants": self.check_invariants,
            "watchdog": self.watchdog,
        }


def freeze_dataset_kwargs(kwargs: Optional[dict]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical (sorted, hashable) form of a dataset_kwargs dict."""
    return tuple(sorted((kwargs or {}).items()))


def spec_key(spec: RunSpec) -> str:
    """Stable hex digest identifying a spec across processes and runs.

    Hashes the canonical JSON of every spec field with the config
    expanded to its full :meth:`SoCConfig.stable_dict` — so any knob
    change (queue depth, cache geometry, hop latency, ...) is a new key.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "workload": spec.workload,
        "technique": spec.technique,
        "threads": spec.threads,
        "scale": spec.scale,
        "seed": spec.seed,
        "prefetch_distance": spec.prefetch_distance,
        "hop_latency_override": spec.hop_latency_override,
        "dataset_kwargs": list(list(pair) for pair in spec.dataset_kwargs),
        "lima_packed": spec.lima_packed,
        "check": spec.check,
        "config": (spec.config.stable_dict()
                   if spec.config is not None else None),
        "fault_plan": (spec.fault_plan.stable_dict()
                       if spec.fault_plan is not None else None),
        "integrity_plan": (spec.integrity_plan.stable_dict()
                           if spec.integrity_plan is not None else None),
        "check_invariants": spec.check_invariants,
        "watchdog": spec.watchdog,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- job result -------------------------------------------------------------------


@dataclass
class RunResult:
    """Measurements of one cell plus execution metadata.

    Only :meth:`identity` fields are determined by the spec; the
    metadata (``wall_seconds``, ``attempts``, ``from_cache``,
    ``worker_pid``) varies run to run and must never feed rendering.
    """

    workload: str
    technique: str
    threads: int
    cycles: int
    fallback_doall: bool
    total_loads: int
    avg_load_latency: float
    events_executed: int
    stats: Dict[str, float]
    fault_seed: Optional[int] = None
    fault_events: int = 0
    invariants_checked: Optional[List[int]] = None
    key: str = ""
    wall_seconds: float = 0.0
    attempts: int = 1
    from_cache: bool = False
    worker_pid: int = 0
    #: True when this run continued from a checkpoint instead of
    #: starting at cycle 0.  Pure metadata — the numbers are identical
    #: either way (that is the whole point), so it stays out of
    #: :meth:`identity` and the cache file.
    resumed: bool = False

    def identity(self) -> Dict[str, Any]:
        """The deterministic payload (what caching/equality compare)."""
        return {
            "workload": self.workload,
            "technique": self.technique,
            "threads": self.threads,
            "cycles": self.cycles,
            "fallback_doall": self.fallback_doall,
            "total_loads": self.total_loads,
            "avg_load_latency": self.avg_load_latency,
            "events_executed": self.events_executed,
            "fault_seed": self.fault_seed,
            "fault_events": self.fault_events,
            "invariants_checked": self.invariants_checked,
            "stats": self.stats,
        }

    def to_json(self) -> Dict[str, Any]:
        payload = self.identity()
        payload["schema"] = CACHE_SCHEMA
        payload["key"] = self.key
        payload["wall_seconds"] = self.wall_seconds
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RunResult":
        if payload.get("schema") != CACHE_SCHEMA:
            raise ValueError("cache schema mismatch")
        return cls(
            workload=payload["workload"],
            technique=payload["technique"],
            threads=payload["threads"],
            cycles=payload["cycles"],
            fallback_doall=payload["fallback_doall"],
            total_loads=payload["total_loads"],
            avg_load_latency=payload["avg_load_latency"],
            events_executed=payload["events_executed"],
            stats=dict(payload["stats"]),
            fault_seed=payload.get("fault_seed"),
            fault_events=payload.get("fault_events", 0),
            invariants_checked=payload.get("invariants_checked"),
            key=payload.get("key", ""),
            wall_seconds=payload.get("wall_seconds", 0.0),
            from_cache=True,
        )


def seed_rngs_for(key: str) -> None:
    """Seed the global RNG streams deterministically from a spec key.

    The simulator itself never consults them, but this insulates dataset
    generation (and any future component) from whatever the host process
    did before us — and it is what makes a checkpoint's ``rng`` digest
    reproducible on resume in a fresh process.

    ``numpy.random`` is the one import left to the worker.  Imported at
    module level, its 2-3 MB would sit in the supervisor too and raise
    the sweep's peak RSS, which is the supervisor's own.
    """
    derived = int(key[:16], 16)
    random.seed(derived)
    try:
        import numpy
        numpy.random.seed(derived & 0xFFFFFFFF)
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        pass


def execute_spec(spec: RunSpec, checkpoint_path=None, on_checkpoint=None,
                 resume_from=None) -> RunResult:
    """Run one cell in the current process (the picklable entry point).

    Seeds the global RNGs from the spec key first (worker N's result
    cannot depend on which jobs it ran earlier).  With
    ``checkpoint_path`` and ``spec.checkpoint_every`` set the run
    checkpoints periodically; ``resume_from`` continues a previous
    attempt's checkpoint under digest verification.  Neither changes a
    single number — only how much work a rerun has to repeat.
    """
    seed_rngs_for(spec_key(spec))

    checkpointing = checkpoint_path is not None and spec.checkpoint_every
    start = time.perf_counter()
    result = run_workload(
        spec.workload, spec.technique, **spec.run_kwargs(),
        checkpoint_every=spec.checkpoint_every if checkpointing else None,
        checkpoint_path=checkpoint_path if checkpointing else None,
        checkpoint_spec=spec if checkpointing else None,
        on_checkpoint=on_checkpoint if checkpointing else None,
        resume_from=resume_from)
    summary = result.summary()
    checked = summary.get("invariants_checked")
    return RunResult(
        workload=summary["workload"],
        technique=summary["technique"],
        threads=summary["threads"],
        cycles=summary["cycles"],
        fallback_doall=summary["fallback_doall"],
        total_loads=summary["total_loads"],
        avg_load_latency=summary["avg_load_latency"],
        events_executed=summary["events_executed"],
        stats=summary["stats"],
        fault_seed=summary.get("fault_seed"),
        fault_events=summary.get("fault_events", 0),
        # Lists, not tuples: identity() must round-trip through JSON.
        invariants_checked=list(checked) if checked is not None else None,
        key=spec_key(spec),
        wall_seconds=time.perf_counter() - start,
        worker_pid=os.getpid(),
        resumed=resume_from is not None,
    )


@dataclass
class JobError:
    """Structured failure record for one attempt at one cell.

    Everything needed to reproduce and triage without the worker's
    process: the exception type and message, the full traceback text,
    the fault seed (faulted fuzz cells), and which attempt/PID failed.
    Picklable, so it crosses the pool boundary intact where a custom
    exception instance might not.
    """

    label: str
    key: str
    exc_type: str
    message: str
    traceback: str
    attempt: int = 1
    fault_seed: Optional[int] = None
    worker_pid: int = 0
    #: How the supervisor learned of the failure: "exception" (worker
    #: reported it) or "crash" (process died without a result — SIGKILL,
    #: OOM).
    detection: str = "exception"
    #: The dead worker's exit code for crashes (negative = signal).
    exit_code: Optional[int] = None
    #: Path of the structured JSON dump written for a terminal failure.
    dump_path: Optional[str] = None

    def summary(self) -> str:
        fault = (f" [fault seed {self.fault_seed}]"
                 if self.fault_seed is not None else "")
        return (f"{self.label}{fault} failed on attempt {self.attempt} "
                f"with {self.exc_type}: {self.message}")


class OrchestratorError(RuntimeError):
    """A cell failed on every attempt; carries the final :class:`JobError`."""

    def __init__(self, job_error: JobError):
        self.job_error = job_error
        super().__init__(
            f"{job_error.summary()}\n--- worker traceback ---\n"
            f"{job_error.traceback}")


def _job_error(spec: RunSpec, exc: BaseException, attempt: int) -> JobError:
    return JobError(
        label=spec.label(),
        key=spec_key(spec),
        exc_type=type(exc).__name__,
        message=str(exc),
        traceback=_traceback.format_exc(),
        attempt=attempt,
        fault_seed=(spec.fault_plan.seed if spec.fault_plan is not None
                    else spec.integrity_plan.seed
                    if spec.integrity_plan is not None else None),
        worker_pid=os.getpid(),
    )


def _crash_error(spec: RunSpec, attempt: int, exit_code: Optional[int],
                 pid: int) -> JobError:
    """A :class:`JobError` for a worker that died without reporting a
    result (no worker-side exception, so no traceback)."""
    return JobError(
        label=spec.label(),
        key=spec_key(spec),
        exc_type="WorkerCrashed",
        message=(f"worker pid {pid} ended without reporting a result "
                 f"(detection=crash, exit code {exit_code})"),
        traceback="",
        attempt=attempt,
        fault_seed=(spec.fault_plan.seed if spec.fault_plan is not None
                    else spec.integrity_plan.seed
                    if spec.integrity_plan is not None else None),
        worker_pid=pid,
        detection="crash",
        exit_code=exit_code,
    )


def _execute_or_resume(spec: RunSpec, checkpoint_path=None,
                       on_checkpoint=None) -> RunResult:
    """Run a cell, continuing from its on-disk checkpoint when a valid
    matching one exists.

    Corrupt checkpoint files are quarantined (renamed aside) and the
    cell reruns from cycle 0; a checkpoint whose replay diverges is
    likewise quarantined and retried fresh — resumability is an
    optimization, never a way to lose a run.
    """
    resume_from = None
    if checkpoint_path is not None and spec.checkpoint_every:
        path = Path(checkpoint_path)
        if path.exists():
            try:
                ckpt = Checkpoint.load(path)
                if ckpt.spec_key == spec_key(spec):
                    resume_from = ckpt
            except CheckpointError as err:
                _log.warning("quarantining corrupt checkpoint: %s", err)
                _quarantine_file(path)
    try:
        return execute_spec(spec, checkpoint_path=checkpoint_path,
                            on_checkpoint=on_checkpoint,
                            resume_from=resume_from)
    except CheckpointDivergenceError as err:
        if resume_from is None:
            raise
        _log.warning("checkpoint replay diverged (%s); quarantining and "
                     "rerunning from cycle 0", err)
        _quarantine_file(Path(checkpoint_path))
        return execute_spec(spec, checkpoint_path=checkpoint_path,
                            on_checkpoint=on_checkpoint)


def _quarantine_file(path: Path) -> Optional[Path]:
    """Move a corrupt file into a ``quarantine/`` sibling directory
    (kept for post-mortem, out of every reader's way).  A name already
    taken by earlier evidence is never overwritten: the second copy of
    ``k.json`` becomes ``k.json.1.quarantined``, and so on."""
    dest_dir = path.parent / "quarantine"
    try:
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / (path.name + ".quarantined")
        copy = 0
        while dest.exists():
            copy += 1
            dest = dest_dir / f"{path.name}.{copy}.quarantined"
        path.replace(dest)
        return dest
    except OSError:  # pragma: no cover - racing unlink/permissions
        try:
            path.unlink()
        except OSError:
            pass
        return None


def _run_attempt(spec: RunSpec, attempt: int, checkpoint_path,
                 inject: Dict[str, Any]):
    """One attempt inside a slot worker: apply the chaos hooks, run the
    cell, and return its :class:`RunResult` or :class:`JobError` (never
    raise).

    ``inject`` carries the chaos hooks, all keyed by spec key and (for
    the single-shot ones) firing on attempt 0 only so a retry succeeds
    deterministically: ``hang`` sleeps through the deadline (heartbeats
    keep flowing — this exercises the *runtime* deadline, not the wedge
    detector), ``stop`` SIGSTOPs the worker (all threads freeze, so
    heartbeats stop — the wedge signature), ``kill`` SIGKILLs it —
    immediately when the job is not checkpointing, else right after its
    first checkpoint hits disk (the crash-recovery-with-resume path).
    ``kill_all`` kills on *every* attempt (the retries-exhausted
    negative control).
    """
    key = spec_key(spec)
    kill_always = key in inject.get("kill_all", ())
    kill_once = kill_always or (attempt == 0 and key in inject.get("kill", ()))
    on_checkpoint = None
    if kill_once and checkpoint_path is not None and spec.checkpoint_every:
        def on_checkpoint(path, ckpt):
            os.kill(os.getpid(), signal.SIGKILL)
    elif kill_once:
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt == 0 and key in inject.get("stop", ()):
        os.kill(os.getpid(), signal.SIGSTOP)
    if attempt == 0 and key in inject.get("hang", ()):
        time.sleep(inject.get("hang_seconds", 60.0))

    try:
        result = _execute_or_resume(spec, checkpoint_path=checkpoint_path,
                                    on_checkpoint=on_checkpoint)
    except Exception as exc:
        return _job_error(spec, exc, attempt + 1)
    result.attempts = attempt + 1
    return result


def _slot_worker(conn, hb, slot: int, hb_interval: float,
                 inject: Dict[str, Any]) -> None:
    """Module-level target of one worker slot (picklable under fork and
    spawn).

    The worker lives for one :meth:`Orchestrator.run` call, or until the
    supervisor retires it, and runs its slot's attempts one after
    another: receive ``(spec, attempt, checkpoint_path)`` over the
    duplex ``conn``, run it (:func:`_run_attempt`), send the result
    back, collect garbage, wait for the next.  The reply write blocks
    until the parent drains it, so a worker that sent its result is by
    definition not lost.

    A daemon thread heartbeats into ``hb[slot]`` every ``hb_interval``
    seconds for the whole life of the worker; the supervisor treats a
    stale slot with an active attempt as a wedged worker.

    Memory: ``gc.freeze()`` moves everything inherited from the
    supervisor into the permanent generation, so a collection walks only
    what this worker allocated.  The ``gc.collect()`` after each reply
    frees the finished cell's ``Soc`` graph, which reference cycles keep
    alive and which a long-lived process would otherwise rarely reach
    in a generation-2 collection.
    """
    gc.freeze()
    supervisor = os.getppid()
    # Event.wait, not time.sleep: the beat must not depend on a
    # monkeypatched time.sleep inherited from the supervisor.
    tick = threading.Event()

    def beat():
        while True:
            if os.getppid() != supervisor:
                # The supervisor died without cleaning us up (SIGKILL on
                # the orchestrator process): a worker must never outlive
                # its parent as an orphan burning CPU.
                os._exit(1)
            hb[slot] = time.monotonic()
            tick.wait(hb_interval)

    threading.Thread(target=beat, daemon=True, name="heartbeat").start()
    while True:
        try:
            spec, attempt, checkpoint_path = conn.recv()
        except (EOFError, OSError):
            return  # the supervisor closed its end
        reply = _run_attempt(spec, attempt, checkpoint_path, inject)
        conn.send(reply)
        del reply
        gc.collect()


# -- on-disk result cache ---------------------------------------------------------


def _entry_digest(payload: Dict[str, Any]) -> str:
    """sha256 over a cache entry's canonical JSON, minus the digest
    field itself."""
    body = {k: v for k, v in payload.items() if k != "sha256"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class DiskCache:
    """One self-verifying JSON file per spec key under ``root``.

    Robustness contract (the cache can only ever cost a re-simulation,
    never a wrong number or a crashed sweep):

    - every entry embeds a sha256 over its own payload, recomputed and
      compared on read — a truncated or bit-flipped file cannot parse
      into a plausible-but-wrong result;
    - unreadable / torn / digest-mismatched files are **quarantined**
      (moved to ``quarantine/`` for post-mortem), logged, counted, and
      reported as misses so the cell simply reruns;
    - stale-schema files are plain misses (old format, not corruption);
    - writes are atomic (tmp + rename) and ``OSError`` during a write
      (ENOSPC, read-only filesystem) is absorbed and counted — losing a
      cache entry must never sink the run that produced the result;
    - ``.tmp``/``.lock`` litter older than ``reap_after`` seconds (dead
      writers) is deleted at construction.
    """

    def __init__(self, root: Path, reap_after: float = 300.0,
                 inject_write_error: FrozenSet[str] = frozenset()):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.write_errors = 0
        #: Chaos hook: keys whose put() raises ENOSPC (then absorbed).
        self.inject_write_error = frozenset(inject_write_error)
        self.reaped = self._reap_stale(reap_after)

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _reap_stale(self, reap_after: float) -> int:
        """Delete ``.tmp``/``.lock`` files no live writer can own."""
        cutoff = time.time() - reap_after
        reaped = 0
        for pattern in ("*.tmp", "*.lock"):
            for stale in self.root.glob(pattern):
                try:
                    if stale.stat().st_mtime <= cutoff:
                        stale.unlink()
                        reaped += 1
                except OSError:  # racing writer/reaper: leave it
                    continue
        if reaped:
            _log.info("cache %s: reaped %d stale tmp/lock file(s)",
                      self.root, reaped)
        return reaped

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantined += 1
        self.misses += 1
        dest = _quarantine_file(path)
        _log.warning("cache entry %s is corrupt (%s); quarantined to %s "
                     "— the cell will re-run", path.name, reason, dest)

    def get(self, key: str) -> Optional[RunResult]:
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as err:
            self._quarantine(path, f"unreadable/torn: {err}")
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "not a JSON object")
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            self.misses += 1  # old format: a miss, not corruption
            return None
        if payload.get("sha256") != _entry_digest(payload):
            self._quarantine(path, "sha256 mismatch")
            return None
        try:
            result = RunResult.from_json(payload)
        except (ValueError, KeyError, TypeError) as err:
            self._quarantine(path, f"malformed payload: {err!r}")
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        payload = result.to_json()
        payload["sha256"] = _entry_digest(payload)
        try:
            if key in self.inject_write_error:
                raise OSError(errno.ENOSPC, "injected cache write failure")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(path)
        except OSError as err:
            self.write_errors += 1
            _log.warning("cache write for %s failed (%s); result kept "
                         "in memory only", key[:12], err)
            try:
                tmp.unlink()
            except OSError:
                pass

    def counters(self) -> Dict[str, int]:
        """Robustness counters, for the orchestrator's report."""
        return {"hits": self.hits, "misses": self.misses,
                "quarantined": self.quarantined,
                "write_errors": self.write_errors,
                "reaped": self.reaped}

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-harness``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-harness"


# -- the orchestrator -------------------------------------------------------------


class Orchestrator:
    """Shard independent :class:`RunSpec` cells across worker processes.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs everything serially
        in-process — no pool, no pickling, bit-identical results.
    cache:
        A :class:`DiskCache` (or ``None`` to disable).  Cells found in
        the cache are not re-simulated.
    timeout:
        Per-job seconds before a worker is presumed hung and the cell is
        retried (``None`` = wait forever).  Only meaningful for
        ``jobs > 1``.
    retries:
        Pool resubmissions after a timeout or worker failure before the
        final in-process fallback attempt (timeouts) or the structured
        :class:`OrchestratorError` (failures).
    backoff:
        Base seconds slept before retry ``n`` (exponential:
        ``backoff * 2**(n-1)``); ``0`` disables sleeping.
    progress:
        Optional callback receiving structured event dicts (``start`` /
        ``spawn`` / ``done`` / ``timeout`` / ``crash`` / ``wedged`` /
        ``failure`` / ``finish``).  ``spawn`` marks one attempt
        dispatched to its slot's worker and carries that worker's
        ``pid``; workers are reused, so several attempts share a pid.
    heartbeat_timeout:
        Seconds without a worker heartbeat before the supervisor
        declares it wedged, kills it, and reschedules.  Distinct from
        ``timeout``: a slow-but-alive worker heartbeats happily; a
        SIGSTOPped or scheduler-starved one goes silent.
    heartbeat_interval:
        How often each worker's daemon thread stamps its heartbeat slot.
    checkpoint_dir:
        Directory for per-job checkpoint files.  Jobs whose spec sets
        ``checkpoint_every`` save there periodically and — after a
        crash, wedge, or timeout — resume from the last checkpoint
        instead of cycle 0.  ``None`` disables checkpointing.
    dump_dir:
        Where terminal-failure JSON dumps land (falls back to
        ``$REPRO_WATCHDOG_DUMP_DIR``, like the liveness watchdog).
    inject_hang / inject_kill / inject_stop / inject_kill_all:
        Chaos hooks, all sets of spec keys, applied by the slot worker
        before it runs the attempt (see :func:`_run_attempt`): the first
        attempt sleeps through its deadline / SIGKILLs its worker (after
        its first checkpoint when checkpointing) / SIGSTOPs its worker;
        ``inject_kill_all`` kills on every attempt (the
        retries-exhausted negative control).
    """

    def __init__(self, jobs: int = 1, cache: Optional[DiskCache] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 backoff: float = 0.0,
                 progress: Optional[ProgressFn] = None,
                 inject_hang: FrozenSet[str] = frozenset(),
                 heartbeat_timeout: float = 30.0,
                 heartbeat_interval: float = 0.25,
                 checkpoint_dir: Optional[Path] = None,
                 dump_dir: Optional[str] = None,
                 inject_kill: FrozenSet[str] = frozenset(),
                 inject_stop: FrozenSet[str] = frozenset(),
                 inject_kill_all: FrozenSet[str] = frozenset()):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if heartbeat_timeout <= 0 or heartbeat_interval <= 0:
            raise ValueError("heartbeat timings must be > 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.progress = progress
        self.inject_hang = frozenset(inject_hang)
        self.inject_kill = frozenset(inject_kill)
        self.inject_stop = frozenset(inject_stop)
        self.inject_kill_all = frozenset(inject_kill_all)
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.dump_dir = dump_dir
        self.report: Dict[str, Any] = {}
        #: Structured record of every failed attempt this run observed
        #: (the final one is also raised as :class:`OrchestratorError`).
        self.failures: List[JobError] = []
        # Supervision counters for the current run() (surface in report).
        self._crashes = 0
        self._wedged = 0

    # -- public API ---------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; results come back in submission order.

        Identical specs (same key) within one batch are simulated once
        and fanned out — the figure code can stay naive about shared
        baselines.  A cell that fails on every attempt raises
        :class:`OrchestratorError`; a hung or wedged cell whose retries
        are exhausted gets one final in-process attempt instead, so a
        sweep always makes progress.
        """
        started = time.perf_counter()
        self._crashes = 0
        self._wedged = 0
        keys = [spec_key(spec) for spec in specs]
        self._emit({"event": "start", "total": len(specs),
                    "jobs": self.jobs})

        results: Dict[str, RunResult] = {}
        timeouts = 0
        retried = 0

        # Cache probe + in-batch dedup: `pending` keeps first-occurrence
        # order, which is the deterministic submission order workers see.
        pending: List[Tuple[str, RunSpec]] = []
        seen = set()
        for key, spec in zip(keys, specs):
            if key in seen:
                continue
            seen.add(key)
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    results[key] = hit
                    self._emit({"event": "done", "label": spec.label(),
                                "key": key[:12], "cached": True,
                                "wall_seconds": 0.0, "attempts": 0})
                    continue
            pending.append((key, spec))

        if pending:
            if self.jobs == 1:
                executed = self._run_serial(pending)
            else:
                executed, timeouts, retried = self._run_pool(pending)
            for key, result in executed.items():
                results[key] = result
                if self.cache is not None:
                    self.cache.put(key, result)

        wall = time.perf_counter() - started
        self.report = {
            "total": len(specs),
            "unique": len(seen),
            "cached": sum(1 for r in results.values() if r.from_cache),
            "executed": len(pending),
            "timeouts": timeouts,
            "retries": retried,
            "crashes": self._crashes,
            "wedged": self._wedged,
            "resumed": sum(1 for r in results.values() if r.resumed),
            "cache_counters": (self.cache.counters()
                               if self.cache is not None else None),
            "jobs": self.jobs,
            "wall_seconds": wall,
            "sim_seconds": sum(r.wall_seconds for r in results.values()),
            "per_job": [
                {"label": spec.label(), "key": key[:12],
                 "wall_seconds": results[key].wall_seconds,
                 "attempts": results[key].attempts,
                 "cached": results[key].from_cache}
                for key, spec in zip(keys, specs)
            ],
        }
        self._emit({"event": "finish", **{k: v for k, v in self.report.items()
                                          if k != "per_job"}})
        return [results[key] for key in keys]

    # -- execution strategies -----------------------------------------------------

    def _run_serial(self, pending) -> Dict[str, RunResult]:
        executed: Dict[str, RunResult] = {}
        for key, spec in pending:
            path = self._checkpoint_path(key, spec)
            try:
                result = _execute_or_resume(spec, checkpoint_path=path)
            except Exception as exc:
                # Same structured failure shape the pool path produces,
                # so callers triage serial and parallel runs identically.
                error = _job_error(spec, exc, attempt=1)
                raise self._terminal_failure(error) from exc
            executed[key] = result
            self._cleanup_checkpoint(path)
            self._emit({"event": "done", "label": spec.label(),
                        "key": key[:12], "cached": False,
                        "wall_seconds": result.wall_seconds, "attempts": 1})
        return executed

    def _sleep_backoff(self, attempt: int) -> None:
        """Exponential pause before retry ``attempt`` (1-based)."""
        if self.backoff > 0:
            time.sleep(self.backoff * (2 ** (attempt - 1)))

    # -- supervised pool ----------------------------------------------------------

    def _checkpoint_path(self, key: str, spec: RunSpec) -> Optional[Path]:
        if self.checkpoint_dir is None or not spec.checkpoint_every:
            return None
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        return self.checkpoint_dir / f"{key}.ckpt.json"

    @staticmethod
    def _cleanup_checkpoint(path: Optional[Path],
                            finished: bool = True) -> None:
        """Drop the torn ``.tmp`` a killed attempt may have left
        mid-write and, once the job has finished, its checkpoint too,
        which is then dead weight.  An unfinished job keeps its
        checkpoint for the next attempt to resume from."""
        if path is None:
            return
        doomed = [path.with_suffix(path.suffix + ".tmp")]
        if finished:
            doomed.append(path)
        for stale in doomed:
            try:
                stale.unlink()
            except OSError:
                pass

    def _terminal_failure(self, error: JobError,
                          emit: bool = True) -> "OrchestratorError":
        """Dump, record (unless the per-attempt loop already did), and
        wrap a job's final failure."""
        from repro.sim.watchdog import write_dump

        error.dump_path = write_dump(
            {"reason": "orchestrator-job-failure", "job_error": asdict(error)},
            self.dump_dir)
        if emit:
            self.failures.append(error)
            self._emit({"event": "failure", "label": error.label,
                        "key": error.key[:12], "attempt": error.attempt,
                        "exc_type": error.exc_type, "message": error.message})
        return OrchestratorError(error)

    def _run_pool(self, pending):
        """Supervised fan-out: one long-lived worker process per slot,
        heartbeats, crash/wedge/timeout detection, checkpoint-aware
        rescheduling.

        A slot's worker (:func:`_slot_worker`) is forked the first time
        an attempt is dispatched to the slot and then runs every attempt
        the slot is given, each sent over its duplex pipe; it answers
        each with exactly one result (:class:`RunResult` or
        :class:`JobError`).  A worker found dead before a dispatch (it
        died while idle) is replaced, and the attempt is sent to the new
        one — that costs the job no retry.  The supervisor waits on the
        pipes and process sentinels of every slot with an active attempt
        at once and classifies each ending:

        - **result**: done, or a reported failure → retry with backoff,
          exhausted failures raise :class:`OrchestratorError` (+ dump);
          the worker stays for the slot's next attempt;
        - **crash** (sentinel fired, pipe empty — SIGKILL/OOM): retry
          with backoff, resuming from the job's last checkpoint when it
          has one; exhausted crashes raise (running a crasher in-process
          could take the supervisor down with it);
        - **wedge** (no heartbeat past ``heartbeat_timeout``) and
          **timeout** (runtime past ``timeout``): kill + retry; when
          retries are exhausted these fall back to one in-process
          attempt, preserving the old guaranteed-progress contract.

        A crash, wedge or timeout retires the slot's worker (killed
        before it is joined); the slot's next attempt forks a fresh one.
        Retiring a worker mid-attempt also deletes the torn checkpoint
        ``.tmp`` it may have been writing, and keeps the checkpoint
        itself for the next attempt to resume from.  The ``finally``
        kills and joins every worker, idle ones included, on *all* exit
        paths — success, failure, ``KeyboardInterrupt`` — so no worker
        outlives ``run()``.
        """
        ctx = multiprocessing.get_context()
        slots = min(self.jobs, len(pending))
        # Lock-free: each slot has one writer, and a worker killed while
        # holding the array's lock would block the supervisor for good.
        hb = ctx.Array("d", slots, lock=False)
        inject = {"hang": self.inject_hang,
                  "hang_seconds": min((self.timeout or 1.0) * 10, 60.0),
                  "kill": self.inject_kill,
                  "stop": self.inject_stop,
                  "kill_all": self.inject_kill_all}

        executed: Dict[str, RunResult] = {}
        timeouts = 0
        retried = 0
        work = deque((key, spec, 0) for key, spec in pending)
        workers: Dict[int, Tuple[Any, Any]] = {}  # slot -> (proc, conn)
        active: Dict[int, Dict[str, Any]] = {}  # slot -> live attempt
        free = list(range(slots - 1, -1, -1))

        def fork_worker(slot):
            conn, child = ctx.Pipe()
            proc = ctx.Process(
                target=_slot_worker,
                args=(child, hb, slot, self.heartbeat_interval, inject),
                daemon=True)  # die with the supervisor, like pool workers
            proc.start()
            workers[slot] = (proc, conn)
            child.close()  # the worker's end; the supervisor keeps conn
            return proc, conn

        def drop_worker(slot):
            proc, conn = workers.pop(slot)
            # Kill *before* join: a stopped or sleeping worker never
            # exits on its own, so join() first would block forever.
            # SIGKILL works on SIGSTOPped processes too.
            proc.kill()
            proc.join()
            conn.close()

        def dispatch(slot, message):
            """Send an attempt to the slot's worker, replacing a worker
            that is missing or died while idle."""
            if slot in workers and not workers[slot][0].is_alive():
                _log.info("slot %d worker died while idle (exit code %s); "
                          "replacing it", slot, workers[slot][0].exitcode)
                drop_worker(slot)
            proc, conn = (workers[slot] if slot in workers
                          else fork_worker(slot))
            try:
                conn.send(message)
            except OSError:  # BrokenPipeError: it died since the check
                drop_worker(slot)
                proc, conn = fork_worker(slot)
                conn.send(message)
            return proc, conn

        def launch(key, spec, attempt):
            slot = free.pop()
            path = self._checkpoint_path(key, spec)
            hb[slot] = time.monotonic()
            proc, conn = dispatch(
                slot, (spec, attempt, str(path) if path is not None else None))
            active[slot] = {"key": key, "spec": spec, "attempt": attempt,
                            "proc": proc, "conn": conn, "path": path,
                            "started": time.monotonic()}
            self._emit({"event": "spawn", "label": spec.label(),
                        "key": key[:12], "attempt": attempt + 1,
                        "pid": proc.pid})

        def release(slot):
            """End the slot's attempt; its worker stays for the next."""
            free.append(slot)
            return active.pop(slot)

        def retire(slot):
            """End the slot's attempt together with its worker."""
            job = release(slot)
            drop_worker(slot)
            self._cleanup_checkpoint(job["path"], finished=False)
            return job

        def reschedule(job, kind):
            """Requeue or finish a killed/dead attempt's job according
            to the retry budget."""
            nonlocal retried
            attempt = job["attempt"] + 1
            self._emit({"event": kind, "label": job["spec"].label(),
                        "key": job["key"][:12], "attempt": attempt,
                        **({"exit_code": job["proc"].exitcode}
                           if kind == "crash" else {})})
            if attempt <= self.retries:
                retried += 1
                self._sleep_backoff(attempt)
                work.append((job["key"], job["spec"], attempt))
                return None
            if kind == "crash":
                # Exhausted crashes are terminal: whatever killed the
                # worker (OOM, a broken native extension) could take the
                # supervisor down if rerun in-process.
                error = _crash_error(
                    job["spec"], attempt=attempt,
                    exit_code=job["proc"].exitcode, pid=job["proc"].pid)
                raise self._terminal_failure(error)
            # Timeouts/wedges keep the guaranteed-progress contract:
            # one final in-process attempt (resuming from checkpoint).
            try:
                result = _execute_or_resume(
                    job["spec"],
                    checkpoint_path=job["path"])
            except Exception as exc:
                error = _job_error(job["spec"], exc, attempt + 1)
                raise self._terminal_failure(error) from exc
            result.attempts = attempt + 1
            return result

        def finish(job, result):
            executed[job["key"]] = result
            self._cleanup_checkpoint(job["path"])
            self._emit({"event": "done", "label": job["spec"].label(),
                        "key": job["key"][:12], "cached": False,
                        "wall_seconds": result.wall_seconds,
                        "attempts": result.attempts,
                        "resumed": result.resumed})

        try:
            while work or active:
                while work and free:
                    launch(*work.popleft())
                # One multiplexed wait on every active result pipe and
                # process sentinel; the timeout bounds deadline-check
                # latency.  (Never time.sleep here: backoff must own that
                # call.)
                waitables = [job["conn"] for job in active.values()]
                waitables += [job["proc"].sentinel for job in active.values()]
                if waitables:
                    _mpconn.wait(waitables, timeout=0.05)
                now = time.monotonic()
                for slot in sorted(active):
                    job = active[slot]
                    result = None
                    if job["conn"].poll():
                        try:
                            result = job["conn"].recv()
                        except (EOFError, OSError):
                            result = None  # died mid-send: a crash
                    if result is not None:
                        job = release(slot)
                        if isinstance(result, JobError):
                            self.failures.append(result)
                            self._emit({"event": "failure",
                                        "label": job["spec"].label(),
                                        "key": job["key"][:12],
                                        "attempt": result.attempt,
                                        "exc_type": result.exc_type,
                                        "message": result.message})
                            attempt = job["attempt"] + 1
                            if attempt <= self.retries:
                                retried += 1
                                self._sleep_backoff(attempt)
                                work.append((job["key"], job["spec"],
                                             attempt))
                            else:
                                # Already appended/emitted above.
                                raise self._terminal_failure(result,
                                                             emit=False)
                        else:
                            finish(job, result)
                        continue
                    if not job["proc"].is_alive():
                        self._crashes += 1
                        job = retire(slot)
                        done = reschedule(job, "crash")
                        if done is not None:  # pragma: no cover - crash
                            finish(job, done)  # path never falls back
                        continue
                    if (self.timeout is not None
                            and now - job["started"] > self.timeout):
                        timeouts += 1
                        job = retire(slot)
                        done = reschedule(job, "timeout")
                        if done is not None:
                            finish(job, done)
                        continue
                    if now - hb[slot] > self.heartbeat_timeout:
                        self._wedged += 1
                        job = retire(slot)
                        done = reschedule(job, "wedged")
                        if done is not None:
                            finish(job, done)
        finally:
            # The no-orphans guarantee: kill + join every worker, idle or
            # not, on every exit path (KeyboardInterrupt included), then
            # drop the torn checkpoint writes of the attempts cut short.
            for proc, _ in workers.values():
                proc.kill()
            for proc, conn in workers.values():
                proc.join()
                conn.close()
            for job in active.values():
                self._cleanup_checkpoint(job["path"], finished=False)
        return executed, timeouts, retried

    # -- plumbing -----------------------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.progress is not None:
            self.progress(event)


def make_orchestrator(jobs: int = 1, use_cache: bool = False,
                      cache_dir: Optional[Path] = None,
                      timeout: Optional[float] = None,
                      progress: Optional[ProgressFn] = None) -> Orchestrator:
    """The ``python -m repro.harness`` constructor: an :class:`Orchestrator`
    with an optional :class:`DiskCache` (default location
    :func:`default_cache_dir`)."""
    cache = DiskCache(cache_dir or default_cache_dir()) if use_cache else None
    return Orchestrator(jobs=jobs, cache=cache, timeout=timeout,
                        progress=progress)
