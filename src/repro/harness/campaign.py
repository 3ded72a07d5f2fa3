"""Seeded fuzz campaigns: the fault, integrity and chaos sweeps.

Each campaign is a registry entry (:data:`CAMPAIGNS`): a master seed, a
case count, a derivation and a runner.  Case ``N`` is a pure function of
``random.Random(master_seed + N)``, so a failing case number reproduces
exactly (``tools/replay.py --case N``, with ``--integrity`` for the
integrity sweep).

- ``fault`` draws a random SoC configuration, kernel, technique and a
  seeded timing/OS :class:`~repro.sim.faults.FaultPlan` (port delays,
  DRAM bursts, TLB shootdowns, page eviction, preemption).  The claim is
  the paper's: decoupling survives queue pressure, shootdowns, mid-kernel
  page faults and OS noise with correct results, no protocol violation
  and no hang (§3.3, §3.5, §4).
- ``integrity`` draws the same cell with the protection stack armed
  (reliable ports + SECDED ECC) under a seeded corruption plan (lossy
  links, DRAM and scratchpad bit flips).  Every completing run passes
  the golden-output oracle; unrecoverable corruption surfaces as a typed
  :class:`~repro.sim.port.DataIntegrityError` with a structured dump,
  never as a hang or a wrong number.  The disarmed negative control
  (:func:`run_negative_control`) makes the same oracle fail.
- ``chaos`` attacks the harness instead of the SoC: it draws one
  adversity from :data:`FAMILIES` (SIGKILL/SIGSTOP/hang a worker, retry
  exhaustion, truncate or bit-flip a cache entry or checkpoint, ENOSPC
  on a cache write).  Completing runs must match the uninterrupted
  serial baseline bit for bit; failures must be typed with a JSON dump;
  corrupt files go to ``quarantine/``; no orphan worker and no stray
  ``.tmp``/``.lock`` file may remain.

Fault and integrity runs arm the queue shadows with the quiescence
audit and the liveness watchdog (:data:`FUZZ_WATCHDOG`) through one
wrapper, :func:`run_armed`; the golden-output oracle runs on every cell.

:func:`fuzz_specs` and :func:`integrity_specs` turn the two SoC sweeps
into orchestrator :class:`RunSpec` cells.  They draw in a different
order from the cases and use default datasets, so spec ``N`` and case
``N`` are different experiments: a case number never replays an
orchestrator cell (replay a cell from its ``fault_seed`` instead).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import tempfile
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.datasets.graphs import power_law_graph
from repro.datasets.sparse import CscMatrix, random_csr
from repro.harness.orchestrator import (
    DiskCache,
    Orchestrator,
    OrchestratorError,
    RunResult,
    RunSpec,
    execute_spec,
    spec_key,
)
from repro.harness.techniques import ExperimentResult, run_workload
from repro.kernels.sdhp import _make_dataset as make_sdhp_dataset
from repro.kernels.spmm import SpmmDataset
from repro.kernels.spmv import SpmvDataset
from repro.params import SoCConfig
from repro.sim import DataIntegrityError, FaultPlan, PortCorruptFault
from repro.sim.checkpoint import Checkpoint, CheckpointCorruptError
from repro.sim.faults import DramBitFlipFault

#: Decoupling techniques dominate: they exercise the queues, the MMU,
#: and the MMIO path — where injected faults can actually break protocol.
TECHNIQUES = ("maple-decouple", "maple-decouple", "maple-decouple",
              "lima", "lima-llc", "sw-decouple", "desc", "doall",
              "sw-prefetch", "droplet")
KERNELS = ("spmv", "spmv", "spmv", "sdhp", "sdhp", "spmm", "bfs")

#: Fixed thread counts; every other technique draws 1 or 2.
_THREADS = {"maple-decouple": 2, "sw-decouple": 2, "desc": 2,
            "lima": 1, "lima-llc": 1}

#: Plan factory per SoC campaign, keyed by campaign name; either plan
#: rides into ``run_workload`` as ``fault_plan``.
PLANS = {"fault": FaultPlan.random, "integrity": FaultPlan.random_integrity}

#: Watchdog parameters for fuzz runs: generous enough that heavy fault
#: plans on slow configs never false-trip, tight enough that a hang is
#: caught in well under a second of wall clock.
FUZZ_WATCHDOG = {"check_interval": 5000, "stall_window": 200_000,
                 "max_cycles": 50_000_000}


@dataclass(frozen=True)
class Campaign:
    """One seeded sweep: case ``N`` is ``derive(N, master_seed, rng)``
    with ``rng = random.Random(master_seed + N)``; ``run`` executes a
    materialized case."""

    master_seed: int
    cases: int
    derive: Callable[[int, int, random.Random], Any]
    run: Callable[..., Any]


# -- the SoC sweeps: fault and integrity -------------------------------------------


def random_config(rng: random.Random) -> SoCConfig:
    """A valid random SoCConfig spanning the knobs the sweeps touch."""
    num_queues = rng.choice((4, 8))
    entries = rng.choice((4, 8, 16, 32))
    return SoCConfig(
        name=f"faultfuzz-{rng.randrange(1 << 30)}",
        num_cores=rng.choice((2, 4)),
        mesh_cols=rng.choice((2, 3)),
        mesh_rows=rng.choice((2, 3)),
        hop_latency=rng.choice((1, 2)),
        mmio_path_latency=rng.choice((4, 8)),
        l1_size=rng.choice((4, 8)) * 1024,
        l1_ways=rng.choice((2, 4)),
        l1_latency=rng.choice((1, 2)),
        l2_size=rng.choice((32, 64)) * 1024,
        l2_latency=rng.choice((20, 30)),
        core_mshrs=rng.choice((1, 2)),
        store_buffer_entries=rng.choice((4, 8)),
        dram_latency=rng.choice((100, 300)),
        dram_max_inflight=rng.choice((8, 16)),
        maple_num_queues=num_queues,
        scratchpad_bytes=entries * num_queues * 4,
        maple_tlb_entries=rng.choice((8, 16)),
        maple_max_inflight=rng.choice((8, 32)),
        produce_buffer_entries=rng.choice((2, 4)),
        core_tlb_entries=rng.choice((8, 16)),
    )


def random_dataset(rng: random.Random, workload: str):
    """A tiny seeded dataset so each faulted simulation stays fast."""
    seed = rng.randrange(10_000)
    if workload == "spmv":
        cols = rng.choice((128, 256))
        matrix = random_csr(rows=rng.randrange(4, 10), cols=cols,
                            nnz_per_row=rng.randrange(2, 6), seed=seed)
        x = np.random.default_rng(seed + 1).uniform(1.0, 2.0, size=cols)
        return SpmvDataset(matrix, x)
    if workload == "sdhp":
        matrix = random_csr(rows=rng.randrange(2, 6),
                            cols=rng.choice((256, 512)),
                            nnz_per_row=rng.randrange(2, 8), seed=seed)
        return make_sdhp_dataset(matrix, seed=seed + 1)
    if workload == "spmm":
        a_csr = random_csr(rows=8, cols=rng.choice((128, 256)),
                           nnz_per_row=rng.randrange(2, 5), seed=seed)
        a = CscMatrix(a_csr.cols, 8, a_csr.row_ptr, a_csr.col_idx,
                      a_csr.values)
        b_csr = random_csr(rows=rng.randrange(1, 3), cols=8,
                           nnz_per_row=rng.randrange(2, 5), seed=seed + 1)
        b = CscMatrix(8, b_csr.rows, b_csr.row_ptr, b_csr.col_idx,
                      b_csr.values)
        return SpmmDataset(a, b)
    if workload == "bfs":
        return power_law_graph(rng.randrange(48, 97),
                               avg_degree=rng.randrange(3, 6), seed=seed)
    raise AssertionError(workload)


def _protected_config(rng: random.Random) -> SoCConfig:
    """An integrity-sweep config: reliable ports and ECC always armed
    (the disarmed behaviour is :func:`run_negative_control`'s job)."""
    return random_config(rng).with_overrides(
        name=f"integrityfuzz-{rng.randrange(1 << 30)}",
        reliable_ports=True, ecc=True)


def _draw_cell(rng: random.Random):
    """(workload, technique, threads) for one cell."""
    workload = rng.choice(KERNELS)
    technique = rng.choice(TECHNIQUES)
    threads = _THREADS.get(technique) or rng.choice((1, 2))
    return workload, technique, threads


@dataclass
class FuzzCase:
    """One fully materialized fault- or integrity-sweep case."""

    case: int
    config: SoCConfig
    workload: str
    technique: str
    threads: int
    dataset: Any
    seed: int
    plan: FaultPlan

    def describe(self) -> str:
        return (f"case {self.case}: {self.workload}/{self.technique} "
                f"x{self.threads} [{self.config.name}] "
                f"faults[{self.plan.describe()}]")

    def run_kwargs(self) -> Dict[str, Any]:
        """``run_workload`` keyword arguments for this case."""
        return {"config": self.config, "threads": self.threads,
                "dataset": self.dataset, "seed": self.seed,
                "fault_plan": self.plan}


def _derive_fuzz(campaign: str, case: int, master_seed: int,
                 rng: random.Random) -> FuzzCase:
    config = (_protected_config(rng) if campaign == "integrity"
              else random_config(rng))
    workload, technique, threads = _draw_cell(rng)
    dataset = random_dataset(rng, workload)
    plan = PLANS[campaign](rng.randrange(1 << 30))
    return FuzzCase(case, config, workload, technique, threads, dataset,
                    rng.randrange(100), plan)


def run_armed(workload: str, technique: str, **kwargs) -> ExperimentResult:
    """Run one cell with the invariants and the fuzz watchdog armed;
    ``kwargs`` go to ``run_workload`` and override those defaults.
    Raises on anything the robustness layer or the oracle detects."""
    armed = {"check_invariants": True, "watchdog": dict(FUZZ_WATCHDOG)}
    return run_workload(workload, technique, **{**armed, **kwargs})


def _run_fault(fc: FuzzCase) -> ExperimentResult:
    return run_armed(fc.workload, fc.technique, **fc.run_kwargs())


def _classify_integrity(fc: FuzzCase):
    """Run one armed case and classify the only two legal outcomes:
    ``("completed", result)`` (the oracle passed) or
    ``("integrity-error", err)`` for a typed :class:`DataIntegrityError`.
    Anything else (oracle failure, hang, invariant violation) propagates:
    with protection armed those are model bugs."""
    try:
        return ("completed", _run_fault(fc))
    except DataIntegrityError as err:
        return ("integrity-error", err)


def negative_control_plan(seed: int) -> FaultPlan:
    """A corrupt-only plan for disarmed runs.

    Drops/duplicates are deliberately excluded: on unprotected ports a
    lost message is a *hang*, which the liveness watchdog already owns.
    The negative control isolates the silent-corruption claim: the run
    completes and the oracle — not any protocol machinery — is what
    catches the damage.  Corruption targets the MMIO consume responses
    (the values kernels actually compute with) plus raw DRAM reads, at
    rates high enough that a run almost surely takes a hit.
    """
    rng = random.Random(seed ^ 0x0FF_ECC)
    return FaultPlan(
        seed=seed,
        port_corrupts=(
            PortCorruptFault(port_pattern="maple*.mmio.dispatch",
                             kind_pattern="mmio_load",
                             rate=rng.uniform(0.1, 0.4), leg="resp"),
            PortCorruptFault(port_pattern="core*.mem",
                             kind_pattern="load",
                             rate=rng.uniform(0.01, 0.05), leg="resp"),
        ),
        dram_flips=DramBitFlipFault(rate=rng.uniform(0.05, 0.15),
                                    double_rate=0.0),
    )


def run_negative_control(case: int, master_seed: Optional[int] = None):
    """Run integrity case ``case`` with the protection stack disarmed.

    Same derivation, but ``reliable_ports`` and ``ecc`` are forced off,
    the plan is corrupt-only and the invariants are not armed.  Returns
    ``("oracle", err)`` when the golden-output check catches the
    corruption, ``("crashed", err)`` when the mangled data blew up the
    program first (a corrupted index or pointer), or ``("completed",
    result)`` when the injected flips happened to be inconsequential
    (e.g. low mantissa bits under the oracle's tolerance).
    """
    if master_seed is None:
        master_seed = CAMPAIGNS["integrity"].master_seed
    fc = materialize("integrity", case, master_seed)
    kwargs = fc.run_kwargs()
    kwargs.update(
        config=fc.config.with_overrides(reliable_ports=False, ecc=False),
        fault_plan=negative_control_plan(master_seed + case),
        check_invariants=False)
    try:
        result = run_armed(fc.workload, fc.technique, **kwargs)
    except AssertionError as err:
        return ("oracle", err)
    except Exception as err:  # noqa: BLE001 — classification, not handling
        return ("crashed", err)
    return ("completed", result)


def _specs(campaign: str, count: int, master_seed: Optional[int],
           scale: int) -> List[RunSpec]:
    if master_seed is None:
        master_seed = CAMPAIGNS[campaign].master_seed
    specs = []
    for case in range(count):
        rng = random.Random(master_seed + case)
        config = _protected_config(rng) if campaign == "integrity" else None
        workload, technique, threads = _draw_cell(rng)
        seed = rng.randrange(100)
        plan = PLANS[campaign](rng.randrange(1 << 30))
        specs.append(RunSpec(
            workload=workload, technique=technique, threads=threads,
            scale=scale, seed=seed, config=config, check_invariants=True,
            watchdog=True, fault_plan=plan))
    return specs


def fuzz_specs(count: int, master_seed: Optional[int] = None,
               scale: int = 1) -> List[RunSpec]:
    """The fault sweep as pickling-safe orchestrator cells (default
    datasets, since live dataset objects stay out of spec keys)."""
    return _specs("fault", count, master_seed, scale)


def integrity_specs(count: int, master_seed: Optional[int] = None,
                    scale: int = 1) -> List[RunSpec]:
    """The integrity sweep as orchestrator cells (armed configs,
    default datasets)."""
    return _specs("integrity", count, master_seed, scale)


# -- the harness sweep: chaos --------------------------------------------------------


#: Weighted adversity mix.  File-corruption families dominate (they are
#: cheap and their state space is the largest); the process families
#: each get enough draws that every supervision path fires many times.
FAMILIES = (
    "worker-kill-resume", "worker-kill-resume",
    "worker-kill-start",
    "worker-wedge",
    "worker-hang",
    "worker-kill-exhausted",
    "cache-truncate", "cache-truncate", "cache-truncate",
    "cache-bitflip", "cache-bitflip", "cache-bitflip",
    "ckpt-truncate", "ckpt-truncate",
    "ckpt-bitflip", "ckpt-bitflip",
    "cache-write-fail",
)

#: Cheap, deterministic victim cells spanning techniques, plus a
#: checkpoint interval that lands 2+ checkpoints before each finishes.
_POOL = (
    (RunSpec("spmv", "lima", threads=1), 15_000),
    (RunSpec("spmv", "maple-decouple", threads=2), 15_000),
    (RunSpec("sdhp", "doall", threads=2), 50_000),
)

# Module-level memos: the golden baseline and one valid checkpoint file
# per pool spec are computed once and reused by every case (the
# campaign's cost is the adversities, not 160 re-simulations).
_GOLDEN: Dict[str, RunResult] = {}
_GOLDEN_CKPT: Dict[str, bytes] = {}


def golden_result(spec: RunSpec) -> RunResult:
    """The uninterrupted serial baseline for ``spec`` (memoized)."""
    key = spec_key(spec)
    if key not in _GOLDEN:
        _GOLDEN[key] = execute_spec(spec)
    return _GOLDEN[key]


def golden_checkpoint_bytes(spec: RunSpec, every: int) -> bytes:
    """Bytes of a valid mid-run checkpoint of ``spec`` (memoized).

    The corruption families start from these and damage copies; the
    pristine bytes double as the benign-outcome reference.
    """
    key = spec_key(spec)
    if key not in _GOLDEN_CKPT:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "golden.ckpt.json"
            execute_spec(replace(spec, checkpoint_every=every),
                         checkpoint_path=str(path))
            _GOLDEN_CKPT[key] = path.read_bytes()
    return _GOLDEN_CKPT[key]


@dataclass(frozen=True)
class ChaosCase:
    """One materialized chaos case; a pure function of the seed."""

    case: int
    family: str
    spec: RunSpec
    checkpoint_every: int
    retries: int
    master_seed: int

    def describe(self) -> str:
        return (f"case {self.case}: {self.family} vs {self.spec.label()} "
                f"(retries={self.retries})")


@dataclass(frozen=True)
class ChaosOutcome:
    """How one case was judged: the oracle that passed it, and the typed
    error it surfaced (``None`` when the run completed)."""

    family: str
    oracle: str
    typed_error: Optional[str] = None


def _derive_chaos(case: int, master_seed: int,
                  rng: random.Random) -> ChaosCase:
    family = rng.choice(FAMILIES)
    spec, every = rng.choice(_POOL)
    return ChaosCase(case=case, family=family, spec=spec,
                     checkpoint_every=every, retries=rng.choice((0, 1, 2)),
                     master_seed=master_seed)


def _assert_hygiene(workdir: Path) -> None:
    """The postcondition every case must leave behind: no orphan worker
    processes and no stray tmp/lock litter (quarantined files are fine —
    they are the deliverable, not litter)."""
    children = multiprocessing.active_children()
    assert not children, f"orphan worker processes left behind: {children}"
    strays = [p for pattern in ("*.tmp", "*.lock")
              for p in Path(workdir).rglob(pattern)]
    assert not strays, f"stray tmp/lock files left behind: {strays}"


def _damage(family: str, rng: random.Random, data: bytes) -> bytes:
    """Truncate ``data`` at a random byte, or flip one random bit."""
    if family.endswith("truncate"):
        return data[:rng.randrange(len(data))]
    flipped = bytearray(data)
    index = rng.randrange(len(flipped))
    flipped[index] ^= 1 << rng.randrange(8)
    return bytes(flipped)


#: Worker families the supervisor must heal: orchestrator knobs, the
#: injection set that carries the victim, and the report counter that
#: must record the detection.
_SUPERVISED = {
    "worker-kill-resume": ({}, "inject_kill", "crashes"),
    "worker-kill-start": ({}, "inject_kill", "crashes"),
    "worker-wedge": ({"heartbeat_timeout": 0.6, "heartbeat_interval": 0.05},
                     "inject_stop", "wedged"),
    "worker-hang": ({"timeout": 0.5}, "inject_hang", "timeouts"),
}


def _run_supervised(cc: ChaosCase, rng, wd: Path):
    """SIGKILL (right after the first checkpoint lands, or at attempt
    start), SIGSTOP (only the heartbeat dies) or hang (heartbeats flow,
    the runtime deadline must fire) the worker: the supervisor must
    detect it and the rerun must match the baseline.  ``kill-resume``
    must resume from the checkpoint; the others rerun from cycle 0."""
    knobs, inject, counter = _SUPERVISED[cc.family]
    resume = cc.family == "worker-kill-resume"
    spec = (replace(cc.spec, checkpoint_every=cc.checkpoint_every)
            if resume else cc.spec)
    orch = Orchestrator(jobs=2, retries=max(1, cc.retries),
                        checkpoint_dir=wd / "ckpt" if resume else None,
                        dump_dir=str(wd / "dumps"),
                        **{inject: frozenset({spec_key(spec)})}, **knobs)
    results = orch.run([spec])
    assert results[0].identity() == golden_result(cc.spec).identity(), \
        "rerun diverged from baseline"
    assert orch.report[counter] >= 1, f"injected {inject} was not detected"
    assert results[0].resumed == resume
    if resume:
        assert orch.report["resumed"] >= 1
    return "golden-identity", None


def _run_worker_kill_exhausted(cc: ChaosCase, rng, wd: Path):
    """Kill every attempt (negative control): the failure must surface
    as a typed OrchestratorError with a structured dump — never a hang
    or an untyped crash."""
    orch = Orchestrator(jobs=2, retries=cc.retries, dump_dir=str(wd / "dumps"),
                        inject_kill_all=frozenset({spec_key(cc.spec)}))
    try:
        orch.run([cc.spec])
    except OrchestratorError as err:
        job = err.job_error
        assert job.exc_type == "WorkerCrashed" and job.detection == "crash"
        assert job.exit_code == -signal.SIGKILL
        assert job.attempt == cc.retries + 1
        assert job.dump_path and Path(job.dump_path).exists()
        dumped = json.loads(Path(job.dump_path).read_text())
        assert dumped["reason"] == "orchestrator-job-failure"
        assert dumped["job_error"]["detection"] == "crash"
        return "typed-error", job.exc_type
    raise AssertionError("kill_all run completed instead of failing typed")


def _run_cache_damage(cc: ChaosCase, rng, wd: Path):
    """Truncate a valid cache entry, or flip one bit in it.  The read
    must miss (a truncation is always quarantined) or, for a
    content-neutral flip only, return the exact golden payload — never
    a plausible-but-wrong result.  After a miss the sweep must re-run
    the cell and heal the entry to golden output."""
    golden = golden_result(cc.spec)
    cache = DiskCache(wd / "cache")
    key = spec_key(cc.spec)
    cache.put(key, golden)
    path = cache._path(key)
    path.write_bytes(_damage(cc.family, rng, path.read_bytes()))

    got = cache.get(key)
    if got is not None:
        assert cc.family == "cache-bitflip", "truncated entry was served"
        assert got.identity() == golden.identity(), \
            "bit-flipped cache entry was served with wrong contents"
        return "exact-hit", None
    if cc.family == "cache-truncate":
        assert cache.quarantined == 1, "truncated entry was not quarantined"
        assert list(cache.quarantine_dir.glob("*.quarantined"))

    results = Orchestrator(jobs=1, cache=cache).run([cc.spec])
    assert results[0].identity() == golden.identity()
    assert not results[0].from_cache
    healed = cache.get(key)
    assert healed is not None and healed.identity() == golden.identity()
    return "quarantine+self-heal", None


def _run_ckpt_damage(cc: ChaosCase, rng, wd: Path):
    """Truncate a checkpoint, or flip one bit in it.  Loading must raise
    the typed corrupt error, and an orchestrator finding the file must
    quarantine it and rerun from cycle 0, still golden.  Only a flip
    that missed every JSON-significant byte may load, and then its
    content digest must equal the pristine checkpoint's."""
    blob = golden_checkpoint_bytes(cc.spec, cc.checkpoint_every)
    spec = replace(cc.spec, checkpoint_every=cc.checkpoint_every)
    ckpt_dir = wd / "ckpt"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    path = ckpt_dir / f"{spec_key(spec)}.ckpt.json"
    path.write_bytes(_damage(cc.family, rng, blob))

    try:
        loaded = Checkpoint.load(path)
    except CheckpointCorruptError as err:
        assert err.path == str(path)
        orch = Orchestrator(jobs=1, checkpoint_dir=ckpt_dir)
        results = orch.run([spec])
        assert results[0].identity() == golden_result(cc.spec).identity()
        assert not results[0].resumed
        assert list((ckpt_dir / "quarantine").glob("*.quarantined"))
        return "typed-error+self-heal", type(err).__name__
    assert cc.family == "ckpt-bitflip", \
        "truncated checkpoint loaded without error"
    pristine = wd / "pristine.ckpt.json"
    pristine.write_bytes(blob)
    assert loaded.content_digest() == Checkpoint.load(pristine).content_digest(), \
        "bit-flipped checkpoint loaded with different contents"
    return "exact-load", None


def _run_cache_write_fail(cc: ChaosCase, rng, wd: Path):
    """ENOSPC on the cache write: the run must still complete golden,
    the failure is counted, and no torn file or tmp litter remains.
    Rides along: stale tmp/lock reaping at cache construction."""
    root = wd / "cache"
    root.mkdir(parents=True, exist_ok=True)
    # Plant dead-writer litter old enough to reap.
    for name in ("dead.tmp", "dead.lock"):
        stale = root / name
        stale.write_text("")
        os.utime(stale, (0, 0))
    key = spec_key(cc.spec)
    cache = DiskCache(root, reap_after=60.0,
                      inject_write_error=frozenset({key}))
    assert cache.reaped == 2, "stale tmp/lock litter was not reaped"

    results = Orchestrator(jobs=1, cache=cache).run([cc.spec])
    assert results[0].identity() == golden_result(cc.spec).identity()
    assert cache.write_errors == 1, "injected ENOSPC was not recorded"
    assert cache.get(key) is None, "failed write left a readable entry"
    return "golden-identity", None


#: Each family's runner returns ``(oracle, typed_error)``.
_FAMILY_RUNNERS = {
    **{family: _run_supervised for family in _SUPERVISED},
    "worker-kill-exhausted": _run_worker_kill_exhausted,
    "cache-truncate": _run_cache_damage,
    "cache-bitflip": _run_cache_damage,
    "ckpt-truncate": _run_ckpt_damage,
    "ckpt-bitflip": _run_ckpt_damage,
    "cache-write-fail": _run_cache_write_fail,
}


def _run_chaos(cc: ChaosCase, workdir) -> ChaosOutcome:
    """Run one chaos case under ``workdir``; raises ``AssertionError``
    on any gate violation (including the hygiene postcondition),
    returns the structured outcome otherwise."""
    rng = random.Random(cc.master_seed ^ (cc.case * 2654435761))
    wd = Path(workdir)
    wd.mkdir(parents=True, exist_ok=True)
    oracle, typed_error = _FAMILY_RUNNERS[cc.family](cc, rng, wd)
    _assert_hygiene(wd)
    return ChaosOutcome(cc.family, oracle, typed_error)


# -- the registry -------------------------------------------------------------------


CAMPAIGNS: Dict[str, Campaign] = {
    "fault": Campaign(
        20260807, 240,
        partial(_derive_fuzz, "fault"), _run_fault),
    "integrity": Campaign(
        20260806, 200,
        partial(_derive_fuzz, "integrity"), _classify_integrity),
    "chaos": Campaign(20260808, 160, _derive_chaos, _run_chaos),
}


def materialize(campaign: str, case: int, master_seed: Optional[int] = None):
    """Case ``case`` of ``campaign``: a pure function of
    ``(master_seed, case)`` (the campaign's own seed by default)."""
    entry = CAMPAIGNS[campaign]
    if master_seed is None:
        master_seed = entry.master_seed
    return entry.derive(case, master_seed, random.Random(master_seed + case))


def run_case(campaign: str, case: int, *args,
             master_seed: Optional[int] = None):
    """Materialize and run one case.  ``fault`` returns the
    :class:`ExperimentResult` (and raises on any detection);
    ``integrity`` returns ``("completed", result)`` or
    ``("integrity-error", err)``; ``chaos`` takes a working directory
    as its extra argument and returns a :class:`ChaosOutcome`."""
    return CAMPAIGNS[campaign].run(materialize(campaign, case, master_seed),
                                   *args)
