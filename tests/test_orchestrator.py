"""The parallel experiment orchestrator: sharding changes nothing.

The load-bearing guarantee is *parallel equals serial*: a figure-sized
workload set run at ``jobs=1`` and ``jobs=4`` must render byte-identical
text and produce identical per-run stats dumps — covering the cache
hit/miss and retry-after-injected-timeout paths along the way.  The
rest of the suite pins the orchestration mechanics: stable spec keys,
submission-order aggregation, in-batch dedup, cache robustness against
corrupt files, and the structured progress/timing report.
"""

import json
from dataclasses import fields, replace

import pytest

from repro.harness import figures
from repro.harness.figures import fig15, queue_sweep
from repro.harness.orchestrator import (
    CACHE_SCHEMA,
    DiskCache,
    Orchestrator,
    RunSpec,
    execute_spec,
    freeze_dataset_kwargs,
    make_orchestrator,
    spec_key,
)
from repro.params import FPGA_CONFIG
from repro.sim import FaultPlan

#: A cheap mixed bag: shared baselines (dedup), decoupling, prefetching.
SMALL_SPECS = (
    RunSpec("spmv", "doall", threads=2),
    RunSpec("spmv", "maple-decouple", threads=2),
    RunSpec("spmv", "doall", threads=2),          # duplicate of [0]
    RunSpec("spmv", "lima", threads=1),
    RunSpec("sdhp", "doall", threads=2),
)


def identities(results):
    return [r.identity() for r in results]


# -- spec keys --------------------------------------------------------------------


def test_spec_key_is_stable_and_collision_sensitive():
    a = RunSpec("spmv", "doall", threads=2)
    assert spec_key(a) == spec_key(RunSpec("spmv", "doall", threads=2))
    # Any knob change — spec-level or config-level — must change the key.
    assert spec_key(a) != spec_key(RunSpec("spmv", "doall", threads=4))
    assert spec_key(a) != spec_key(RunSpec("spmv", "lima", threads=2))
    assert spec_key(a) != spec_key(
        RunSpec("spmv", "doall", threads=2, config=FPGA_CONFIG))
    assert spec_key(RunSpec("spmv", "doall", config=FPGA_CONFIG)) != spec_key(
        RunSpec("spmv", "doall",
                config=FPGA_CONFIG.with_overrides(dram_max_inflight=32)))
    assert spec_key(RunSpec("spmv", "doall", config=FPGA_CONFIG)) != spec_key(
        RunSpec("spmv", "doall",
                config=FPGA_CONFIG.with_overrides(hop_latency=2)))
    assert spec_key(a) != spec_key(
        RunSpec("spmv", "doall", threads=2,
                dataset_kwargs=freeze_dataset_kwargs({"kind": "kronecker"})))

    # Every cell field but checkpoint_every reaches the key: one
    # perturbation per field, and a new field without one fails here.
    perturbed = {
        "workload": "sdhp", "technique": "lima", "threads": 4, "scale": 2,
        "seed": 1, "dataset_kwargs": (("kind", "kronecker"),),
        "config": FPGA_CONFIG, "fault_plan": FaultPlan(seed=1),
        "check_invariants": True, "watchdog": True,
    }
    names = {f.name for f in fields(RunSpec)}
    assert set(perturbed) == names - {"checkpoint_every"}
    keys = {spec_key(replace(a, **{name: value}))
            for name, value in perturbed.items()}
    assert spec_key(a) not in keys and len(keys) == len(perturbed)
    assert spec_key(replace(a, checkpoint_every=1000)) == spec_key(a)
    # ... and every field but the cell's name and checkpointing reaches
    # the run.
    assert set(a.run_kwargs()) == names - {"workload", "technique",
                                          "checkpoint_every"}


def test_config_name_participates_via_stable_dict():
    # stable_dict covers every dataclass field, in particular the knobs
    # sweeps override; sanity-check a couple.
    d = FPGA_CONFIG.stable_dict()
    assert d["scratchpad_bytes"] == 1024 and d["hop_latency"] == 1
    assert FPGA_CONFIG.stable_hash() != FPGA_CONFIG.with_overrides(
        dram_max_inflight=32).stable_hash()
    assert FPGA_CONFIG.stable_hash() == FPGA_CONFIG.with_overrides().stable_hash()


def test_freeze_dataset_kwargs_is_order_insensitive():
    assert (freeze_dataset_kwargs({"a": 1, "b": 2})
            == freeze_dataset_kwargs({"b": 2, "a": 1}))
    assert freeze_dataset_kwargs(None) == ()


# -- serial/parallel equivalence ----------------------------------------------------


def test_parallel_equals_serial_on_spec_batch():
    serial = Orchestrator(jobs=1).run(SMALL_SPECS)
    parallel = Orchestrator(jobs=4, timeout=120).run(SMALL_SPECS)
    assert identities(serial) == identities(parallel)


def test_parallel_equals_serial_on_figure_workload(tmp_path):
    """A figure-sized set at jobs=1 vs jobs=4: byte-identical rendering,
    identical per-run stats, and the cache hit path on a third pass."""
    apps = ("spmv",)
    serial_orch = Orchestrator(jobs=1)
    serial = figures.run(fig15(apps=apps), orch=serial_orch)[0].render()

    cache = DiskCache(tmp_path / "cache")
    parallel_orch = Orchestrator(jobs=4, cache=cache, timeout=120)
    parallel = figures.run(fig15(apps=apps), orch=parallel_orch)[0].render()
    assert serial == parallel  # byte-identical figure text
    assert parallel_orch.report["executed"] == parallel_orch.report["unique"]

    cached_orch = Orchestrator(jobs=4, cache=cache, timeout=120)
    rerendered = figures.run(fig15(apps=apps), orch=cached_orch)[0].render()
    assert rerendered == serial
    assert cached_orch.report["executed"] == 0  # every cell from cache
    assert cached_orch.report["cached"] == cached_orch.report["unique"]


def test_queue_sweep_parallel_matches_serial():
    apps = ("spmv",)
    entries = (8, 32)
    plan = queue_sweep(apps=apps, entries=entries)
    [serial] = figures.run(plan)
    [parallel] = figures.run(plan, orch=Orchestrator(jobs=2, timeout=120))
    assert serial.render() == parallel.render()


def test_union_of_plans_matches_each_plan_run_alone():
    """Plans submitted together render exactly as each does alone, and
    the cells they share (spmv x2 on the FPGA config) simulate once."""
    plans = (fig15(apps=("spmv",), targets=(25,)),
             queue_sweep(apps=("spmv",), entries=(32,)))
    orch = Orchestrator(jobs=1)
    together = figures.run(*plans, orch=orch)
    alone = [figures.run(plan)[0] for plan in plans]
    assert ([fig.render() for fig in together]
            == [fig.render() for fig in alone])
    assert orch.report["unique"] < orch.report["total"]


def test_submission_order_preserved_and_duplicates_deduped():
    orch = Orchestrator(jobs=1)
    results = orch.run(SMALL_SPECS)
    assert [r.technique for r in results] == [
        "doall", "maple-decouple", "doall", "lima", "doall"]
    assert [r.workload for r in results] == [
        "spmv", "spmv", "spmv", "spmv", "sdhp"]
    # Duplicate spec simulated once, result fanned out.
    assert orch.report["total"] == 5
    assert orch.report["unique"] == 4
    assert results[0].identity() == results[2].identity()


# -- determinism of the worker entry point ------------------------------------------


def test_execute_spec_is_deterministic():
    spec = RunSpec("spmv", "maple-decouple", threads=2)
    a, b = execute_spec(spec), execute_spec(spec)
    assert a.identity() == b.identity()
    assert a.key == spec_key(spec)
    assert a.cycles > 0 and a.total_loads > 0 and a.events_executed > 0
    assert a.stats  # the full dump crossed the boundary


# -- cache ---------------------------------------------------------------------------


def test_cache_roundtrip_hit_and_miss(tmp_path):
    cache = DiskCache(tmp_path)
    spec = RunSpec("spmv", "doall", threads=2)
    key = spec_key(spec)
    assert cache.get(key) is None  # miss

    result = execute_spec(spec)
    cache.put(key, result)
    assert len(cache) == 1
    hit = cache.get(key)
    assert hit is not None and hit.from_cache
    assert hit.identity() == result.identity()


def test_cache_ignores_corrupt_and_stale_schema_files(tmp_path):
    cache = DiskCache(tmp_path)
    spec = RunSpec("spmv", "doall", threads=2)
    key = spec_key(spec)

    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.get(key) is None

    payload = execute_spec(spec).to_json()
    payload["schema"] = CACHE_SCHEMA + 1
    (tmp_path / f"{key}.json").write_text(json.dumps(payload))
    assert cache.get(key) is None

    # A corrupt entry self-heals: the orchestrator re-simulates and
    # overwrites it.
    orch = Orchestrator(jobs=1, cache=cache)
    results = orch.run([spec])
    assert not results[0].from_cache
    rerun = orch.run([spec])
    assert rerun[0].from_cache
    assert rerun[0].identity() == results[0].identity()


def test_cached_result_render_path_matches_fresh(tmp_path):
    """Figure values computed from cached results equal fresh ones even
    through the JSON float round trip."""
    cache = DiskCache(tmp_path)
    plan = fig15(apps=("spmv",), targets=(25,))
    [fresh] = figures.run(plan, orch=Orchestrator(jobs=1, cache=cache))
    [cached] = figures.run(plan, orch=Orchestrator(jobs=1, cache=cache))
    assert fresh.render() == cached.render()


# -- timeout / retry ------------------------------------------------------------------


def test_retry_after_injected_timeout_recovers_identical_result():
    specs = [RunSpec("spmv", "doall", threads=2),
             RunSpec("spmv", "maple-decouple", threads=2)]
    baseline = identities(Orchestrator(jobs=1).run(specs))

    events = []
    orch = Orchestrator(jobs=2, timeout=2.0, retries=2,
                        inject_hang=frozenset({spec_key(specs[0])}),
                        progress=events.append)
    results = orch.run(specs)
    assert identities(results) == baseline
    # The injected hang guarantees at least one timeout+retry; a loaded
    # host may add more (the non-hung cell can also miss its deadline),
    # and the injection only fires on attempt 0, so retries always land.
    assert orch.report["timeouts"] >= 1
    assert orch.report["retries"] >= 1
    assert results[0].attempts >= 2  # first attempt hung, retry landed
    assert any(e["event"] == "timeout" for e in events)


def test_exhausted_retries_fall_back_to_in_process():
    spec = RunSpec("spmv", "doall", threads=2)
    orch = Orchestrator(jobs=2, timeout=2.0, retries=0,
                        inject_hang=frozenset({spec_key(spec)}))
    results = orch.run([spec])
    assert orch.report["timeouts"] >= 1
    assert orch.report["retries"] == 0
    assert results[0].identity() == execute_spec(spec).identity()


# -- progress / reporting --------------------------------------------------------------


def test_progress_events_and_timing_report():
    events = []
    orch = Orchestrator(jobs=1, progress=events.append)
    orch.run(SMALL_SPECS)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "start" and kinds[-1] == "finish"
    assert kinds.count("done") == 4  # unique cells only

    report = orch.report
    assert report["total"] == 5 and report["unique"] == 4
    assert report["wall_seconds"] > 0
    assert len(report["per_job"]) == 5
    assert all(job["wall_seconds"] >= 0 for job in report["per_job"])


def test_constructor_validation():
    with pytest.raises(ValueError):
        Orchestrator(jobs=0)
    with pytest.raises(ValueError):
        Orchestrator(retries=-1)


def test_make_orchestrator_wires_cache(tmp_path):
    orch = make_orchestrator(jobs=2, use_cache=True, cache_dir=tmp_path)
    assert orch.cache is not None and orch.cache.root == tmp_path
    assert make_orchestrator(jobs=1, use_cache=False).cache is None


# -- structured failures, retries, and backoff -----------------------------------


def _bad_spec():
    """A spec that fails deterministically inside run_workload."""
    return RunSpec("spmv", "no-such-technique", threads=1)


def test_serial_failure_is_structured():
    from repro.harness.orchestrator import JobError, OrchestratorError

    events = []
    orch = Orchestrator(jobs=1, progress=events.append)
    with pytest.raises(OrchestratorError) as exc:
        orch.run([_bad_spec()])
    error = exc.value.job_error
    assert isinstance(error, JobError)
    assert error.label == _bad_spec().label()
    assert error.exc_type == "ValueError"
    assert "no-such-technique" in error.message
    assert "run_workload" in error.traceback  # full worker traceback rides along
    assert "worker traceback" in str(exc.value)
    assert orch.failures == [error]
    failures = [e for e in events if e["event"] == "failure"]
    assert failures and failures[0]["exc_type"] == "ValueError"


def test_pool_failure_crosses_the_process_boundary():
    import os

    from repro.harness.orchestrator import OrchestratorError

    orch = Orchestrator(jobs=2, timeout=120, retries=0)
    with pytest.raises(OrchestratorError) as exc:
        orch.run([RunSpec("spmv", "doall", threads=1), _bad_spec()])
    error = exc.value.job_error
    # The record was built inside the worker process, not re-raised as a
    # bare remote traceback.
    assert error.worker_pid != 0 and error.worker_pid != os.getpid()
    assert error.exc_type == "ValueError"
    assert "no-such-technique" in error.traceback
    assert orch.failures[-1] is error


def test_failed_cell_retries_with_exponential_backoff(monkeypatch):
    import repro.harness.orchestrator as orch_module
    from repro.harness.orchestrator import OrchestratorError

    sleeps = []
    monkeypatch.setattr(orch_module.time, "sleep",
                        lambda seconds: sleeps.append(seconds))
    events = []
    orch = Orchestrator(jobs=2, timeout=120, retries=2, backoff=0.5,
                        progress=events.append)
    with pytest.raises(OrchestratorError) as exc:
        orch.run([_bad_spec()])
    # Three attempts total (1 + 2 retries), exponential pauses between.
    assert sleeps == [0.5, 1.0]
    assert [e["attempt"] for e in events if e["event"] == "failure"] == [1, 2, 3]
    assert len(orch.failures) == 3
    assert exc.value.job_error is orch.failures[-1]


def test_job_error_records_fault_seed():
    from repro.harness.campaign import fuzz_specs
    from repro.harness.orchestrator import OrchestratorError

    spec = fuzz_specs(1)[0]
    broken = RunSpec(**{**spec.__dict__, "technique": "no-such-technique"})
    orch = Orchestrator(jobs=1)
    with pytest.raises(OrchestratorError) as exc:
        orch.run([broken])
    assert exc.value.job_error.fault_seed == spec.fault_plan.seed
    assert f"fault seed {spec.fault_plan.seed}" in exc.value.job_error.summary()


def test_backoff_validation():
    with pytest.raises(ValueError):
        Orchestrator(backoff=-0.1)


# -- supervised pool: crashes, wedges, checkpoints, orphans ------------------------


def test_sigkill_recovery_matches_serial_baseline():
    """Satellite gate: SIGKILL a worker mid-job; the job must be
    rescheduled, complete, and aggregate equal to the serial baseline."""
    baseline = identities(Orchestrator(jobs=1).run(SMALL_SPECS))
    victim = spec_key(SMALL_SPECS[1])
    events = []
    orch = Orchestrator(jobs=2, retries=2, progress=events.append,
                        inject_kill=frozenset({victim}))
    results = orch.run(SMALL_SPECS)
    assert identities(results) == baseline
    assert orch.report["crashes"] >= 1
    crash = next(e for e in events if e["event"] == "crash")
    assert crash["exit_code"] == -9
    killed = next(r for r in results if r.key == victim)
    assert killed.attempts >= 2  # first attempt died, retry landed


def test_crashed_job_resumes_from_checkpoint(tmp_path):
    """With checkpoint_every set, the post-crash reschedule continues
    from the last checkpoint instead of cycle 0 — and still matches."""
    base_spec = RunSpec("spmv", "lima", threads=1)
    spec = RunSpec("spmv", "lima", threads=1, checkpoint_every=15_000)
    # checkpoint_every is bit-identity-neutral, so it stays out of the key.
    assert spec_key(spec) == spec_key(base_spec)

    golden = execute_spec(base_spec).identity()
    orch = Orchestrator(jobs=2, retries=1, checkpoint_dir=tmp_path / "ckpt",
                        inject_kill=frozenset({spec_key(spec)}))
    results = orch.run([spec])
    assert results[0].identity() == golden
    assert results[0].resumed and results[0].attempts == 2
    assert orch.report["crashes"] == 1 and orch.report["resumed"] == 1
    # The finished job's checkpoint (and any torn tmp) was cleaned up.
    assert not list((tmp_path / "ckpt").glob("*.ckpt.json*"))


def test_retired_worker_drops_the_torn_checkpoint_tmp_but_keeps_the_checkpoint(
        tmp_path):
    """A worker killed mid-attempt may have been inside Checkpoint.save:
    retiring it deletes its torn ``.tmp`` and keeps the last whole
    checkpoint for the next attempt to resume from.  The ``timeout``
    event fires after the retire and before the retry is dispatched."""
    import multiprocessing

    spec = RunSpec("spmv", "lima", threads=1, checkpoint_every=15_000)
    ckpt = tmp_path / "ckpt" / f"{spec_key(spec)}.ckpt.json"
    torn = ckpt.with_name(ckpt.name + ".tmp")
    seen = []

    def tripwire(event):
        if event["event"] == "spawn" and event["attempt"] == 1:
            ckpt.write_text("{}")
            torn.write_text('{"partial')
        elif event["event"] == "timeout" and event["attempt"] == 1:
            seen.append((torn.exists(), ckpt.exists()))

    # The hang keeps the worker asleep, away from both files, until the
    # timeout retires it.
    orch = Orchestrator(jobs=2, timeout=1.0, retries=1,
                        heartbeat_timeout=60.0,
                        checkpoint_dir=tmp_path / "ckpt", progress=tripwire,
                        inject_hang=frozenset({spec_key(spec)}))
    results = orch.run([spec])
    assert seen == [(False, True)]
    assert results[0].identity() == execute_spec(
        RunSpec("spmv", "lima", threads=1)).identity()
    assert multiprocessing.active_children() == []


#: Child for the import-closure guard.  It snapshots ``sys.modules``
#: after ``import repro.harness`` (what a supervisor holds when it forks
#: a worker), measures the ``numpy.random`` closure, then runs cells
#: through the worker entry point.  BFS's default graph takes about a
#: minute per cell, so the child shrinks it; the lazy import inside
#: ``default_dataset`` is kept.
_IMPORT_CLOSURE_CHILD = """
import json, sys
import repro.harness
from repro.harness.orchestrator import RunSpec, _execute_or_resume
from repro.kernels import BfsWorkload

def small_graph(self, scale=1, seed=0, which="wikipedia"):
    from repro.datasets.graphs import power_law_graph
    return power_law_graph(512, 4, seed=seed + 1, name=which)

BfsWorkload.default_dataset = small_graph
held = set(sys.modules)
import numpy.random
closure = set(sys.modules) - held
for workload in ("spmv", "sdhp", "spmm", "bfs"):
    for technique in ("doall", "maple-decouple"):
        _execute_or_resume(RunSpec(workload, technique, threads=2, scale=1))
print(json.dumps({"closure": sorted(closure),
                  "new": sorted(set(sys.modules) - held)}))
"""


def test_worker_cells_import_only_the_numpy_random_closure():
    """A forked worker inherits its supervisor's modules, so a cell run in
    it should import nothing new.  The one allowance is ``numpy.random``
    (seeded per cell by ``seed_rngs_for``): importing it in the
    supervisor would raise the supervisor's peak memory by about 3 MB,
    while each worker pays it once.  Anything else here (``numpy.testing``
    in a functional check, a lazy import on the worker path) costs every
    worker process its import time."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLOSURE_CHILD],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "numpy.random" in out["closure"]
    extra = sorted(set(out["new"]) - set(out["closure"]))
    assert not extra, f"worker-path cells imported {len(extra)} modules: {extra}"


def test_wedged_worker_is_detected_and_rescheduled():
    """SIGSTOP freezes the worker's heartbeat thread without killing the
    process: the wedge detector (not the runtime deadline) must fire."""
    spec = RunSpec("spmv", "lima", threads=1)
    golden = execute_spec(spec).identity()
    events = []
    orch = Orchestrator(jobs=2, retries=1, heartbeat_timeout=0.6,
                        heartbeat_interval=0.05, progress=events.append,
                        inject_stop=frozenset({spec_key(spec)}))
    results = orch.run([spec])
    assert results[0].identity() == golden
    assert orch.report["wedged"] == 1
    assert any(e["event"] == "wedged" for e in events)


def test_exhausted_crashes_raise_typed_with_dump(tmp_path):
    """A job whose every attempt is SIGKILLed must end as a structured
    OrchestratorError (WorkerCrashed + exit code + JSON dump), not a
    hang or an in-process rerun of whatever killed the workers."""
    import multiprocessing
    from pathlib import Path

    from repro.harness.orchestrator import OrchestratorError

    spec = RunSpec("spmv", "lima", threads=1)
    orch = Orchestrator(jobs=2, retries=1, dump_dir=str(tmp_path),
                        inject_kill_all=frozenset({spec_key(spec)}))
    with pytest.raises(OrchestratorError) as exc:
        orch.run([spec])
    job = exc.value.job_error
    assert job.exc_type == "WorkerCrashed" and job.detection == "crash"
    assert job.exit_code == -9 and job.attempt == 2
    assert job.dump_path and Path(job.dump_path).exists()
    dumped = json.loads(Path(job.dump_path).read_text())
    assert dumped["reason"] == "orchestrator-job-failure"
    assert dumped["job_error"]["exc_type"] == "WorkerCrashed"
    assert multiprocessing.active_children() == []


def test_keyboard_interrupt_leaves_no_orphan_workers():
    """Satellite fix: every _run_pool exit path — KeyboardInterrupt
    included — must terminate and join all live workers."""
    import multiprocessing

    def bomb(event):
        if event["event"] == "spawn":
            raise KeyboardInterrupt

    orch = Orchestrator(jobs=2, progress=bomb)
    with pytest.raises(KeyboardInterrupt):
        orch.run([RunSpec("spmv", "lima", threads=1),
                  RunSpec("sdhp", "doall", threads=2)])
    assert multiprocessing.active_children() == []


# -- slot workers: reuse, order independence, idle death ---------------------------

#: Six distinct cheap cells, so each of two slot workers runs several.
LIFECYCLE_SPECS = (
    RunSpec("spmv", "doall", threads=2),
    RunSpec("spmv", "maple-decouple", threads=2),
    RunSpec("spmv", "lima", threads=1),
    RunSpec("sdhp", "doall", threads=2),
    RunSpec("sdhp", "maple-decouple", threads=2),
    RunSpec("spmv", "doall", threads=1),
)


def test_slot_workers_are_reused_across_cells():
    """One worker per slot for the whole run, not one process per cell."""
    import multiprocessing

    results = Orchestrator(jobs=2).run(LIFECYCLE_SPECS)
    assert len({r.worker_pid for r in results}) <= 2
    assert identities(results) == [execute_spec(spec).identity()
                                   for spec in LIFECYCLE_SPECS]
    assert multiprocessing.active_children() == []


def test_cell_results_do_not_depend_on_the_cells_run_before():
    """Reversing the batch changes which cells each worker ran earlier,
    and must change no number."""
    import multiprocessing

    forward = Orchestrator(jobs=2).run(LIFECYCLE_SPECS)
    backward = Orchestrator(jobs=2).run(LIFECYCLE_SPECS[::-1])
    assert ({r.key: r.identity() for r in forward}
            == {r.key: r.identity() for r in backward})
    assert multiprocessing.active_children() == []


def test_worker_killed_while_idle_is_replaced_without_a_retry():
    """A worker that dies between attempts is replaced at its slot's
    next dispatch: no job is lost, failed or charged a retry."""
    import multiprocessing
    import os
    import signal

    baseline = identities(Orchestrator(jobs=1).run(LIFECYCLE_SPECS))
    pids = {}
    killed = []

    def assassin(event):
        if event["event"] == "spawn":
            pids[event["key"]] = event["pid"]
        elif event["event"] == "done" and not killed:
            pid = pids[event["key"]]
            os.kill(pid, signal.SIGKILL)
            # Wait for the death without reaping: the supervisor's
            # next dispatch to this slot must find the worker dead.
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            killed.append(pid)

    orch = Orchestrator(jobs=2, retries=0, progress=assassin)
    results = orch.run(LIFECYCLE_SPECS)
    assert killed
    assert identities(results) == baseline
    assert orch.report["crashes"] == 0 and orch.report["retries"] == 0
    assert orch.failures == []
    assert all(r.attempts == 1 for r in results)
    assert len(set(pids.values())) == 3  # the dead worker was replaced
    assert multiprocessing.active_children() == []


# -- DiskCache robustness: digests, quarantine, reaping, write failures ------------


def _fake_result(cycles=10):
    from repro.harness.orchestrator import RunResult

    return RunResult(workload="spmv", technique="doall", threads=2,
                     cycles=cycles, fallback_doall=False, total_loads=1,
                     avg_load_latency=1.0, events_executed=5,
                     stats={"a": 1.0}, key="deadbeef")


def test_cache_quarantines_digest_mismatch(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("deadbeef", _fake_result())
    path = tmp_path / "deadbeef.json"
    payload = json.loads(path.read_text())
    payload["cycles"] = 999  # tamper without fixing the embedded sha256
    path.write_text(json.dumps(payload, sort_keys=True))

    assert cache.get("deadbeef") is None
    assert cache.quarantined == 1
    assert (cache.quarantine_dir / "deadbeef.json.quarantined").exists()
    assert not path.exists()  # moved aside, not re-readable


def test_cache_quarantines_truncated_entry(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("deadbeef", _fake_result())
    path = tmp_path / "deadbeef.json"
    path.write_text(path.read_text()[:40])
    assert cache.get("deadbeef") is None
    assert cache.quarantined == 1


def test_cache_quarantine_keeps_every_corrupt_copy(tmp_path):
    """Two corruptions of the same key are two pieces of evidence: the
    second must not overwrite the first in ``quarantine/``."""
    cache = DiskCache(tmp_path)
    path = tmp_path / "deadbeef.json"
    for garbage in ("torn-1", "torn-2"):
        cache.put("deadbeef", _fake_result())
        path.write_text(garbage)
        assert cache.get("deadbeef") is None
    assert cache.quarantined == 2
    kept = sorted(p.read_text() for p in cache.quarantine_dir.iterdir())
    assert kept == ["torn-1", "torn-2"]


def test_cache_write_error_is_absorbed_and_counted(tmp_path):
    cache = DiskCache(tmp_path, inject_write_error=frozenset({"deadbeef"}))
    cache.put("deadbeef", _fake_result())
    assert cache.write_errors == 1
    assert cache.get("deadbeef") is None  # nothing half-written
    assert not list(tmp_path.glob("*.tmp"))


def test_cache_reaps_stale_tmp_and_lock_files(tmp_path):
    import os

    for name in ("old.tmp", "old.lock"):
        stale = tmp_path / name
        stale.write_text("")
        os.utime(stale, (0, 0))
    fresh = tmp_path / "fresh.tmp"
    fresh.write_text("")  # a live writer's file: must survive

    cache = DiskCache(tmp_path, reap_after=60.0)
    assert cache.reaped == 2
    assert fresh.exists()
    assert not (tmp_path / "old.tmp").exists()
    assert not (tmp_path / "old.lock").exists()


def test_heartbeat_validation():
    with pytest.raises(ValueError):
        Orchestrator(heartbeat_timeout=0)
    with pytest.raises(ValueError):
        Orchestrator(heartbeat_interval=-1.0)
