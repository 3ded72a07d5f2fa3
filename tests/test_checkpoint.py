"""Checkpoint/restore: bit-identity across the differential-fuzz matrix.

The checkpoint layer's whole contract is "a resumed run *is* the
uninterrupted run".  This suite pins it three ways on every config in
the differential-fuzz matrix (``test_fuzz_differential.random_case``,
with the reliable-port axis added on every third case):

1. a run checkpointed every ~cycles/3 produces exactly the
   uninterrupted run's cycles, event count, and stats dump (the engine
   chunking is invisible);
2. resuming from the first mid-run checkpoint — replaying to the saved
   cycle under per-subsystem digest verification, then continuing —
   finishes with the identical triple;
3. on every fifth case the resume additionally happens in a **fresh
   Python process** (subprocess loading the checkpoint file), so no
   in-process state can be silently carrying the match.

Plus the Fig. 14 gate (the 25-cycle consume round trip survives a
mid-trace checkpoint), the typed-error surface (corrupt, unresumable,
divergent), and the spec-carrying ``Soc.resume`` path.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

try:
    from tests.test_fuzz_differential import N_CASES, random_case
except ImportError:  # run with the tests dir itself on sys.path
    from test_fuzz_differential import N_CASES, random_case

from repro.harness.orchestrator import RunSpec, execute_spec, spec_key
from repro.harness.techniques import run_workload
from repro.sim.checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointDivergenceError,
    CheckpointUnresumableError,
    CHECKPOINT_SCHEMA,
    capture,
    digest_of,
    engine_state,
)
from repro.sim.watchdog import Watchdog
from repro.system import Soc

REPO = Path(__file__).resolve().parent.parent

RELIABLE_EVERY = 3        # every 3rd case also arms reliable ports
FRESH_PROCESS_EVERY = 5   # every 5th case resumes in a fresh process


def case_args(case: int):
    """The differential-fuzz case, with the reliable-port axis mixed in."""
    config, workload, technique, threads, dataset, seed = random_case(case)
    if case % RELIABLE_EVERY == 0:
        config = config.with_overrides(reliable_ports=True)
    return config, workload, technique, threads, dataset, seed


def _triple(result):
    return (result.cycles, result.soc.sim.events_executed,
            result.soc.stats_snapshot())


def run_uninterrupted(case: int):
    config, workload, technique, threads, dataset, seed = case_args(case)
    return _triple(run_workload(workload, technique, config=config,
                                threads=threads, dataset=dataset, seed=seed,
                                check=True))


# Child script for the fresh-process leg: re-derives the case from its
# number, loads the checkpoint file, resumes, prints the triple.
_RESUME_CHILD = """\
import json, sys
from test_checkpoint import case_args
from repro.harness.techniques import run_workload
from repro.sim.checkpoint import Checkpoint, digest_of
case = int(sys.argv[1])
ckpt = Checkpoint.load(sys.argv[2])
config, workload, technique, threads, dataset, seed = case_args(case)
r = run_workload(workload, technique, config=config, threads=threads,
                 dataset=dataset, seed=seed, check=True, resume_from=ckpt)
print(json.dumps({"cycles": r.cycles,
                  "events": r.soc.sim.events_executed,
                  "stats": digest_of(r.soc.stats_snapshot())}))
"""


@pytest.mark.parametrize("case", range(N_CASES))
def test_checkpoint_roundtrip_bit_identity(case, tmp_path):
    baseline = run_uninterrupted(case)
    config, workload, technique, threads, dataset, seed = case_args(case)
    every = max(1, baseline[0] // 3)

    # Leg 1: the checkpointed run itself changes nothing.
    saved = {}
    mid_path = tmp_path / "mid.ckpt.json"

    def hook(path, ckpt):
        if "first" not in saved:
            saved["first"] = ckpt
            shutil.copyfile(path, mid_path)

    checkpointed = run_workload(
        workload, technique, config=config, threads=threads, dataset=dataset,
        seed=seed, check=True, checkpoint_every=every,
        checkpoint_path=str(tmp_path / "run.ckpt.json"), on_checkpoint=hook)
    assert _triple(checkpointed) == baseline, \
        f"checkpointing perturbed case {case}"

    ckpt = saved["first"]
    assert 0 < ckpt.cycle < baseline[0], "checkpoint must be mid-run"

    # Leg 2: resume from the mid-run checkpoint (verified replay), same
    # process, fresh Soc.
    resumed = run_workload(workload, technique, config=config,
                           threads=threads, dataset=dataset, seed=seed,
                           check=True, resume_from=ckpt)
    assert _triple(resumed) == baseline, f"resume diverged in case {case}"

    # Leg 3 (subset): resume in a fresh Python process from the file.
    if case % FRESH_PROCESS_EVERY == 0:
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}{REPO / 'tests'}"
        proc = subprocess.run(
            [sys.executable, "-c", _RESUME_CHILD, str(case), str(mid_path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["cycles"] == baseline[0]
        assert out["events"] == baseline[1]
        assert out["stats"] == digest_of(baseline[2])


# -- Fig. 14 through a mid-trace checkpoint ---------------------------------------


def _fig14_probe_soc():
    """The Fig. 14 measurement probe (mirrors ``harness.figures.fig14``)."""
    from repro.cpu import Alu, Thread
    from repro.params import FPGA_CONFIG

    soc = Soc(FPGA_CONFIG)
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

    return soc, [(0, Thread(probe(), aspace, "probe"))], measured


def test_fig14_roundtrip_is_25_through_mid_trace_checkpoint():
    soc_a, threads_a, measured_a = _fig14_probe_soc()
    saved = {}

    def hook(live):
        if "ckpt" not in saved:
            saved["ckpt"] = capture(live, label="fig14-mid")

    soc_a.run_threads(threads_a, checkpoint_every=200, on_checkpoint=hook)
    assert measured_a["cycles"] == 25

    ckpt = saved["ckpt"]
    assert 0 < ckpt.cycle < 500  # mid-trace: before the measured consume

    soc_b, threads_b, measured_b = _fig14_probe_soc()
    soc_b.run_threads(threads_b, resume_from=ckpt)
    assert measured_b["cycles"] == 25


def test_roundtrip_with_far_future_event_pending_at_capture():
    """A watchdog tick more than 8,192 cycles out is pending when the
    checkpoint is taken; the census records it and the resume replays
    through it bit-identically."""
    interval = 20_000
    far = {}

    def run(resume_from=None, hook=None):
        soc, threads, measured = _fig14_probe_soc()
        watchdog = Watchdog(soc, check_interval=interval,
                            stall_window=interval)
        cycles = soc.run_threads(threads, watchdog=watchdog,
                                 checkpoint_every=None if hook is None else 200,
                                 on_checkpoint=hook, resume_from=resume_from)
        return (cycles, soc.sim.now, soc.sim.events_executed,
                soc.stats_snapshot(), measured["cycles"], watchdog.ticks)

    def hook(live):
        if "ckpt" not in far:
            far["ckpt"] = capture(live, label="far-event")
            far["due"] = engine_state(live.sim)["pending"][-1][0]

    baseline = run()
    assert baseline[1] == interval and baseline[5] == 1
    assert run(hook=hook) == baseline
    ckpt = far["ckpt"]
    assert far["due"] == interval and far["due"] - ckpt.cycle > 8_192
    assert run(resume_from=ckpt) == baseline


# -- typed error surface ----------------------------------------------------------


def _small_checkpoint():
    return Checkpoint(cycle=5, events_executed=10,
                      digests={"engine": "00", "stats": "11"},
                      stats={"a": 1.0}, label="unit")


def test_checkpoint_save_load_roundtrip(tmp_path):
    path = tmp_path / "c.ckpt.json"
    saved = _small_checkpoint().save(path)
    loaded = Checkpoint.load(path)
    assert loaded.content_digest() == saved.content_digest()
    assert loaded.cycle == 5 and not loaded.resumable


def test_corrupt_checkpoint_files_raise_typed(tmp_path):
    path = tmp_path / "c.ckpt.json"
    _small_checkpoint().save(path)
    pristine = path.read_text()

    path.write_text(pristine[: len(pristine) // 2])    # truncated
    with pytest.raises(CheckpointCorruptError):
        Checkpoint.load(path)

    body = json.loads(pristine)
    body["cycle"] = 6                                  # tampered content
    path.write_text(json.dumps(body))
    with pytest.raises(CheckpointCorruptError, match="digest mismatch"):
        Checkpoint.load(path)

    body = json.loads(pristine)
    body["kind"] = "something-else"                    # wrong kind
    path.write_text(json.dumps(body))
    with pytest.raises(CheckpointCorruptError, match="not a checkpoint"):
        Checkpoint.load(path)

    body = json.loads(pristine)
    body["schema"] = 999                               # future schema
    path.write_text(json.dumps(body))
    with pytest.raises(CheckpointCorruptError, match="schema"):
        Checkpoint.load(path)

    with pytest.raises(CheckpointCorruptError):        # missing file
        Checkpoint.load(tmp_path / "nope.ckpt.json")


def test_older_schema_checkpoint_is_rejected(tmp_path):
    """A well-formed file from schema 1 (whose engine census had wheel
    slots and heap sequence numbers) must not load."""
    assert CHECKPOINT_SCHEMA == 2
    path = tmp_path / "old.ckpt.json"
    replace(_small_checkpoint(), schema=1).save(path)
    assert json.loads(path.read_text())["schema"] == 1
    with pytest.raises(CheckpointCorruptError, match="schema 1 != 2"):
        Checkpoint.load(path)


def test_spec_less_checkpoint_is_typed_unresumable():
    ckpt = _small_checkpoint()
    assert not ckpt.resumable
    with pytest.raises(CheckpointUnresumableError):
        ckpt.spec()


def test_divergent_replay_raises_typed_and_names_subsystems(tmp_path):
    """Resume under different timing must fail verified replay — the
    error names the subsystems whose digests disagree."""
    saved = {}

    def hook(path, ckpt):
        saved.setdefault("first", ckpt)

    baseline = run_workload("spmv", "maple-decouple", threads=2, check=True,
                            checkpoint_every=10_000,
                            checkpoint_path=str(tmp_path / "c.ckpt.json"),
                            on_checkpoint=hook)
    assert baseline.cycles > 10_000 and "first" in saved

    with pytest.raises(CheckpointDivergenceError) as exc:
        run_workload("spmv", "maple-decouple", threads=2, check=True,
                     hop_latency_override=3, resume_from=saved["first"])
    assert exc.value.mismatched  # at least one subsystem named
    assert "diverges from checkpoint" in str(exc.value)


# -- the spec-carrying Soc.save_checkpoint / Soc.resume path ----------------------


def test_soc_resume_from_spec_checkpoint_file(tmp_path):
    spec = RunSpec("spmv", "lima", threads=1)
    golden = execute_spec(spec)

    path = tmp_path / "spec.ckpt.json"
    execute_spec(replace(spec, checkpoint_every=15_000),
                 checkpoint_path=str(path))
    ckpt = Checkpoint.load(path)
    assert ckpt.resumable and ckpt.spec_key == spec_key(spec)
    assert 0 < ckpt.cycle < golden.cycles

    result = Soc.resume(str(path))
    assert result.cycles == golden.cycles
    assert result.soc.sim.events_executed == golden.events_executed
    assert digest_of(result.soc.stats_snapshot()) == digest_of(golden.stats)
