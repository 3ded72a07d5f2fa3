"""Direct CLI tests for the repo's diagnostic tools.

These run ``tools/trace_export.py`` and ``tools/replay.py`` the way a
user does — as subprocesses from the repo root — so argument
parsing, exit codes, and printed output are all covered, not just the
library functions underneath.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import InvariantViolation, LivenessError

REPO = Path(__file__).resolve().parent.parent


def run_tool(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / script), *args],
        capture_output=True, text=True, env=env, cwd=str(REPO), timeout=300)


# -- trace_export.py --------------------------------------------------------------


def test_trace_export_fig14_writes_chrome_trace(tmp_path):
    out = tmp_path / "fig14.json"
    proc = run_tool("trace_export.py", "--fig14", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "consume round trip from port trace: 25 cycles" in proc.stdout
    document = json.loads(out.read_text())
    assert document["otherData"]["fig14_roundtrip"]["cycles"] == 25
    events = document["traceEvents"]
    assert any(e.get("ph") == "X" and e["name"] == "mmio_load" for e in events)
    assert any(e.get("ph") == "M" for e in events)  # thread-name metadata


def test_trace_export_requires_a_mode():
    proc = run_tool("trace_export.py")
    assert proc.returncode == 2
    assert "--fig14" in proc.stderr


# -- replay.py: fault-fuzz sweep -------------------------------------------------


def test_fault_replay_reruns_a_sweep_case():
    proc = run_tool("replay.py", "--case", "0")
    assert proc.returncode == 0, proc.stderr
    assert "completed correct" in proc.stdout


def test_fault_replay_record_then_check_round_trips(tmp_path):
    log = tmp_path / "log.json"
    rec = run_tool("replay.py", "--case", "5", "--record", str(log))
    assert rec.returncode == 0, rec.stderr
    assert "recorded" in rec.stdout
    recorded = json.loads(log.read_text())
    assert recorded["cycles"] > 0 and recorded["case"] == 5

    chk = run_tool("replay.py", "--case", "5", "--check", str(log))
    assert chk.returncode == 0, chk.stderr
    assert "replay matches" in chk.stdout


def test_fault_replay_check_diverges_nonzero_with_diff(tmp_path):
    log = tmp_path / "log.json"
    rec = run_tool("replay.py", "--case", "5", "--record", str(log))
    assert rec.returncode == 0, rec.stderr
    recorded = json.loads(log.read_text())
    recorded["cycles"] += 1                     # tamper: simulate divergence
    if recorded["events"]:
        recorded["events"][0][1] = "phantom"
    log.write_text(json.dumps(recorded))

    chk = run_tool("replay.py", "--case", "5", "--check", str(log))
    assert chk.returncode == 5
    assert "REPLAY DIVERGED" in chk.stderr
    assert any(line.startswith("-cycles") for line in chk.stderr.splitlines())
    assert any(line.startswith("+cycles") for line in chk.stderr.splitlines())


# -- replay.py: integrity-fuzz sweep ----------------------------------------------


def test_fault_replay_integrity_case_completes():
    proc = run_tool("replay.py", "--integrity", "--case", "0")
    assert proc.returncode == 0, proc.stderr
    assert "completed correct" in proc.stdout


def test_fault_replay_integrity_unrecoverable_exits_typed(tmp_path):
    proc = run_tool("replay.py", "--integrity", "--case", "3",
                    "--dump-dir", str(tmp_path))
    assert proc.returncode == 6
    assert "DATA-INTEGRITY FAILURE" in proc.stderr
    assert "scratchpad_poison" in proc.stderr
    dumps = list(tmp_path.glob("*.json"))
    assert dumps, "expected a structured diagnosis dump"
    dumped = json.loads(dumps[0].read_text())
    assert dumped["integrity"]["kind"] == "scratchpad_poison"


def test_fault_replay_integrity_record_check_round_trips(tmp_path):
    log = tmp_path / "ilog.json"
    rec = run_tool("replay.py", "--integrity", "--case", "1",
                   "--record", str(log))
    assert rec.returncode == 0, rec.stderr
    chk = run_tool("replay.py", "--integrity", "--case", "1",
                   "--check", str(log))
    assert chk.returncode == 0, chk.stderr
    assert "replay matches" in chk.stdout


def test_fault_replay_adhoc_integrity_mode():
    proc = run_tool("replay.py", "--integrity", "--app", "spmv",
                    "--technique", "maple-decouple", "--threads", "2",
                    "--fault-seed", "42")
    assert proc.returncode in (0, 6)            # recovered or typed failure
    assert "ad-hoc: spmv/maple-decouple" in proc.stdout
    assert "integrity[" in proc.stdout


# -- replay.py: checkpoint save/resume ---------------------------------------------


def test_fault_replay_checkpoint_out_then_resume(tmp_path):
    ckpt = tmp_path / "case0.ckpt.json"
    rec = run_tool("replay.py", "--case", "0",
                   "--checkpoint-out", str(ckpt), "--checkpoint-every", "5000")
    assert rec.returncode == 0, rec.stderr
    assert ckpt.exists(), "no checkpoint was written"
    cycles = [line for line in rec.stdout.splitlines()
              if "completed correct" in line]

    res = run_tool("replay.py", "--case", "0",
                   "--from-checkpoint", str(ckpt))
    assert res.returncode == 0, res.stderr
    assert "resuming from checkpoint @" in res.stdout
    # The resumed replay reports the identical summary line.
    assert [line for line in res.stdout.splitlines()
            if "completed correct" in line] == cycles

    # Case 1 is a different experiment: replaying it into case 0's
    # checkpoint must diverge loudly, not continue from foreign state.
    other = run_tool("replay.py", "--case", "1",
                     "--from-checkpoint", str(ckpt))
    assert other.returncode == 8, other.stderr
    assert "CHECKPOINT REPLAY DIVERGED" in other.stderr


def test_fault_replay_corrupt_checkpoint_exits_7(tmp_path):
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text("{torn")
    proc = run_tool("replay.py", "--case", "0",
                    "--from-checkpoint", str(bad))
    assert proc.returncode == 7
    assert "CORRUPT CHECKPOINT" in proc.stderr


# -- replay.py: inspect / validate / resume a checkpoint file ----------------------


def _spec_checkpoint(tmp_path):
    """A spec-carrying mid-run checkpoint file + its golden cycle count."""
    from dataclasses import replace

    from repro.harness.orchestrator import RunSpec, execute_spec

    spec = RunSpec("spmv", "lima", threads=1)
    golden = execute_spec(spec)
    path = tmp_path / "spec.ckpt.json"
    execute_spec(replace(spec, checkpoint_every=15_000),
                 checkpoint_path=str(path))
    return path, golden


def test_checkpoint_ctl_inspect_validate_resume(tmp_path):
    path, golden = _spec_checkpoint(tmp_path)

    val = run_tool("replay.py", "validate", str(path))
    assert val.returncode == 0, val.stderr
    assert "valid checkpoint" in val.stdout and "resumable=True" in val.stdout

    ins = run_tool("replay.py", "inspect", str(path), "--json")
    assert ins.returncode == 0, ins.stderr
    info = json.loads(ins.stdout)
    assert 0 < info["cycle"] < golden.cycles
    assert info["resumable"] is True
    assert set(info["digests"]) >= {"engine", "caches", "memory", "stats"}

    res = run_tool("replay.py", "resume", str(path))
    assert res.returncode == 0, res.stderr
    assert f"completed at cycles={golden.cycles}" in res.stdout


def test_checkpoint_ctl_corrupt_exits_7(tmp_path):
    """A corrupt checkpoint exits 7 from every command; 2 is usage only."""
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text('{"kind": "repro-soc-checkpoint", "schema": 1')
    for command in ("inspect", "validate", "resume"):
        proc = run_tool("replay.py", command, str(bad))
        assert proc.returncode == 7, (command, proc.stdout, proc.stderr)
        assert "CORRUPT CHECKPOINT" in proc.stderr


def test_checkpoint_ctl_spec_less_resume_exits_3(tmp_path):
    from repro.sim.checkpoint import Checkpoint

    path, _golden = _spec_checkpoint(tmp_path)
    ckpt = Checkpoint.load(path)
    ckpt.spec_b64 = None
    ckpt.spec_key = None
    spec_less = tmp_path / "adhoc.ckpt.json"
    ckpt.save(spec_less)

    assert run_tool("replay.py", "validate", str(spec_less)).returncode == 0
    proc = run_tool("replay.py", "resume", str(spec_less))
    assert proc.returncode == 3
    assert "UNRESUMABLE" in proc.stderr


# -- replay.py: the exit-code table ------------------------------------------------


def _replay_module():
    spec = importlib.util.spec_from_file_location(
        "replay_tool", REPO / "tools" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_usage_errors_exit_2():
    for args in (("--case", "zero"), ("inspect",),
                 ("resume", "x.ckpt.json", "--case", "3")):
        proc = run_tool("replay.py", *args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "usage:" in proc.stderr


@pytest.mark.parametrize("error,code,banner", [
    (AssertionError("y[3] = 1.0, expected 2.0"), 4, "RESULT CHECK FAILED"),
    (LivenessError("no progress", {"reason": "stall"}), 9, "LIVENESS TRIP"),
    (InvariantViolation("queue 0: pop of unfilled slot"), 10,
     "INVARIANT VIOLATION"),
])
def test_run_failures_exit_with_their_own_code(error, code, banner,
                                               monkeypatch, capsys):
    replay = _replay_module()

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(replay, "run_armed", fail)
    assert replay.main(["--case", "0"]) == code
    assert f"{banner}: {error}" in capsys.readouterr().err


def test_exit_code_table_matches_the_docstring():
    """One code per outcome, none shared with argparse's usage error,
    and the docstring table lists exactly the codes the tool returns."""
    replay = _replay_module()
    codes = [code for _exc, code, _banner in replay.FAILURES]
    assert len(set(codes)) == len(codes)
    assert not {0, 1, 2} & set(codes)
    table = replay.__doc__.split("Exit codes")[1].splitlines()
    documented = {int(line.split()[0]) for line in table
                  if line.strip()[:1].isdigit()}
    assert documented == {0, 2, *codes}
