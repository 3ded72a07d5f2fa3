"""Checks on the benchmark itself; run with ``pytest bench/``.

One pass of every workload (plus the memory leg and the traced pass)
takes about two minutes on a 2-CPU host.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts src/ on sys.path)
from workloads import WORKLOADS, Probe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(run.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def report():
    """One timed pass, the memory leg and one traced pass per workload."""
    return run.run_benchmark(list(WORKLOADS), GOLDEN["seed"], seconds=0,
                             trace=None, golden=GOLDEN, min_passes=1)


def test_every_benchmark_metric_and_workload_is_printed(report, capsys):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert not report["failures"]
    run.print_report(report)
    printed = capsys.readouterr().out
    line = run.result_line(report, trace=None)
    for workload in WORKLOADS:
        assert f"== {workload} " in printed
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert f"  {metric['name']} " in printed
            value = line["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
    assert (BENCH_DIR / "out" / "layers.json").is_file()
    assert (BENCH_DIR / "out" / "trace.json").is_file()


def test_counts_repeat_exactly_across_traced_passes(report):
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] == "count" and m["name"] != "harness.spawns"]
    with Probe() as probe:
        for workload in WORKLOADS:
            traced, phases = run.traced_pass(workload, GOLDEN["seed"], probe)
            again = run.layer_metrics(traced, phases, [traced])["metrics"]
            first = report["workloads"][workload]["metrics"]
            for name in exact:
                if workload == "sweep" and name.startswith(
                        ("host.harness.", "host.other.")):
                    continue  # the supervisor's polling loop is timed
                assert again[name] == first[name], (workload, name)


def test_corrupted_golden_counts_as_failure_not_crash():
    golden = copy.deepcopy(GOLDEN)
    cell = golden["workloads"]["fig8-mix"]["spmv/doall x4"]
    cell["cycles"] += 1
    report = run.run_benchmark(["fig8-mix"], golden["seed"], seconds=0,
                               trace=0, golden=golden, min_passes=1)
    line = run.result_line(report, trace=0)
    assert line["failed"] == 1 and not line["correct"]
    assert line["failed"] / line["attempted"] > 0
    assert "golden mismatch" in report["failures"][0]


def test_calibration_imports_nothing_from_the_simulator():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calib; "
            "calib.calibrate(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'repro'))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig8-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
