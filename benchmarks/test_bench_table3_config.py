"""Table 3: the simulated-system configuration used against prior work."""

from conftest import run_once

from repro.harness.tables import table3, table3_rows
from repro.params import FPGA_CONFIG


def test_bench_table3_config(benchmark):
    text = run_once(benchmark, table3)
    print("\n" + text)

    rows = dict(table3_rows())
    assert rows["Instruction Window / ROB Size"] == "1 / 1, In-Order"
    assert rows["Core Count / Threads per core"] == "2 / 1"
    assert "8KB / 4-way / 2-cycle" in rows["L1D (per core) / Latency"]
    assert "64KB / 8-way / 30-cycle" in rows["L2-size (shared) / Latency"]
    assert rows["DRAM Latency / Max in-flight"] == "300-cycle / 16"
    assert FPGA_CONFIG.dram_latency == 300
