"""Regenerate the paper's tables (1, 2, 3) from the implementation.

Table 1 is the prior-work taxonomy (:mod:`repro.core.taxonomy`).
Tables 2 and 3 are configuration tables: they are rendered from the live
:data:`~repro.params.FPGA_CONFIG` preset, the one machine Figs. 8 and 12
run on, so the printed numbers are the numbers the simulator actually
uses — a drifted constant would show up immediately.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.taxonomy import render_table1
from repro.params import FPGA_CONFIG, SoCConfig


def table1() -> str:
    return render_table1()


def _kb(nbytes: int) -> str:
    return f"{nbytes // 1024}KB"


def table2_rows(config: SoCConfig = FPGA_CONFIG) -> List[Tuple[str, str]]:
    """Table 2: the FPGA-emulated SoC configuration."""
    return [
        ("SoC configuration", "OpenPiton + MAPLE (simulated)"),
        ("MAPLE Instances / Scratchpad Size",
         f"{config.maple_instances} / {_kb(config.scratchpad_bytes)}"),
        ("Core Count / Threads per core", f"{config.num_cores} / 1"),
        ("Core Type", "single-issue in-order (Ariane-class model)"),
        ("L1D per core / Latency",
         f"{_kb(config.l1_size)} {config.l1_ways}-way / "
         f"{config.l1_latency}-cycle"),
        ("L2-size (shared) / Latency",
         f"{_kb(config.l2_size)} {config.l2_ways}-way / "
         f"{config.l2_latency}-cycle"),
        ("DRAM Latency / Max in-flight",
         f"{config.dram_latency}-cycle / {config.dram_max_inflight}"),
        ("Queues / Entries / Entry size",
         f"{config.maple_num_queues} / {config.queue_entries} / "
         f"{config.queue_entry_bytes}B"),
        ("MAPLE TLB entries", str(config.maple_tlb_entries)),
    ]


def table3_rows(config: SoCConfig = FPGA_CONFIG) -> List[Tuple[str, str]]:
    """Table 3: the simulated system used against DeSC and DROPLET."""
    return [
        ("Core Count / Threads per core", f"{config.num_cores} / 1"),
        ("Instruction Window / ROB Size", "1 / 1, In-Order"),
        ("L1D (per core) / Latency",
         f"{_kb(config.l1_size)} / {config.l1_ways}-way / "
         f"{config.l1_latency}-cycle"),
        ("L2-size (shared) / Latency",
         f"{_kb(config.l2_size)} / {config.l2_ways}-way / "
         f"{config.l2_latency}-cycle"),
        ("DRAM Latency / Max in-flight",
         f"{config.dram_latency}-cycle / {config.dram_max_inflight}"),
    ]


def _render(rows: List[Tuple[str, str]], title: str) -> str:
    width = max(len(key) for key, _v in rows) + 2
    lines = [title, "-" * len(title)]
    lines.extend(f"{key:{width}s}{value}" for key, value in rows)
    return "\n".join(lines)


def table2() -> str:
    return _render(table2_rows(), "Table 2: FPGA SoC configuration")


def table3() -> str:
    return _render(table3_rows(), "Table 3: simulated system configuration")
