"""Tests for the experiment harness, tables, and figure plumbing."""

import numpy as np
import pytest

from repro.core.taxonomy import TABLE1, techniques_satisfying_all
from repro.datasets.graphs import power_law_graph
from repro.datasets.sparse import random_csr
from repro.harness import HARNESS_TECHNIQUES, run_workload, tables
from repro.harness.figures import (
    Series,
    area_analysis,
    fig8,
    fig12,
    fig14,
    roundtrip_config,
)
from repro.harness.orchestrator import spec_key
from repro.kernels.spmv import SpmvDataset
from repro.params import FPGA_CONFIG


def small_spmv():
    return SpmvDataset(random_csr(6, 128, 3, seed=2), np.linspace(1, 2, 128))


def test_unknown_technique_rejected():
    with pytest.raises(ValueError, match="technique"):
        run_workload("spmv", "magic")


def test_decoupling_requires_even_threads():
    with pytest.raises(ValueError, match="even"):
        run_workload("spmv", "maple-decouple", threads=3)


def test_spmm_decoupling_records_fallback():
    result = run_workload("spmm", "maple-decouple", threads=2, scale=1)
    assert result.fallback_doall
    baseline = run_workload("spmm", "doall", threads=2, scale=1)
    assert result.cycles == baseline.cycles  # identical execution


def test_result_metrics_accessible():
    result = run_workload("spmv", "doall", threads=2, dataset=small_spmv())
    assert result.cycles > 0
    assert result.total_loads() > 0
    assert result.avg_load_latency() > 0
    assert result.workload == "spmv" and result.technique == "doall"


def test_all_techniques_run_on_small_spmv():
    for technique in HARNESS_TECHNIQUES:
        threads = 1 if technique in ("sw-prefetch", "lima", "lima-llc") else 2
        result = run_workload("spmv", technique, threads=threads,
                              dataset=small_spmv())
        assert result.cycles > 0, technique


def test_lima_needs_enough_queues():
    with pytest.raises(ValueError, match="queues"):
        run_workload("spmv", "lima", threads=16,
                     config=FPGA_CONFIG.with_overrides(num_cores=16),
                     dataset=small_spmv())


def test_config_hop_latency_slows_mmio():
    fast = run_workload("spmv", "maple-decouple", threads=2,
                        dataset=small_spmv())
    slow = run_workload("spmv", "maple-decouple", threads=2,
                        dataset=small_spmv(),
                        config=FPGA_CONFIG.with_overrides(hop_latency=40))
    assert slow.cycles > fast.cycles


def test_roundtrip_config_hits_target():
    from repro.system import Soc
    for target in (11, 25, 51, 101):
        soc = Soc(roundtrip_config(FPGA_CONFIG, target))
        assert soc.maples[0].round_trip_cycles(core_tile=0) == target


def test_fig14_budget_matches_measurement():
    result = fig14()
    assert result.total == result.measured == 25
    assert "TOTAL" in result.render()


def test_series_geomean():
    s = Series("x", {"a": 2.0, "b": 8.0})
    assert s.geomean() == pytest.approx(4.0)


def test_tables_render():
    assert "MAPLE" in tables.table1()
    assert "8KB 4-way" in tables.table2()
    assert "In-Order" in tables.table3()


def test_fig12_shares_fig8_machine_and_cells():
    # Figs. 8 and 12 run on one machine, so fig12's doall and
    # maple-decouple cells are fig8's: 12 fig8 cells plus 8 desc/droplet.
    fig12_specs = fig12().specs
    assert all(spec.config == FPGA_CONFIG for spec in fig12_specs)
    assert len({spec_key(s) for s in fig8().specs + fig12_specs}) == 20


def test_taxonomy_only_maple_has_all_features():
    assert techniques_satisfying_all() == ["MAPLE"]
    assert sum(1 for row in TABLE1 if row.satisfies_all()) == 1


def test_area_analysis_matches_paper():
    report = area_analysis()
    assert 0.008 < report.overhead_fraction < 0.014
    assert report.maple_mm2 < 0.02
    with pytest.raises(ValueError):
        area_analysis(cores_served=0)


def test_droplet_technique_on_bfs_uses_binding_indirections():
    graph = power_law_graph(96, avg_degree=4, seed=7)
    result = run_workload("bfs", "droplet", threads=2, dataset=graph)
    assert result.soc.stats.get("droplet.registered_regions") == 1


def test_multidataset_figures_geomean_across_variants():
    from repro.harness.figures import PAPER_DATASETS, fig8, run
    [result] = run(fig8(apps=("sdhp",),
                        datasets={"sdhp": PAPER_DATASETS["sdhp"]}))
    # SuiteSparse-surrogate and Kronecker variants both decouple well;
    # their geomean must stay in the winning range either way.
    assert result.series_by_label("maple-decoupling").values["sdhp"] > 1.5
    assert result.series_by_label("sw-decoupling").values["sdhp"] < 1.0
