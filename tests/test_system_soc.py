"""Tests for SoC assembly: placement, wiring, execution helpers."""

import warnings

import pytest

from repro.cpu import Alu, Thread
from repro.harness.techniques import run_workload
from repro.noc import placement_tiles
from repro.params import SoCConfig
from repro.system import Soc
from repro.system.soc import MeshGrownWarning
from repro.vm.os_model import SimOS


def test_default_placement_cores_then_maple():
    soc = Soc()
    assert soc.mesh.tiles[0].occupant == "core0"
    assert soc.mesh.tiles[1].occupant == "core1"
    assert soc.mesh.tiles[2].occupant == "maple0"


def test_core_tiles_registered_with_maple():
    soc = Soc()
    assert soc.maples[0].core_tiles == {0: 0, 1: 1}


def test_mmio_pages_distinct_per_instance():
    soc = Soc(SoCConfig(maple_instances=2))
    pages = {m.page_paddr for m in soc.maples}
    assert len(pages) == 2
    assert all(p >= SimOS.MMIO_BASE for p in pages)


def test_mesh_grows_only_when_needed():
    soc = Soc(SoCConfig(num_cores=2, maple_instances=1,
                        mesh_cols=2, mesh_rows=2))
    assert (soc.config.mesh_cols, soc.config.mesh_rows) == (2, 2)
    with pytest.warns(MeshGrownWarning):
        big = Soc(SoCConfig(num_cores=6, maple_instances=2))
    assert big.config.mesh_cols * big.config.mesh_rows >= 8


def test_mesh_growth_warns_with_geometry():
    """Silent mesh growth was a footgun: a 2x2 request quietly became
    whatever fit.  Growth still happens (workloads routinely over-seat
    small default meshes) but now announces itself with the requested
    and grown geometry attached."""
    with pytest.warns(MeshGrownWarning) as record:
        Soc(SoCConfig(num_cores=6, maple_instances=2,
                      mesh_cols=2, mesh_rows=2))
    w = record[0].message
    assert w.requested == (2, 2)
    assert w.needed == 8
    grown_cols, grown_rows = w.grown
    assert grown_cols * grown_rows >= 8
    assert "2x2" in str(w)


def test_exact_fit_mesh_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", MeshGrownWarning)
        soc = Soc(SoCConfig(num_cores=2, maple_instances=2,
                            mesh_cols=2, mesh_rows=2))
    assert (soc.config.mesh_cols, soc.config.mesh_rows) == (2, 2)


def test_run_workload_seats_the_cores_it_adds_without_warning():
    """run_workload raises num_cores to the thread count; seating those
    cores is its own job, not a warning its caller cannot act on."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", MeshGrownWarning)
        result = run_workload("spmv", "doall", threads=8)
    cfg = result.soc.config
    assert (cfg.mesh_cols, cfg.mesh_rows) == (3, 3)


def test_run_workload_still_warns_for_a_mesh_too_small_for_its_config():
    with pytest.warns(MeshGrownWarning):
        run_workload("spmv", "doall", threads=2,
                     config=SoCConfig(num_cores=6, maple_instances=1))


def test_placement_policy_seats_maples_at_policy_tiles():
    for policy in ("edge", "center", "per-quadrant"):
        cfg = SoCConfig(num_cores=8, maple_instances=4,
                        mesh_cols=4, mesh_rows=4, maple_placement=policy)
        soc = Soc(cfg)
        expected = placement_tiles(4, 4, 4, policy)
        assert soc.maple_tiles == expected, policy
        for i, tile in enumerate(expected):
            assert soc.mesh.tiles[tile].occupant == f"maple{i}"
        # Cores fill the remaining tiles in tile order.
        seats = [t for t in range(16) if t not in set(expected)][:8]
        assert [soc.core_tiles[c] for c in range(8)] == seats


def test_legacy_placement_unchanged():
    soc = Soc(SoCConfig(num_cores=2, maple_instances=1,
                        maple_placement="legacy"))
    assert soc.maple_tiles == [2]
    assert soc.core_tiles == {0: 0, 1: 1}


def test_driver_assignment_binds_cores_to_nearest_maple():
    soc = Soc(SoCConfig(num_cores=12, maple_instances=4,
                        mesh_cols=4, mesh_rows=4,
                        maple_placement="per-quadrant"))
    assignment = soc.driver.assignment_map()
    assert set(assignment) == set(soc.core_tiles.values())
    for tile, inst in assignment.items():
        hops_chosen = soc.mesh.hops(tile, soc.maple_tiles[inst])
        for other, maple_tile in enumerate(soc.maple_tiles):
            hops_other = soc.mesh.hops(tile, maple_tile)
            assert (hops_chosen, inst) <= (hops_other, other)


def test_run_threads_rejects_double_assignment():
    soc = Soc()
    aspace = soc.new_process()

    def p():
        yield Alu(1)

    with pytest.raises(ValueError, match="assigned twice"):
        soc.run_threads([(0, Thread(p(), aspace, "a")),
                         (0, Thread(p(), aspace, "b"))])


def test_run_threads_returns_last_finish_time():
    soc = Soc()
    aspace = soc.new_process()

    def p(cycles):
        yield Alu(cycles)

    elapsed = soc.run_threads([(0, Thread(p(10), aspace, "a")),
                               (1, Thread(p(250), aspace, "b"))])
    assert elapsed == 250


def test_separate_socs_are_isolated():
    a = Soc()
    b = Soc()
    aspace = a.new_process()
    arr = a.array(aspace, [1], name="x")
    assert b.memsys.mem.words_in_use() < a.memsys.mem.words_in_use()


def test_round_trip_grows_with_distance():
    soc = Soc(SoCConfig(num_cores=4, maple_instances=1,
                        mesh_cols=3, mesh_rows=2))
    maple = soc.maples[0]
    # Core 0 is further from tile 4 than core 3 is.
    assert (maple.round_trip_cycles(soc.cores[0].tile_id)
            > maple.round_trip_cycles(soc.cores[3].tile_id))


def test_two_instances_serve_disjoint_processes():
    from repro.cpu import Thread as T
    soc = Soc(SoCConfig(num_cores=2, maple_instances=2))
    a = soc.new_process()
    b = soc.new_process()
    api_a = soc.driver.attach(a, core_tile=0)
    api_b = soc.driver.attach(b, core_tile=1)
    data_a = soc.array(a, [1.5] * 8, name="da")
    data_b = soc.array(b, [2.5] * 8, name="db")
    got = {}

    def prog(api, data, key, aspace):
        q = yield from api.open(0)
        yield from q.produce_ptr(data.addr(0))
        got[key] = yield from q.consume()

    soc.run_threads([(0, T(prog(api_a, data_a, "a", a), a, "ta")),
                     (1, T(prog(api_b, data_b, "b", b), b, "tb"))])
    # Each instance translated through its own process's page table.
    assert got == {"a": 1.5, "b": 2.5}
    assert api_a.page_vaddr != api_b.page_vaddr or True  # separate spaces


def test_detach_unmaps_and_shoots_down():
    soc = Soc()
    aspace = soc.new_process()
    api = soc.driver.attach(aspace)
    maple = soc.maples[0]
    soc.driver.detach(aspace, maple)
    assert aspace.page_table.lookup(api.page_vaddr) is None
    with pytest.raises(KeyError):
        soc.driver.detach(aspace, maple)
