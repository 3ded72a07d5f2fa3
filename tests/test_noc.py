"""Unit and property tests for the NoC substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.noc import Mesh, Network, Packet, Plane
from repro.noc.routing import hop_count, xy_route
from repro.params import SoCConfig
from repro.sim import Simulator, Stats


# -- routing -----------------------------------------------------------------

def test_xy_route_simple_path():
    assert xy_route((0, 0), (2, 1)) == [(1, 0), (2, 0), (2, 1)]


def test_xy_route_same_tile_is_empty():
    assert xy_route((1, 1), (1, 1)) == []


def test_xy_route_negative_direction():
    assert xy_route((2, 2), (0, 1)) == [(1, 2), (0, 2), (0, 1)]


def test_xy_route_resolves_x_before_y():
    path = xy_route((0, 0), (3, 3))
    xs = [x for x, _ in path]
    # X coordinate must be fully resolved before Y moves.
    assert xs[:3] == [1, 2, 3]
    assert all(x == 3 for x, _ in path[3:])


coords = st.tuples(st.integers(min_value=0, max_value=7),
                   st.integers(min_value=0, max_value=7))


@given(coords, coords)
def test_route_length_is_manhattan_distance(src, dst):
    assert len(xy_route(src, dst)) == hop_count(src, dst)


@given(coords, coords)
def test_route_ends_at_destination(src, dst):
    path = xy_route(src, dst)
    if src == dst:
        assert path == []
    else:
        assert path[-1] == dst


@given(coords, coords)
def test_route_steps_are_unit_hops(src, dst):
    path = [src] + xy_route(src, dst)
    for a, b in zip(path, path[1:]):
        assert hop_count(a, b) == 1


# -- mesh ----------------------------------------------------------------------

def test_mesh_row_major_coordinates():
    mesh = Mesh(3, 2)
    assert mesh.coord_of(0) == (0, 0)
    assert mesh.coord_of(2) == (2, 0)
    assert mesh.coord_of(3) == (0, 1)
    assert mesh.size == 6


def test_mesh_tile_at_inverse_of_coord_of():
    mesh = Mesh(4, 4)
    for tile_id in range(mesh.size):
        assert mesh.tile_at(mesh.coord_of(tile_id)).tile_id == tile_id


def test_mesh_tile_at_out_of_range():
    mesh = Mesh(2, 2)
    with pytest.raises(KeyError):
        mesh.tile_at((2, 0))


def test_mesh_placement_and_find():
    mesh = Mesh(2, 2)
    mesh.place(0, "core0")
    mesh.place(1, "maple0")
    assert mesh.find("maple0") == 1
    with pytest.raises(ValueError):
        mesh.place(0, "core1")
    with pytest.raises(KeyError):
        mesh.find("missing")


def test_mesh_nearest_prefers_fewest_hops():
    mesh = Mesh(4, 1)
    mesh.place(0, "core0")
    mesh.place(1, "maple0")
    mesh.place(3, "maple1")
    assert mesh.nearest(0, "maple") == 1
    assert mesh.nearest(3, "maple") == 3


def test_mesh_nearest_tie_breaks_on_tile_id():
    mesh = Mesh(3, 1)
    mesh.place(0, "maple0")
    mesh.place(2, "maple1")
    assert mesh.nearest(1, "maple") == 0


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(0, 3)


# -- network ---------------------------------------------------------------------

def make_network(cols=2, rows=2, **overrides):
    cfg = SoCConfig().with_overrides(mesh_cols=cols, mesh_rows=rows, **overrides)
    sim = Simulator()
    stats = Stats()
    mesh = Mesh(cols, rows)
    return sim, Network(sim, mesh, cfg, stats), stats


def test_one_way_latency_formula():
    sim, net, _ = make_network()
    cfg = net.config
    # tile 0 (0,0) -> tile 3 (1,1): 2 hops
    assert net.one_way_latency(0, 3) == (
        cfg.noc_encode_latency + 2 * cfg.hop_latency + cfg.noc_decode_latency
    )


def test_round_trip_is_symmetric_sum():
    _, net, _ = make_network()
    assert net.round_trip_latency(0, 3) == 2 * net.one_way_latency(0, 3)


def test_transfer_charges_latency_and_counts():
    sim, net, stats = make_network()
    done = {}

    def proc():
        yield from net.transfer(Packet(0, 3, "mmio_load"), Plane.REQUEST)
        done["t"] = sim.now

    sim.spawn(proc())
    sim.run()
    assert done["t"] == net.one_way_latency(0, 3)
    assert stats.get("noc.request.packets") == 1
    assert stats.get("noc.request.hops") == 2


def test_config_hop_latency_for_sensitivity_sweep():
    sim, net, _ = make_network()
    cfg = SoCConfig().with_overrides(mesh_cols=2, mesh_rows=2, hop_latency=10)
    slow = Network(sim, net.mesh, cfg, Stats())
    assert slow.one_way_latency(0, 3) > net.one_way_latency(0, 3)


def test_route_memoization_is_consistent_and_per_instance():
    # one_way_latency memoizes (src, dst) routes; repeated queries must
    # return the cached value unchanged and populate the cache once.
    _, net, _ = make_network()
    first = net.one_way_latency(0, 3)
    assert net.one_way_latency(0, 3) == first
    assert net._route_cache[(0, 3)][0] == first

    # The cache must be per-Network: a second fabric over the same mesh
    # starts cold and fills with its own entries.
    cfg = SoCConfig().with_overrides(mesh_cols=2, mesh_rows=2)
    other = Network(Simulator(), net.mesh, cfg, Stats())
    assert (0, 3) not in other._route_cache
    assert other.one_way_latency(0, 3) == first


def test_route_cache_never_leaks_across_hop_latencies():
    # The Fig. 15 sweep builds one Network per hop-latency point over a
    # shared mesh; memoized routes must reflect each Network's own hop
    # latency, never a previously-built sweep point's.
    cfg = SoCConfig().with_overrides(mesh_cols=2, mesh_rows=2)
    mesh = Mesh(2, 2)
    sweep = {
        hop: Network(Simulator(), mesh, cfg.with_overrides(hop_latency=hop),
                     Stats())
        for hop in (1, 4, 16)
    }
    # Warm every cache, then re-query in a different order: each Network
    # must keep answering with its own hop latency.
    expected = {
        hop: cfg.noc_encode_latency + 2 * hop + cfg.noc_decode_latency
        for hop in sweep
    }
    for hop, net in sweep.items():
        assert net.one_way_latency(0, 3) == expected[hop]
    for hop in (16, 1, 4):
        assert sweep[hop].one_way_latency(0, 3) == expected[hop]
        assert sweep[hop].one_way_latency(3, 0) == expected[hop]


def test_planes_tracked_independently():
    sim, net, stats = make_network()

    def proc():
        yield from net.transfer(Packet(0, 1, "req"), Plane.REQUEST)
        yield from net.transfer(Packet(1, 0, "resp"), Plane.RESPONSE)
        yield from net.transfer(Packet(1, 2, "mem"), Plane.MEMORY)

    sim.spawn(proc())
    sim.run()
    assert stats.get("noc.request.packets") == 1
    assert stats.get("noc.response.packets") == 1
    assert stats.get("noc.memory.packets") == 1
