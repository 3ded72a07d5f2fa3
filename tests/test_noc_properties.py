"""Property tests for XY routing and NoC latency arithmetic.

Hypothesis drives mesh shape (2x2 through 4x4) and the three latency
knobs; every tile pair is then checked exhaustively: hop counts are
symmetric Manhattan distances, the XY route visits exactly that many
routers, and ``one_way_latency`` equals the encode + hops * hop + decode
budget the paper's Fig. 14/15 breakdowns are built from.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Mesh, Network
from repro.noc.routing import hop_count, xy_route
from repro.params import SoCConfig
from repro.sim import Simulator, Stats

dims = st.integers(min_value=2, max_value=4)
lats = st.integers(min_value=0, max_value=7)


def make_network(cols, rows, hop, encode, decode):
    config = SoCConfig().with_overrides(
        mesh_cols=cols, mesh_rows=rows, hop_latency=hop,
        noc_encode_latency=encode, noc_decode_latency=decode)
    mesh = Mesh(cols, rows)
    return mesh, Network(Simulator(), mesh, config, Stats())


@settings(deadline=None)
@given(cols=dims, rows=dims)
def test_hop_counts_symmetric_and_match_route_length(cols, rows):
    mesh = Mesh(cols, rows)
    for src in range(mesh.size):
        for dst in range(mesh.size):
            a, b = mesh.coord_of(src), mesh.coord_of(dst)
            hops = mesh.hops(src, dst)
            assert hops == hop_count(a, b) == hop_count(b, a)
            assert hops == mesh.hops(dst, src)
            assert hops == abs(a[0] - b[0]) + abs(a[1] - b[1])
            route = xy_route(a, b)
            assert len(route) == hops
            if hops:
                assert route[-1] == b
            # Each step moves exactly one link.
            previous = a
            for step in route:
                assert hop_count(previous, step) == 1
                previous = step


@settings(deadline=None, max_examples=40)
@given(cols=dims, rows=dims, hop=lats, encode=lats, decode=lats)
def test_one_way_latency_matches_hop_budget(cols, rows, hop, encode, decode):
    mesh, network = make_network(cols, rows, hop, encode, decode)
    for src in range(mesh.size):
        for dst in range(mesh.size):
            expected = encode + mesh.hops(src, dst) * hop + decode
            assert network.one_way_latency(src, dst) == expected
            assert (network.one_way_latency(src, dst)
                    == network.one_way_latency(dst, src))
            assert (network.round_trip_latency(src, dst)
                    == 2 * network.one_way_latency(src, dst))

