"""The three-plane network fabric.

OpenPiton uses three physical NoCs so that requests, responses, and memory
traffic cannot deadlock each other.  :class:`Network.transfer` charges
encode + hops + decode cycles and records per-plane statistics; an optional
``latency_override`` supports the Fig. 15 sensitivity sweep, where the
core-to-MAPLE latency is varied as a free parameter.

The network is also the transport for inter-tile port pairs:
:meth:`Network.link` returns a link generator that a
:class:`~repro.sim.port.Port` connection installs per direction, so every
cross-tile transaction (e.g. a core's MMIO access to MAPLE) pays the mesh
traversal here and shows up in the per-plane counters — and the Fig. 14
latency breakdown falls out of the port trace instead of hand-placed
instrumentation.

Quiescence audit (engine contract, see DESIGN.md): the network models
latency, not occupancy — there are no router processes to idle-skip;
an idle fabric of any size schedules zero events, and each traversal
is one timed wait charged on the transaction paying it.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from repro.noc.mesh import Mesh
from repro.noc.packet import Packet
from repro.params import SoCConfig
from repro.sim import Message, Simulator
from repro.sim.stats import Stats


class Plane(enum.Enum):
    """The three P-Mesh planes."""

    REQUEST = 1
    RESPONSE = 2
    MEMORY = 3


class Network:
    """Latency/statistics model over a :class:`Mesh`."""

    def __init__(self, sim: Simulator, mesh: Mesh, config: SoCConfig, stats: Stats):
        self._sim = sim
        self.mesh = mesh
        self.config = config
        self._stats = stats
        # (src, dst) -> (one-way latency, hops).  The cache is strictly
        # per-Network: a Fig. 15 sweep builds one Network per sweep point,
        # each from its own config's hop latency, so entries can never
        # leak between sweep points.
        self._route_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._plane_counters = {
            plane: (stats.counter(f"noc.{plane.name.lower()}.packets"),
                    stats.counter(f"noc.{plane.name.lower()}.hops"))
            for plane in Plane
        }

    def _route(self, src_tile: int, dst_tile: int) -> Tuple[int, int]:
        key = (src_tile, dst_tile)
        route = self._route_cache.get(key)
        if route is None:
            hops = self.mesh.hops(src_tile, dst_tile)
            route = self._route_cache[key] = (
                self.config.noc_encode_latency
                + hops * self.config.hop_latency
                + self.config.noc_decode_latency,
                hops,
            )
        return route

    def one_way_latency(self, src_tile: int, dst_tile: int) -> int:
        """Encode + per-hop + decode cost for one packet."""
        return self._route(src_tile, dst_tile)[0]

    def transfer(self, packet: Packet, plane: Plane):
        """Generator: move a packet across the mesh, charging latency."""
        latency, hops = self._route(packet.src, packet.dst)
        packets_c, hops_c = self._plane_counters[plane]
        packets_c.value += 1
        hops_c.value += hops
        yield latency
        return packet

    def traversal(self, plane: Plane):
        """``traverse(src, dst) -> latency``: count one packet and its
        hops on ``plane`` and return the one-way mesh latency to charge
        (a lowered seam charges its link legs through this)."""
        route = self._route
        packets_c, hops_c = self._plane_counters[plane]

        def traverse(src: int, dst: int) -> int:
            latency, hops = route(src, dst)
            packets_c.value += 1
            hops_c.value += hops
            return latency
        return traverse

    def link(self, plane: Plane, pre: int = 0, post: int = 0):
        """A port-link generator function over this network.

        The returned ``link(msg)`` charges ``pre`` endpoint cycles, then
        the plane's mesh traversal for ``msg.src -> msg.dst``, then
        ``post`` endpoint cycles.  Install it as a port connection's
        ``request_link``/``response_link`` to make this network the
        transport for that seam.
        """
        # The per-plane accounting happens when the mesh traversal
        # starts (after the pre segment).
        traverse = self.traversal(plane)

        def _link(msg: Message):
            if pre:
                yield pre
            yield traverse(msg.src, msg.dst)
            if post:
                yield post
        return _link

    def round_trip_latency(self, src_tile: int, dst_tile: int) -> int:
        """Request + response network cost (no endpoint processing)."""
        return self.one_way_latency(src_tile, dst_tile) + self.one_way_latency(
            dst_tile, src_tile
        )
