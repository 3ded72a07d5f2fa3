"""Network-on-Chip substrate (OpenPiton P-Mesh style).

A 2D mesh with XY dimension-ordered routing and three message planes
(request / response / memory), matching OpenPiton's three physical NoCs
that avoid protocol deadlock.  Transfers cost an encode cycle, one cycle
per hop, and a decode cycle; per-plane traffic counters feed the Fig. 14
round-trip characterization.  Link contention is not modeled: MAPLE's own
single-op-per-cycle pipelines are the bandwidth bottleneck at the scales
evaluated (the paper makes the same observation about chip IO being the
ultimate limit).
"""

from repro.noc.mesh import PLACEMENT_POLICIES, Mesh, Tile, placement_tiles
from repro.noc.network import Network, Plane
from repro.noc.routing import xy_route

__all__ = ["Mesh", "Network", "Plane", "Tile", "xy_route",
           "PLACEMENT_POLICIES", "placement_tiles"]
