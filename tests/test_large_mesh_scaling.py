"""Large-mesh scaling guarantees (MemPool-class meshes, §6 scaling).

The simulator's scaling contract has three legs, each enforced here:

1. **Events scale with traffic, not tiles.**  Components are
   event-driven (nothing polls on ``yield 1``), so the same workload on
   a mostly-idle 32x32 mesh must execute essentially the same number of
   events as on a 4x4 — we allow 1% for the extra boot/quiesce work of
   1000+ idle ports.

2. **Quiescence checking is O(busy), not O(ports).**  ``drain()`` on a
   32x32 mesh (>1024 registered ports) consults only the busy-port
   index, which is empty after a clean run — it must not walk the full
   registry, and it runs zero simulation events.

3. **Placement policy actually moves latency.**  Per-quadrant MAPLE
   placement must yield strictly lower mean core->MAPLE hop distance
   than parking the accelerators on the edge (corners first), and the
   driver's reported mean must match the analytic Manhattan-distance
   computation done independently here.

Plus the end-to-end acceptance check for the sliced-L2 directory: on a
16x16 4-MAPLE mesh with ``directory=True``, a write-sharing workload
makes invalidation traffic *visible in per-port tap counters* — the
protocol rides real NoC ports, not a zero-cost side channel.
"""

import pytest

from repro.cpu import Load, Store, Thread
from repro.harness.techniques import run_workload
from repro.system import Soc
from repro.system.soc import stress_mesh_config

#: One deliberately small workload reused across mesh sizes, so any
#: event-count difference comes from the mesh, not the dataset.
_WORKLOAD = dict(workload="spmv", technique="maple-decouple", threads=2)


def _run_on_side(side: int):
    cfg = stress_mesh_config(side, maple_instances=1)
    return run_workload(_WORKLOAD["workload"], _WORKLOAD["technique"],
                        config=cfg, threads=_WORKLOAD["threads"],
                        seed=7)


def test_idle_32x32_executes_same_events_as_4x4():
    small = _run_on_side(4)
    big = _run_on_side(32)
    ratio = big.soc.sim.events_executed / small.soc.sim.events_executed
    assert ratio <= 1.01, (
        f"32x32 executed {ratio:.3f}x the events of 4x4 "
        f"({big.soc.sim.events_executed} vs {small.soc.sim.events_executed}); "
        f"idle tiles are generating work")


def test_drain_on_1024_port_mesh_is_o_busy():
    result = _run_on_side(32)
    soc = result.soc
    # The mesh really is at the scale the contract claims.
    assert soc.mesh.size == 1024
    assert len(soc.ports.ports) >= 1024
    # After a clean run the busy index is empty: drain() inspects that
    # set, not the 1024+ port list, and schedules no simulation events.
    assert not soc.ports._busy_ports
    events_before = soc.sim.events_executed
    soc.drain()
    assert soc.sim.events_executed == events_before


def _mean_hops_analytic(soc: Soc) -> float:
    """Independent Manhattan-distance recomputation of the driver's
    core->assigned-MAPLE mean (min hops, instance id as tiebreak)."""
    cols = soc.config.mesh_cols
    total = 0
    tiles = sorted(soc.core_tiles.values())
    for tile in tiles:
        x, y = tile % cols, tile // cols
        best = min(
            (abs(x - mt % cols) + abs(y - mt // cols), inst)
            for inst, mt in enumerate(soc.maple_tiles))
        total += best[0]
    return total / len(tiles)


def test_per_quadrant_beats_edge_placement_on_16x16():
    hops = {}
    for policy in ("edge", "per-quadrant"):
        cfg = stress_mesh_config(16, maple_instances=4).with_overrides(
            maple_placement=policy)
        soc = Soc(cfg)
        simulated = soc.driver.mean_hops()
        analytic = _mean_hops_analytic(soc)
        assert simulated == pytest.approx(analytic), (
            f"{policy}: driver reports {simulated}, analytic {analytic}")
        hops[policy] = simulated
    assert hops["per-quadrant"] < hops["edge"], hops


def test_directory_invalidations_visible_in_port_taps():
    """Acceptance criterion: on a 16x16 4-MAPLE mesh with the sliced-L2
    directory enabled, write-sharing traffic shows up in the per-port
    tap counters of the ``core*.inval`` NoC ports."""
    cfg = stress_mesh_config(16, maple_instances=4).with_overrides(
        maple_placement="per-quadrant", directory=True)
    soc = Soc(cfg)
    aspace = soc.new_process()
    arr = soc.array(aspace, [0.0] * 64, name="shared")

    def writer(me):
        for i in range(32):
            yield Store(arr.addr(i % 8), float(me * 100 + i))
            yield Load(arr.addr((i + 1) % 8))

    soc.run_threads([(c, Thread(writer(c), aspace, f"w{c}"))
                     for c in range(4)])
    soc.drain()

    taps = soc.port_telemetry()
    inval_served = sum(t["served"] for name, t in taps.items()
                      if name.endswith(".inval"))
    assert inval_served > 0, "no invalidation messages crossed the NoC"
    # The directory's own books must agree with what the ports saw:
    # every invalidation and every ownership-transfer recall is one
    # message served by some core's inval port.
    tele = soc.directory.telemetry()
    assert inval_served == tele["invalidations"] + tele["transfers"]
    assert soc.stats_snapshot()["directory.invalidations"] == \
        tele["invalidations"]


@pytest.mark.slow
def test_32x32_multi_maple_sweep_completes():
    """Heavier leg of the scaling suite (large-mesh CI job): every
    placement policy at 32x32 with 4 MAPLEs runs end-to-end, validates
    numerically, and quiesces."""
    for policy in ("edge", "center", "per-quadrant"):
        cfg = stress_mesh_config(32, maple_instances=4).with_overrides(
            maple_placement=policy)
        result = run_workload("spmv", "maple-decouple", config=cfg,
                              threads=8, seed=11)
        result.soc.drain()
        assert result.cycles > 0


def test_stress_mesh_config_seats_every_tile():
    cfg = stress_mesh_config(8, maple_instances=4)
    assert cfg.num_cores + cfg.maple_instances == 64
    soc = Soc(cfg.with_overrides(maple_placement="per-quadrant"))
    occupied = [soc.mesh.tiles[t].occupant for t in range(soc.mesh.size)]
    assert all(o is not None for o in occupied)
