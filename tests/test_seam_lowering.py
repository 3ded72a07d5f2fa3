"""Lowered seams against the generic port path.

An unarmed seam runs each access as one lowered generator (see
``repro/sim/port.py``); tracing either tap arms the seam, so a traced
run takes ``Port.request`` everywhere and serves as the oracle.  Every
cell runs twice — plain and with ``soc.ports.enable_tracing()`` — and
must agree on cycles, engine events, ``stats_snapshot()``, every
port's telemetry and every port's next txn id.  The plain run must also
really be lowered: the kinds the memory system lowers never reach
``Port.request`` in it, and a store's issue never reaches
``Port.probe`` or ``Port.post``.  The
lowered and generic paths run the same handler bodies, so the cells with
seeded DRAM bit flips under ECC (poisoned pointer fetches, LIMA chunks and
L2 fills, with their re-fetches) pin the error paths too.
"""

import pytest

from repro.datasets.graphs import power_law_graph
from repro.harness import techniques
from repro.harness.techniques import run_workload
from repro.mem import MemorySystem, MMIORegion
from repro.params import FPGA_CONFIG, SoCConfig
from repro.sim import Semaphore, Signal, Simulator, Stats
from repro.sim.faults import DramBitFlipFault, FaultPlan
from repro.sim.port import Port, PortRegistry, QuiescenceError
from repro.system import Soc
from repro.system.soc import coherence_stress_config

#: The telemetry fields a lowered transaction books (the reliability
#: counters stay zero without a channel hook either way).
TAP_FIELDS = ("requests", "served", "responses", "probes", "posts",
              "stalls", "errors", "by_kind")

#: Request kinds with a lowered handler on every seam that carries them.
LOWERED_KINDS = {"load", "store", "ptw_read", "dram_load", "llc_load",
                 "dram_line", "mmio_load", "mmio_store"}


def _bfs_graph():
    return power_law_graph(256, avg_degree=4, seed=1)


#: Double-bit DRAM flips only: no port hook, so the seams stay unarmed.
FLIPS = FaultPlan(seed=7, dram_flips=DramBitFlipFault(rate=0.02,
                                                      double_rate=1.0))

#: cell -> (app, technique, threads, config, dataset factory[, fault plan])
CELLS = {
    "spmv/maple-decouple/fpga": ("spmv", "maple-decouple", 4, FPGA_CONFIG,
                                 None),
    "spmv/doall/fpga": ("spmv", "doall", 4, FPGA_CONFIG, None),
    "sdhp/maple-decouple/fpga": ("sdhp", "maple-decouple", 4, FPGA_CONFIG,
                                 None),
    "sdhp/doall/fpga": ("sdhp", "doall", 4, FPGA_CONFIG, None),
    "bfs/lima": ("bfs", "lima", 2, None, _bfs_graph),
    "bfs/maple-decouple": ("bfs", "maple-decouple", 2, None, _bfs_graph),
    "spmv/sw-decouple/coherence": ("spmv", "sw-decouple", 8,
                                   coherence_stress_config(4), None),
    "spmv/maple-decouple/ecc": ("spmv", "maple-decouple", 2,
                                SoCConfig(ecc=True), None),
    "spmv/maple-decouple/ecc-flips": ("spmv", "maple-decouple", 2,
                                      SoCConfig(ecc=True), None, FLIPS),
    "bfs/lima/ecc-flips": ("bfs", "lima", 2, SoCConfig(ecc=True),
                           _bfs_graph, FLIPS),
    "spmv/doall/ecc-flips": ("spmv", "doall", 2, SoCConfig(ecc=True), None,
                             FLIPS),
}


class _TracedSoc(Soc):
    """A Soc whose every port is traced from the start (all seams armed)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ports.enable_tracing()


def _counting(calls, method):
    """``method`` wrapped to count its calls per kind into ``calls``."""

    def counted(port, kind, *args, **kwargs):
        calls[kind] = calls.get(kind, 0) + 1
        return method(port, kind, *args, **kwargs)

    return counted


def _run(cell, monkeypatch, traced):
    app, technique, threads, config, dataset, *plan = CELLS[cell]
    requested = {}
    probed = {}
    posted = {}

    with monkeypatch.context() as patch:
        patch.setattr(Port, "request", _counting(requested, Port.request))
        patch.setattr(Port, "probe", _counting(probed, Port.probe))
        patch.setattr(Port, "post", _counting(posted, Port.post))
        if traced:
            patch.setattr(techniques, "Soc", _TracedSoc)
        result = run_workload(app, technique, threads=threads, scale=1,
                              seed=0, config=config,
                              dataset=dataset() if dataset else None,
                              fault_plan=plan[0] if plan else None)
    soc = result.soc
    telemetry = {name: {field: tap[field] for field in TAP_FIELDS}
                 for name, tap in soc.ports.telemetry().items()}
    next_txns = {port.name: port._next_txn for port in soc.ports.ports}
    observed = (result.cycles, soc.sim.events_executed,
                soc.stats_snapshot(), telemetry, next_txns)
    return observed, (requested, probed, posted), soc


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_lowered_seams_match_the_traced_generic_path(cell, monkeypatch):
    lowered, plain_calls, plain_soc = _run(cell, monkeypatch, traced=False)
    generic, traced_calls, traced_soc = _run(cell, monkeypatch, traced=True)
    assert lowered == generic
    # The oracle really took the generic path, the plain run really did
    # not: every lowered kind reached Port.request, and a store's issue
    # its probe and post, only when traced.
    assert traced_soc.ports.trace_events()
    assert not plain_soc.ports.trace_events()
    plain_requests, plain_probes, plain_posts = plain_calls
    traced_requests, traced_probes, traced_posts = traced_calls
    assert not LOWERED_KINDS & set(plain_requests)
    assert LOWERED_KINDS & set(traced_requests)
    assert "is_uncacheable" not in plain_probes
    assert "write_word" not in plain_posts
    assert traced_probes["is_uncacheable"] > 0
    assert traced_posts["write_word"] > 0


def test_a_parked_lowered_transaction_fails_drain_by_port_name():
    """Lowered transactions keep no txn-id set, yet one that never
    completes is still named by ``drain()``: its port and its count."""
    sim = Simulator()
    memsys = MemorySystem(sim, SoCConfig(), Stats())
    memsys.add_core(0)

    def parked(op, paddr, value, core_id, client):
        yield Signal(sim, name="never")

    memsys.register_mmio(MMIORegion(1 << 40, (1 << 40) + 4096,
                                    handler=None, name="dev",
                                    lowered=parked))
    registry = PortRegistry(sim)
    client = memsys.connect_core_port(registry, 0, tile=0)
    sim.spawn(client.lowered("load")(1 << 40, Semaphore(sim, 1)))
    sim.run()
    assert client.tap.requests == 1 and not client.outstanding_txns
    with pytest.raises(QuiescenceError) as exc:
        registry.drain()
    assert exc.value.busy == {"core0.mem": ()}
    assert exc.value.outstanding == {"core0.mem": 1}
    assert "core0.mem (1 outstanding)" in str(exc.value)


def test_coherence_cell_exercises_upgrades_and_dirty_forwards(monkeypatch):
    (_, _, stats, _, _), _, _ = _run("spmv/sw-decouple/coherence",
                                     monkeypatch, traced=False)
    assert stats["directory.upgrades"] > 0
    assert stats["directory.transfers"] > 0


@pytest.mark.parametrize("cell", sorted(c for c in CELLS if "flips" in c))
def test_flip_cells_exercise_poison_refetches(cell, monkeypatch):
    (_, _, stats, _, _), _, _ = _run(cell, monkeypatch, traced=False)
    assert stats["ecc.poisoned"] > 0
    assert stats["ecc.refetches"] > 0
