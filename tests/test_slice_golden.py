"""Pinned goldens for every kernel slice the harness lowers.

The differential fuzz runs one slice lowering on both engines, so it
cannot see a lowering bug that changes the instruction stream.  These
values pin cycles, engine events and the sha256 of ``stats_snapshot()``
for every harness technique on every workload (scale 1, seed 0, two
threads; BFS on a 256-vertex power-law graph to keep tier-1 fast), plus
whether the run fell back to doall.  Any drift means the slices no
longer issue the same instructions.  A second, four-thread table covers
the second decoupled pair and the second LIMA thread: their queue
bindings, the barrier's parties and the rule that only the first slice
keeps BFS's books.
"""

import hashlib
import json

import pytest

from repro.compiler import Technique, analyze, plan_for
from repro.compiler.interp import DoallRole, Runtime, interpret
from repro.compiler.ir import (
    Bin,
    ComputeStmt,
    Const,
    ForStmt,
    Kernel,
    LoadStmt,
    StoreStmt,
    Var,
)
from repro.cpu import Thread
from repro.datasets.graphs import power_law_graph
from repro.harness.techniques import HARNESS_TECHNIQUES, run_workload
from repro.system import Soc

GOLDEN = {
    "spmv/doall": (118558, 4654,
        "0b1a96aeb44f44e7b9027ed95551f63391174c5355a7886395e3cedc2c2baec1"),
    "spmv/maple-decouple": (39857, 9252,
        "feaaaf6ce2971712f974b35d947fba1031974fc6b35bccfae311c4d867f64385"),
    "spmv/sw-decouple": (211428, 37399,
        "3bc2516a2e1cf1cadabce5a4f90bfd4662aaf24d083c1ac73337d143141cdba9"),
    "spmv/desc": (52818, 8917,
        "30dd07131063fc61446649d86d6ec89bcb6a92af4a20f18e990e4235b28d4418"),
    "spmv/droplet": (93700, 5045,
        "142fa7175204ccb5966c4f1f8a1793e44ba080b7a528d79f6a0c524070eedb57"),
    "spmv/sw-prefetch": (112583, 5885,
        "7bd838faf5a64346e3bbb3f0a9e4fc90308dc22604a34dbaa44f5efc30b7fc39"),
    "spmv/lima": (22598, 5974,
        "d743cd62678486852fc0b7f816f99cfcfefd496e70694beba04f1c7da2175d2c"),
    "spmv/lima-llc": (51237, 7625,
        "3cf5f96cbd68aac0778b1bed29ffadc51884bc1b28000b2eaeab4975534eb76b"),
    "sdhp/doall": (150350, 6583,
        "96e0110c8a49712283ebcb9f733665915e4efd6cbaf8f025245f786940be85a2"),
    "sdhp/maple-decouple": (41057, 12449,
        "5540247dfac121d95f7cfe46abbe1cb452fdc4ec401137cb01f2d45cda970452"),
    "sdhp/sw-decouple": (277650, 50613,
        "75a491c9c512da79b337fbcb9b0ff062a74524328dff2a589a3e9f6d92e343b3"),
    "sdhp/desc": (71797, 14211,
        "548c900e8714a6dbd0b021663cc136eea9aea21d88be2ecbfa8e8bb3850782de"),
    "sdhp/droplet": (122884, 7076,
        "9e6acbee148d8f500934069a04ada3371bfa9f82f0c1a8fe30dcc5473e819a71"),
    "sdhp/sw-prefetch": (124332, 9265,
        "ad543fec9e42b062171eccedbd59266b00e57d863492e8cfffeab1de92308626"),
    "sdhp/lima": (20875, 8807,
        "74cf60a9c711ebeff69a059fa8e1617150bc305dd31d7a80f51aef999d2b011b"),
    "sdhp/lima-llc": (53085, 9720,
        "d421383fa6e29c06ee207ef2d269cdaad0e8aa2e0774d51dec8b4a7ef160d5de"),
    "spmm/doall": (66141, 3107,
        "9b1a6a6ce910e7a12fa4b7e7ecbd98d60d2e537e0145d18bc29284087e49ad75"),
    "spmm/maple-decouple": (66141, 3107,
        "9b1a6a6ce910e7a12fa4b7e7ecbd98d60d2e537e0145d18bc29284087e49ad75"),
    "spmm/sw-decouple": (66141, 3107,
        "9b1a6a6ce910e7a12fa4b7e7ecbd98d60d2e537e0145d18bc29284087e49ad75"),
    "spmm/desc": (66141, 3107,
        "9b1a6a6ce910e7a12fa4b7e7ecbd98d60d2e537e0145d18bc29284087e49ad75"),
    "spmm/droplet": (64941, 3309,
        "58cb1ee8f0a168c122415ce0fd168a6f6a6d9a98efa9f4c004c2c876a894d7ab"),
    "spmm/sw-prefetch": (62437, 3906,
        "5887e974c38c3cccffd1d3eff95aff81a6a37362d9d04355eaeade8a260a93b7"),
    "spmm/lima": (33217, 5041,
        "e6c71b353b5aabbcd88db7d9dc3789c9ac7e84958063c5f6abbf655aef7a07c9"),
    "spmm/lima-llc": (33217, 5041,
        "e6c71b353b5aabbcd88db7d9dc3789c9ac7e84958063c5f6abbf655aef7a07c9"),
    "bfs/doall": (54248, 5330,
        "de02c9cb4ddf15d37967401a5b1e911d10bb5a71de47a72bb87e0a580accd539"),
    "bfs/maple-decouple": (95366, 19305,
        "f684de64daf1fc520cfd173128444c83cfd94c6ded0ea3fe5f83bbaba1390321"),
    "bfs/sw-decouple": (93907, 25595,
        "f7c51f70a56b225f3f63554d2e1220a4ea699b419f439fb00a5c1135b22dbb51"),
    "bfs/desc": (68716, 14811,
        "969540bb0d73722fda02431a5834b45df1f81cbd8bf85e78d2e9659b08c133a4"),
    "bfs/droplet": (40751, 5864,
        "e1aed12773e63b906182c9c31c5da703eac8d99b3ee2f39eb962bc274dd4c76e"),
    "bfs/sw-prefetch": (56035, 7339,
        "60888b89e93f3f1d2a04ae153cb6be587037feb79b35f5823859ff79a85d7d6f"),
    "bfs/lima": (104222, 11307,
        "c3be7d1c92ba95da685f8f3459d6a9ccad8e8890f35c2eadc2abe02134f882bd"),
    "bfs/lima-llc": (51603, 9554,
        "bc92bb21d145e79ded446a7390254a893db7a3c0a5de57e44c3f395244b14c31"),
}

#: The cells whose plan cannot apply and which therefore run as doall:
#: SPMM is not decouplable (§4.1).
FALLBACK_DOALL = {"spmm/maple-decouple", "spmm/sw-decouple", "spmm/desc"}

GOLDEN_FOUR_THREADS = {
    "bfs/maple-decouple": (57779, 20557,
        "22908e8657d3d5019cc614e1d0aa3b7d96769b6a9e30a55105e8695d50ae9a3c"),
    "bfs/sw-decouple": (57169, 26218,
        "1dddf8517fc166b3cf112de249c563341c49226f91440628921f2c0d75f63830"),
    "bfs/desc": (42882, 17133,
        "02eb0d45c4a2d8a8651698f10189b56abc293a48397095f6dc5328260e1bf7aa"),
    "bfs/lima": (61594, 11946,
        "6b3ec9492afd19e8a8b52114398eb1f8f8b2732960f591a8e8393d0229c9fbc9"),
    "spmv/maple-decouple": (22021, 9386,
        "e464d2461f38e96dc54db09cffad8dfcf74b01eb17c5430b3fbfaffb865a8993"),
    "spmv/sw-decouple": (107864, 37476,
        "4eb9aeeab4e061ffe3c62c091699c8724db86b3357644e54db5d29442e812e4e"),
}


def _digest(snapshot) -> str:
    canon = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def test_golden_table_covers_every_technique_and_workload():
    assert set(GOLDEN) == {f"{app}/{tech}"
                           for app in ("spmv", "sdhp", "spmm", "bfs")
                           for tech in HARNESS_TECHNIQUES}


def _run_cell(cell, threads):
    app, technique = cell.split("/")
    kwargs = {}
    if app == "bfs":
        kwargs["dataset"] = power_law_graph(256, avg_degree=4, seed=1)
    result = run_workload(app, technique, threads=threads, scale=1, seed=0,
                          **kwargs)
    assert result.fallback_doall == (cell in FALLBACK_DOALL)
    return (result.cycles, result.soc.sim.events_executed,
            _digest(result.soc.stats_snapshot()))


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_slice_golden(cell):
    assert _run_cell(cell, threads=2) == GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(GOLDEN_FOUR_THREADS))
def test_slice_golden_four_threads(cell):
    assert _run_cell(cell, threads=4) == GOLDEN_FOUR_THREADS[cell]


def _copy_kernel():
    """out[i] = 3 * src[i]."""
    return Kernel("copy", ["src", "out"], ["n"], [
        ForStmt("i", Const(0), Var("n"), [
            LoadStmt("v", "src", Var("i")),
            ComputeStmt("r", Bin("*", Var("v"), Const(3))),
            StoreStmt("out", Var("i"), Var("r")),
        ])])


def test_second_interpret_binds_the_second_runtimes_arrays():
    """A role reused across calls (BFS reuses one per thread across
    levels, each level with a fresh arrays dict) must bind the arrays of
    the call it runs, never those of an earlier call."""
    soc = Soc()
    aspace = soc.new_process()
    kernel = _copy_kernel()
    role = DoallRole(plan_for(analyze(kernel), Technique.DOALL))
    first = {"src": soc.array(aspace, [1, 2, 3, 4], "src1"),
             "out": soc.array(aspace, 4, "out1")}
    second = {"src": soc.array(aspace, [10, 20, 30, 40], "src2"),
              "out": soc.array(aspace, 4, "out2")}

    def program():
        yield from interpret(kernel, Runtime(dict(first), {"n": 4}), role)
        yield from interpret(kernel, Runtime(dict(second), {"n": 4}), role)

    soc.run_threads([(0, Thread(program(), aspace, "t"))])
    assert first["out"].to_list() == [3, 6, 9, 12]
    assert second["out"].to_list() == [30, 60, 90, 120]
