"""Tests for lowering/interpretation: plans executed on live SoCs."""

import pytest

from repro.compiler import Technique, analyze, plan_for
from repro.compiler.interp import (
    AccessRole,
    DoallRole,
    ExecuteRole,
    LimaRole,
    MapleBackend,
    PrefetchRole,
    Runtime,
    interpret,
)
from repro.compiler.ir import (
    Bin,
    ComputeStmt,
    Const,
    ForStmt,
    IfStmt,
    Kernel,
    LoadStmt,
    StoreStmt,
    Var,
)
from repro.core.api import QueueHandle
from repro.cpu import Thread
from repro.system import Soc


def tiny_soc():
    soc = Soc()
    return soc, soc.new_process()


def gather_kernel():
    """out[i] = a[b[i]] * 2 — the minimal IMA kernel."""
    return Kernel("gather", ["b", "a", "out"], ["lo", "hi"], [
        ForStmt("i", Var("lo"), Var("hi"), [
            LoadStmt("t", "b", Var("i")),
            LoadStmt("v", "a", Var("t")),
            ComputeStmt("r", Bin("*", Var("v"), Const(2))),
            StoreStmt("out", Var("i"), Var("r")),
        ])])


def bind_gather(soc, aspace, n=12):
    arrays = {
        "b": soc.array(aspace, [(7 * i) % n for i in range(n)], "b"),
        "a": soc.array(aspace, [float(i + 1) for i in range(n)], "a"),
        "out": soc.array(aspace, n, "out"),
    }
    expected = [float((7 * i) % n + 1) * 2 for i in range(n)]
    return arrays, expected


def test_doall_interpretation_computes_correct_result():
    soc, aspace = tiny_soc()
    arrays, expected = bind_gather(soc, aspace)
    kernel = gather_kernel()
    plan = plan_for(analyze(kernel), Technique.DOALL)
    runtime = Runtime(arrays, {"lo": 0, "hi": 12})
    soc.run_threads([(0, Thread(interpret(kernel, runtime, DoallRole(plan)),
                                aspace, "t"))])
    assert arrays["out"].to_list() == expected


def test_partitioned_doall_covers_disjoint_ranges():
    soc, aspace = tiny_soc()
    arrays, expected = bind_gather(soc, aspace)
    kernel = gather_kernel()
    plan = plan_for(analyze(kernel), Technique.DOALL)
    threads = []
    for tid, (lo, hi) in enumerate([(0, 6), (6, 12)]):
        runtime = Runtime(arrays, {"lo": lo, "hi": hi})
        threads.append((tid, Thread(
            interpret(kernel, runtime, DoallRole(plan)), aspace, f"t{tid}")))
    soc.run_threads(threads)
    assert arrays["out"].to_list() == expected


def test_maple_decoupled_interpretation_end_to_end():
    soc, aspace = tiny_soc()
    arrays, expected = bind_gather(soc, aspace)
    kernel = gather_kernel()
    plan = plan_for(analyze(kernel), Technique.MAPLE_DECOUPLE)
    assert not plan.fallback_doall
    api = soc.driver.attach(aspace)
    runtime = Runtime(arrays, {"lo": 0, "hi": 12})

    def access():
        handle = yield from api.open(0)
        role = AccessRole(plan, MapleBackend(handle))
        yield from interpret(kernel, runtime, role)

    def execute():
        role = ExecuteRole(plan, MapleBackend(QueueHandle(api, 0)))
        yield from interpret(kernel, runtime, role)

    soc.run_threads([(0, Thread(access(), aspace, "a")),
                     (1, Thread(execute(), aspace, "e"))])
    assert arrays["out"].to_list() == expected
    assert soc.stats.get("maple0.produce_ptrs") == 12


def test_prefetch_role_emits_prefetches_and_stays_correct():
    soc, aspace = tiny_soc()
    arrays, expected = bind_gather(soc, aspace)
    kernel = gather_kernel()
    plan = plan_for(analyze(kernel), Technique.SW_PREFETCH)
    runtime = Runtime(arrays, {"lo": 0, "hi": 12})
    role = PrefetchRole(plan)
    soc.run_threads([(0, Thread(interpret(kernel, runtime, role), aspace, "t"))])
    assert arrays["out"].to_list() == expected
    # distance-4 over 12 iterations -> 8 prefetches (bounds-guarded).
    assert PrefetchRole.DISTANCE == 4
    assert soc.cores[0].stats.get("prefetches") == 8


def test_lima_role_end_to_end():
    soc, aspace = tiny_soc()
    arrays, expected = bind_gather(soc, aspace)
    kernel = gather_kernel()
    plan = plan_for(analyze(kernel), Technique.LIMA_PREFETCH)
    assert not plan.fallback_doall
    api = soc.driver.attach(aspace)
    runtime = Runtime(arrays, {"lo": 0, "hi": 12})

    def program():
        handle = yield from api.open(0)
        chain = plan.lima_chains[0]
        role = LimaRole(plan, {chain.ima_load.stmt_id: handle})
        yield from interpret(kernel, runtime, role)

    soc.run_threads([(0, Thread(program(), aspace, "t"))])
    assert arrays["out"].to_list() == expected
    assert soc.stats.get("maple0.lima_elements") == 12
    # The address-only index load was dropped from the core entirely.
    assert soc.cores[0].stats.get("loads") < 30


def test_lima_role_requires_handles_for_all_chains():
    plan = plan_for(analyze(gather_kernel()), Technique.LIMA_PREFETCH)
    with pytest.raises(ValueError, match="handle"):
        LimaRole(plan, handles={})


def test_if_statement_executes_conditionally():
    soc, aspace = tiny_soc()
    kernel = Kernel("cond", ["a", "out"], ["n"], [
        ForStmt("i", Const(0), Var("n"), [
            LoadStmt("v", "a", Var("i")),
            IfStmt(Bin("<", Var("v"), Const(5)), [
                StoreStmt("out", Var("i"), Const(1)),
            ]),
        ])])
    arrays = {
        "a": soc.array(aspace, [3, 7, 2, 9], "a"),
        "out": soc.array(aspace, 4, "out"),
    }
    plan = plan_for(analyze(kernel), Technique.DOALL)
    runtime = Runtime(arrays, {"n": 4})
    soc.run_threads([(0, Thread(interpret(kernel, runtime, DoallRole(plan)),
                                aspace, "t"))])
    assert arrays["out"].to_list() == [1, 0, 1, 0]


def test_runtime_with_params_is_non_destructive():
    runtime = Runtime({}, {"a": 1})
    other = runtime.with_params(b=2)
    assert other.params == {"a": 1, "b": 2}
    assert runtime.params == {"a": 1}


def test_runtime_unknown_array_raises():
    runtime = Runtime({})
    with pytest.raises(KeyError, match="not bound"):
        runtime.array("missing")
