"""Tests for per-technique slicing plans."""

import pytest

from repro.compiler import Technique, analyze, plan_for
from repro.compiler.ir import ForStmt, IfStmt, LoadStmt, StoreStmt, expr_vars
from repro.compiler.plan import LoadAction, _close_slice
from repro.kernels.bfs import build_bfs_level_kernel
from repro.kernels.sdhp import build_sdhp_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.spmv import build_spmv_kernel


def load_id(kernel, array, nth=0):
    found = [stmt.stmt_id for stmt, _p in kernel.all_statements()
             if isinstance(stmt, LoadStmt) and stmt.array == array]
    return found[nth]


def test_doall_plan_runs_everything():
    kernel = build_spmv_kernel()
    plan = plan_for(analyze(kernel), Technique.DOALL)
    all_ids = {stmt.stmt_id for stmt, _p in kernel.all_statements()}
    assert plan.execute_stmts == all_ids
    assert all(action is LoadAction.LOAD for action in plan.execute_actions.values())
    assert not plan.fallback_doall


def test_maple_plan_spmv_actions():
    kernel = build_spmv_kernel()
    plan = plan_for(analyze(kernel), Technique.MAPLE_DECOUPLE)
    x = load_id(kernel, "x")
    col = load_id(kernel, "col_idx")
    vals = load_id(kernel, "vals")
    assert plan.access_actions[x] is LoadAction.PRODUCE_PTR
    assert plan.execute_actions[x] is LoadAction.CONSUME
    assert plan.access_actions[col] is LoadAction.LOAD
    assert plan.execute_actions[col] is LoadAction.SKIP
    assert plan.access_actions[vals] is LoadAction.SKIP
    assert plan.execute_actions[vals] is LoadAction.LOAD


def test_queue_op_parity_between_slices():
    """Every produce on the Access side has exactly one matching consume on
    the Execute side, at the same statement — the FIFO protocol invariant."""
    for kernel in (build_spmv_kernel(), build_sdhp_kernel(),
                   build_bfs_level_kernel()):
        for technique in (Technique.MAPLE_DECOUPLE, Technique.SW_DECOUPLE,
                          Technique.DESC_DECOUPLE):
            plan = plan_for(analyze(kernel), technique)
            assert not plan.fallback_doall
            produces = {sid for sid, a in plan.access_actions.items()
                        if a in (LoadAction.PRODUCE_PTR,
                                 LoadAction.LOAD_AND_PRODUCE)}
            consumes = {sid for sid, a in plan.execute_actions.items()
                        if a is LoadAction.CONSUME}
            assert produces == consumes, (kernel.name, technique)


def test_slices_have_their_definitions():
    """Closure property: every expression a slice evaluates only uses
    names defined by statements in that slice (or loop vars / params)."""
    for kernel in (build_spmv_kernel(), build_sdhp_kernel(),
                   build_bfs_level_kernel()):
        analysis = analyze(kernel)
        for technique in (Technique.MAPLE_DECOUPLE, Technique.DESC_DECOUPLE):
            plan = plan_for(analysis, technique)
            for which, stmts, actions in (
                    ("access", plan.access_stmts, plan.access_actions),
                    ("execute", plan.execute_stmts, plan.execute_actions)):
                defined = set(kernel.params)
                for stmt, _p in kernel.all_statements():
                    if stmt.stmt_id not in stmts:
                        continue
                    if isinstance(stmt, ForStmt):
                        defined.add(stmt.var)
                for stmt, _p in kernel.all_statements():
                    if stmt.stmt_id not in stmts:
                        continue
                    if hasattr(stmt, "dest"):
                        defined.add(stmt.dest)
                for stmt, _p in kernel.all_statements():
                    if stmt.stmt_id not in stmts:
                        continue
                    needed = set()
                    if isinstance(stmt, LoadStmt):
                        if actions.get(stmt.stmt_id) in (
                                LoadAction.LOAD, LoadAction.LOAD_AND_PRODUCE,
                                LoadAction.PRODUCE_PTR):
                            needed = expr_vars(stmt.index)
                    elif isinstance(stmt, StoreStmt):
                        needed = expr_vars(stmt.index) | expr_vars(stmt.value)
                    elif isinstance(stmt, ForStmt):
                        needed = expr_vars(stmt.lo) | expr_vars(stmt.hi)
                    elif isinstance(stmt, IfStmt):
                        needed = expr_vars(stmt.cond)
                    missing = needed - defined
                    assert not missing, (kernel.name, technique, which,
                                         stmt, missing)


def test_sw_decouple_loads_imas_on_access_side():
    kernel = build_spmv_kernel()
    plan = plan_for(analyze(kernel), Technique.SW_DECOUPLE)
    x = load_id(kernel, "x")
    assert plan.access_actions[x] is LoadAction.LOAD_AND_PRODUCE  # stalls!


def test_desc_execute_has_no_memory_loads():
    kernel = build_spmv_kernel()
    plan = plan_for(analyze(kernel), Technique.DESC_DECOUPLE)
    assert plan.store_via_supply
    for sid, action in plan.execute_actions.items():
        assert action in (LoadAction.CONSUME, LoadAction.SKIP)


def test_bfs_indirect_bounds_forwarded_not_replicated():
    kernel = build_bfs_level_kernel()
    plan = plan_for(analyze(kernel), Technique.MAPLE_DECOUPLE)
    row0 = load_id(kernel, "row_ptr", 0)
    assert plan.access_actions[row0] is LoadAction.LOAD_AND_PRODUCE
    assert plan.execute_actions[row0] is LoadAction.CONSUME


def test_spmm_decoupling_falls_back():
    plan = plan_for(analyze(build_spmm_kernel()), Technique.MAPLE_DECOUPLE)
    assert plan.fallback_doall
    assert "RMW" in plan.fallback_reason
    assert not plan.access_stmts


def test_sw_prefetch_plan_has_chains():
    plan = plan_for(analyze(build_spmv_kernel()), Technique.SW_PREFETCH)
    assert not plan.fallback_doall
    assert len(plan.prefetch_chains) == 1
    assert plan.prefetch_chains[0].ima_load.array == "x"


def test_lima_queue_plan_spmv():
    kernel = build_spmv_kernel()
    plan = plan_for(analyze(kernel), Technique.LIMA_PREFETCH)
    assert not plan.fallback_doall
    assert plan.lima_mode == "queue"
    x = load_id(kernel, "x")
    col = load_id(kernel, "col_idx")
    assert plan.execute_actions[x] is LoadAction.CONSUME
    assert plan.execute_actions[col] is LoadAction.SKIP  # address-only
    # SPMV's inner loop has load-defined bounds -> lookahead recipe exists.
    assert x in plan.lima_lookahead
    assert len(plan.lima_lookahead[x].bound_loads) == 2


def test_lima_queue_refuses_rmw_kernels():
    plan = plan_for(analyze(build_spmm_kernel()), Technique.LIMA_PREFETCH)
    assert plan.fallback_doall
    assert "LIMA_LLC" in plan.fallback_reason


def test_lima_llc_accepts_rmw_kernels():
    plan = plan_for(analyze(build_spmm_kernel()), Technique.LIMA_LLC)
    assert not plan.fallback_doall
    assert plan.lima_mode == "llc"
    # Demand loads stay loads in speculative mode (coherence preserved).
    t_chain = plan.lima_chains[0]
    assert plan.execute_actions[t_chain.ima_load.stmt_id] is LoadAction.LOAD


def test_sdhp_flat_loop_has_no_lookahead():
    kernel = build_sdhp_kernel()
    plan = plan_for(analyze(kernel), Technique.LIMA_PREFETCH)
    assert not plan.fallback_doall
    assert not plan.lima_lookahead  # top-level loop: one run covers all


def test_bfs_lima_has_no_lookahead_but_works():
    # BFS bounds come from row_ptr[v] with v itself loaded -> the simple
    # shift-the-outer-var recipe does not apply.
    plan = plan_for(analyze(build_bfs_level_kernel()), Technique.LIMA_PREFETCH)
    assert not plan.fallback_doall
    assert not plan.lima_lookahead


def test_closing_a_slice_refuses_a_load_without_an_action():
    """Every load a slice's closure reaches already holds its action; a
    plan that breaks this is refused, not silently patched."""
    kernel = build_spmv_kernel()
    plan = plan_for(analyze(kernel), Technique.MAPLE_DECOUPLE)
    _close_slice(plan, plan.analysis, "access")  # a sound plan closes
    plan.access_actions[load_id(kernel, "col_idx")] = LoadAction.SKIP
    with pytest.raises(AssertionError, match="access slice needs load"):
        _close_slice(plan, plan.analysis, "access")
