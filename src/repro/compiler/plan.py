"""Per-technique slicing plans.

A plan assigns every statement to slices and every load an action, for one
of the latency-tolerance techniques the paper evaluates:

- ``DOALL`` — the baseline: one slice, plain loads.
- ``MAPLE_DECOUPLE`` — §3.1: Access produces pointers (PRODUCE_PTR) for
  terminal IMAs, Execute consumes; Execute keeps its own cache-friendly
  loads (MAPLE's flexibility over DeSC).
- ``SW_DECOUPLE`` — the shared-memory baseline of Fig. 8: same slicing,
  but the Access thread must perform the IMA loads itself (stalling) and
  push *values* through an in-memory queue.
- ``DESC_DECOUPLE`` — the DeSC comparator of Fig. 12: the Compute slice
  has no memory visibility, so *every* load becomes a consume and stores
  are shipped back to the Supply slice.
- ``SW_PREFETCH`` — Fig. 9 baseline: re-evaluate each ``A[B[i]]`` chain at
  distance D and prefetch into the L1 (with the instruction overhead that
  entails).
- ``LIMA_PREFETCH`` — §3.2 non-speculative: one LIMA op per inner loop,
  IMA loads become queue consumes.
- ``LIMA_LLC`` — §3.2 speculative: LIMA prefetches into the LLC, demand
  loads stay coherent (the only prefetch mode sound for RMW kernels like
  SPMM).

A plan that cannot apply (non-decouplable kernel, no LIMA-compatible
chain) sets ``fallback_doall`` — exactly the compiler behaviour the paper
describes for SPMM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.compiler.analysis import (
    ADDRESS,
    ImaChain,
    KernelAnalysis,
)
from repro.compiler.ir import (
    ComputeStmt,
    FetchAddStmt,
    ForStmt,
    IfStmt,
    Kernel,
    LoadStmt,
    StoreStmt,
    expr_vars,
)


class Technique(enum.Enum):
    DOALL = "doall"
    MAPLE_DECOUPLE = "maple-decouple"
    SW_DECOUPLE = "sw-decouple"
    DESC_DECOUPLE = "desc-decouple"
    SW_PREFETCH = "sw-prefetch"
    LIMA_PREFETCH = "lima-prefetch"
    LIMA_LLC = "lima-llc"


@dataclass
class LimaLookahead:
    """How to issue a chain's LIMA op D outer-iterations ahead (Fig. 4).

    ``bound_loads`` are the loads defining the inner loop's bounds
    (``ptr[i]``/``ptr[i+1]``); re-evaluating them with the outer variable
    shifted by D yields the future range to pass to LIMA_RUN.
    """

    outer_loop: ForStmt
    bound_loads: List[LoadStmt]


class LoadAction(enum.Enum):
    LOAD = "load"
    SKIP = "skip"
    CONSUME = "consume"
    PRODUCE_PTR = "produce_ptr"
    LOAD_AND_PRODUCE = "load_and_produce"


@dataclass
class SlicePlan:
    technique: Technique
    kernel: Kernel
    analysis: KernelAnalysis
    fallback_doall: bool = False
    fallback_reason: str = ""
    #: stmt_id -> action, one map per slice (doall-style plans use `execute`).
    access_actions: Dict[int, LoadAction] = field(default_factory=dict)
    execute_actions: Dict[int, LoadAction] = field(default_factory=dict)
    access_stmts: Set[int] = field(default_factory=set)
    execute_stmts: Set[int] = field(default_factory=set)
    store_via_supply: bool = False
    prefetch_chains: List[ImaChain] = field(default_factory=list)
    lima_chains: List[ImaChain] = field(default_factory=list)
    lima_mode: str = "queue"
    #: ima_load stmt_id -> lookahead recipe, for chains whose inner loop is
    #: nested in an outer loop with load-defined bounds (CSR row loops).
    lima_lookahead: Dict[int, LimaLookahead] = field(default_factory=dict)


def plan_for(analysis: KernelAnalysis, technique: Technique) -> SlicePlan:
    builders = {
        Technique.DOALL: _plan_doall,
        Technique.MAPLE_DECOUPLE: _plan_maple_decouple,
        Technique.SW_DECOUPLE: _plan_sw_decouple,
        Technique.DESC_DECOUPLE: _plan_desc,
        Technique.SW_PREFETCH: _plan_sw_prefetch,
        Technique.LIMA_PREFETCH: _plan_lima_queue,
        Technique.LIMA_LLC: _plan_lima_llc,
    }
    return builders[technique](analysis)


# -- builders ----------------------------------------------------------------


def _all_stmt_ids(kernel: Kernel) -> Set[int]:
    return {stmt.stmt_id for stmt, _p in kernel.all_statements()}


def _plan_doall(analysis: KernelAnalysis) -> SlicePlan:
    kernel = analysis.kernel
    actions = {sid: LoadAction.LOAD for sid in analysis.loads}
    return SlicePlan(Technique.DOALL, kernel, analysis,
                     execute_actions=actions,
                     execute_stmts=_all_stmt_ids(kernel))


def _plan_maple_decouple(analysis: KernelAnalysis) -> SlicePlan:
    plan = SlicePlan(Technique.MAPLE_DECOUPLE, analysis.kernel, analysis)
    if not analysis.decouplable:
        return _fallback(plan, analysis.reason)
    plan.access_stmts = set(analysis.in_access)
    plan.execute_stmts = set(analysis.in_execute)
    for sid, info in analysis.loads.items():
        if info.terminal:
            plan.access_actions[sid] = LoadAction.PRODUCE_PTR
            plan.execute_actions[sid] = LoadAction.CONSUME
            continue
        in_access = sid in analysis.in_access
        in_execute = sid in analysis.in_execute
        if in_access and in_execute and info.depth >= 1:
            # An *indirect* load both slices need (BFS's row_ptr[v]
            # bounds): the Access slice must stall for it anyway, so it
            # forwards the value rather than making Execute stall too.
            # Regular (depth-0) shared loads stay replicated — they are
            # cache-friendly, and a local load beats a queue round trip.
            plan.access_actions[sid] = LoadAction.LOAD_AND_PRODUCE
            plan.execute_actions[sid] = LoadAction.CONSUME
            continue
        plan.access_actions[sid] = (
            LoadAction.LOAD if in_access else LoadAction.SKIP)
        plan.execute_actions[sid] = (
            LoadAction.LOAD if in_execute else LoadAction.SKIP)
    _close_slice(plan, analysis, "access")
    _close_slice(plan, analysis, "execute")
    return plan


def _plan_sw_decouple(analysis: KernelAnalysis) -> SlicePlan:
    plan = _plan_maple_decouple(analysis)
    plan.technique = Technique.SW_DECOUPLE
    if plan.fallback_doall:
        return plan
    # A software queue cannot fetch pointers: the Access thread loads the
    # IMA itself (paying the DRAM stall) and pushes the value.
    for sid, action in plan.access_actions.items():
        if action is LoadAction.PRODUCE_PTR:
            plan.access_actions[sid] = LoadAction.LOAD_AND_PRODUCE
    return plan


def _plan_desc(analysis: KernelAnalysis) -> SlicePlan:
    plan = SlicePlan(Technique.DESC_DECOUPLE, analysis.kernel, analysis)
    if not analysis.decouplable:
        return _fallback(plan, analysis.reason)
    kernel = analysis.kernel
    plan.store_via_supply = True
    # Supply runs everything except value computation; Compute has no
    # memory visibility at all.
    for stmt, _parents in kernel.all_statements():
        sid = stmt.stmt_id
        if isinstance(stmt, LoadStmt):
            info = analysis.loads[sid]
            execute_needs_value = sid in analysis.in_execute
            plan.access_stmts.add(sid)
            if info.terminal:
                plan.access_actions[sid] = LoadAction.PRODUCE_PTR
                plan.execute_actions[sid] = LoadAction.CONSUME
                plan.execute_stmts.add(sid)
            elif execute_needs_value:
                plan.access_actions[sid] = LoadAction.LOAD_AND_PRODUCE
                plan.execute_actions[sid] = LoadAction.CONSUME
                plan.execute_stmts.add(sid)
            else:
                plan.access_actions[sid] = LoadAction.LOAD
                plan.execute_actions[sid] = LoadAction.SKIP
        elif isinstance(stmt, ForStmt):
            plan.access_stmts.add(sid)
            plan.execute_stmts.add(sid)
        elif isinstance(stmt, (StoreStmt, IfStmt)):
            plan.execute_stmts.add(sid)
        else:  # ComputeStmt, FetchAddStmt
            if isinstance(stmt, FetchAddStmt):
                plan.execute_stmts.add(sid)
                continue
            if sid in analysis.in_access:
                plan.access_stmts.add(sid)
            if sid in analysis.in_execute:
                plan.execute_stmts.add(sid)

    _close_slice(plan, analysis, "access")
    _close_slice(plan, analysis, "execute")
    return plan


def _plan_sw_prefetch(analysis: KernelAnalysis) -> SlicePlan:
    plan = _plan_doall(analysis)
    plan.technique = Technique.SW_PREFETCH
    plan.prefetch_chains = [
        info.chain for info in analysis.loads.values()
        if info.chain is not None
    ]
    if not plan.prefetch_chains:
        return _fallback(plan, "no A[B[i]] chains to prefetch")
    return plan


def _plan_lima_queue(analysis: KernelAnalysis) -> SlicePlan:
    plan = _plan_doall(analysis)
    plan.technique = Technique.LIMA_PREFETCH
    plan.lima_mode = "queue"
    if analysis.indirect_rmw:
        return _fallback(plan, "RMW IMAs need coherent loads (use LIMA_LLC)")
    chains = [info.chain for info in analysis.loads.values()
              if info.chain is not None and info.chain.lima_compatible
              and info.terminal]
    if not chains:
        return _fallback(plan, "no LIMA-compatible terminal chain")
    plan.lima_chains = chains
    for chain in chains:
        plan.execute_actions[chain.ima_load.stmt_id] = LoadAction.CONSUME
        index_info = analysis.loads[chain.index_load.stmt_id]
        if index_info.categories == {ADDRESS}:
            # The index array is only read to form the IMA address, which
            # LIMA now does in hardware: the core drops the load entirely.
            plan.execute_actions[chain.index_load.stmt_id] = LoadAction.SKIP
    _attach_lima_lookahead(plan, analysis)
    return plan


def _plan_lima_llc(analysis: KernelAnalysis) -> SlicePlan:
    plan = _plan_doall(analysis)
    plan.technique = Technique.LIMA_LLC
    plan.lima_mode = "llc"
    chains = [info.chain for info in analysis.loads.values()
              if info.chain is not None and info.chain.lima_compatible]
    if not chains:
        return _fallback(plan, "no LIMA-compatible chain")
    plan.lima_chains = chains
    # Demand accesses stay as coherent loads; LIMA only warms the LLC.
    _attach_lima_lookahead(plan, analysis)
    return plan


def _attach_lima_lookahead(plan: SlicePlan, analysis: KernelAnalysis) -> None:
    """Recognize chains whose inner loop can be issued D iterations ahead."""
    kernel = plan.kernel
    parents = {stmt.stmt_id: p for stmt, p in kernel.all_statements()}
    for chain in plan.lima_chains:
        loops = [p for p in parents[chain.loop.stmt_id] if isinstance(p, ForStmt)]
        if not loops:
            continue  # top-level loop: one LIMA op covers the whole range
        outer = loops[-1]
        bound_loads = []
        compatible = True
        for bound in (chain.loop.lo, chain.loop.hi):
            for name in expr_vars(bound):
                if name == outer.var or name in kernel.params:
                    continue
                defs = analysis.defs.get(name, [])
                if (len(defs) == 1 and isinstance(defs[0], LoadStmt)
                        and expr_vars(defs[0].index)
                        <= {outer.var} | set(kernel.params)):
                    bound_loads.append(defs[0])
                else:
                    compatible = False
        if compatible:
            plan.lima_lookahead[chain.ima_load.stmt_id] = LimaLookahead(
                outer, bound_loads)


def _needed_vars(stmt, action) -> Set[str]:
    """Names a slice must have bound to execute this statement."""
    if isinstance(stmt, LoadStmt):
        if action in (LoadAction.LOAD, LoadAction.LOAD_AND_PRODUCE,
                      LoadAction.PRODUCE_PTR):
            return expr_vars(stmt.index)
        return set()  # CONSUME / SKIP evaluate nothing
    if isinstance(stmt, StoreStmt):
        return expr_vars(stmt.index) | expr_vars(stmt.value)
    if isinstance(stmt, ComputeStmt):
        return expr_vars(stmt.expr)
    if isinstance(stmt, ForStmt):
        return expr_vars(stmt.lo) | expr_vars(stmt.hi)
    if isinstance(stmt, IfStmt):
        return expr_vars(stmt.cond)
    if isinstance(stmt, FetchAddStmt):
        return expr_vars(stmt.index) | expr_vars(stmt.amount)
    raise TypeError(f"not a statement: {stmt!r}")


def _close_slice(plan: SlicePlan, analysis: KernelAnalysis,
                 which: str) -> None:
    """Transitively include the definitions of every name a slice uses.

    A slice that evaluates an expression needs the statements defining
    its temps: computes and loads join the slice, and enclosing If/For
    statements of any included statement join too.  Every load reached
    this way already holds its action: each name a slice evaluates
    carries a use category (categories flow back through computes), so
    the planner assigned the load defining it a LOAD or queue action up
    front.  A reached load without one is a planner bug and raises.
    """
    kernel = plan.kernel
    stmts = plan.access_stmts if which == "access" else plan.execute_stmts
    actions = plan.access_actions if which == "access" else plan.execute_actions
    parents_of = {stmt.stmt_id: parents for stmt, parents in kernel.all_statements()}
    by_id = {stmt.stmt_id: stmt for stmt, _p in kernel.all_statements()}

    changed = True
    while changed:
        changed = False
        for sid in list(stmts):
            stmt = by_id[sid]
            for name in _needed_vars(stmt, actions.get(sid)):
                for definition in analysis.defs.get(name, ()):
                    did = definition.stmt_id
                    if isinstance(definition, LoadStmt):
                        if actions.get(did) in (None, LoadAction.SKIP):
                            raise AssertionError(
                                f"{plan.technique.value} {which} slice "
                                f"needs load {did}, which holds no action")
                        if did not in stmts:
                            stmts.add(did)
                            changed = True
                    elif did not in stmts:
                        stmts.add(did)
                        changed = True
        # Control context: a slice running a statement must also run the
        # loops/ifs enclosing it.
        for sid in list(stmts):
            for parent in parents_of[sid]:
                if parent.stmt_id not in stmts:
                    stmts.add(parent.stmt_id)
                    changed = True


def _fallback(plan: SlicePlan, reason: str) -> SlicePlan:
    doall = _plan_doall(plan.analysis)
    plan.fallback_doall = True
    plan.fallback_reason = reason
    plan.execute_actions = doall.execute_actions
    plan.execute_stmts = doall.execute_stmts
    plan.access_actions = {}
    plan.access_stmts = set()
    plan.prefetch_chains = []
    plan.lima_chains = []
    return plan
