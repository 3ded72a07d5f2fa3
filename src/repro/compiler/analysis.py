"""Dataflow analysis over kernel IR: the brains of the slicing pass.

Answers the questions DeSC's compiler asks (§3.3):

- which loads are *indirect* (their address depends on another load's
  value — the IMAs);
- which of those are *terminal* (the loaded value feeds only value
  computation, never further addresses or loop bounds) and can therefore
  be offloaded as PRODUCE_PTR;
- whether the kernel performs an indirect read-modify-write, which makes
  decoupling unsound (the paper's SPMM case — the compiler "falls back to
  doall parallelism");
- which statements each slice (Access / Execute) must run;
- the ``A[B[i]]`` chains that software prefetching re-evaluates at
  distance D and that LIMA can expand in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.ir import (
    Bin,
    ComputeStmt,
    Expr,
    FetchAddStmt,
    ForStmt,
    IfStmt,
    Kernel,
    LoadStmt,
    Stmt,
    StoreStmt,
    Var,
    expr_equal,
    expr_vars,
)

#: Use categories a temp's value can flow into.
ADDRESS = "address"       # index of another load
BOUND = "bound"           # loop bound
VALUE = "value"           # arithmetic / store value
STORE_INDEX = "store_index"
COND = "cond"             # if-condition

_EXECUTE_CATS = {VALUE, STORE_INDEX, COND}


@dataclass
class ImaChain:
    """An ``A[B[f(j)] + offset]`` pattern over an innermost loop ``j``.

    ``offset_expr`` (possibly None) is loop-invariant w.r.t. the inner
    loop — e.g. SPMM's dense-temp index ``c*rows + i`` where ``c`` is the
    outer loop variable.  LIMA folds it into the effective base address.
    """

    ima_load: LoadStmt
    index_load: LoadStmt
    loop: ForStmt
    lima_compatible: bool  # index_load reads B[j] with j the loop var
    offset_expr: Optional["Expr"] = None


@dataclass
class LoadInfo:
    stmt: LoadStmt
    depth: int
    categories: Set[str]
    terminal: bool
    chain: Optional[ImaChain] = None


@dataclass
class KernelAnalysis:
    kernel: Kernel
    loads: Dict[int, LoadInfo]
    indirect_rmw: bool
    decouplable: bool
    reason: str
    in_access: Set[int]          # stmt ids the Access slice runs (initial set)
    in_execute: Set[int]         # stmt ids the Execute slice runs (initial set)
    produce_ptr_loads: Set[int]  # terminal IMAs (Access: ptr, Execute: consume)
    access_stalling_loads: Set[int]  # indirect loads Access must do itself
    defs: Dict[str, List[Stmt]] = None  # temp name -> defining statements


def analyze(kernel: Kernel) -> KernelAnalysis:
    defs = _collect_defs(kernel)
    depth = _load_depths(kernel, defs)
    categories = _use_categories(kernel, defs)

    loads: Dict[int, LoadInfo] = {}
    for stmt, parents in kernel.all_statements():
        if not isinstance(stmt, LoadStmt):
            continue
        cats = categories.get(stmt.dest, set())
        terminal = depth[stmt.stmt_id] >= 1 and cats <= _EXECUTE_CATS and bool(cats)
        loads[stmt.stmt_id] = LoadInfo(stmt, depth[stmt.stmt_id], cats, terminal)

    for info in loads.values():
        if info.depth >= 1:
            info.chain = _match_chain(kernel, info.stmt, defs)

    indirect_rmw = _has_indirect_rmw(kernel, defs, depth)
    has_terminal = any(info.terminal for info in loads.values())

    in_access, in_execute, stalling = _slice_membership(kernel, defs, categories,
                                                        loads)
    access_in_if = _access_statements_under_if(kernel, in_access, loads)

    if indirect_rmw:
        decouplable, reason = False, "indirect read-modify-write (RMW IMAs cannot be decoupled)"
    elif not has_terminal:
        decouplable, reason = False, "no terminal indirect loads to offload"
    elif access_in_if:
        decouplable, reason = False, "Access-side work under value-dependent control"
    else:
        decouplable, reason = True, "terminal IMAs found"

    produce_ptrs = {sid for sid, info in loads.items() if info.terminal}
    return KernelAnalysis(
        kernel=kernel,
        loads=loads,
        indirect_rmw=indirect_rmw,
        decouplable=decouplable,
        reason=reason,
        in_access=in_access,
        in_execute=in_execute,
        produce_ptr_loads=produce_ptrs if decouplable else set(),
        access_stalling_loads=stalling,
        defs=defs,
    )


# -- helpers ---------------------------------------------------------------


def _collect_defs(kernel: Kernel) -> Dict[str, List[Stmt]]:
    defs: Dict[str, List[Stmt]] = {}
    for stmt, _parents in kernel.all_statements():
        if isinstance(stmt, (LoadStmt, ComputeStmt, FetchAddStmt)):
            defs.setdefault(stmt.dest, []).append(stmt)
    return defs


def _load_depths(kernel: Kernel, defs: Dict[str, List[Stmt]]) -> Dict[int, int]:
    """Indirection depth of every load (0 = address from loop vars only)."""
    memo: Dict[int, int] = {}

    def name_depth(name: str, visiting: Set[int]) -> int:
        best = 0
        for stmt in defs.get(name, []):
            if stmt.stmt_id in visiting:
                continue  # accumulator cycle: contributes no extra depth
            if isinstance(stmt, LoadStmt):
                best = max(best, load_depth(stmt, visiting) + 1)
            elif isinstance(stmt, ComputeStmt):
                for var in expr_vars(stmt.expr):
                    best = max(best, name_depth(var, visiting | {stmt.stmt_id}))
            elif isinstance(stmt, FetchAddStmt):
                for var in expr_vars(stmt.index):
                    best = max(best, name_depth(var, visiting | {stmt.stmt_id}))
        return best

    def load_depth(stmt: LoadStmt, visiting: Set[int]) -> int:
        if stmt.stmt_id in memo:
            return memo[stmt.stmt_id]
        depth = 0
        for var in expr_vars(stmt.index):
            depth = max(depth, name_depth(var, visiting | {stmt.stmt_id}))
        memo[stmt.stmt_id] = depth
        return depth

    return {
        stmt.stmt_id: load_depth(stmt, set())
        for stmt, _p in kernel.all_statements()
        if isinstance(stmt, LoadStmt)
    }


def _use_categories(kernel: Kernel, defs: Dict[str, List[Stmt]]
                    ) -> Dict[str, Set[str]]:
    """For every temp, the set of use categories its value flows into,
    closed transitively through compute statements."""
    categories: Dict[str, Set[str]] = {}

    def mark(names: Set[str], category: str) -> None:
        for name in names:
            categories.setdefault(name, set()).add(category)

    for stmt, _parents in kernel.all_statements():
        if isinstance(stmt, LoadStmt):
            mark(expr_vars(stmt.index), ADDRESS)
        elif isinstance(stmt, StoreStmt):
            mark(expr_vars(stmt.index), STORE_INDEX)
            mark(expr_vars(stmt.value), VALUE)
        elif isinstance(stmt, ForStmt):
            mark(expr_vars(stmt.lo) | expr_vars(stmt.hi), BOUND)
        elif isinstance(stmt, IfStmt):
            mark(expr_vars(stmt.cond), COND)
        elif isinstance(stmt, FetchAddStmt):
            mark(expr_vars(stmt.index), STORE_INDEX)
            mark(expr_vars(stmt.amount), VALUE)

    # Fixpoint: operands of a compute inherit the categories of its dest.
    changed = True
    while changed:
        changed = False
        for stmt, _parents in kernel.all_statements():
            if not isinstance(stmt, ComputeStmt):
                continue
            dest_cats = categories.get(stmt.dest, set())
            for var in expr_vars(stmt.expr):
                if var == stmt.dest:
                    continue
                var_cats = categories.setdefault(var, set())
                if not dest_cats <= var_cats:
                    var_cats |= dest_cats
                    changed = True
    return categories


def _match_chain(kernel: Kernel, ima: LoadStmt,
                 defs: Dict[str, List[Stmt]]) -> Optional[ImaChain]:
    """Recognize ``A[B[f(j)] (+ invariant)]`` over an innermost loop j."""
    temp_name, offset_expr = _split_index(ima.index, defs)
    if temp_name is None:
        return None
    feeders = defs.get(temp_name, [])
    if len(feeders) != 1 or not isinstance(feeders[0], LoadStmt):
        return None
    index_load = feeders[0]
    # Innermost loop enclosing both loads.
    ima_parents = _parents_of(kernel, ima)
    idx_parents = _parents_of(kernel, index_load)
    loops = [p for p in ima_parents if isinstance(p, ForStmt)]
    if not loops or idx_parents != ima_parents:
        return None
    loop = loops[-1]
    if expr_vars(index_load.index) != {loop.var}:
        return None
    if offset_expr is not None:
        # The offset must be invariant in the inner loop: its names may
        # only be params or variables of *enclosing* loops.
        enclosing_vars = {p.var for p in ima_parents if isinstance(p, ForStmt)
                          and p is not loop}
        allowed = enclosing_vars | set(kernel.params)
        if not expr_vars(offset_expr) <= allowed:
            return None
    lima_compatible = expr_equal(index_load.index, Var(loop.var))
    return ImaChain(ima, index_load, loop, lima_compatible, offset_expr)


def _split_index(index, defs: Dict[str, List[Stmt]]):
    """Split an IMA index into (loaded-temp name, invariant offset expr)."""
    if isinstance(index, Var):
        if any(isinstance(d, LoadStmt) for d in defs.get(index.name, [])):
            return index.name, None
        return None, None
    if isinstance(index, Bin) and index.op == "+":
        for temp_side, offset_side in ((index.lhs, index.rhs),
                                       (index.rhs, index.lhs)):
            if (isinstance(temp_side, Var)
                    and any(isinstance(d, LoadStmt)
                            for d in defs.get(temp_side.name, []))
                    and temp_side.name not in expr_vars(offset_side)):
                return temp_side.name, offset_side
    return None, None


def _parents_of(kernel: Kernel, target: Stmt) -> Tuple[Stmt, ...]:
    for stmt, parents in kernel.all_statements():
        if stmt is target:
            return parents
    raise ValueError(f"statement {target!r} not in kernel {kernel.name}")


def _has_indirect_rmw(kernel: Kernel, defs: Dict[str, List[Stmt]],
                      depth: Dict[int, int]) -> bool:
    """A store to X[e] paired with a load of X[e] where e is indirect.

    Arrays the kernel annotates as benign-race (idempotent epoch-level
    check-and-set, like BFS's dist) are exempt — that is the software
    contract §3.6 places on users of MAPLE's non-coherent loads.
    """
    benign = set(kernel.benign_race_arrays)
    for store, _parents in kernel.all_statements():
        if not isinstance(store, StoreStmt) or store.array in benign:
            continue
        index_indirect = any(
            isinstance(d, LoadStmt)
            for var in expr_vars(store.index)
            for d in defs.get(var, [])
        )
        if not index_indirect:
            continue
        for load, _p in kernel.all_statements():
            if (isinstance(load, LoadStmt) and load.array == store.array
                    and expr_equal(load.index, store.index)):
                return True
    return False


def _slice_membership(kernel: Kernel, defs: Dict[str, List[Stmt]],
                      categories: Dict[str, Set[str]],
                      loads: Dict[int, LoadInfo]
                      ) -> Tuple[Set[int], Set[int], Set[int]]:
    in_access: Set[int] = set()
    in_execute: Set[int] = set()
    stalling: Set[int] = set()
    for stmt, _parents in kernel.all_statements():
        if isinstance(stmt, (ForStmt,)):
            in_access.add(stmt.stmt_id)
            in_execute.add(stmt.stmt_id)
        elif isinstance(stmt, (StoreStmt, IfStmt, FetchAddStmt)):
            in_execute.add(stmt.stmt_id)
        elif isinstance(stmt, ComputeStmt):
            cats = categories.get(stmt.dest, set())
            if cats & (_EXECUTE_CATS | {BOUND}):
                in_execute.add(stmt.stmt_id)
            if cats & {ADDRESS, BOUND}:
                in_access.add(stmt.stmt_id)
        elif isinstance(stmt, LoadStmt):
            info = loads[stmt.stmt_id]
            if info.terminal:
                in_access.add(stmt.stmt_id)   # as PRODUCE_PTR
                in_execute.add(stmt.stmt_id)  # as CONSUME
                continue
            if info.categories & (_EXECUTE_CATS | {BOUND}):
                in_execute.add(stmt.stmt_id)
            if info.categories & {ADDRESS, BOUND}:
                in_access.add(stmt.stmt_id)
                if info.depth >= 1:
                    # Access must perform an IMA itself — the decoupling
                    # still works but the Access thread stalls on it.
                    stalling.add(stmt.stmt_id)
    return in_access, in_execute, stalling


def _access_statements_under_if(kernel: Kernel, in_access: Set[int],
                                loads: Dict[int, LoadInfo]) -> bool:
    for stmt, parents in kernel.all_statements():
        if stmt.stmt_id in in_access and not isinstance(stmt, ForStmt):
            if any(isinstance(p, IfStmt) for p in parents):
                return True
    return False
