"""Lowering: compile a slicing plan into a stream of ISA instructions.

A per-slice :class:`Role` decides what each statement becomes on the
core: a plain load, a MAPLE API operation, a software-queue transfer, a
prefetch sequence, or nothing (the statement belongs to the other
slice).  :func:`interpret` takes all of those decisions once, before the
first instruction, and lowers the slice to a single generator function —
the Access/Execute programs MAPLE's compiler emits ahead of the run
(§3.3).  A :class:`~repro.cpu.core.Core` runs the generator directly, so
all timing — MMIO round trips, queue backpressure, cache behaviour — is
the real model's.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Dict, List

from repro.compiler.analysis import ImaChain
from repro.compiler.ir import (
    Bin,
    ComputeStmt,
    Const,
    FetchAddStmt,
    ForStmt,
    IfStmt,
    Kernel,
    LoadStmt,
    StoreStmt,
    Var,
    eval_expr,
)
from repro.compiler.plan import LoadAction, SlicePlan
from repro.core.api import QueueHandle
from repro.cpu import isa
from repro.vm.alloc import WORD_BYTES, SimArray


@dataclass
class Runtime:
    """Binding of kernel array/param names to simulated state."""

    arrays: Dict[str, SimArray]
    params: Dict[str, float] = field(default_factory=dict)

    def array(self, name: str) -> SimArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"kernel array {name!r} not bound in runtime")

    def with_params(self, **params) -> "Runtime":
        merged = dict(self.params)
        merged.update(params)
        return Runtime(self.arrays, merged)


class QueueBackend:
    """How a decoupled pair communicates. Subclasses: MAPLE MMIO, the
    shared-memory ring, DeSC architectural queues."""

    def produce(self, value):
        raise NotImplementedError

    def produce_ptr(self, addr):
        raise NotImplementedError

    def consume(self):
        raise NotImplementedError

    def store(self, addr, value):
        """Default: Execute stores directly (MAPLE keeps cores coherent)."""
        yield isa.Store(addr, value)


class MapleBackend(QueueBackend):
    """Decoupling over a MAPLE hardware queue (§3.1)."""

    def __init__(self, handle: QueueHandle):
        self.handle = handle
        # The handle's API generators *are* the backend operations: no
        # wrapper frame between a slice and its MMIO load or store.
        self.produce = handle.produce
        self.produce_ptr = handle.produce_ptr
        self.consume = handle.consume


# -- roles --------------------------------------------------------------------


class Role:
    """Per-slice behaviour hooks for the lowering.

    Roles may override a hook in the class or bind it per instance
    (:class:`AccessRole` binds its backend's operations); a hook left at
    this class's no-op default costs nothing at run time, because the
    lowering never calls it.
    """

    def __init__(self, plan: SlicePlan):
        self.plan = plan

    def includes(self, stmt) -> bool:
        raise NotImplementedError

    def load_action(self, stmt: LoadStmt) -> LoadAction:
        raise NotImplementedError

    def produce(self, value):
        raise NotImplementedError("this role does not produce")

    def produce_ptr(self, addr):
        raise NotImplementedError("this role does not produce pointers")

    def consume(self):
        raise NotImplementedError("this role does not consume")

    def store(self, addr, value):
        yield isa.Store(addr, value)

    def fetch_add(self, addr, amount):
        old = yield isa.Amo(addr, lambda value, a=amount: value + a)
        return old

    def before_load(self):
        """Hook run before a slice-local LOAD (memory-ordering fences)."""
        return
        yield  # pragma: no cover - generator shape

    def on_loop_enter(self, stmt: ForStmt, lo: int, hi: int, env: dict,
                      runtime: Runtime):
        return
        yield  # pragma: no cover - generator shape

    def on_iteration(self, stmt: ForStmt, index: int, hi: int, env: dict,
                     runtime: Runtime):
        return
        yield  # pragma: no cover - generator shape


class DoallRole(Role):
    """Plain execution of every statement (the baseline)."""

    def includes(self, stmt) -> bool:
        return stmt.stmt_id in self.plan.execute_stmts

    def load_action(self, stmt: LoadStmt) -> LoadAction:
        return self.plan.execute_actions.get(stmt.stmt_id, LoadAction.LOAD)


class PrefetchRole(DoallRole):
    """Software prefetching at distance D (Fig. 9 baseline).

    For every ``A[B[f(j)]]`` chain, each iteration j re-evaluates the chain
    at ``j+D``: an extra load of ``B[f(j+D)]``, an address-computation ALU
    op, and a prefetch of ``&A[B[f(j+D)]]`` into the L1 — the instruction
    overhead ("code bloat") the paper charges this technique with.
    """

    #: D, in iterations ahead of the demand access.
    DISTANCE = 4

    def __init__(self, plan: SlicePlan):
        super().__init__(plan)
        self._chains_by_loop: Dict[int, List[ImaChain]] = {}
        for chain in plan.prefetch_chains:
            self._chains_by_loop.setdefault(chain.loop.stmt_id, []).append(chain)

    def on_iteration(self, stmt: ForStmt, index: int, hi: int, env: dict,
                     runtime: Runtime):
        for chain in self._chains_by_loop.get(stmt.stmt_id, ()):
            ahead = index + self.DISTANCE
            if ahead >= hi:
                continue
            shifted = dict(env)
            shifted[stmt.var] = ahead
            b_array = runtime.array(chain.index_load.array)
            b_index = eval_expr(chain.index_load.index, shifted)
            future = yield isa.Load(b_array.addr(b_index))
            # The per-iteration overhead of compiler-inserted prefetching
            # (bounds clamping, address arithmetic, loop bookkeeping) —
            # the "code bloat" of Ainsworth & Jones that §2 cites.
            yield isa.Alu(5)
            shifted[chain.index_load.dest] = future
            a_array = runtime.array(chain.ima_load.array)
            a_index = int(eval_expr(chain.ima_load.index, shifted))
            yield isa.Prefetch(a_array.addr(a_index))


class LimaRole(DoallRole):
    """LIMA-assisted prefetching (§3.2): one MMIO op per inner loop.

    ``mode="queue"``: the IMA loads become consumes from the hardware
    queue (packed two-per-load when entries are 4 bytes, which is how
    MAPLE ends up *reducing* load counts in Fig. 10).
    ``mode="llc"``: loads stay coherent; LIMA just warms the LLC.

    Chains with a :class:`~repro.compiler.plan.LimaLookahead` recipe are
    issued ``distance`` outer iterations ahead (the Fig. 4 pattern
    ``LIMA(A, B, ptr[i+D], ptr[i+1+D])``), so MAPLE's fetches overlap the
    previous rows' computation.
    """

    def __init__(self, plan: SlicePlan, handles: Dict[int, QueueHandle],
                 packed: bool = True, distance: int = 2):
        super().__init__(plan)
        self.mode = plan.lima_mode
        self.distance = distance
        self._handles = handles  # chain's ima_load stmt_id -> QueueHandle
        self._packed = packed and self.mode == "queue"
        self._chains_by_loop: Dict[int, List[ImaChain]] = {}
        self._lookahead_by_outer: Dict[int, List[ImaChain]] = {}
        for chain in plan.lima_chains:
            sid = chain.ima_load.stmt_id
            if sid not in handles:
                raise ValueError(
                    f"no queue handle for LIMA chain {chain.ima_load!r}")
            info = plan.lima_lookahead.get(sid)
            if info is not None:
                self._lookahead_by_outer.setdefault(
                    info.outer_loop.stmt_id, []).append(chain)
            else:
                self._chains_by_loop.setdefault(chain.loop.stmt_id, []).append(chain)
        self._configured_base: Dict[int, int] = {}
        self._remaining: Dict[int, int] = {}
        self._buffer: Dict[int, List] = {}
        self._next_issue: Dict[int, int] = {}

    def on_loop_enter(self, stmt: ForStmt, lo: int, hi: int, env: dict,
                      runtime: Runtime):
        if stmt.stmt_id in self._lookahead_by_outer:
            for chain in self._lookahead_by_outer[stmt.stmt_id]:
                self._next_issue[chain.ima_load.stmt_id] = lo
        for chain in self._chains_by_loop.get(stmt.stmt_id, ()):
            yield from self._issue_run(chain, lo, hi, env, runtime)

    def on_iteration(self, stmt: ForStmt, index: int, hi: int, env: dict,
                     runtime: Runtime):
        for chain in self._lookahead_by_outer.get(stmt.stmt_id, ()):
            sid = chain.ima_load.stmt_id
            info = self.plan.lima_lookahead[sid]
            while self._next_issue[sid] <= min(index + self.distance, hi - 1):
                future = self._next_issue[sid]
                shifted = dict(env)
                shifted[info.outer_loop.var] = future
                for bound_load in info.bound_loads:
                    array = runtime.array(bound_load.array)
                    addr = array.addr(int(eval_expr(bound_load.index, shifted)))
                    shifted[bound_load.dest] = yield isa.Load(addr)
                run_lo = int(eval_expr(chain.loop.lo, shifted))
                run_hi = int(eval_expr(chain.loop.hi, shifted))
                yield from self._issue_run(chain, run_lo, run_hi, shifted,
                                           runtime)
                self._next_issue[sid] = future + 1

    def _issue_run(self, chain: ImaChain, lo: int, hi: int, env: dict,
                   runtime: Runtime):
        sid = chain.ima_load.stmt_id
        handle = self._handles[sid]
        a_array = runtime.array(chain.ima_load.array)
        base_a = a_array.base
        if chain.offset_expr is not None:
            # Fold the loop-invariant part of the index (e.g. SPMM's
            # c*rows) into the effective base address.
            base_a += 8 * int(eval_expr(chain.offset_expr, env))
        if self._configured_base.get(sid) != base_a:
            b_array = runtime.array(chain.index_load.array)
            yield from handle.lima_configure(base_a, b_array.base)
            self._configured_base[sid] = base_a
        if hi > lo:
            yield from handle.lima_run(lo, hi, mode=self.mode)
            self._remaining[sid] = self._remaining.get(sid, 0) + (hi - lo)

    def consume_for(self, stmt: LoadStmt):
        sid = stmt.stmt_id
        handle = self._handles[sid]
        buffer = self._buffer.setdefault(sid, [])
        if buffer:
            self._remaining[sid] -= 1
            return buffer.pop(0)
        if self._packed and self._remaining.get(sid, 0) >= 2:
            pair = yield from handle.consume_packed()
            buffer.append(pair[1])
            self._remaining[sid] -= 1
            return pair[0]
        value = yield from handle.consume()
        self._remaining[sid] -= 1
        return value


class AccessRole(Role):
    """The Access (Supply) slice of a decoupled pair."""

    def __init__(self, plan: SlicePlan, backend: QueueBackend):
        super().__init__(plan)
        self.backend = backend
        # The backend's operations are the role's, bound once.
        self.produce = backend.produce
        self.produce_ptr = backend.produce_ptr
        load_fence = getattr(backend, "load_fence", None)
        if load_fence is not None:
            # Backends with in-flight stores of unresolved address (DeSC's
            # Compute->Supply store queue) fence every Supply load behind
            # them — the loss-of-decoupling rule.
            self.before_load = load_fence

    def includes(self, stmt) -> bool:
        return stmt.stmt_id in self.plan.access_stmts

    def load_action(self, stmt: LoadStmt) -> LoadAction:
        return self.plan.access_actions.get(stmt.stmt_id, LoadAction.SKIP)


class ExecuteRole(Role):
    """The Execute (Compute) slice of a decoupled pair."""

    def __init__(self, plan: SlicePlan, backend: QueueBackend):
        super().__init__(plan)
        self.backend = backend
        self.consume = backend.consume
        if plan.store_via_supply:
            # The Execute core has no memory path (DeSC): the backend
            # ships its stores and atomics to the Access side.
            self.store = backend.store
            self.fetch_add = backend.fetch_add

    def includes(self, stmt) -> bool:
        return stmt.stmt_id in self.plan.execute_stmts

    def load_action(self, stmt: LoadStmt) -> LoadAction:
        return self.plan.execute_actions.get(stmt.stmt_id, LoadAction.SKIP)


# -- lowering ---------------------------------------------------------------------


def interpret(kernel: Kernel, runtime: Runtime, role: Role):
    """Generator of ISA instructions for one slice of one kernel.

    The slice is lowered once per call (cheap: the compiled code is
    shared by every thread and cell running the same slice) and the
    arrays of *this* ``runtime`` are bound when the generator starts.
    """
    program = _SliceLowering(kernel, role).program()
    return program(role, runtime, dict(runtime.params))


#: Hooks the lowering elides (or, for ``store``, inlines) when the role
#: keeps the :class:`Role` default.
_ELIDABLE_HOOKS = ("before_load", "on_loop_enter", "on_iteration", "store")

_INFIX_OPS = {"+", "-", "*", "//", "==", "!=", "<", "<="}


def _overridden(role: Role, name: str) -> bool:
    method = getattr(role, name)
    return getattr(method, "__func__", None) is not getattr(Role, name)


#: The file name lowered code reports: inside this package, so profiles
#: and tracebacks place slice execution in the compiler.
_SLICE_FILENAME = os.path.join(os.path.dirname(__file__), "<lowered slice>")


@functools.lru_cache(maxsize=256)
def _compile_slice(source: str):
    return compile(source, _SLICE_FILENAME, "exec")


class _SliceLowering:
    """Emits one slice as the source of a single generator function.

    Every role decision is taken here, before the first instruction:
    which statements the slice runs, what each load becomes, which hooks
    are called.  Loops become native ``for`` loops in one frame, and
    expressions become inline Python over ``env`` — the dict the role
    hooks see, so their view of loop variables and temps is unchanged.
    """

    def __init__(self, kernel: Kernel, role: Role):
        self._role = role
        self._hooks = {name for name in _ELIDABLE_HOOKS
                       if _overridden(role, name)}
        self._lima = isinstance(role, LimaRole)
        self._namespace = {"Load": isa.Load, "Store": isa.Store}
        self._arrays: Dict[str, int] = {}
        self._ops: List[str] = []
        self._consts = 0
        self._body: List[str] = []
        self._emit_body(kernel.body, 1)

    def program(self):
        head = ["def slice_program(role, runtime, env):",
                "    if 0:",
                "        yield  # a generator even when the slice is empty"]
        for name, k in self._arrays.items():
            head.append(f"    a{k} = runtime.array({name!r})")
            head.append(f"    b{k} = a{k}.base")
            head.append(f"    n{k} = a{k}.length")
        for op in self._ops:
            head.append(f"    {op} = role.{op}")
        source = "\n".join(head + self._body) + "\n"
        namespace = dict(self._namespace)
        exec(_compile_slice(source), namespace)
        return namespace["slice_program"]

    # -- statements ---------------------------------------------------------

    def _emit_body(self, body, depth: int) -> bool:
        """Emit the statements of ``body`` this slice runs; False when
        there are none."""
        emitted = False
        for stmt in body:
            if not self._role.includes(stmt):
                continue
            cls = stmt.__class__
            if cls is ForStmt:
                self._emit_for(stmt, depth)
            elif cls is LoadStmt:
                self._emit_load(stmt, depth)
            elif cls is ComputeStmt:
                alu = self._bind(f"alu{stmt.stmt_id}", isa.Alu(stmt.cycles))
                self._line(depth, f"env[{stmt.dest!r}] = {self._expr(stmt.expr)}")
                self._line(depth, f"yield {alu}")
            elif cls is StoreStmt:
                addr = self._emit_addr(stmt.array, stmt.index, depth)
                value = self._expr(stmt.value)
                if "store" in self._hooks:
                    self._line(depth, f"yield from {self._op('store')}"
                                      f"({addr}, {value})")
                else:
                    self._line(depth, f"yield Store({addr}, {value})")
            elif cls is IfStmt:
                self._line(depth, f"if {self._expr(stmt.cond)}:")
                if not self._emit_body(stmt.body, depth + 1):
                    self._line(depth + 1, "pass")
            elif cls is FetchAddStmt:
                addr = self._emit_addr(stmt.array, stmt.index, depth)
                self._line(depth, f"env[{stmt.dest!r}] = yield from "
                                  f"{self._op('fetch_add')}({addr}, "
                                  f"{self._expr(stmt.amount)})")
            else:
                raise TypeError(f"not a statement: {stmt!r}")
            emitted = True
        return emitted

    def _emit_for(self, stmt: ForStmt, depth: int) -> None:
        sid = stmt.stmt_id
        lo, hi, index = f"lo{sid}", f"hi{sid}", f"i{sid}"
        self._line(depth, f"{lo} = int({self._expr(stmt.lo)})")
        self._line(depth, f"{hi} = int({self._expr(stmt.hi)})")
        if "on_loop_enter" in self._hooks:
            self._line(depth, f"yield from {self._op('on_loop_enter')}"
                              f"({self._stmt(stmt)}, {lo}, {hi}, env, runtime)")
        self._line(depth, f"for {index} in range({lo}, {hi}):")
        self._line(depth + 1, f"env[{stmt.var!r}] = {index}")
        if "on_iteration" in self._hooks:
            self._line(depth + 1, f"yield from {self._op('on_iteration')}"
                                  f"({self._stmt(stmt)}, {index}, {hi}, "
                                  "env, runtime)")
        self._emit_body(stmt.body, depth + 1)

    def _emit_load(self, stmt: LoadStmt, depth: int) -> None:
        action = self._role.load_action(stmt)
        dest = f"env[{stmt.dest!r}]"
        if action is LoadAction.SKIP:
            return
        if action is LoadAction.CONSUME:
            if self._lima:
                self._line(depth, f"{dest} = yield from "
                                  f"{self._op('consume_for')}({self._stmt(stmt)})")
            else:
                self._line(depth, f"{dest} = yield from {self._op('consume')}()")
            return
        addr = self._emit_addr(stmt.array, stmt.index, depth)
        if action is LoadAction.PRODUCE_PTR:
            self._line(depth, f"yield from {self._op('produce_ptr')}({addr})")
            return
        if "before_load" in self._hooks:
            self._line(depth, f"yield from {self._op('before_load')}()")
        if action is LoadAction.LOAD_AND_PRODUCE:
            self._line(depth, f"value = yield Load({addr})")
            self._line(depth, f"{dest} = value")
            self._line(depth, f"yield from {self._op('produce')}(value)")
        else:
            self._line(depth, f"{dest} = yield Load({addr})")

    def _emit_addr(self, array: str, index, depth: int) -> str:
        """Emit the bounds-checked index into local ``x``; returns the
        address expression (``SimArray.addr`` inlined, its IndexError kept
        by calling it on the failing index)."""
        k = self._arrays.setdefault(array, len(self._arrays))
        self._line(depth, f"x = int({self._expr(index)})")
        self._line(depth, f"if not 0 <= x < n{k}:")
        self._line(depth + 1, f"a{k}.addr(x)")
        return f"b{k} + {WORD_BYTES} * x"

    # -- helpers ------------------------------------------------------------

    def _line(self, depth: int, text: str) -> None:
        self._body.append("    " * depth + text)

    def _op(self, name: str) -> str:
        if name not in self._ops:
            self._ops.append(name)
        return name

    def _bind(self, name: str, value) -> str:
        self._namespace[name] = value
        return name

    def _stmt(self, stmt) -> str:
        return self._bind(f"s{stmt.stmt_id}", stmt)

    def _expr(self, expr) -> str:
        cls = expr.__class__
        if cls is Var:
            return f"env[{expr.name!r}]"
        if cls is Const:
            self._consts += 1
            return self._bind(f"k{self._consts}", expr.value)
        if cls is Bin:
            lhs, rhs = self._expr(expr.lhs), self._expr(expr.rhs)
            if expr.op in _INFIX_OPS:
                return f"({lhs} {expr.op} {rhs})"
            if expr.op in ("min", "max"):
                return f"{expr.op}({lhs}, {rhs})"
            raise ValueError(f"unknown operator {expr.op!r}")
        raise TypeError(f"not an expression: {expr!r}")
