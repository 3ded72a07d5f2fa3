"""A small loop-nest IR for data-analytic kernels.

Rich enough to express the paper's four workloads (CSR/CSC traversals
with indirect gathers, dense accumulators, conditional updates) while
keeping the slicing analysis decidable.  Statements get stable integer
ids at kernel construction, which the analysis and plans key on.

Conventions:

- temps are written once per innermost iteration, except accumulators,
  which may be re-assigned (``acc = acc + x``);
- loop bounds are expressions over params, loop vars, and temps (CSR
  inner loops read their bounds from row_ptr loads);
- arrays are named; the runtime binds names to simulated arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Set, Tuple, Union

# -- expressions ------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Union[int, float]


@dataclass(frozen=True)
class Var:
    """A loop variable, kernel parameter, or temp."""

    name: str


@dataclass(frozen=True)
class Bin:
    op: str  # one of _BIN_OPS
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Const, Var, Bin]

_BIN_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
    "min": min,
    "max": max,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def eval_expr(expr: Expr, env: dict):
    """Evaluate an expression against a {name: value} environment."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise NameError(f"unbound name {expr.name!r} in kernel expression")
    if isinstance(expr, Bin):
        op = _BIN_OPS.get(expr.op)
        if op is None:
            raise ValueError(f"unknown operator {expr.op!r}")
        return op(eval_expr(expr.lhs, env), eval_expr(expr.rhs, env))
    raise TypeError(f"not an expression: {expr!r}")


def expr_vars(expr: Expr) -> Set[str]:
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Bin):
        return expr_vars(expr.lhs) | expr_vars(expr.rhs)
    raise TypeError(f"not an expression: {expr!r}")


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality (frozen dataclasses make this ==)."""
    return a == b


# -- statements -------------------------------------------------------------


@dataclass
class LoadStmt:
    """``dest = array[index]``"""

    dest: str
    array: str
    index: Expr
    stmt_id: int = field(default=-1, compare=False)


@dataclass
class StoreStmt:
    """``array[index] = value``"""

    array: str
    index: Expr
    value: Expr
    stmt_id: int = field(default=-1, compare=False)


@dataclass
class ComputeStmt:
    """``dest = expr`` taking ``cycles`` ALU cycles."""

    dest: str
    expr: Expr
    cycles: int = 1
    stmt_id: int = field(default=-1, compare=False)


@dataclass
class ForStmt:
    """``for var in range(lo, hi): body``"""

    var: str
    lo: Expr
    hi: Expr
    body: List["Stmt"]
    stmt_id: int = field(default=-1, compare=False)


@dataclass
class IfStmt:
    """``if cond: body`` — value-dependent control (Execute-side only)."""

    cond: Expr
    body: List["Stmt"]
    stmt_id: int = field(default=-1, compare=False)


@dataclass
class FetchAddStmt:
    """``dest = atomic_fetch_add(array[index], amount)``.

    The OpenMP-style shared-counter append used by parallel BFS frontier
    construction.  A memory-write operation, so it always belongs to the
    Execute slice.
    """

    dest: str
    array: str
    index: Expr
    amount: Expr
    stmt_id: int = field(default=-1, compare=False)


Stmt = Union[LoadStmt, StoreStmt, ComputeStmt, ForStmt, IfStmt, FetchAddStmt]


@dataclass
class Kernel:
    """A named kernel over declared arrays and scalar params.

    ``benign_race_arrays`` is the software-level contract of §3.6: the
    programmer/DSL asserts that in-epoch writes to these arrays are
    idempotent check-and-set updates (BFS's ``dist``), so reading a stale
    value through MAPLE is safe.  The RMW analysis trusts the annotation;
    unannotated indirect RMWs (SPMM's accumulator) block decoupling.
    """

    name: str
    arrays: Sequence[str]
    params: Sequence[str]
    body: List[Stmt]
    benign_race_arrays: Sequence[str] = ()

    def __post_init__(self) -> None:
        counter = itertools.count()
        for stmt, _parents in walk(self.body):
            if not isinstance(stmt, (LoadStmt, StoreStmt, ComputeStmt,
                                     ForStmt, IfStmt, FetchAddStmt)):
                raise TypeError(f"not a statement: {stmt!r}")
            stmt.stmt_id = next(counter)
        self._validate()

    def _validate(self) -> None:
        arrays = set(self.arrays)
        bound = set(self.params)
        self._validate_body(self.body, arrays, set(bound))

    def _validate_body(self, body: List[Stmt], arrays: Set[str],
                       bound: Set[str]) -> None:
        for stmt in body:
            if isinstance(stmt, LoadStmt):
                self._check_names(stmt, expr_vars(stmt.index), bound)
                self._check_array(stmt, stmt.array, arrays)
                bound.add(stmt.dest)
            elif isinstance(stmt, ComputeStmt):
                self._check_names(stmt, expr_vars(stmt.expr) - {stmt.dest}, bound)
                bound.add(stmt.dest)
            elif isinstance(stmt, StoreStmt):
                self._check_names(stmt, expr_vars(stmt.index) | expr_vars(stmt.value),
                                  bound)
                self._check_array(stmt, stmt.array, arrays)
            elif isinstance(stmt, ForStmt):
                self._check_names(stmt, expr_vars(stmt.lo) | expr_vars(stmt.hi), bound)
                inner = set(bound)
                inner.add(stmt.var)
                self._validate_body(stmt.body, arrays, inner)
                # Temps defined inside a loop stay out of the outer scope,
                # except accumulators seeded before the loop (already bound).
            elif isinstance(stmt, IfStmt):
                self._check_names(stmt, expr_vars(stmt.cond), bound)
                self._validate_body(stmt.body, arrays, set(bound))
            elif isinstance(stmt, FetchAddStmt):
                self._check_names(stmt, expr_vars(stmt.index) | expr_vars(stmt.amount),
                                  bound)
                self._check_array(stmt, stmt.array, arrays)
                bound.add(stmt.dest)
            else:
                raise TypeError(f"not a statement: {stmt!r}")

    def _check_names(self, stmt: Stmt, names: Set[str], bound: Set[str]) -> None:
        missing = names - bound
        if missing:
            raise ValueError(
                f"kernel {self.name}: statement {stmt!r} uses unbound "
                f"name(s) {sorted(missing)}"
            )

    def _check_array(self, stmt: Stmt, array: str, arrays: Set[str]) -> None:
        if array not in arrays:
            raise ValueError(
                f"kernel {self.name}: statement {stmt!r} references "
                f"undeclared array {array!r}"
            )

    def all_statements(self) -> Iterator[Tuple[Stmt, Tuple[Stmt, ...]]]:
        return walk(self.body)


def walk(body: List[Stmt], parents: Tuple[Stmt, ...] = ()
         ) -> Iterator[Tuple[Stmt, Tuple[Stmt, ...]]]:
    """Yield (stmt, enclosing-statements) depth-first in program order."""
    for stmt in body:
        yield stmt, parents
        if isinstance(stmt, (ForStmt, IfStmt)):
            yield from walk(stmt.body, parents + (stmt,))
