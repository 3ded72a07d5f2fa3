"""Instruction descriptors yielded by thread programs.

These are deliberately ISA-agnostic — MAPLE's core requirement is only
that the host core can issue loads and stores (§3.6), so the model needs
nothing richer.  Virtual addresses are used everywhere; the core's MMU
translates.
"""

from __future__ import annotations

from typing import Any, Callable


class Alu:
    """``cycles`` of computation (address arithmetic, FP ops, branches)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int = 1):
        if cycles < 1:
            raise ValueError("Alu must take at least one cycle")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Alu({self.cycles})"


class Load:
    """A blocking load from a virtual address; yields the value."""

    __slots__ = ("vaddr",)

    def __init__(self, vaddr: int):
        self.vaddr = vaddr

    def __repr__(self) -> str:
        return f"Load({self.vaddr:#x})"


class Spin:
    """A software poll: ``Load(vaddr)`` until the value exceeds
    ``above``, with ``Alu(backoff)`` between loads; yields the first
    value above ``above``.

    One instruction for the whole wait, but every iteration is charged
    and counted exactly as the ``Load``/``Alu`` pair it stands for.
    """

    __slots__ = ("vaddr", "above", "backoff")

    def __init__(self, vaddr: int, above: Any, backoff: int):
        if backoff < 1:
            raise ValueError("Spin backoff must take at least one cycle")
        self.vaddr = vaddr
        self.above = above
        self.backoff = backoff

    def __repr__(self) -> str:
        return f"Spin({self.vaddr:#x}, above={self.above!r}, backoff={self.backoff})"


class Store:
    """A blocking store of ``value`` to a virtual address."""

    __slots__ = ("vaddr", "value")

    def __init__(self, vaddr: int, value: Any):
        self.vaddr = vaddr
        self.value = value

    def __repr__(self) -> str:
        return f"Store({self.vaddr:#x})"


class Prefetch:
    """A non-blocking software prefetch into the local L1."""

    __slots__ = ("vaddr",)

    def __init__(self, vaddr: int):
        self.vaddr = vaddr

    def __repr__(self) -> str:
        return f"Prefetch({self.vaddr:#x})"


class Amo:
    """Atomic read-modify-write; yields the old value."""

    __slots__ = ("vaddr", "op")

    def __init__(self, vaddr: int, op: Callable[[Any], Any]):
        self.vaddr = vaddr
        self.op = op

    def __repr__(self) -> str:
        return f"Amo({self.vaddr:#x})"


class Sync:
    """Wait at a shared barrier (OpenMP-style epoch synchronization)."""

    __slots__ = ("barrier",)

    def __init__(self, barrier):
        self.barrier = barrier

    def __repr__(self) -> str:
        return f"Sync({self.barrier.name})"
