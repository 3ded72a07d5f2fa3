"""In-order core substrate.

Programs are Python generators that *yield instruction descriptors*
(:mod:`repro.cpu.isa`) to a :class:`~repro.cpu.core.Core`, which charges
cycles for each one: ALU ops take their latency, loads and stores block
in-order through the TLB and cache hierarchy (instruction window of 1,
matching Table 3), prefetches issue without blocking.  Yielding a ``Load``
evaluates to the loaded value, so kernels read like straight-line code;
a ``Spin`` is a software poll loop of loads and backoffs run as one
instruction.
"""

from repro.cpu.core import Core, Thread
from repro.cpu.isa import Alu, Amo, Load, Prefetch, Spin, Store, Sync

__all__ = ["Alu", "Amo", "Core", "Load", "Prefetch", "Spin", "Store", "Sync",
           "Thread"]
