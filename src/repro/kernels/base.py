"""Workload interfaces shared by the technique runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.compiler.ir import Kernel
from repro.compiler.interp import Runtime, interpret


@dataclass
class WorkloadBinding:
    """A kernel bound to simulated arrays, ready to partition and run.

    ``partition_params`` names the two params that bound the outer loop;
    :meth:`run_slice` interprets one thread's block of ``[0,
    total_iterations)`` through them.  ``check`` reads simulated memory
    (functionally, zero-time) and raises AssertionError on a wrong
    result.
    """

    kernel: Kernel
    runtime: Runtime
    partition_params: Tuple[str, str]
    total_iterations: int
    check: Callable[[], None]
    #: (index array name, data array name) pairs DROPLET should be taught,
    #: mirroring its data-structure knowledge of each workload.
    droplet_indirections: Tuple[Tuple[str, str], ...] = ()

    def slice_params(self, thread: int, num_threads: int) -> Dict[str, int]:
        """Contiguous block partition of the outer loop for one thread."""
        if not 0 <= thread < num_threads:
            raise ValueError("thread index out of range")
        per = (self.total_iterations + num_threads - 1) // num_threads
        lo = min(thread * per, self.total_iterations)
        hi = min(lo + per, self.total_iterations)
        return {self.partition_params[0]: lo, self.partition_params[1]: hi}

    @property
    def arrays(self) -> Dict[str, object]:
        return self.runtime.arrays

    def slice_runner(self, threads: int):
        """How each of ``threads`` threads runs its slice: see
        :meth:`run_slice`."""
        return self.run_slice

    def run_slice(self, role, index: int, count: int, bookkeeper: bool,
                  end_of_slice=None):
        """Generator: interpret block ``index`` of ``count`` of the outer
        loop once, then run the ``end_of_slice`` hook (a queue flush or
        store drain), if any.  Loop workloads keep no books."""
        runtime = self.runtime.with_params(**self.slice_params(index, count))
        yield from interpret(self.kernel, runtime, role)
        if end_of_slice is not None:
            yield from end_of_slice()


def assert_close(got, expected, rtol: float, atol: float = 0.0) -> None:
    """Raise AssertionError unless ``got`` matches ``expected`` elementwise.

    The test is numpy's ``assert_allclose``: ``|got - expected| <= atol +
    rtol * |expected|``, with NaN equal to NaN and an infinity equal only
    to itself.  Shapes must be equal (no broadcasting).  It lives here
    because numpy's testing package imports ``unittest``, ``email`` and
    ``difflib``, tens of milliseconds that every worker process would
    pay for its first check.
    """
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape:
        raise AssertionError(
            f"shape mismatch: got {got.shape}, expected {expected.shape}")
    ok = np.isclose(got, expected, rtol=rtol, atol=atol, equal_nan=True)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        first = np.unravel_index(bad[0], got.shape)
        raise AssertionError(
            f"{bad.size} of {ok.size} elements differ beyond rtol={rtol}, "
            f"atol={atol}; first at {first}: got {got[first]!r}, "
            f"expected {expected[first]!r}")


class LoopWorkload:
    """Base class for IR-expressed workloads (SDHP, SPMV, SPMM).

    Subclasses implement :meth:`default_dataset` and :meth:`bind`.
    ``scale`` trades simulation time against working-set size; defaults
    keep the irregularly accessed array far beyond the L2.
    """

    name: str = "loop-workload"

    def default_dataset(self, scale: int = 1, seed: int = 0):
        raise NotImplementedError

    def bind(self, soc, aspace, dataset) -> WorkloadBinding:
        raise NotImplementedError
