"""Statistics collection for simulations and the evaluation harness.

Components register counters and histograms in a shared :class:`Stats`
registry; the harness reads them to regenerate the paper's figures
(e.g. load counts for Fig. 10, load-latency averages for Fig. 11).

Hot-path protocol: a component resolves its counters **once** at
construction time — ``self._hits = stats.counter("l2.hits")`` — and then
increments the bound :class:`Counter` handle (``self._hits.value += 1``)
per event.  Handles keep the registry's dotted-key namespace for
reporting while removing every per-event f-string build and dict probe.
The string-keyed :meth:`Stats.bump` / :meth:`Stats.get` API remains for
cold paths and tests.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable


class Counter:
    """A single named statistic, bound to one slot in a :class:`Stats`.

    ``value`` is public on purpose: hot paths do ``counter.value += n``
    with no function call.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def __repr__(self) -> str:
        return f"<Counter {self.value}>"


class Histogram:
    """Streaming histogram: count / sum / min / max, no per-sample list."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        if not self.count:
            return "<Histogram empty>"
        return f"<Histogram n={self.count} mean={self.mean:.2f} min={self.min} max={self.max}>"


class Stats:
    """A flat, namespaced registry of counters and histograms.

    Keys are dotted strings such as ``"core0.loads"`` or
    ``"maple.produce_ptr"``.  Missing counters read as zero, so reporting
    code does not need to special-case components that never fired.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, key: str) -> Counter:
        """The bound handle for ``key`` (created at zero if absent)."""
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter()
        return handle

    def bump(self, key: str, amount: int = 1) -> None:
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter()
        handle.value += amount

    def get(self, key: str) -> int:
        handle = self._counters.get(key)
        return handle.value if handle is not None else 0

    @property
    def counters(self) -> Dict[str, int]:
        """Plain ``{key: value}`` view of every registered counter."""
        return {key: handle.value for key, handle in self._counters.items()}

    def observe(self, key: str, value: float) -> None:
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.add(value)

    def histogram(self, key: str) -> Histogram:
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        return hist

    def scoped(self, prefix: str) -> "ScopedStats":
        """A view that prepends ``prefix.`` to every key."""
        return ScopedStats(self, prefix)

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of all counters and histogram means (for reports)."""
        out: Dict[str, float] = self.counters
        for key, hist in self.histograms.items():
            out[f"{key}.mean"] = hist.mean
            out[f"{key}.count"] = hist.count
        return out


class ScopedStats:
    """Prefix view over a :class:`Stats` registry."""

    def __init__(self, stats: Stats, prefix: str):
        self._stats = stats
        self._prefix = prefix

    def counter(self, key: str) -> Counter:
        return self._stats.counter(f"{self._prefix}.{key}")

    def bump(self, key: str, amount: int = 1) -> None:
        self._stats.bump(f"{self._prefix}.{key}", amount)

    def get(self, key: str) -> int:
        return self._stats.get(f"{self._prefix}.{key}")

    def observe(self, key: str, value: float) -> None:
        self._stats.observe(f"{self._prefix}.{key}", value)

    def histogram(self, key: str) -> Histogram:
        return self._stats.histogram(f"{self._prefix}.{key}")


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, as used for every summary number in the paper."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
