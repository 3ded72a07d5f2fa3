"""Set-associative cache with true-LRU replacement and MESI line states.

The cache is a tag store only: it answers "is this line present, in what
coherence state, and what gets evicted if I insert?".  Data stays in
:class:`PhysicalMemory`.  This is exactly the state the paper's effects
depend on — software prefetching thrashes the 8 KB L1 because prefetched
lines evict live ones, which this structure reproduces faithfully.

Each resident line carries a :class:`~repro.mem.coherence.LineState`
(MODIFIED replaces the old boolean dirty bit; EXCLUSIVE/SHARED are the
clean states).  The state *transitions* are owned by
:class:`~repro.mem.coherence.CoherenceBook` — this class only stores
what it is told via :meth:`insert` / :meth:`set_state`.

Quiescence audit (engine contract, see DESIGN.md): the cache is pure
synchronous state — it never schedules events, and its latencies are
charged by the hierarchy only on accesses that happen.  An idle bank
contributes zero events regardless of mesh size.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.mem.coherence import LineState
from repro.params import cache_set_count


@dataclass
class EvictedLine:
    """What :meth:`Cache.insert` displaced (MODIFIED = needs writeback)."""

    line: int
    state: LineState


class Cache:
    """Tags + LRU + MESI states for a size/ways/line_size geometry."""

    def __init__(self, size: int, ways: int, line_size: int, name: str = "cache"):
        self.name = name
        self.size = size
        self.ways = ways
        self.line_size = line_size
        self.num_sets = cache_set_count(size, ways, line_size, name)
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set maps line -> LineState; OrderedDict order is LRU order
        # (least recent first).  INVALID is never stored — absence IS the
        # invalid state.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]

    def _set_for(self, line: int) -> OrderedDict:
        # ``line`` is a line-aligned byte address; the set index comes from
        # the bits just above the offset, as in real tag arrays.
        return self._sets[(line >> self._line_shift) & self._set_mask]

    def lookup(self, line: int) -> bool:
        """Probe for a line; a hit refreshes its LRU position."""
        # Single-probe fast path: move_to_end does the presence check
        # (and _set_for is inlined: one call per probe).
        entry = self._sets[(line >> self._line_shift) & self._set_mask]
        try:
            entry.move_to_end(line)
            return True
        except KeyError:
            return False

    def contains(self, line: int) -> bool:
        """Probe without disturbing LRU state (for assertions/snoops)."""
        return line in self._sets[(line >> self._line_shift) & self._set_mask]

    def insert(self, line: int,
               state: LineState = LineState.SHARED) -> Optional[EvictedLine]:
        """Install a line, returning the victim if the set was full.

        Inserting a line that is already present refreshes LRU and keeps
        the stronger state (a fill never downgrades a MODIFIED line).
        """
        if state is LineState.INVALID:
            raise ValueError(f"{self.name}: cannot insert line {line:#x} INVALID")
        entry = self._set_for(line)
        # Collapsed present-probe: pop-and-reappend both tests residency
        # and refreshes LRU in one dict operation each.
        prev = entry.pop(line, None)
        if prev is not None:
            entry[line] = prev if prev >= state else state
            return None
        victim = None
        if len(entry) >= self.ways:
            victim_line, victim_state = entry.popitem(last=False)
            victim = EvictedLine(victim_line, victim_state)
        entry[line] = state
        return victim

    def set_state(self, line: int, state: LineState) -> None:
        """Coherence transition on a resident line (store upgrade to
        MODIFIED, downgrade to SHARED, ...)."""
        entry = self._set_for(line)
        if line not in entry:
            raise KeyError(
                f"{self.name}: cannot set state of absent line {line:#x}")
        if state is LineState.INVALID:
            raise ValueError(
                f"{self.name}: use invalidate() to drop line {line:#x}")
        entry[line] = state

    def state_of(self, line: int) -> LineState:
        """The line's MESI state (INVALID when absent; no LRU update)."""
        entry = self._set_for(line)
        return entry.get(line, LineState.INVALID)

    def invalidate(self, line: int) -> Optional[LineState]:
        """Drop a line (coherence invalidation).  Returns the state it
        held, or ``None`` if it was absent."""
        entry = self._set_for(line)
        return entry.pop(line, None)

    def flush(self) -> None:
        """Drop every line, MODIFIED ones included (power-on / test
        reset, not a writeback flush)."""
        for entry in self._sets:
            entry.clear()

    def occupancy(self) -> int:
        return sum(len(entry) for entry in self._sets)

    def resident_lines(self) -> List[int]:
        return [line for entry in self._sets for line in entry]

    def __repr__(self) -> str:
        return (
            f"<Cache {self.name} {self.size}B {self.ways}-way "
            f"{self.num_sets} sets, {self.occupancy()} lines resident>"
        )
