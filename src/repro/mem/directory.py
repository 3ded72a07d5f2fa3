"""Address-interleaved home-node directory over per-tile L2 slices.

On MemPool-class meshes (16x16 and up) the shared L2 is physically
sliced: each line has a *home* tile chosen by address interleaving, and
the home's directory bank arbitrates write ownership.  This module makes
that structure real in the model — and, crucially, makes the coherence
*messages* real: every invalidation and ownership-transfer round trip is
a :class:`~repro.sim.port.Port` transaction whose request/response legs
ride the NoC planes through :meth:`repro.noc.network.Network.link`.  The
traffic is therefore visible to per-port taps, countable per plane,
subject to injected channel faults, and protected by reliable delivery
when ``SoCConfig.reliable_ports`` is armed — none of which a fixed
``yield l2_latency`` charge (the ``directory=False`` legacy model in
:mod:`repro.mem.hierarchy`) can offer.

Protocol (MESI, invalidate-based; the state machine itself lives in
:mod:`repro.mem.coherence` and is shared with the legacy backend):

- **Silent grant** — a store whose line has no other sharer upgrades
  locally: the L1's EXCLUSIVE/MODIFIED state already implies
  exclusivity, so no message is sent.  This is what keeps a single-core
  run cycle-identical whether the directory is on or off (a property
  test enforces it).
- **Upgrade** — a store to a line other cores share sends ``dir_upgrade``
  to the line's home tile (request plane out, response plane back).  The
  home serializes per line, fans ``dir_inval`` messages out to every
  other sharer *in parallel* (each one a home->sharer port transaction
  that invalidates the sharer's L1 copy and acks back), then grants
  ownership to the requester.
- **Ownership transfer** — a load of a line MODIFIED in another L1 sends
  ``dir_fetch`` to the home; the home recalls the data with a
  ``dir_recall`` to the owner (who downgrades to shared-clean and loses
  write ownership) and answers the requester.
- **Refill / writeback** (``SoCConfig.directory_mem_traffic``) — an L2
  miss sends ``dir_refill`` from the line's home slice to the memory
  controller tile over the MEMORY NoC plane (the DRAM access happens
  server-side); evicting a MODIFIED L2 line fires an asynchronous
  ``dir_writeback`` the same way.  Off by default: the memory plane
  stays silent and refills are direct DRAM calls, bit-identical to the
  legacy timing.

The directory's MESI state lives *in the slices themselves*: building
the directory shards the hierarchy's :class:`~repro.mem.coherence.
CoherenceBook` by :meth:`slice_of`, so each home bank literally owns the
``line -> (sharers, owner)`` entries it arbitrates.  :meth:`_grant`
hard-checks the single-writer invariant at every grant — a violation
raises :class:`DirectoryError` rather than letting two writers coexist
silently.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Sequence, Tuple

from repro.mem.coherence import LineState
from repro.noc import Network, Plane
from repro.params import SoCConfig
from repro.sim import Semaphore, Simulator
from repro.sim.port import Message, Port, PortRegistry
from repro.sim.stats import Stats

if TYPE_CHECKING:
    from repro.mem.hierarchy import MemorySystem

#: Bounded audit ring: (cycle, event, line, core, detail) records.  The
#: property tests replay these against the sharer sets; the bound keeps
#: long directory-on experiments from accumulating unbounded history.
AUDIT_DEPTH = 1 << 16


class DirectoryError(RuntimeError):
    """The single-writer invariant was about to be violated."""


class Directory:
    """Home-node directory: per-tile slices, NoC-carried coherence traffic."""

    def __init__(self, sim: Simulator, memsys: "MemorySystem",
                 network: Network, registry: PortRegistry,
                 home_tiles: Sequence[int], core_tiles: Dict[int, int],
                 config: SoCConfig, stats: Stats):
        if not home_tiles:
            raise ValueError("directory needs at least one home tile")
        self._sim = sim
        self._memsys = memsys
        self.home_tiles: List[int] = list(home_tiles)
        self._nslices = len(self.home_tiles)
        self._line_size = config.line_size
        #: The shared MESI state machine, sharded so each home bank owns
        #: the entries for its own lines.
        self._book = memsys.book
        self._book.shard(self._nslices, self.slice_of)
        self.stats = stats.scoped("directory")
        self._c_upgrades = self.stats.counter("upgrades")
        self._c_silent_grants = self.stats.counter("silent_grants")
        self._c_invalidations = self.stats.counter("invalidations")
        self._c_transfers = self.stats.counter("transfers")
        self._c_refills = self.stats.counter("refills")
        self._c_writebacks = self.stats.counter("writebacks")
        self._c_slice_lookups = [self.stats.counter(f"slice{i}.lookups")
                                 for i in range(self._nslices)]
        #: Per-line home serialization (created on demand, reaped when idle).
        self._locks: Dict[int, Semaphore] = {}
        #: Audit ring the property tests check invariants against.
        self.audit: Deque[Tuple[int, str, int, int, Any]] = deque(
            maxlen=AUDIT_DEPTH)

        # Port fabric: per core, one request pair (core tile -> home, the
        # dst tile is set per message so the NoC charges the real route)
        # and one invalidation pair (home -> core tile).  All four legs
        # ride the request/response planes exactly like MMIO traffic.
        self._req_ports: Dict[int, Port] = {}
        self._inval_ports: Dict[int, Port] = {}
        depth = 1 + config.core_mshrs + config.store_buffer_entries
        for core_id, tile in sorted(core_tiles.items()):
            req = registry.port(f"core{core_id}.dir", tile=tile, depth=depth)
            srv = registry.port(f"dir.core{core_id}", tile=-1)
            srv.bind(self._serve_home)
            registry.connect(req, srv,
                             request_link=network.link(Plane.REQUEST),
                             response_link=network.link(Plane.RESPONSE))
            self._req_ports[core_id] = req
            inv = registry.port(f"dir.inval{core_id}", tile=-1)
            inv_srv = registry.port(f"core{core_id}.inval", tile=tile)
            inv_srv.bind(self._make_core_handler(core_id))
            registry.connect(inv, inv_srv,
                             request_link=network.link(Plane.REQUEST),
                             response_link=network.link(Plane.RESPONSE))
            self._inval_ports[core_id] = inv

        # MEMORY-plane fabric (opt-in): per slice, home tile -> memory
        # controller tile, carrying dir_refill/dir_writeback messages.
        self._mem_ports: List[Port] = []
        if config.directory_mem_traffic:
            for index, tile in enumerate(self.home_tiles):
                mem_req = registry.port(f"dir.slice{index}.mem", tile=tile,
                                        depth=config.dram_max_inflight)
                mem_srv = registry.port(f"mem.slice{index}",
                                        tile=config.mem_ctrl_tile)
                mem_srv.bind(self._serve_memory)
                registry.connect(mem_req, mem_srv,
                                 request_link=network.link(Plane.MEMORY),
                                 response_link=network.link(Plane.MEMORY))
                self._mem_ports.append(mem_req)

    # -- geometry ----------------------------------------------------------

    def slice_of(self, line: int) -> int:
        """Home slice of a line: consecutive lines interleave round-robin."""
        return (line // self._line_size) % self._nslices

    def home_tile(self, line: int) -> int:
        return self.home_tiles[self.slice_of(line)]

    def has_pending(self, line: int) -> bool:
        """True while a home transaction for ``line`` is being served (or
        queued) — the window in which silent upgrades are unsafe."""
        return line in self._locks

    @property
    def owners(self) -> Dict[int, int]:
        """``line -> owning core`` across every slice (the book's
        ownership ledger: MODIFIED holders plus clean EXCLUSIVE fills)."""
        return self._book.owners()

    # -- requester-side entry points (called from the hierarchy) -----------

    def grant_silent(self, line: int, core_id: int) -> None:
        """Zero-message upgrade: the requester is the only sharer (or the
        line is nowhere), so its L1 state already implies exclusivity."""
        self._c_silent_grants.value += 1
        self._grant(line, core_id, silent=True)

    def upgrade(self, core_id: int, line: int):
        """Generator: store-upgrade round trip through the line's home.

        Returns the number of sharers invalidated, or None when the grant
        was void (the requester's copy was invalidated while its upgrade
        queued at the home).
        """
        port = self._req_ports[core_id]
        return (yield from port.request("dir_upgrade", (line, core_id),
                                        dst=self.home_tile(line)))

    def fetch(self, core_id: int, line: int):
        """Generator: ownership-transfer round trip for a load of a line
        MODIFIED in another L1.  Returns the number of recalls issued."""
        port = self._req_ports[core_id]
        return (yield from port.request("dir_fetch", (line, core_id),
                                        dst=self.home_tile(line)))

    def refill(self, line: int):
        """Generator: an L2 miss's DRAM fetch, as a home-slice ->
        memory-controller round trip on the MEMORY plane."""
        return (yield from self._mem_ports[self.slice_of(line)].request(
            "dir_refill", line))

    def writeback_async(self, line: int) -> None:
        """Fire-and-forget: a MODIFIED L2 victim's writeback crosses the
        MEMORY plane in the background (eviction is synchronous; the
        dirty data drains to DRAM behind it)."""
        self._sim.spawn(
            self._mem_ports[self.slice_of(line)].request("dir_writeback",
                                                         line),
            name="dir.writeback")

    # -- home-side service -------------------------------------------------

    def _serve_home(self, msg: Message):
        """Generator: one directory transaction at the line's home bank."""
        line, core_id = msg.payload
        self._c_slice_lookups[self.slice_of(line)].value += 1
        lock = self._locks.get(line)
        if lock is None:
            lock = self._locks[line] = Semaphore(self._sim, 1,
                                                 name=f"dir.line{line:#x}")
        if not lock.try_acquire():
            yield from lock.acquire()
        try:
            if msg.kind == "dir_upgrade":
                count = yield from self._home_upgrade(line, core_id)
            elif msg.kind == "dir_fetch":
                count = yield from self._home_fetch(line, core_id)
            else:
                raise ValueError(f"directory: unknown request {msg.kind!r}")
        finally:
            lock.release()
            if not lock.in_use and not lock.waiting:
                self._locks.pop(line, None)
        return count

    def _serve_memory(self, msg: Message):
        """Generator: the memory-controller side of the MEMORY plane —
        one DRAM access per refill or writeback."""
        if msg.kind == "dir_refill":
            self._c_refills.value += 1
        elif msg.kind == "dir_writeback":
            self._c_writebacks.value += 1
        else:
            raise ValueError(f"directory: unknown memory request {msg.kind!r}")
        yield from self._memsys.dram.access(msg.payload)
        return None

    def _home_upgrade(self, line: int, core_id: int):
        # Re-read under the lock: the sharer set may have changed while
        # the request crossed the mesh or waited behind another writer.
        others = sorted(self._book.sharers_of(line) - {core_id})
        self.audit.append((self._sim.now, "upgrade", line, core_id,
                           tuple(others)))
        if others:
            yield from self._fan_out(line, others, "dir_inval")
        self._c_upgrades.value += 1
        self._c_invalidations.value += len(others)
        if not self._grant(line, core_id, silent=False):
            return None
        return len(others)

    def _home_fetch(self, line: int, core_id: int):
        holder = self._book.dirty_holder(line, excluding=core_id)
        if holder is None:
            return 0  # downgraded/evicted while the request was in flight
        yield from self._fan_out(line, [holder], "dir_recall")
        self._c_transfers.value += 1
        return 1

    def _fan_out(self, line: int, cores: Sequence[int], kind: str):
        """Generator: send ``kind`` to every core in parallel, join all.

        Each message is a full home->core->home port transaction (request
        NoC out, ack on the response NoC); fanning out concurrently means
        an upgrade pays the *max* sharer distance, not the sum.
        """
        home = self.home_tile(line)
        if len(cores) == 1:
            yield from self._inval_ports[cores[0]].request(
                kind, line, src=home)
            return
        procs = [self._sim.spawn(
            self._inval_ports[core].request(kind, line, src=home),
            name=f"dir.{kind}") for core in cores]
        for proc in procs:
            yield proc

    def _make_core_handler(self, core_id: int):
        """The core-tile side of the invalidation fabric: apply the
        protocol transition to this core's L1 through the shared book,
        then ack (zero service time — the cost is the two NoC
        traversals)."""
        def handler(msg: Message):
            if msg.kind == "dir_inval":
                self._book.invalidate(core_id, msg.payload)
            elif msg.kind == "dir_recall":
                self._book.downgrade(core_id, msg.payload)
            else:
                raise ValueError(f"directory: unknown inval {msg.kind!r}")
            self.audit.append((self._sim.now, msg.kind, msg.payload,
                               core_id, None))
            return None
            yield  # pragma: no cover — generator shape, zero latency
        return handler

    # -- ownership ledger --------------------------------------------------

    def _grant(self, line: int, core_id: int, silent: bool) -> bool:
        """Record a grant; False when it is void (the requester holds no
        copy)."""
        sharers = frozenset(self._book.sharers_of(line))
        l1s = self._memsys.l1s
        for other in sharers:
            if (other != core_id
                    and l1s[other].state_of(line) is LineState.MODIFIED):
                raise DirectoryError(
                    f"line {line:#x}: granting ownership to core {core_id} "
                    f"while core {other} still holds it MODIFIED")
        previous = self._book.owner_of(line)
        if (previous is not None and previous != core_id
                and l1s[previous].state_of(line) is LineState.MODIFIED):
            raise DirectoryError(
                f"line {line:#x}: core {previous} still owns the line "
                f"MODIFIED at grant to core {core_id}")
        live = core_id in sharers
        if live:
            # Ownership itself is recorded by the book when the store
            # lands (CoherenceBook.store, once the grant reaches the
            # requester).
            event = "grant_silent" if silent else "grant"
        else:
            # The requester's own copy was invalidated while its upgrade
            # was queued at the home; the grant is void.  The requester
            # skips the MODIFIED transition, or re-issues the upgrade if
            # it has refilled the line meanwhile.
            event = "grant_void"
        self.audit.append((self._sim.now, event, line, core_id, sharers))
        return live

    # -- telemetry ---------------------------------------------------------

    def debug_state(self) -> Dict[str, Any]:
        return {
            "slices": self._nslices,
            "home_tiles": list(self.home_tiles),
            "owned_lines": len(self.owners),
            "tracked_lines": self._book.pending_lines(),
            "locked_lines": sorted(self._locks),
        }

    def telemetry(self) -> Dict[str, int]:
        """Flat counter snapshot (upgrades/invalidations/transfers and
        the MEMORY-plane refill/writeback message counts)."""
        return {
            "upgrades": self._c_upgrades.value,
            "silent_grants": self._c_silent_grants.value,
            "invalidations": self._c_invalidations.value,
            "transfers": self._c_transfers.value,
            "refills": self._c_refills.value,
            "writebacks": self._c_writebacks.value,
        }


def interleaved_home_tiles(cols: int, rows: int, slices: int) -> List[int]:
    """Home tiles for ``slices`` L2 banks: the per-quadrant geometry, so
    directory traffic distributes across the mesh the way MemPool's
    physical L2 slices do."""
    from repro.noc.mesh import placement_tiles

    return placement_tiles(cols, rows, min(slices, cols * rows),
                           "per-quadrant")
