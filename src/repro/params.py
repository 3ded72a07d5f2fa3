"""Central SoC configuration, mirroring Tables 2 and 3 of the paper.

Every component takes its structural and timing parameters from a
:class:`SoCConfig`.  One preset, :data:`FPGA_CONFIG`, is the machine
every figure starts from: the OpenPiton+Ariane FPGA prototype of Table 2,
with single-issue in-order cores, 8 KB 4-way L1s at 2 cycles, a shared
64 KB 8-way L2 at 30 cycles, and 300-cycle DRAM.

Table 3's MosaicSim setup shares those cores, caches and DRAM latency.
Its larger DRAM in-flight cap never binds on these workloads (mean
occupancy stays below 7 of the 16 slots), so the prior-work comparison
(Fig. 12) runs on the same preset.  Sweeps derive variants with
:meth:`SoCConfig.with_overrides`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Dict


def cache_set_count(size: int, ways: int, line_size: int,
                    name: str = "cache") -> int:
    """The number of sets of a ``size``-byte, ``ways``-way cache.

    The one home of the cache geometry rule, checked by both
    :class:`SoCConfig` and :class:`repro.mem.cache.Cache`: the size must
    divide into ``ways``-way sets of ``line_size`` bytes, and the set
    count must be a power of two (the set index is a bit field).
    """
    if size % (ways * line_size):
        raise ValueError(f"{name}: size {size} not divisible into "
                         f"{ways}-way sets")
    sets = size // (ways * line_size)
    if sets & (sets - 1):
        raise ValueError(f"{name}: {sets} sets is not a power of two")
    return sets


@dataclass(frozen=True)
class SoCConfig:
    """All structural and timing knobs of the simulated SoC."""

    name: str = "openpiton-maple"

    # Cores (Table 2: RISCV64 Ariane, 6-stage in-order, 1 thread/core).
    num_cores: int = 2

    # Caches. Latencies are load-to-use costs in cycles.
    line_size: int = 64
    l1_size: int = 8 * 1024
    l1_ways: int = 4
    l1_latency: int = 2
    l2_size: int = 64 * 1024
    l2_ways: int = 8
    l2_latency: int = 30
    #: Outstanding L1 misses a core sustains (demand + software prefetch).
    #: Ariane's blocking write-through L1 supports one — which is exactly
    #: why software prefetching loses on this class of core (§5.1).
    core_mshrs: int = 1
    #: Store-buffer depth: ordinary stores retire immediately and complete
    #: in the background; the core stalls only when the buffer is full.
    #: MMIO stores (MAPLE produces) bypass it — they are synchronous and
    #: return once MAPLE acknowledges them (§3.6).
    store_buffer_entries: int = 8

    # DRAM (Table 2: DDR3, 300-cycle latency; Table 3 adds 68 GB/s).
    dram_latency: int = 300
    dram_max_inflight: int = 16

    # NoC: 2D mesh, XY routing (OpenPiton P-Mesh style).
    mesh_cols: int = 2
    mesh_rows: int = 2
    hop_latency: int = 1
    noc_encode_latency: int = 1
    noc_decode_latency: int = 1
    # Private-cache path cost an MMIO request pays before reaching the NoC
    # (L1 miss handling + L1.5 passthrough; see Fig. 14).
    mmio_path_latency: int = 8

    # MAPLE (Table 2: 1 instance, 1 KB scratchpad; §5.3/§5.4: 8 queues of
    # 32 entries x 4 B; 16-entry fully associative TLB, like the cores).
    maple_instances: int = 1
    #: Where MAPLE tiles sit on the mesh.  ``legacy`` (the default, and
    #: the bit-identity baseline) packs them row-major right after the
    #: cores; ``edge`` / ``center`` / ``per-quadrant`` are the sweepable
    #: geometric policies (see :func:`repro.noc.mesh.placement_tiles`).
    #: Cores then fill the remaining tiles in ascending tile order and
    #: bind to their nearest instance (driver assignment map, §5.3).
    maple_placement: str = "legacy"
    scratchpad_bytes: int = 1024
    maple_num_queues: int = 8
    queue_entry_bytes: int = 4
    maple_tlb_entries: int = 16
    maple_max_inflight: int = 32
    maple_pipeline_latency: int = 3
    produce_buffer_entries: int = 4

    # Virtual memory (Sv39-like three-level pages of 4 KB).
    page_size: int = 4096
    core_tlb_entries: int = 16

    # Data integrity.  ``reliable_ports`` arms sequence-number + checksum
    # ack/timeout/retransmit on every Port (zero added cycles while no
    # lossy-link fault is injected); ``ecc`` arms the SECDED model on
    # DRAM reads and scratchpad slots (correct single-bit flips, poison
    # double-bit flips); ``poison_refetch_limit`` bounds how many times a
    # consumer re-fetches a poisoned line before raising a typed
    # DataIntegrityError.  Retry timeout, retry count and backoff are
    # :class:`~repro.sim.port.Port`'s own defaults.
    reliable_ports: bool = False
    ecc: bool = True
    poison_refetch_limit: int = 3

    # Sliced-L2 home-node directory (MemPool-class meshes).  Opt-in:
    # with ``directory=False`` (the default) coherence round trips are
    # charged as flat L2 latencies exactly as before, keeping every
    # existing config bit-identical.  With ``directory=True`` the L2's
    # directory state is address-interleaved across ``directory_slices``
    # home tiles and every invalidation / ownership-transfer round trip
    # becomes real Port traffic on the NoC planes (visible to taps,
    # faults, and reliable delivery) — see ``repro/mem/directory.py``.
    directory: bool = False
    directory_slices: int = 4
    #: Route L2 refill and dirty-writeback traffic over the MEMORY NoC
    #: plane as real ``dir_refill``/``dir_writeback`` port messages
    #: between each home slice and the memory-controller tile (requires
    #: ``directory=True``).  Off by default: refills stay direct DRAM
    #: calls and the default timing is bit-identical.
    directory_mem_traffic: bool = False
    #: Mesh tile the DRAM controller sits at (the far end of the
    #: MEMORY-plane refill/writeback routes).  Tile 0 is the top-left
    #: corner, matching OpenPiton's edge-attached memory controller.
    mem_ctrl_tile: int = 0

    def __post_init__(self) -> None:
        if self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a power of two")
        cache_set_count(self.l1_size, self.l1_ways, self.line_size, "l1")
        cache_set_count(self.l2_size, self.l2_ways, self.line_size, "l2")
        if self.page_size % self.line_size:
            raise ValueError("page_size must be a multiple of line_size")
        if self.scratchpad_bytes % self.maple_num_queues:
            raise ValueError("scratchpad must divide evenly across queues")
        if self.maple_placement not in ("legacy", "edge", "center",
                                        "per-quadrant"):
            raise ValueError(
                f"unknown maple_placement {self.maple_placement!r}")
        if self.directory_slices < 1:
            raise ValueError("directory needs at least one home slice")
        if self.directory_mem_traffic and not self.directory:
            raise ValueError("directory_mem_traffic requires directory=True")
        if not 0 <= self.mem_ctrl_tile < self.mesh_cols * self.mesh_rows:
            raise ValueError("mem_ctrl_tile must be a valid mesh tile")

    @property
    def queue_entries(self) -> int:
        """Entries per hardware queue (default 1024/8/4 = 32, per §5.3)."""
        return self.scratchpad_bytes // self.maple_num_queues // self.queue_entry_bytes

    @property
    def words_per_line(self) -> int:
        return self.line_size // 8

    def with_overrides(self, **kwargs) -> "SoCConfig":
        """A copy with some fields replaced (used by sensitivity sweeps)."""
        return replace(self, **kwargs)

    # -- stable identity (experiment caching) ----------------------------------

    def stable_dict(self) -> Dict[str, object]:
        """Every field as plain JSON-able values, in declaration order.

        This is the canonical form the experiment cache hashes, so two
        configs hash equal iff every structural and timing knob matches.
        """
        return asdict(self)

    def stable_hash(self) -> str:
        """Hex digest identifying this exact configuration."""
        payload = json.dumps(self.stable_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


#: Tables 2 and 3 — the FPGA-emulated SoC prototype every figure starts from.
FPGA_CONFIG = SoCConfig(name="fpga-openpiton")
