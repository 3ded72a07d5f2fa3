"""The MAPLE Linux driver model (§3.5, §3.6).

The driver is the kernel half of the co-design:

- **attach**: maps a free MAPLE instance's physical page into the calling
  process (MMIO), points the instance's MMU at the process's page table,
  and installs the page-fault path — MAPLE's walker faults trap here, the
  driver reads the faulting address (Configuration pipeline) and maps the
  page if the access is valid.
- **placement**: when several instances exist, the nearest one (in mesh
  hops) to the requesting core is chosen, the policy §5.3 describes.
- **shootdowns**: the driver registers the Linux ``mmu_notifier``-style
  callback so ``munmap`` invalidates MAPLE's TLB along with the cores'.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.api import MapleApi
from repro.core.engine import Maple
from repro.noc import Mesh
from repro.vm.os_model import AddressSpace, SimOS


class MapleDriver:
    """Kernel-side management of every MAPLE instance in the SoC."""

    def __init__(self, os: SimOS, maples: List[Maple], mesh: Mesh):
        if not maples:
            raise ValueError("driver needs at least one MAPLE instance")
        self._os = os
        self._maples = maples
        self._mesh = mesh
        for maple in maples:
            os.register_shootdown_callback(maple.mmu.shootdown)
        self._attached = {}
        # Deterministic core->instance binding, fixed at boot the way the
        # §5.3 OS policy would compute it: every core tile binds to the
        # instance minimizing (mesh hops, instance id).  Pure geometry —
        # the same SoC layout yields the same map on every host, so the
        # map is part of a run's deterministic identity.
        self._assignment: Dict[int, int] = {
            tile.tile_id: self._nearest_instance(tile.tile_id).instance_id
            for tile in mesh.tiles.values()
            if tile.occupant is not None and tile.occupant.startswith("core")
        }

    def attachments(self) -> List[tuple]:
        """Current ``(asid, instance_id)`` attachments (diagnostics)."""
        return sorted(self._attached)

    def _nearest_instance(self, core_tile: int) -> Maple:
        return min(self._maples,
                   key=lambda m: (self._mesh.hops(core_tile, m.tile_id),
                                  m.instance_id))

    def assignment_map(self) -> Dict[int, int]:
        """The boot-time binding: core tile -> nearest instance id."""
        return dict(self._assignment)

    def mean_hops(self) -> float:
        """Mean core->assigned-MAPLE hop count across every core tile —
        the figure of merit the placement-policy sweeps compare."""
        if not self._assignment:
            return 0.0
        by_id = {m.instance_id: m for m in self._maples}
        total = sum(self._mesh.hops(tile, by_id[instance].tile_id)
                    for tile, instance in self._assignment.items())
        return total / len(self._assignment)

    def pick_instance(self, core_tile: Optional[int] = None) -> Maple:
        """Nearest instance to the requesting core; first one otherwise.

        Known core tiles resolve through the boot-time assignment map;
        unknown tiles (devices, tests poking arbitrary coordinates) fall
        back to computing the same (hops, instance id) minimum.
        """
        if core_tile is None or len(self._maples) == 1:
            return self._maples[0]
        instance = self._assignment.get(core_tile)
        if instance is not None:
            return self._maples[instance]
        return self._nearest_instance(core_tile)

    def attach(self, aspace: AddressSpace, core_tile: Optional[int] = None,
               maple: Optional[Maple] = None) -> MapleApi:
        """Give ``aspace`` protected user-mode access to a MAPLE instance.

        Returns the user-level :class:`MapleApi` bound to the new mapping.
        Re-attaching the same address space reuses the existing mapping.
        """
        if maple is None:
            maple = self.pick_instance(core_tile)
        key = (aspace.asid, maple.instance_id)
        if key in self._attached:
            return self._attached[key]
        maple.mmu.set_root(aspace.root_paddr)
        maple.mmu.install_fault_handler(
            lambda vaddr: self._os.handle_fault(aspace, vaddr))
        page_vaddr = self._os.map_device_page(
            aspace, maple.page_paddr, name=f"maple{maple.instance_id}")
        api = MapleApi(page_vaddr)
        self._attached[key] = api
        return api

    def detach(self, aspace: AddressSpace, maple: Maple) -> None:
        """Unmap the instance from the process and drop its MMU state."""
        key = (aspace.asid, maple.instance_id)
        api = self._attached.pop(key, None)
        if api is None:
            raise KeyError("address space was not attached to this instance")
        self._os.munmap(aspace, api.page_vaddr, self._os.config.page_size)
        maple.mmu.tlb.flush()
