"""SoC assembly: tiles, cores, MAPLE instances, NoC, memory, OS.

:class:`~repro.system.soc.Soc` builds the whole machine from a
:class:`~repro.params.SoCConfig` the way OpenPiton's build flow stamps out
tiles: cores first, then MAPLE instances, row-major across the mesh, with
every MAPLE reachable through MMIO.  This is the entry point downstream
users start from (see ``examples/quickstart.py``).
"""

from repro.params import FPGA_CONFIG, SoCConfig
from repro.system.soc import Soc

__all__ = ["FPGA_CONFIG", "Soc", "SoCConfig"]
