"""MAPLE: a full-system reproduction of "Tiny but Mighty" (ISCA 2022).

Public API surface:

- :class:`repro.system.Soc` — build the simulated SoC (cores + MAPLE
  instances + NoC + memory + OS) from a :class:`repro.params.SoCConfig`.
- :class:`repro.core.MapleApi` / :class:`repro.core.QueueHandle` — the
  user-mode MMIO API (§3.1/§3.2): OPEN, PRODUCE, PRODUCE_PTR, CONSUME,
  LIMA, PREFETCH.
- :mod:`repro.compiler` — the slicing compiler targeting that API (§3.3).
- :func:`repro.harness.run_workload` — run one (workload, technique)
  experiment; :mod:`repro.harness.figures` regenerates the paper's
  figures.

See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro.params import FPGA_CONFIG, SoCConfig

__version__ = "1.0.0"

__all__ = ["FPGA_CONFIG", "SoCConfig", "__version__"]
