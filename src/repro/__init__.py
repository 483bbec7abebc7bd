"""Aikido (ASPLOS 2012) reproduction: accelerating shared data dynamic
analyses with per-thread page protection.

Public API surface (see README.md for a tour):

* :class:`repro.core.system.AikidoSystem` — assemble and run the full
  stack on a program with any :class:`repro.core.analysis.SharedDataAnalysis`.
* :class:`repro.machine.asm.ProgramBuilder` — write mini-ISA workloads.
* :mod:`repro.harness.runner` — ``run_native`` / ``run_fasttrack`` /
  ``run_aikido_fasttrack`` and :class:`RunResult`.
* :mod:`repro.analyses` — FastTrack (full + Aikido-accelerated), Eraser
  LockSet, AVIO atomicity, LiteRace-style sampling.
* :mod:`repro.workloads.parsec` — the ten PARSEC-like benchmarks.
"""

__version__ = "1.7.0"

from repro.core.analysis import SharedDataAnalysis
from repro.core.config import AikidoConfig
from repro.core.system import AikidoSystem
from repro.machine.asm import ProgramBuilder

__all__ = [
    "AikidoConfig",
    "AikidoSystem",
    "ProgramBuilder",
    "SharedDataAnalysis",
    "__version__",
]
