"""Static and dynamic workload profiling.

Used by the calibration workflow (and exposed as ``aikido-repro
profile``-style tooling through ``scripts/profile_workload.py``) to
answer "what does this benchmark actually look like?": instruction mix,
memory fraction, synchronization density, footprint — the quantities the
cost model's slowdowns are a function of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.harness.runner import run_aikido_fasttrack, run_native
from repro.machine.isa import MEMORY_OPCODES, SYNC_OPCODES, Opcode
from repro.machine.paging import PAGE_SIZE
from repro.machine.program import Program


@dataclass
class StaticProfile:
    """Counts derived from the program text alone."""

    blocks: int
    instructions: int
    memory_instructions: int
    direct_memory_instructions: int
    sync_instructions: int
    segment_bytes: int

    @property
    def footprint_pages(self) -> int:
        return (self.segment_bytes + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class DynamicProfile:
    """Counts measured by running the program."""

    instructions: int
    memory_refs: int
    shared_accesses: int
    instrumented_execs: int
    segfaults: int
    lock_acquisitions: int
    native_cycles: int

    @property
    def memory_fraction(self) -> float:
        return self.memory_refs / max(1, self.instructions)

    @property
    def shared_fraction(self) -> float:
        return self.shared_accesses / max(1, self.memory_refs)

    @property
    def lock_density(self) -> float:
        """Lock acquisitions per thousand instructions."""
        return 1000 * self.lock_acquisitions / max(1, self.instructions)


def static_profile(program: Program) -> StaticProfile:
    memory = direct = sync = total = 0
    for instr in program.iter_instructions():
        total += 1
        if instr.op in MEMORY_OPCODES:
            memory += 1
            if instr.mem is not None and instr.mem.base is None:
                direct += 1
        elif instr.op in SYNC_OPCODES:
            sync += 1
    return StaticProfile(
        blocks=len(program.blocks),
        instructions=total,
        memory_instructions=memory,
        direct_memory_instructions=direct,
        sync_instructions=sync,
        segment_bytes=sum(s.size for s in program.segments),
    )


def dynamic_profile(program_factory, *, seed: int = 1, quantum: int = 150
                    ) -> DynamicProfile:
    """Run natively and under Aikido; merge the interesting counters.

    ``program_factory`` must build a fresh program per call (programs are
    single-use once loaded).
    """
    native = run_native(program_factory(), seed=seed, quantum=quantum)
    aikido = run_aikido_fasttrack(program_factory(), seed=seed,
                                  quantum=quantum)
    return DynamicProfile(
        instructions=aikido.run_stats["instructions"],
        memory_refs=aikido.memory_refs,
        shared_accesses=aikido.shared_accesses,
        instrumented_execs=aikido.instrumented_execs,
        segfaults=aikido.segfaults,
        lock_acquisitions=aikido.detector_profile.get("sync_ops", 0),
        native_cycles=native.cycles,
    )


def render_profile(name: str, static: StaticProfile,
                   dynamic: DynamicProfile) -> str:
    return "\n".join([
        f"=== {name} ===",
        f"static:  {static.instructions} instrs in {static.blocks} blocks"
        f" ({static.memory_instructions} memory,"
        f" {static.direct_memory_instructions} direct,"
        f" {static.sync_instructions} sync)",
        f"         footprint {static.footprint_pages} pages"
        f" ({static.segment_bytes >> 10} KiB)",
        f"dynamic: {dynamic.instructions} instrs,"
        f" mem fraction {dynamic.memory_fraction:.0%},"
        f" shared {dynamic.shared_fraction:.1%}",
        f"         {dynamic.segfaults} Aikido faults,"
        f" {dynamic.lock_acquisitions} sync events"
        f" ({dynamic.lock_density:.1f}/kinstr)",
    ])
