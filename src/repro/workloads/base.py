"""Shared machinery for the PARSEC-like synthetic benchmarks.

Each benchmark is a mini-ISA program generator calibrated so that the
*fraction of memory accesses that target shared pages* matches the
paper's Table 2 / Figure 6 ratios for that benchmark, and so sharing
scales with thread count the way the paper's Table 1 implies (partitioned
data with halos: more threads, proportionally more boundary).

Register conventions inside worker threads:

====  =====================================================
r1    thread index (0-based; passed as the spawn argument)
r2/r3 loop counters
r10   per-thread LCG state (seeded from the thread index)
r11+  scratch for address computation
r15   reserved for ProgramBuilder loop bounds
====  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.machine.asm import ProgramBuilder
from repro.machine.paging import PAGE_SIZE
from repro.machine.program import Program

#: Words per page (8-byte words, 4 KiB pages).
WORDS_PER_PAGE = PAGE_SIZE // 8


@dataclass
class PaperRow:
    """The paper's published numbers for one benchmark (for reports)."""

    shared_fraction: float            # Fig. 6 (col3/col1 of Table 2)
    instrumented_fraction: float      # Table 2 col2/col1
    ft_slowdown_8t: Optional[float] = None      # Fig. 5 (approx, read off)
    aikido_slowdown_8t: Optional[float] = None  # Fig. 5 (approx, read off)


@dataclass
class WorkloadSpec:
    """A named, parameterizable benchmark."""

    name: str
    build: Callable[..., Program]
    description: str
    paper: PaperRow
    default_threads: int = 8
    extra: Dict = field(default_factory=dict)

    def program(self, threads: Optional[int] = None,
                scale: float = 1.0) -> Program:
        return self.build(threads=threads or self.default_threads,
                          scale=scale)


# ---------------------------------------------------------------------
# builder helpers
# ---------------------------------------------------------------------
def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration count, keeping it at least ``minimum``."""
    return max(minimum, int(count * scale))


def per_thread_iters(total: int, threads: int, scale: float,
                     minimum: int = 1) -> int:
    """Split a fixed total work count across threads (PARSEC semantics:
    the input size does not change with the thread count — more threads
    means less work per thread)."""
    return max(minimum, int(total * scale / threads))


def spawn_workers(b: ProgramBuilder, n_threads: int,
                  worker_label: str = "worker") -> None:
    """Emit main-thread code spawning/joining ``n_threads`` workers.

    Each worker receives its 0-based index in r1. Uses r3 for the
    argument and r5 upward for tids (so supports up to 10 threads with
    the 16-register file; benchmarks needing more stash tids in memory —
    none do at the paper's 8 threads).
    """
    if n_threads > 10:
        raise ValueError("spawn_workers supports at most 10 threads")
    for i in range(n_threads):
        b.li(3, i)
        b.spawn(5 + i, worker_label, arg_reg=3)
    for i in range(n_threads):
        b.join(5 + i)


def seed_lcg(b: ProgramBuilder, index_reg: int = 1,
             state_reg: int = 10, salt: int = 0x9E3779B97F4A7C15) -> None:
    """Derive a per-thread LCG state from the thread index."""
    b.mul(state_reg, index_reg, imm=2654435761)
    b.add(state_reg, state_reg, imm=salt)


def partition_base(b: ProgramBuilder, dest_reg: int, region_base: int,
                   pages_per_thread: int, index_reg: int = 1) -> None:
    """``dest = region_base + index * pages_per_thread * PAGE_SIZE``."""
    b.mul(dest_reg, index_reg, imm=pages_per_thread * PAGE_SIZE)
    b.add(dest_reg, dest_reg, imm=region_base)


def rotating_partition_base(b: ProgramBuilder, dest_reg: int,
                            region_base: int, pages_per_thread: int,
                            n_threads: int, ring: int, counter_reg: int,
                            shift: int, index_reg: int = 1,
                            neighbor: bool = False,
                            scratch_reg: int = 15) -> None:
    """Partition base inside a ring of buffer generations.

    ``dest = base + ((counter >> shift) % ring) * ring_span
            + owner * pages_per_thread * PAGE_SIZE``
    where ``owner`` is the thread index (or its successor when
    ``neighbor``). Models the per-frame / per-pass buffer churn of
    pipeline benchmarks: every rotation touches fresh pages, so sharing
    transitions (and Aikido faults) keep occurring throughout the run
    instead of only at startup.
    """
    span = n_threads * pages_per_thread * PAGE_SIZE
    b.shr(scratch_reg, counter_reg, imm=shift)
    b.mod(scratch_reg, scratch_reg, imm=ring)
    b.mul(scratch_reg, scratch_reg, imm=span)
    if neighbor:
        b.add(dest_reg, index_reg, imm=1)
        b.mod(dest_reg, dest_reg, imm=n_threads)
        b.mul(dest_reg, dest_reg, imm=pages_per_thread * PAGE_SIZE)
    else:
        b.mul(dest_reg, index_reg, imm=pages_per_thread * PAGE_SIZE)
    b.add(dest_reg, dest_reg, scratch_reg)
    b.add(dest_reg, dest_reg, imm=region_base)


def stride_accesses(b: ProgramBuilder, base_reg: int, words: int,
                    pattern: str, state_reg: int = 10,
                    addr_reg: int = 11, value_reg: int = 12) -> None:
    """One random jump, then a strided run of accesses (spatial locality).

    ``pattern`` is a string of 'r'/'w' characters, one access each, at
    consecutive word displacements from the random starting point. The
    run is kept inside the region by reserving ``len(pattern)`` words of
    headroom in the offset computation.
    """
    span = len(pattern)
    if span == 0:
        return
    usable = max(1, words - span)
    b.lcg_offset(addr_reg, state_reg, usable)
    b.add(addr_reg, addr_reg, base_reg)
    for i, kind in enumerate(pattern):
        if kind == "r":
            b.load(value_reg, base=addr_reg, disp=8 * i)
        elif kind == "w":
            b.store(value_reg, base=addr_reg, disp=8 * i)
        else:
            raise ValueError(f"bad access pattern char {kind!r}")


def every_n(b: ProgramBuilder, counter_reg: int, mask: int,
            scratch_reg: int = 13):
    """Context manager: run the body when ``counter & mask == 0``.

    ``mask`` must be ``2^k - 1``; the body executes once every ``2^k``
    iterations of the surrounding loop.
    """
    import contextlib

    @contextlib.contextmanager
    def _guard():
        skip = b.fresh_label("skip")
        b.and_(scratch_reg, counter_reg, imm=mask)
        b.bnz(scratch_reg, skip)
        yield
        b.label(skip)

    return _guard()


def alu_pad(b: ProgramBuilder, n: int, reg: int = 14) -> None:
    """Emit ``n`` pure-compute instructions (models FLOP-heavy kernels)."""
    for i in range(n):
        if i % 3 == 0:
            b.mul(reg, reg, imm=0x5DEECE66D)
        elif i % 3 == 1:
            b.add(reg, reg, imm=11)
        else:
            b.xor(reg, reg, imm=0x55AA55AA)
