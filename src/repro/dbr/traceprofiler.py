"""Trace profiler: hot block-successor edges for superblock selection.

DynamoRIO-style trace selection (NET — next-executing-tail) watches
which block *actually* executes after each hot block and stitches the
dominant chain into a trace. This module is the watching half: the
engine's compiled dispatch loop records an edge whenever one block
entry (at instruction 0) follows a *hot* block within the same
thread's quantum (it inlines :meth:`TraceProfiler.note_edge` into the
fetch path — a Python call per block transition is measurable at that
frequency — and skips cold sources, which could never anchor a chain
link anyway), and :mod:`repro.dbr.superblock` asks
:meth:`hot_successor` for the dominant outgoing edge when it grows a
chain.

Edges are observed per thread-execution-stream — the engine tracks the
previous block per ``run()`` call, so a quantum boundary, a fault
repair, a mid-block re-entry or a superblock exit all reset the chain
(no cross-thread or cross-quantum edges are ever recorded). Counts are
aggregated across threads: a chain is hot if the threads actually
follow it.

Everything here is host-side bookkeeping: recording an edge charges no
simulated cycles and touches no statistic, so the profiler cannot
perturb tier parity.
"""

from __future__ import annotations

from typing import Dict, Optional

#: An edge must have been taken this many times before it can anchor a
#: chain link (the head block itself is already past the code cache's
#: ``trace_threshold`` when a build is attempted).
EDGE_MIN = 16

#: ... and it must carry at least this fraction of the block's total
#: outgoing traffic, or the successor is not predictable enough to be
#: worth a branch-direction guard (numerator/denominator of 3/4).
DOMINANCE_NUM = 3
DOMINANCE_DEN = 4


class TraceProfiler:
    """Counts (source block -> next-executing block) edges."""

    __slots__ = ("_edges",)

    def __init__(self):
        #: source block index -> {successor block index -> count}
        self._edges: Dict[int, Dict[int, int]] = {}

    def note_edge(self, src: int, dst: int) -> None:
        """Record that ``dst`` entered (at instruction 0) right after
        ``src`` in the same thread's quantum."""
        per_src = self._edges.get(src)
        if per_src is None:
            per_src = self._edges[src] = {}
        per_src[dst] = per_src.get(dst, 0) + 1

    def hot_successor(self, src: int) -> Optional[int]:
        """The dominant successor of ``src``, or None.

        Returns the most-taken outgoing edge iff it has been taken at
        least ``EDGE_MIN`` times *and* accounts for at least 3/4 of the
        block's recorded outgoing traffic. Deterministic: ties resolve
        to the first-recorded successor (dict insertion order, which is
        itself deterministic under the seeded scheduler).
        """
        per_src = self._edges.get(src)
        if not per_src:
            return None
        best_dst, best_count = None, -1
        total = 0
        for dst, count in per_src.items():
            total += count
            if count > best_count:
                best_dst, best_count = dst, count
        if best_count < EDGE_MIN:
            return None
        if best_count * DOMINANCE_DEN < total * DOMINANCE_NUM:
            return None
        return best_dst

    def __len__(self) -> int:
        return sum(len(per_src) for per_src in self._edges.values())
