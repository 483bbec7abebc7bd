"""Happens-before graphs: explain *why* something is (or isn't) a race.

Built from a recorded trace (:mod:`repro.analyses.record`), the graph has
one node per trace event, program-order edges within each thread, and
synchronization edges (release->acquire per lock, fork/join, barrier
all-to-all). Two conflicting accesses race iff neither reaches the other.

``explain_pair`` turns that into a human answer: either the chain of
synchronization that orders the accesses (useful to see which lock is
doing the work) or the verdict "unordered — this is a race".

Uses :mod:`networkx` (a ``test`` extra) for reachability and path
queries. A test oracle: it shares no detection code with FastTrack or
DJIT+, which ``test_cross_validation.py`` checks it against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx


class HBGraph:
    """A happens-before DAG over a recorded trace."""

    def __init__(self, trace):
        self.trace = list(trace)
        self.graph = nx.DiGraph()
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        last_of_thread = {}
        last_release = {}          # lock id -> node of latest release
        graph = self.graph

        def node_for(index, entry):
            graph.add_node(index, entry=entry)
            return index

        def program_order(tid, node):
            prev = last_of_thread.get(tid)
            if prev is not None:
                graph.add_edge(prev, node, kind="program-order")
            last_of_thread[tid] = node

        for index, entry in enumerate(self.trace):
            kind = entry[0]
            node = node_for(index, entry)
            if kind == "access":
                program_order(entry[1], node)
            elif kind == "acquire":
                _, tid, lock = entry
                program_order(tid, node)
                release = last_release.get(lock)
                if release is not None:
                    graph.add_edge(release, node, kind=f"lock-{lock}")
            elif kind == "release":
                _, tid, lock = entry
                program_order(tid, node)
                last_release[lock] = node
            elif kind == "fork":
                _, parent, child = entry
                program_order(parent, node)
                # The child's first event hangs off the fork node: every
                # later child event happens-after the fork.
                last_of_thread[child] = node
            elif kind == "join":
                _, parent, child = entry
                child_last = last_of_thread.get(child)
                program_order(parent, node)
                if child_last is not None and child_last != node:
                    graph.add_edge(child_last, node, kind="join")
            elif kind == "barrier":
                _, barrier_id, tids = entry
                # All-to-all: everyone's prior work precedes the barrier
                # node; everyone's later work follows it.
                for tid in tids:
                    prev = last_of_thread.get(tid)
                    if prev is not None:
                        graph.add_edge(prev, node,
                                       kind=f"barrier-{barrier_id}")
                    last_of_thread[tid] = node

    # ------------------------------------------------------------------
    def accesses_to_block(self, block: int,
                          block_size: int = 8) -> List[int]:
        """Node indices of accesses touching the 8-byte block."""
        return [i for i, entry in enumerate(self.trace)
                if entry[0] == "access"
                and entry[2] // block_size == block]

    def ordered(self, a: int, b: int) -> bool:
        """Does node ``a`` happen-before node ``b`` (or vice versa)?"""
        return (nx.has_path(self.graph, a, b)
                or nx.has_path(self.graph, b, a))

    def sync_chain(self, a: int, b: int) -> Optional[List[str]]:
        """The edge kinds of a shortest ordering path, if one exists."""
        for src, dst in ((a, b), (b, a)):
            if nx.has_path(self.graph, src, dst):
                path = nx.shortest_path(self.graph, src, dst)
                return [self.graph.edges[u, v]["kind"]
                        for u, v in zip(path, path[1:])]
        return None

    def racing_pairs(self, block: int,
                     block_size: int = 8) -> List[Tuple[int, int]]:
        """All conflicting, unordered access pairs on a block."""
        nodes = self.accesses_to_block(block, block_size)
        pairs = []
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                ea, eb = self.trace[a], self.trace[b]
                if ea[1] == eb[1]:
                    continue            # same thread
                if not (ea[3] or eb[3]):
                    continue            # two reads
                if not self.ordered(a, b):
                    pairs.append((a, b))
        return pairs


def explain_pair(graph: HBGraph, a: int, b: int) -> str:
    """Human-readable verdict for two access nodes."""
    ea, eb = graph.trace[a], graph.trace[b]

    def fmt(entry):
        return (f"t{entry[1]} {'write' if entry[3] else 'read'} "
                f"@{entry[2]:#x}")

    chain = graph.sync_chain(a, b)
    if chain is None:
        return (f"RACE: {fmt(ea)} and {fmt(eb)} are unordered "
                "(no synchronization chain connects them)")
    interesting = [k for k in chain if k != "program-order"]
    via = ", ".join(interesting) if interesting else "program order"
    return f"ordered: {fmt(ea)} -> {fmt(eb)} via {via}"
