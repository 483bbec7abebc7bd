"""Cross-validation: three independent race-detection implementations
must agree on random traces.

* FastTrack (epochs + vector clocks, `analyses.fasttrack`)
* DJIT+ (plain vector clocks, `analyses.djit`)
* the happens-before graph (networkx reachability, `tests/analyses/hbgraph.py`)

They share no detection code, so agreement on hundreds of random traces
is strong evidence each is right.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.analyses.djit import DjitDetector
from repro.analyses.fasttrack.detector import FastTrackDetector
from tests.analyses.hbgraph import HBGraph
from tests.analyses.test_fasttrack_properties import (
    N_VARS,
    sanitize,
    trace_strategy,
)


def detector_blocks(detector_cls, trace):
    detector = detector_cls()
    for event in trace:
        kind = event[0]
        if kind == "access":
            _, tid, var, is_write = event
            detector.on_access(tid, var * 8, is_write)
        elif kind == "acquire":
            detector.on_acquire(event[1], event[2])
        elif kind == "release":
            detector.on_release(event[1], event[2])
    return {r.block for r in detector.races}


def hbgraph_blocks(trace):
    # HBGraph consumes record.py-format entries.
    converted = []
    for event in trace:
        if event[0] == "access":
            _, tid, var, is_write = event
            converted.append(("access", tid, var * 8, is_write, -1))
        else:
            converted.append(event)
    graph = HBGraph(converted)
    racy = set()
    for var in range(N_VARS):
        if graph.racing_pairs(var):
            racy.add(var)
    return racy


@settings(max_examples=250, deadline=None)
@given(trace_strategy)
def test_three_implementations_agree(trace):
    trace = sanitize(trace)
    fasttrack = detector_blocks(FastTrackDetector, trace)
    djit = detector_blocks(DjitDetector, trace)
    graph = hbgraph_blocks(trace)
    assert fasttrack == djit == graph, trace
