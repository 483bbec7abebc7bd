"""Native runs on the DBR engine's native cost profile.

The native baseline every Fig. 5/6 slowdown is normalized to runs
through :class:`~repro.dbr.engine.DBREngine` with no tool and no DBR
charges. Its simulated outcome must be exactly what the former
per-instruction native loop produced: the stored native digests in
``perfbench/reference.json`` came from that loop, and every tier must
still reproduce them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.dbr.engine import DBREngine
from repro.guestos.driver import NativeDriver, RunStats
from repro.guestos.kernel import Kernel
from repro.harness.runner import run_mode
from repro.workloads import micro
from repro.workloads.parsec import benchmark_names, build_benchmark

REFERENCE = Path(__file__).resolve().parents[2] / "perfbench" / \
    "reference.json"


def _reference():
    return json.loads(REFERENCE.read_text())


def run_digest(result) -> str:
    """The benchmark's digest of a run (``perfbench/suite.run_digest``):
    cycles, cycle breakdown, run stats and race blocks."""
    doc = {"cycles": result.cycles,
           "breakdown": result.cycle_breakdown,
           "stats": result.run_stats,
           "races": sorted(r.block for r in result.races)}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", benchmark_names())
def test_native_matches_stored_reference_digest(name, seed):
    reference = _reference()
    params = reference["params"]
    want = reference["seeds"][str(seed)][f"native:{name}"]
    for tiers in ({}, {"compile_blocks": False}):
        result = run_mode(
            build_benchmark(name, threads=params["threads"],
                            scale=params["scale"]),
            "native", seed=seed, quantum=params["quantum"], **tiers)
        assert run_digest(result) == want, (name, seed, tiers)


def test_native_output_has_no_dbr_traces():
    result = run_mode(build_benchmark("raytrace", threads=2, scale=0.1),
                      "native", seed=2, quantum=100)
    assert result.superblocks["superblocks_built"] > 0
    assert "dbr" not in result.cycle_breakdown
    assert "trace" not in result.cycle_breakdown
    assert set(result.run_stats) == set(RunStats().as_dict())


def test_engines_stay_out_of_kernel_drivers():
    kernel = Kernel(seed=1, quantum=7, jitter=0.0)
    first = kernel.create_process(micro.racy_counter(2, 10)[0])
    second = kernel.create_process(micro.racy_counter(2, 10)[0])
    kernel.run()
    driver = kernel.driver
    assert isinstance(driver, NativeDriver)
    assert kernel.drivers == {}
    engines = driver.engines
    assert set(engines) == {first.pid, second.pid}
    for pid, engine in engines.items():
        assert isinstance(engine, DBREngine)
        assert engine.native and engine.process.pid == pid
        assert engine.stats is driver.stats
    assert driver.stats.instructions > 0
