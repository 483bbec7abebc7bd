"""Tests of the benchmark itself. Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload at a size that runs in about a second."""
    monkeypatch.setenv("AIKIDO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(suite, "THREADS", 2)
    monkeypatch.setattr(suite, "SCALE", 0.05)
    monkeypatch.setattr(suite, "PLANS", {
        name: suite.Plan(plan.pipelines[:2], plan.recorded[:1], 2,
                         plan.seeded_scenarios)
        for name, plan in suite.PLANS.items()})
    return tmp_path


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fuzz-oracle",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared(section)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_undeclared_or_missing_metric_is_refused():
    units = declared("end_to_end")
    values = dict.fromkeys(units, 1.0)
    assert set(run.with_units(values, units)) == set(units)
    with pytest.raises(RuntimeError, match="missing"):
        run.with_units({k: v for k, v in values.items()
                        if k != "setup_s"}, units)
    with pytest.raises(RuntimeError, match="undeclared"):
        run.with_units(dict(values, bogus_s=1.0), units)


def test_planted_wrong_digest_is_a_failed_operation(tiny):
    workload = suite.Workload("parsec-private", 3, str(tiny),
                              reference={"3": {"native:raytrace": "0" * 24}})
    measurement = suite.Measurement()
    measurement.add(workload.run_pass())
    assert measurement.failed == 1
    (failure,) = measurement.failures
    assert failure.startswith("native:raytrace: digest ")
    assert "!= reference" in failure


def test_changed_pipeline_outcome_fails_its_operations(tiny):
    workload = suite.Workload("parsec-private", 3, str(tiny))
    first = workload.run_pass()
    assert not any(o.failures for o in first)
    workload.first_digests["aikido-fasttrack:raytrace"] = "f" * 24
    second = workload.run_pass()
    failed = [o.key for o in second if o.failures]
    assert failed == ["aikido-fasttrack:raytrace"]


def test_traced_run_restores_every_wrapped_attribute(tiny):
    before = tracing.attributes_snapshot()
    workload = suite.Workload("replay-fanout", 1, str(tiny))
    traced = tracing.traced_run(suite, workload, tiny / "out")
    after = tracing.attributes_snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced.measurement.failed == 0
    assert len(traced.tracer) > 0
    assert (tiny / "out" / "spans-replay-fanout.bin.z").exists()


def test_install_patches_each_name_where_it_is_looked_up():
    import repro.dbr.engine as engine
    import repro.dbr.superblock as superblock
    from repro.machine.cpu import CPU

    compile_block = engine.compile_block
    compile_superblock = superblock.compile_superblock
    execute = CPU.__dict__["execute"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.compile_block is not compile_block
        assert engine.compile_superblock is not compile_superblock
        assert superblock.compile_superblock is engine.compile_superblock
        assert CPU.__dict__["execute"].__wrapped__ is execute
    finally:
        tracer.restore()
    assert engine.compile_block is compile_block
    assert engine.compile_superblock is compile_superblock
    assert superblock.compile_superblock is compile_superblock
    assert CPU.__dict__["execute"] is execute


def test_self_times_add_up_to_wall_time(tiny):
    workload = suite.Workload("parsec-shared", 2, str(tiny))
    traced = tracing.traced_run(suite, workload, tiny / "out")
    values = traced.values
    self_total = sum(values[m] for m in tracing.SELF_METRICS.values())
    assert values["unattributed_s"] >= 0
    assert self_total + values["unattributed_s"] == pytest.approx(
        values["trace.wall_s"])


@pytest.mark.parametrize("name", sorted(suite.PLANS))
def test_each_workload_completes_at_a_tiny_size(tiny, name):
    workload = suite.Workload(name, 0, str(tiny))
    measurement = suite.Measurement()
    for _ in range(2):
        measurement.add(workload.run_pass())
    assert measurement.failed == 0, measurement.failures
    values = measurement.end_to_end()
    assert all(v > 0 for v in values.values()), values
