#!/usr/bin/env bash
# Smoke check: tier-1 tests, then a tiny parallel suite run twice against
# a fresh cache directory — the second invocation must be served entirely
# from the cache (zero simulations).
#
#     bash scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
AIKIDO_CACHE_DIR="$(mktemp -d)"
export AIKIDO_CACHE_DIR
trap 'rm -rf "$AIKIDO_CACHE_DIR"' EXIT

python -m pytest -x -q

# Benchmark tests: perfbench wraps src/ functions for its per-layer
# timing, so a src/ change that moves or deletes one fails here.
python -m pytest perfbench -q

# Full-scale digest gate: tier-1 only runs scale 0.05. One untimed pass
# of the benchmark's parsec-shared workload (8 threads, scale 1.0,
# ~15 s) checks the compiled tier against the committed interpreter-tier
# reference digests; its last stdout line is the JSON summary.
python3 perfbench/run.py --workload parsec-shared --seed 1 --seconds 0 \
    --trace 0 | tail -n 1 | python3 -c '
import json, sys
summary = json.loads(sys.stdin.read())
assert summary["correct"] is True and summary["failed"] == 0, summary
print("full-scale digests ok:", summary["attempted"], "operations")
'

# Workload linter gate: every bundled workload must be finding-free at
# the thread counts the suite uses (the CLI exits non-zero on findings).
for threads in 2 8; do
    python -m repro.harness.cli lint --threads "$threads"
done

# Dead-definition gate: every function, method and class under
# src/repro must be referenced somewhere in the source, test, script,
# benchmark, example or perfbench trees (stdlib AST scan).
python scripts/dead_defs.py

python - <<'EOF'
from repro.harness.experiments import run_suite
from repro.harness.parallel import ParallelRunner
from repro.harness.report import suite_to_dict
from repro.harness.resultcache import ResultCache

SUITE = dict(threads=2, scale=0.05, quantum=100,
             benchmarks=["blackscholes", "canneal"])

cold = ParallelRunner(jobs=2, cache=ResultCache())
first = run_suite(runner=cold, **SUITE)
assert cold.simulations == 6 and cold.cache_hits == 0, cold.stats_line()

warm = ParallelRunner(jobs=2, cache=ResultCache())
second = run_suite(runner=warm, **SUITE)
assert warm.simulations == 0, (
    f"warm rerun was not served from cache: {warm.stats_line()}")
assert warm.cache_hits == 6, warm.stats_line()
assert suite_to_dict(first) == suite_to_dict(second), \
    "cached metrics differ from live metrics"
print(f"smoke ok: cold run {cold.stats_line()}; "
      f"warm run {warm.stats_line()}")
EOF

# Scripts smoke: every script must support --help and exit 0 (the
# argparse convention; a script that chokes on flags regresses here).
for script in scripts/*.py; do
    python "$script" --help > /dev/null
done

# Trace smoke: emit a Chrome trace through the CLI, then reload and
# re-validate it from disk (schema + per-tid span nesting), and check
# the cycle attribution it prints sums exactly.
TRACE_OUT="$AIKIDO_CACHE_DIR/smoke-trace.json"
python -m repro.harness.cli trace --benchmark blackscholes \
    --threads 2 --scale 0.05 --quantum 100 --trace-out "$TRACE_OUT"
python - "$TRACE_OUT" <<'EOF'
import json
import sys

from repro.observability.sink import load_chrome

path = sys.argv[1]
payload = load_chrome(path)       # raises TraceError on any violation
events = payload["traceEvents"]
assert events, "trace smoke emitted no events"
phases = {event["ph"] for event in events}
assert {"B", "E", "i", "M"} <= phases, f"missing phases: {phases}"
# The file is plain JSON too (what chrome://tracing actually parses).
with open(path) as fh:
    assert json.load(fh)["traceEvents"]
print(f"trace smoke ok: {len(events)} events validated from {path}")
EOF

# Chaos smoke: fault injection + invariant monitoring on two bundled
# workloads must be absorbed with race reports identical to the clean
# runs (exercised through the CLI so the flags stay wired).
python -m repro.harness.cli chaos --benchmark canneal \
    --threads 2 --scale 0.05 --quantum 100 --jobs 2
python - <<'EOF'
from repro.harness.experiments import chaos_sweep
from repro.harness.parallel import ParallelRunner

sweep = chaos_sweep(threads=2, scale=0.05, quantum=100,
                    benchmarks=["blackscholes", "canneal"],
                    chaos_seeds=(11,), include_hostile=True,
                    runner=ParallelRunner(jobs=2))
assert sweep.delivered > 0, "chaos smoke delivered no injections"
assert sweep.all_recovery_cells_clean(), \
    "a recovery-plan chaos run failed or changed race reports"
print(f"chaos smoke ok: {sweep.delivered} injected, "
      f"{sweep.recovered} recovered")
EOF

# Bench smoke: the wall-clock tier bench must produce a schema-valid
# document through the CLI, and the regression gate must accept a
# document compared against itself (its trivial fixed point).
BENCH_OUT="$AIKIDO_CACHE_DIR/smoke-bench.json"
python -m repro.harness.cli bench --quick --benchmark blackscholes \
    --threads 2 --bench-out "$BENCH_OUT"
python - "$BENCH_OUT" <<'EOF'
import sys

from repro.harness.bench import load_bench

doc = load_bench(sys.argv[1])     # raises HarnessError on any violation
assert doc["params"]["quick"], "bench smoke was not a --quick run"
assert doc["workloads"], "bench smoke produced no workload rows"
print(f"bench smoke ok: {doc['summary']['workload_count']} workload(s), "
      f"geomean {doc['summary']['geomean_speedup']:.2f}x")
EOF
python scripts/bench_gate.py --baseline "$BENCH_OUT" \
    --current "$BENCH_OUT" > /dev/null

# Superblock smoke: all three execution tiers (interpreter, compiled,
# superblock) must agree bit-for-bit on every simulated statistic —
# the parity contract the bench suite enforces at full scale,
# exercised here at smoke scale, with at least one superblock actually
# built so the tier is known to have engaged. Both the bare engine and
# native (the engine's native cost profile, via run_mode) are checked.
python - <<'EOF'
from repro.dbr.engine import DBREngine
from repro.guestos.kernel import Kernel
from repro.harness.runner import run_mode
from repro.workloads.parsec import build_benchmark

TIERS = ((False, False), (True, False), (True, True))
built = native_built = 0
for name in ("blackscholes", "canneal"):
    surfaces = []
    native = []
    for cb, sb in TIERS:
        kernel = Kernel(seed=3, quantum=100, jitter=0.1)
        kernel.create_process(
            build_benchmark(name, threads=2, scale=0.2))
        engine = DBREngine(kernel, compile_blocks=cb, superblocks=sb)
        kernel.run()
        surfaces.append((kernel.counter.total, engine.stats.as_dict(),
                         kernel.counter.snapshot()))
        result = run_mode(build_benchmark(name, threads=2, scale=0.2),
                          "native", seed=3, quantum=100, jitter=0.1,
                          compile_blocks=cb, superblocks=sb)
        native.append((result.cycles, result.run_stats,
                       result.cycle_breakdown))
    snapshot = engine.superblock_snapshot() or {}
    built += snapshot.get("superblocks_built", 0)
    native_built += (result.superblocks or {}).get("superblocks_built", 0)
    assert surfaces[0] == surfaces[1] == surfaces[2], \
        f"{name}: execution-tier surfaces diverge"
    assert native[0] == native[1] == native[2], \
        f"{name}: native execution-tier surfaces diverge"
assert built > 0, "superblock smoke never built a superblock"
assert native_built > 0, "superblock smoke never built a native superblock"
print(f"superblock smoke ok: 3-tier surfaces bit-identical, "
      f"{built} superblock(s) built, {native_built} native")
EOF

# Fuzz smoke: a fixed-seed differential campaign over generated
# scenarios must complete with zero oracle disagreements (exit 0; a
# disagreement exits 3). Then the resumability contract: kill a
# journaled campaign mid-flight and the --resume rerun must replay
# every journaled verdict without re-simulating it.
FUZZ_JOURNAL="$AIKIDO_CACHE_DIR/smoke-fuzz.jsonl"
python -m repro.harness.cli fuzz --seed 1 --count 30 --quick
python -m repro.harness.cli fuzz --seed 100 --count 30 --quick \
    --journal "$FUZZ_JOURNAL" --no-cache 2> /dev/null &
FUZZ_PID=$!
until [ -s "$FUZZ_JOURNAL" ]; do sleep 0.05; done
kill -9 "$FUZZ_PID" 2> /dev/null || true
wait "$FUZZ_PID" 2> /dev/null || true
JOURNALED=$(wc -l < "$FUZZ_JOURNAL")
echo "fuzz smoke: killed campaign after $JOURNALED journaled verdict(s)"
RESUME_STATS=$(python -m repro.harness.cli fuzz --seed 100 --count 30 \
    --quick --journal "$FUZZ_JOURNAL" --resume --no-cache \
    2>&1 > /dev/null | tail -1)
echo "fuzz smoke: $RESUME_STATS"
python - "$JOURNALED" "$RESUME_STATS" <<'EOF'
import re
import sys

journaled = int(sys.argv[1])
stats = sys.argv[2]
simulated = int(re.search(r"(\d+) simulated", stats).group(1))
replayed = int(re.search(r"(\d+) replayed from journal", stats).group(1))
assert replayed >= journaled, \
    f"resume replayed {replayed} < {journaled} journaled before the kill"
assert simulated == 30 - replayed, \
    f"resume re-simulated journaled runs: {stats}"
print(f"fuzz smoke ok: resume replayed {replayed}, "
      f"simulated only the remaining {simulated}")
EOF

# Fleet smoke: the sharded campaign service must survive both kill
# modes. First a coordinator + 2 local workers with one worker
# SIGKILLed mid-campaign (zero lost shards, report bit-identical to
# --serial); then the coordinator itself is SIGKILLed and the --resume
# rerun must replay every WAL-completed shard with zero re-simulation.
FLEET_STATE="$AIKIDO_CACHE_DIR/fleet-state"
FLEET_SERIAL="$AIKIDO_CACHE_DIR/fleet-serial.json"
FLEET_JSON="$AIKIDO_CACHE_DIR/fleet-report.json"
python -m repro.harness.cli fleet run --kind fuzz --seed 200 \
    --count 12 --shard-size 2 --serial --no-cache --json "$FLEET_SERIAL"
python - "$FLEET_SERIAL" <<'EOF'
import json
import os
import signal
import sys
import threading
import time

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.shards import CampaignSpec

spec = CampaignSpec(kind="fuzz", base_seed=200, count=12, shard_size=2)
coordinator = FleetCoordinator(spec, cache=None, lease_s=2.0,
                               heartbeat_s=0.3, backoff_base_s=0.05)
box = {}
thread = threading.Thread(
    target=lambda: box.update(report=coordinator.run(spawn_workers=2)),
    daemon=True)
thread.start()
deadline = time.monotonic() + 60
while coordinator.counters.totals["workers_registered"] < 2:
    assert time.monotonic() < deadline, "workers never registered"
    time.sleep(0.05)
os.kill(coordinator.worker_procs[0].pid, signal.SIGKILL)
thread.join(timeout=120)
assert not thread.is_alive(), "fleet campaign hung"
report = box["report"]
with open(sys.argv[1]) as fh:
    serial = json.load(fh)
assert report["missing_shards"] == [], "fleet smoke lost shards"
assert json.dumps(report, sort_keys=True) == \
    json.dumps(serial, sort_keys=True), \
    "fleet report differs from the serial reference"
print(f"fleet smoke ok: worker SIGKILLed, "
      f"{coordinator.counters.stats_line()}")
EOF
python -m repro.harness.cli fleet run --kind fuzz --seed 200 \
    --count 12 --shard-size 2 --workers 2 --no-cache \
    --state-dir "$FLEET_STATE" > /dev/null 2>&1 &
FLEET_PID=$!
until grep -qs '"type": "done"' "$FLEET_STATE/wal.jsonl"; do sleep 0.05; done
kill -9 "$FLEET_PID" 2> /dev/null || true
wait "$FLEET_PID" 2> /dev/null || true
echo "fleet smoke: coordinator SIGKILLed mid-campaign"
RESUME_STATS=$(python -m repro.harness.cli fleet run --kind fuzz \
    --seed 200 --count 12 --shard-size 2 --workers 0 --no-cache \
    --state-dir "$FLEET_STATE" --resume --json "$FLEET_JSON" \
    2>&1 > /dev/null | tail -1)
echo "fleet smoke: $RESUME_STATS"
case "$RESUME_STATS" in
    *"resumed from WAL"*) ;;
    *) echo "fleet resume re-simulated completed shards"; exit 1 ;;
esac
python - "$FLEET_SERIAL" "$FLEET_JSON" <<'EOF'
import sys

serial, fleet = (open(path, "rb").read() for path in sys.argv[1:3])
assert serial == fleet, "resumed fleet report differs from serial"
print("fleet smoke ok: coordinator resume byte-identical to serial")
EOF

# Tier-parity smoke: the block-compiled tier (the default) and the
# interpreter reference must report bit-identical simulated results.
python - <<'EOF'
from repro.core.config import AikidoConfig
from repro.harness.runner import run_mode
from repro.workloads.parsec import build_benchmark

program = build_benchmark("canneal", threads=2, scale=0.05)
results = {
    cb: run_mode(program, "aikido-fasttrack", seed=2, quantum=100,
                 config=AikidoConfig(compile_blocks=cb))
    for cb in (True, False)}
for field in ("cycles", "run_stats", "cycle_breakdown", "aikido_stats",
              "hypervisor_stats", "detector_profile", "cycle_attribution"):
    on, off = (getattr(results[cb], field) for cb in (True, False))
    assert on == off, f"tier parity smoke: {field} differs ({on} != {off})"
print("tier parity smoke ok: compiled == interpreter on every "
      "simulated statistic")
EOF

# Record/replay smoke: record one workload once, replay the log through
# all four analyses in parallel, and diff every replayed verdict against
# a fresh live run — bit-identical, with zero re-simulation on replay.
REPLAY_DIR="$(mktemp -d)"
REPLAY_LOG_PATH="$REPLAY_DIR/canneal.aiklog"
python -m repro.harness.cli record --benchmark canneal --threads 2 \
    --scale 0.05 --seed 2 --quantum 100 --out "$REPLAY_LOG_PATH"
REPLAY_STATS=$(python -m repro.harness.cli replay --log "$REPLAY_LOG_PATH" \
    --analyses fasttrack,djit,eraser,memtag --jobs 2 --diff-live \
    --benchmark canneal --threads 2 --scale 0.05 --seed 2 --quantum 100 \
    2>&1 > /dev/null | tail -1)
rm -rf "$REPLAY_DIR"
echo "record/replay smoke: $REPLAY_STATS"
case "$REPLAY_STATS" in
    *"0 simulations"*) ;;
    *) echo "replay smoke re-simulated instead of replaying"; exit 1 ;;
esac
echo "record/replay smoke ok: 4 analyses bit-identical to live," \
    "zero re-simulation"
