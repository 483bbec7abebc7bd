"""The repository benchmark: host time of the paper's pipelines, the fuzz
oracle and the replay fan-out, with per-layer host time from a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload parsec-private --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures passes until ``--seconds`` is spent and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass
and prints the per-layer metrics. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workload definitions live in ``suite.py``; metric names and bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("parsec-private", "parsec-shared", "fuzz-oracle",
             "replay-fanout")
#: Fresh interpreter processes timed for ``setup_s``.
SETUP_PROBES = 5
SCRATCH = ROOT / ".bench_tmp"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def isolate(workdir: Path) -> None:
    """Keep every file the simulator writes inside ``workdir``."""
    os.environ["AIKIDO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)


def import_stack():
    """Import the simulator from ``src/`` and the benchmark modules."""
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        raise SystemExit(f"error: no simulator sources under "
                         f"{ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import reference
    import suite
    return reference, suite


def setup(args, workdir: Path):
    """Everything before the first timed operation."""
    reference, suite = import_stack()
    stored = reference.load_reference()
    return suite, suite.Workload(args.workload, args.seed, str(workdir),
                                 reference=stored)


def time_setup(args, suite, workdir: Path) -> float:
    """Median wall time of fresh processes doing only the set-up, at the
    reference host speed (see ``suite``)."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        speed = [suite.speed_probe() for _ in range(suite.PROBE_WINDOW)]
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                       env=dict(os.environ, TMPDIR=str(workdir)))
        seconds = time.perf_counter() - start
        speed += [suite.speed_probe() for _ in range(suite.PROBE_WINDOW)]
        samples.append(seconds * suite.REFERENCE_PROBE_S
                       / statistics.median(speed))
    return statistics.median(samples)


def declared_units(trace: int):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def with_units(values, units):
    """The metrics object; every declared metric, nothing else."""
    if set(values) != set(units):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, undeclared "
            f"{sorted(set(values) - set(units))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def measure(args, suite, workload):
    """Untraced passes while the next one fits in ``--seconds`` (at
    least three)."""
    measurement = suite.Measurement()
    deadline = time.perf_counter() + args.seconds
    ratios = {}
    last = 0.0
    while measurement.passes < 3 or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        outcomes = workload.run_pass()
        last = time.perf_counter() - start
        measurement.add(outcomes)
        for label, pair in suite.program_ratios(outcomes).items():
            ratios.setdefault(label, []).append(pair)
    return measurement, ratios


def report_ratios(ratios) -> None:
    for label, pairs in sorted(ratios.items()):
        host = statistics.median(p[0] for p in pairs)
        sim = pairs[0][1]
        print(f"  {label:<16s} host ft/aik {host:6.2f}x   "
              f"simulated ft/aik {sim:6.2f}x")


def run_untraced(args, suite, workload, workdir):
    setup_s = time_setup(args, suite, workdir)
    measurement, ratios = measure(args, suite, workload)
    values = measurement.end_to_end()
    values["setup_s"] = setup_s
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = rss_kb / 1024.0
    print(f"{args.workload}: seed {args.seed}, {measurement.passes} passes")
    report_ratios(ratios)
    return measurement, values


def run_traced(args, suite, workload):
    import tracing

    result = tracing.traced_run(suite, workload, ROOT / ".bench_out")
    print(f"{args.workload}: seed {args.seed}, traced "
          f"{len(result.tracer)} spans")
    return result.measurement, result.values


def main(argv=None) -> int:
    args = parse_args(argv)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=SCRATCH))
    try:
        isolate(workdir)
        suite, workload = setup(args, workdir)
        if args.setup_probe:
            return 0
        if args.trace:
            measurement, values = run_traced(args, suite, workload)
        else:
            measurement, values = run_untraced(args, suite, workload,
                                                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = with_units(values, declared_units(args.trace))
    for line in measurement.failures[:20]:
        print(f"FAILED {line}")
    for name, entry in sorted(metrics.items()):
        print(f"  {name:<34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": measurement.failed == 0,
                      "attempted": measurement.attempted,
                      "failed": measurement.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
