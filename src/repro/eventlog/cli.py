"""The ``aikido-repro record`` / ``aikido-repro replay`` verb tree.

::

    aikido-repro record --benchmark canneal --out canneal.aiklog
    aikido-repro replay --log canneal.aiklog \
        --analyses fasttrack,djit,eraser,memtag --jobs 4
    aikido-repro replay --log canneal.aiklog --diff-live \
        --benchmark canneal             # verdicts must equal live runs

``record`` simulates the workload once under full instrumentation and
streams every access + synchronization event into a chunked, CRC-framed
event log (atomic finalize — a killed recording leaves no torn file
behind). ``replay`` feeds that log to N detectors with zero
re-simulation; ``--jobs`` fans the analyses out over worker processes
(0 = one per CPU, as for every other verb).

Exit codes follow the repo contract: 0 ok; 2 usage error, harness
error, or corrupt/torn log; 3 cross-analysis disagreement or a
``--diff-live`` mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.errors import EventLogError, HarnessError, WorkloadError

DEFAULT_ANALYSES = "fasttrack,djit,eraser,memtag"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aikido-repro",
        description="Record one simulation, replay it through N analyses")
    sub = parser.add_subparsers(dest="verb", required=True)

    record = sub.add_parser(
        "record", help="simulate once, write the event log")
    record.add_argument("--benchmark", default="canneal")
    record.add_argument("--threads", type=int, default=4)
    record.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier")
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--quantum", type=int, default=200)
    record.add_argument("--jitter", type=float, default=0.0,
                        help="scheduler jitter (keep 0.0 for runs meant "
                             "to be diffed against live re-runs)")
    record.add_argument("--out", metavar="PATH", default=None,
                        help="event log path (default <benchmark>.aiklog)")
    record.add_argument("--chunk-events", type=int, default=None,
                        metavar="N", help="events per log chunk")

    replay = sub.add_parser(
        "replay", help="replay a recorded log through N analyses")
    replay.add_argument("--log", metavar="PATH", required=True)
    replay.add_argument("--analyses", default=DEFAULT_ANALYSES,
                        help=f"comma-separated (default "
                             f"{DEFAULT_ANALYSES})")
    replay.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU, 1 = "
                             "inline; the merged verdicts are identical "
                             "either way)")
    replay.add_argument("--json", metavar="PATH", default=None,
                        help="dump the merged verdict document")
    replay.add_argument("--no-check", action="store_true",
                        help="report cross-analysis disagreements "
                             "instead of failing on them")
    replay.add_argument("--diff-live", action="store_true",
                        help="re-run each analysis live and require "
                             "bit-identical verdicts (needs the "
                             "recording parameters below)")
    replay.add_argument("--benchmark", default="canneal",
                        help="workload of the recording (--diff-live)")
    replay.add_argument("--threads", type=int, default=4)
    replay.add_argument("--scale", type=float, default=1.0)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--quantum", type=int, default=200)
    replay.add_argument("--jitter", type=float, default=0.0)
    return parser


def _record(args, counters) -> int:
    from repro.eventlog.replay import record_run
    from repro.workloads.parsec import get_benchmark

    out = args.out or f"{args.benchmark}.aiklog"
    program = get_benchmark(args.benchmark).program(
        threads=args.threads, scale=args.scale)
    kwargs = {}
    if args.chunk_events is not None:
        kwargs["chunk_events"] = args.chunk_events
    stats = record_run(program, out, seed=args.seed, quantum=args.quantum,
                       jitter=args.jitter, counters=counters, **kwargs)
    print(f"recorded {args.benchmark} ({args.threads} threads): "
          f"{stats['events']} events in {stats['chunks']} chunks, "
          f"{stats['bytes']} bytes -> {stats['path']}")
    return 0


def _replay(args, counters) -> int:
    from repro.eventlog.replay import ReplayFanout, live_run_verdict

    names = [name.strip() for name in args.analyses.split(",")
             if name.strip()]
    fanout = ReplayFanout(names, jobs=args.jobs, counters=counters)
    merged = fanout.run(args.log, check=False)
    stat = merged["log"]
    for name in merged["analyses"]:
        verdict = merged["verdicts"][name]
        print(f"{name:>10s}: {verdict['report_count']} report(s) on "
              f"{len(verdict['blocks'])} block(s)")
    status = 0
    if merged["disagreements"]:
        print(f"{len(merged['disagreements'])} cross-analysis "
              f"disagreement(s):", file=sys.stderr)
        for line in merged["disagreements"]:
            print(f"  {line}", file=sys.stderr)
        if not args.no_check:
            status = 3
    if args.diff_live:
        from repro.workloads.parsec import get_benchmark

        spec = get_benchmark(args.benchmark)
        mismatches = []
        for name in merged["analyses"]:
            live = live_run_verdict(
                spec.program(threads=args.threads, scale=args.scale),
                name, seed=args.seed, quantum=args.quantum,
                jitter=args.jitter)
            if live != merged["verdicts"][name]:
                mismatches.append(name)
        if mismatches:
            print(f"replayed verdicts differ from live runs for: "
                  f"{', '.join(mismatches)}", file=sys.stderr)
            status = 3
        else:
            print(f"diff-live ok: {len(merged['analyses'])} replayed "
                  f"verdict(s) bit-identical to live runs")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
        print(f"(json written to {args.json})")
    print(f"replayed {stat['events']} events x {len(names)} analyses "
          f"from {stat['chunks']} chunk(s) (jobs={fanout.jobs}, "
          f"0 simulations)")
    return status


def main(argv=None) -> int:
    from repro.observability.eventlog import EventLogCounters

    parser = build_parser()
    args = parser.parse_args(argv)
    counters = EventLogCounters()
    started = time.monotonic()
    try:
        if args.verb == "record":
            status = _record(args, counters)
        else:
            status = _replay(args, counters)
    except (EventLogError, HarnessError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[{time.monotonic() - started:.1f}s; {counters.stats_line()}]",
          file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
