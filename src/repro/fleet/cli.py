"""``aikido-repro fleet`` — the campaign service's command line.

Two verbs, dispatched from :mod:`repro.harness.cli`::

    aikido-repro fleet run --workers 2 --benchmarks blackscholes,canneal \\
        --seeds 1,2,3 --chaos-seeds 11,23 --state-dir state/ --json out.json
    aikido-repro fleet run --kind fuzz --seed 1 --count 1000 --workers 4 \\
        --state-dir state/ --resume
    aikido-repro fleet run --serial ...      # single-host reference path
    aikido-repro fleet worker --connect 127.0.0.1:41731

``fleet run`` prints a deterministic summary and exits with the
established contract: 0 on success, 2 on usage/harness errors, 3 when
any unit failed or any shard was quarantined (per-shard problems never
abort the campaign — they are reported, like per-job failures in suite
runs). ``--json`` dumps the full merged report, which is bit-identical
between ``--serial`` and any fleet execution of the same campaign.

The chaos flags (``--fleet-kill-rate`` etc.) arm the *harness* chaos
mode — seeded worker kills/stalls/garbled frames — used by the
survivability smoke and tests; they never touch simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.errors import HarnessError
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.shards import CampaignSpec, serial_report
from repro.fleet.worker import (FleetChaosPlan, WORKER_INDEX_ENV,
                                parse_address, worker_main)
from repro.harness.resultcache import ResultCache


def _int_list(text: str) -> List[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aikido-repro fleet",
        description="Fault-tolerant sharded campaign service")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="coordinate a campaign")
    run.add_argument("--kind", choices=("suite", "fuzz"), default="suite")
    run.add_argument("--benchmarks", default="blackscholes",
                     help="comma-separated benchmark names (suite)")
    run.add_argument("--mode", default="aikido-fasttrack")
    run.add_argument("--threads", type=int, default=2)
    run.add_argument("--scale", type=float, default=0.05)
    run.add_argument("--quantum", type=int, default=100)
    run.add_argument("--seeds", type=_int_list, default=[1],
                     help="comma-separated simulation seeds (suite)")
    run.add_argument("--chaos-seeds", type=_int_list, default=[],
                     help="comma-separated chaos-plan seeds; each adds "
                          "a chaos config column to the campaign")
    run.add_argument("--chaos-intensity", type=float, default=0.05)
    run.add_argument("--seed", type=int, default=1,
                     help="base scenario seed (fuzz)")
    run.add_argument("--count", type=int, default=100,
                     help="scenario count (fuzz)")
    run.add_argument("--full", action="store_true",
                     help="fuzz with the full (non-quick) generator "
                          "config")
    run.add_argument("--shard-size", type=int, default=25)
    run.add_argument("--workers", type=int, default=2, metavar="N",
                     help="local worker processes to spawn (0 = none; "
                          "external workers may still connect)")
    run.add_argument("--serial", action="store_true",
                     help="single-host reference: execute every shard "
                          "inline, no sockets (the bit-identical "
                          "baseline for fleet runs)")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0,
                     help="listening port (0 = ephemeral)")
    run.add_argument("--state-dir", metavar="DIR", default=None,
                     help="coordinator journal directory (crash-safe "
                          "resume)")
    run.add_argument("--resume", action="store_true",
                     help="resume from --state-dir; completed shards "
                          "are never re-simulated")
    run.add_argument("--no-fsync", action="store_true",
                     help="skip fsync on WAL appends (faster, less "
                          "durable)")
    run.add_argument("--lease", type=float, default=5.0, metavar="S",
                     help="worker lease; a silent worker past it is "
                          "declared dead and its shard requeued")
    run.add_argument("--heartbeat", type=float, default=1.0, metavar="S")
    run.add_argument("--shard-deadline", type=float, default=300.0,
                     metavar="S", help="wall-clock budget per shard "
                                       "delivery")
    run.add_argument("--max-deliveries", type=int, default=3,
                     help="deliveries before a shard is quarantined as "
                          "poison")
    run.add_argument("--backoff", type=float, default=0.1, metavar="S",
                     help="base requeue backoff (exponential, jittered)")
    run.add_argument("--backoff-max", type=float, default=2.0,
                     metavar="S")
    run.add_argument("--no-inline", action="store_true",
                     help="never degrade to inline execution when the "
                          "fleet dies (hang-proof campaigns leave this "
                          "off)")
    run.add_argument("--no-cache", action="store_true")
    run.add_argument("--json", metavar="PATH",
                     help="dump the full merged report as JSON")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write coordinator lifecycle events as a "
                          "Chrome trace")
    run.add_argument("--fleet-chaos-seed", type=int, default=0)
    run.add_argument("--fleet-kill-rate", type=float, default=0.0,
                     help="per-unit probability a worker SIGKILLs "
                          "itself (harness chaos test mode)")
    run.add_argument("--fleet-stall-rate", type=float, default=0.0)
    run.add_argument("--fleet-stall-s", type=float, default=0.0)
    run.add_argument("--fleet-garble-rate", type=float, default=0.0,
                     help="per-result probability a worker ships a "
                          "garbled frame instead of its result")

    worker = sub.add_parser("worker", help="serve shards to a "
                                           "coordinator")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT")
    worker.add_argument("--no-cache", action="store_true")
    return parser


def _spec_from_args(args) -> CampaignSpec:
    benchmarks = tuple(b for b in args.benchmarks.split(",") if b)
    chaos_seeds: List[Optional[int]] = [None]
    chaos_seeds.extend(args.chaos_seeds)
    return CampaignSpec(
        kind=args.kind,
        benchmarks=benchmarks,
        mode=args.mode,
        threads=args.threads,
        scale=args.scale,
        quantum=args.quantum,
        seeds=tuple(args.seeds),
        chaos_seeds=tuple(chaos_seeds),
        chaos_intensity=args.chaos_intensity,
        base_seed=args.seed,
        count=args.count,
        quick=not args.full,
        shard_size=args.shard_size,
    )


def render_report(report: Dict) -> str:
    """Deterministic human-readable campaign summary."""
    lines = [f"fleet campaign: {report['completed_units']}/"
             f"{report['units']} units over {report['shards']} "
             f"shard(s), {report['failures']} unit failure(s)"]
    if report.get("disagreements"):
        seeds = ", ".join(str(s) for s in report["disagreements"])
        lines.append(f"  oracle disagreements at seed(s): {seeds}")
    for entry in report["missing_shards"]:
        reason = report["quarantined"].get(entry["shard_id"],
                                           "not executed")
        lines.append(f"  MISSING shard {entry['index']} "
                     f"({entry['units']} units): {reason}")
    return "\n".join(lines)


def _run_verb(args) -> int:
    started = time.monotonic()
    spec = _spec_from_args(args)
    cache = None if args.no_cache else ResultCache()
    if args.serial:
        report = serial_report(spec, cache=cache)
        counters = None
    else:
        tracer = None
        if args.trace_out:
            from repro.observability import Tracer, WallClock
            tracer = Tracer(WallClock())
        coordinator = FleetCoordinator(
            spec, host=args.host, port=args.port, cache=cache,
            state_dir=args.state_dir, resume=args.resume,
            fsync=not args.no_fsync, lease_s=args.lease,
            heartbeat_s=args.heartbeat,
            shard_deadline_s=args.shard_deadline,
            max_deliveries=args.max_deliveries,
            backoff_base_s=args.backoff, backoff_max_s=args.backoff_max,
            backoff_seed=args.fleet_chaos_seed,
            allow_inline=not args.no_inline, tracer=tracer)
        chaos = FleetChaosPlan(seed=args.fleet_chaos_seed,
                               kill_rate=args.fleet_kill_rate,
                               stall_rate=args.fleet_stall_rate,
                               stall_s=args.fleet_stall_s,
                               garble_rate=args.fleet_garble_rate)
        report = coordinator.run(spawn_workers=args.workers,
                                 chaos=chaos if chaos.active() else None)
        counters = coordinator.counters
        if args.trace_out:
            from repro.observability import TraceSink
            path = TraceSink(tracer).write_chrome(
                args.trace_out, label="aikido-repro fleet")
            print(f"(fleet trace written to {path})", file=sys.stderr)
    print(render_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, sort_keys=True)
        print(f"(json written to {args.json})")
    footer = f"[{time.monotonic() - started:.1f}s"
    if counters is not None:
        footer += f"; {counters.stats_line()}"
    print(footer + "]", file=sys.stderr)
    if report["failures"] or report["missing_shards"]:
        return 3
    return 0


def _worker_verb(args) -> int:
    import os

    cache = None if args.no_cache else ResultCache()
    index = int(os.environ.get(WORKER_INDEX_ENV, "0"))
    return worker_main(parse_address(args.connect), cache=cache,
                       worker_index=index)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return _run_verb(args)
        return _worker_verb(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
