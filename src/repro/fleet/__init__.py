"""Fault-tolerant sharded campaign service.

The single-host :class:`~repro.harness.parallel.ParallelRunner` caps a
campaign at one machine and one process tree: a crashed host loses
everything not yet journaled, and a million-run chaos x seed sweep
outgrows one machine's process pool. This package spreads the same
units over a small distributed service; each worker still executes its
shard's units through an inline ``ParallelRunner``:

* :mod:`repro.fleet.protocol` — newline-delimited JSON frames over a
  socket (local TCP now, multi-host later), with strict size and shape
  validation so a garbled peer can never wedge the coordinator;
* :mod:`repro.fleet.shards` — campaign descriptions (workloads x seeds
  x configs x chaos plans, or scengen fuzz seed ranges) partitioned
  into content-addressed shards keyed by
  ``sha256(shard spec + cost-model fingerprint)``;
* :mod:`repro.fleet.coordinator` — worker registration with leases and
  heartbeats, per-shard deadlines, dead-worker detection with requeue,
  exponential backoff + jitter, poison-shard quarantine, graceful
  degradation to inline execution, deterministic report merging, and
  journal-first shard state (the suite harness's
  :class:`~repro.harness.journal.RunJournal`, at
  ``<state_dir>/wal.jsonl``) so ``--resume`` re-simulates zero
  completed shards even after SIGKILL;
* :mod:`repro.fleet.worker` — the worker process body, including the
  seeded chaos-on-the-harness test mode (kills / stalls / garbled
  frames) that the survivability tests drive.

The merged report is purely a function of the campaign spec and the
cost-model fingerprint — the distributed path is bit-identical to a
serial single-host run of the same campaign, kills and all.
"""

from repro.fleet.coordinator import FleetCoordinator, run_fleet_campaign
from repro.fleet.protocol import (FrameError, FrameStream, MAX_FRAME_BYTES,
                                  decode_frame, encode_frame)
from repro.fleet.shards import (CampaignSpec, ShardSpec, execute_shard,
                                merge_report, partition, serial_report)
from repro.fleet.worker import FleetChaosPlan, worker_main

__all__ = [
    "FleetCoordinator", "run_fleet_campaign",
    "FrameError", "FrameStream", "MAX_FRAME_BYTES",
    "decode_frame", "encode_frame",
    "CampaignSpec", "ShardSpec", "execute_shard", "merge_report",
    "partition", "serial_report",
    "FleetChaosPlan", "worker_main",
]
