"""Coordinator robustness, driven by scripted in-test workers.

Each test connects hand-rolled "workers" (raw FrameStreams speaking the
wire protocol) to a real coordinator running in a thread, then
misbehaves on purpose: going silent, stalling past the deadline,
erroring every delivery, garbling frames, duplicating results. The
invariant throughout is the acceptance criterion — the merged report is
bit-identical to :func:`serial_report` whenever the campaign completes,
no matter what the fleet did.
"""

import os
import socket
import threading
import time

import pytest

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import FleetError, FrameStream
from repro.fleet.shards import (CampaignSpec, ShardSpec, execute_shard,
                                serial_report)

#: One-shard fuzz campaign: cheap units, no simulator state.
ONE_SHARD = CampaignSpec(kind="fuzz", base_seed=1, count=2, shard_size=2)
TWO_SHARDS = CampaignSpec(kind="fuzz", base_seed=1, count=2, shard_size=1)

FAST = dict(lease_s=0.4, heartbeat_s=0.1, backoff_base_s=0.01,
            backoff_max_s=0.05)


def start(coordinator):
    """Run the coordinator in a thread; return (thread, result box)."""
    box = {}

    def target():
        box["report"] = coordinator.run(spawn_workers=0)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def finish(thread, box, timeout=60.0):
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "coordinator failed to finish"
    return box["report"]


class ScriptedWorker:
    """A hand-driven worker connection for misbehavior scripting."""

    def __init__(self, address):
        self.stream = FrameStream(
            socket.create_connection(address, timeout=10))
        self.worker_id = None

    def register(self):
        self.stream.send({"type": "hello", "pid": os.getpid()})
        welcome = self.stream.recv(timeout=10)
        assert welcome["type"] == "welcome"
        self.worker_id = welcome["worker_id"]
        return welcome

    def recv(self, timeout=10):
        return self.stream.recv(timeout=timeout)

    def send(self, frame):
        self.stream.send(dict(frame, worker_id=self.worker_id))

    def execute(self, assign, cache=None):
        shard = ShardSpec.from_dict(assign["shard"])
        spec = CampaignSpec.from_dict(assign["campaign"])
        return execute_shard(shard, spec, cache=cache)

    def close(self):
        self.stream.close()


class TestLivenessClocks:
    def test_silent_worker_lease_expires_and_shard_requeues(self):
        """SIGSTOP-equivalent: registered, assigned, then dead air."""
        coordinator = FleetCoordinator(ONE_SHARD, **FAST)
        thread, box = start(coordinator)
        worker = ScriptedWorker(coordinator.address)
        worker.register()
        assign = worker.recv()
        assert assign["type"] == "assign"
        # ... and say nothing more. The lease must expire, the shard
        # requeue, and (no fleet left) inline degradation finish it.
        report = finish(thread, box)
        worker.close()
        assert coordinator.counters.totals["lease_expiries"] >= 1
        assert coordinator.counters.totals["shards_requeued"] == 1
        assert coordinator.counters.totals["shards_inline"] == 1
        assert coordinator.counters.totals["workers_dead"] == 1
        assert report == serial_report(ONE_SHARD)

    def test_heartbeats_keep_a_slow_worker_alive(self):
        """Heartbeating far past the lease must never count as death."""
        coordinator = FleetCoordinator(ONE_SHARD, **FAST)
        thread, box = start(coordinator)
        worker = ScriptedWorker(coordinator.address)
        worker.register()
        assign = worker.recv()
        deadline = time.monotonic() + 3 * FAST["lease_s"]
        while time.monotonic() < deadline:
            worker.send({"type": "heartbeat",
                         "shard_id": assign["shard"]["shard_id"]})
            time.sleep(0.1)
        aggregate = worker.execute(assign)
        worker.send({"type": "result",
                     "shard_id": aggregate["shard_id"],
                     "aggregate": aggregate})
        report = finish(thread, box)
        worker.close()
        assert coordinator.counters.totals["lease_expiries"] == 0
        assert coordinator.counters.totals["workers_dead"] == 0
        assert coordinator.counters.totals["heartbeats"] > 0
        assert report == serial_report(ONE_SHARD)

    def test_stalled_worker_hits_shard_deadline(self):
        """Heartbeats forever, finishes never: the deadline evicts."""
        coordinator = FleetCoordinator(ONE_SHARD, lease_s=5.0,
                                       heartbeat_s=0.1,
                                       shard_deadline_s=0.4,
                                       backoff_base_s=0.01,
                                       backoff_max_s=0.05)
        thread, box = start(coordinator)
        worker = ScriptedWorker(coordinator.address)
        worker.register()
        worker.recv()  # the assign we will never honor

        def stall():
            try:
                while True:
                    worker.send({"type": "heartbeat"})
                    time.sleep(0.1)
            except OSError:
                pass  # evicted: coordinator closed the connection

        threading.Thread(target=stall, daemon=True).start()
        report = finish(thread, box)
        worker.close()
        assert coordinator.counters.totals["deadline_expiries"] >= 1
        assert coordinator.counters.totals["shards_inline"] == 1
        assert report == serial_report(ONE_SHARD)


class TestRequeueAndQuarantine:
    def test_abrupt_death_requeues_to_surviving_worker(self):
        """The canonical failover: no inline fallback needed when a
        second worker survives to absorb the redelivery."""
        coordinator = FleetCoordinator(ONE_SHARD, **FAST)
        thread, box = start(coordinator)
        workers = [ScriptedWorker(coordinator.address) for _ in range(2)]
        for worker in workers:
            worker.register()
        # Whichever worker is assigned first dies on the spot.
        victim, survivor = None, None
        deadline = time.monotonic() + 10
        while victim is None and time.monotonic() < deadline:
            for worker in workers:
                try:
                    frame = worker.recv(timeout=0.2)
                except TimeoutError:
                    continue
                if frame and frame["type"] == "assign":
                    victim = worker
                    survivor = next(w for w in workers if w is not worker)
                    break
        assert victim is not None, "no assign observed"
        victim.close()  # abrupt EOF, shard in flight
        frame = survivor.recv()
        assert frame["type"] == "assign"
        assert frame["delivery"] == 2
        aggregate = survivor.execute(frame)
        survivor.send({"type": "result",
                       "shard_id": aggregate["shard_id"],
                       "aggregate": aggregate})
        report = finish(thread, box)
        survivor.close()
        assert coordinator.counters.totals["workers_dead"] == 1
        assert coordinator.counters.totals["redeliveries"] == 1
        assert coordinator.counters.totals["shards_inline"] == 0
        assert report == serial_report(ONE_SHARD)

    def test_poison_shard_quarantined_after_max_deliveries(self):
        coordinator = FleetCoordinator(ONE_SHARD, max_deliveries=2,
                                       **FAST)
        thread, box = start(coordinator)
        worker = ScriptedWorker(coordinator.address)
        worker.register()
        deliveries = []
        while True:
            frame = worker.recv()
            if frame is None or frame["type"] == "shutdown":
                break
            if frame["type"] == "assign":
                deliveries.append(frame["delivery"])
                worker.send({"type": "shard_error",
                             "shard_id": frame["shard"]["shard_id"],
                             "message": "synthetic poison"})
        report = finish(thread, box)
        worker.close()
        assert deliveries == [1, 2]
        assert coordinator.counters.totals["shards_quarantined"] == 1
        assert len(report["missing_shards"]) == 1
        assert report["completed_units"] == 0
        (reason,) = report["quarantined"].values()
        assert "synthetic poison" in reason
        # The exit-code contract keys off exactly these fields.
        assert report["failures"] == 0 and report["missing_shards"]


class TestProtocolDefense:
    def test_garbled_frame_evicts_worker(self):
        coordinator = FleetCoordinator(ONE_SHARD, **FAST)
        thread, box = start(coordinator)
        worker = ScriptedWorker(coordinator.address)
        worker.register()
        worker.recv()  # assign
        worker.stream.send_raw(b'{"type": <<garbled result frame\n')
        report = finish(thread, box)
        worker.close()
        assert coordinator.counters.totals["frames_garbled"] == 1
        assert coordinator.counters.totals["workers_dead"] == 1
        assert coordinator.counters.totals["shards_requeued"] == 1
        assert report == serial_report(ONE_SHARD)

    def test_duplicate_result_never_double_merges(self):
        coordinator = FleetCoordinator(TWO_SHARDS, **FAST)
        thread, box = start(coordinator)
        worker = ScriptedWorker(coordinator.address)
        worker.register()
        first = True
        while True:
            frame = worker.recv()
            if frame is None or frame["type"] == "shutdown":
                break
            if frame["type"] == "assign":
                aggregate = worker.execute(frame)
                result = {"type": "result",
                          "shard_id": aggregate["shard_id"],
                          "aggregate": aggregate}
                worker.send(result)
                if first:
                    first = False
                    worker.send(result)  # replay: must be dropped
        report = finish(thread, box)
        worker.close()
        assert coordinator.counters.totals["duplicate_results"] == 1
        assert report["completed_units"] == 2  # not 3
        assert report == serial_report(TWO_SHARDS)

    def test_result_for_unknown_shard_dropped(self):
        coordinator = FleetCoordinator(ONE_SHARD, **FAST)
        thread, box = start(coordinator)
        worker = ScriptedWorker(coordinator.address)
        worker.register()
        worker.send({"type": "result", "shard_id": "f" * 64,
                     "aggregate": {"shard_id": "f" * 64, "units": 99,
                                   "failures": 0, "outcomes": []}})
        assign = worker.recv()
        aggregate = worker.execute(assign)
        worker.send({"type": "result",
                     "shard_id": aggregate["shard_id"],
                     "aggregate": aggregate})
        report = finish(thread, box)
        worker.close()
        assert report == serial_report(ONE_SHARD)


class TestConstruction:
    def test_rejects_zero_deliveries(self):
        with pytest.raises(FleetError, match="max_deliveries"):
            FleetCoordinator(ONE_SHARD, max_deliveries=0)

    def test_rejects_non_positive_clocks(self):
        with pytest.raises(FleetError, match="must all be > 0"):
            FleetCoordinator(ONE_SHARD, lease_s=0.0)
