"""The campaign coordinator: leases, heartbeats, requeue, resume, merge.

One :class:`FleetCoordinator` owns one campaign. It partitions the
campaign into content-addressed shards, listens on a TCP socket for
workers (spawning a local pool itself when asked), and drives a single
event loop over four sources: worker frames, worker deaths, lease and
deadline clocks, and the backoff queue. All state mutation happens on
the loop thread; socket reader threads only enqueue events, so there is
no lock hierarchy to get wrong.

Robustness model, in order of line of defense:

1. **Leases + heartbeats.** A worker's lease is refreshed by any frame
   (heartbeats flow while a shard executes). A silent worker past its
   lease is evicted and its shard requeued — this catches SIGKILL,
   wedged hosts, and network partitions identically.
2. **Per-shard deadlines.** A worker that heartbeats forever without
   finishing (stalled, livelocked) is evicted when the shard's deadline
   passes; requeue with the same machinery.
3. **Bounded redelivery + backoff + jitter.** Each requeue delays the
   shard by ``backoff_base * 2^(delivery-1)`` scaled by seeded jitter
   (so replays of a chaotic campaign are reproducible), and after
   ``max_deliveries`` total deliveries the shard is *quarantined* as
   poison — recorded durably, reported loudly, never allowed to starve
   the rest of the campaign.
4. **Inline degradation.** When every worker is gone and none can be
   respawned, the coordinator executes remaining shards in-process via
   the identical :func:`~repro.fleet.shards.execute_shard` path: a
   campaign never hangs waiting for a fleet that no longer exists.
5. **Journal-first state.** Completions, deliveries and quarantines
   are appended to ``<state_dir>/wal.jsonl`` (a
   :class:`~repro.harness.journal.RunJournal`) before memory, so a
   SIGKILLed coordinator resumed with ``resume=True`` re-simulates
   zero completed shards. The journal holds one entry per (record
   type, shard) — ``done:<id>``, ``delivery:<id>``,
   ``quarantine:<id>`` — plus a ``campaign`` entry naming the owning
   campaign key; resuming a different campaign is refused.

Results are deduplicated by shard id against the completed set — a
result arriving from an evicted worker (it was alive after all) is
either accepted (first) or dropped (duplicate), never double-merged.
"""

from __future__ import annotations

import heapq
import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fleet.protocol import FleetError, FrameError, FrameStream
from repro.fleet.shards import (CampaignSpec, ShardSpec, campaign_key,
                                execute_shard, merge_report, partition)
from repro.fleet.worker import CHAOS_ENV, WORKER_INDEX_ENV, FleetChaosPlan
from repro.harness.journal import RunJournal
from repro.harness.parallel import fingerprint
from repro.harness.resultcache import ResultCache
from repro.observability.fleet import FleetCounters, fleet_instant


@dataclass
class _WorkerState:
    """Loop-thread view of one registered worker connection."""

    conn_id: int
    stream: FrameStream
    worker_id: str
    lease_expiry: float
    shard: Optional[ShardSpec] = None
    deadline: float = 0.0
    frames: int = field(default=0)


class FleetCoordinator:
    """Coordinate one campaign across a worker fleet (or none)."""

    def __init__(self, spec: CampaignSpec, *,
                 host: str = "127.0.0.1", port: int = 0,
                 cache: Optional[ResultCache] = None,
                 state_dir: Optional[os.PathLike] = None,
                 resume: bool = False, fsync: bool = True,
                 lease_s: float = 5.0, heartbeat_s: float = 1.0,
                 shard_deadline_s: float = 300.0,
                 max_deliveries: int = 3,
                 backoff_base_s: float = 0.1,
                 backoff_max_s: float = 2.0, backoff_seed: int = 0,
                 allow_inline: bool = True, tracer=None):
        if max_deliveries < 1:
            raise FleetError(
                f"max_deliveries must be >= 1, got {max_deliveries}")
        if lease_s <= 0 or heartbeat_s <= 0 or shard_deadline_s <= 0:
            raise FleetError("lease_s, heartbeat_s and shard_deadline_s "
                             "must all be > 0")
        self.spec = spec
        self.fp = fingerprint()
        self.key = campaign_key(spec, self.fp)
        self.shards = partition(spec, self.fp)
        self.cache = cache
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s
        self.shard_deadline_s = shard_deadline_s
        self.max_deliveries = max_deliveries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self._jitter = random.Random(backoff_seed)
        self.allow_inline = allow_inline
        self.counters = FleetCounters()
        self.tracer = tracer
        #: shard_id -> aggregate payload (completed shards).
        self.completed: Dict[str, Dict] = {}
        #: shard_id -> delivery count (assignments so far).
        self.deliveries: Dict[str, int] = {}
        #: shard_id -> human-readable quarantine reason.
        self.quarantined: Dict[str, str] = {}
        self._state = {"done": self.completed, "delivery": self.deliveries,
                       "quarantine": self.quarantined}
        self.journal: Optional[RunJournal] = None
        if state_dir is not None:
            self._open_journal(Path(state_dir) / "wal.jsonl", resume, fsync)
        self.counters.bump("shards_total", len(self.shards))
        resumed = sum(1 for s in self.shards
                      if s.shard_id in self.completed)
        self.counters.bump("shards_resumed", resumed)

        self._listener = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._events: "queue.Queue[Tuple]" = queue.Queue()
        self._stop = threading.Event()
        self._conn_seq = 0
        self._worker_seq = 0
        #: conn_id -> _WorkerState, live registered workers only.
        self._workers: Dict[int, _WorkerState] = {}
        #: (ready_time, tiebreak, shard) min-heap of unassigned shards.
        self._ready: List[Tuple[float, int, ShardSpec]] = []
        self._tiebreak = 0
        #: shard_id -> ShardSpec currently assigned to some worker.
        self._in_flight: Dict[str, ShardSpec] = {}
        self.worker_procs: List[subprocess.Popen] = []

    # ------------------------------------------------------------------
    # journal-first durable state
    # ------------------------------------------------------------------
    def _open_journal(self, path: Path, resume: bool, fsync: bool) -> None:
        self.journal = RunJournal(path, resume=resume, fsync=fsync)
        owner = self.journal.get("campaign")
        if owner is None:
            self.journal.record("campaign",
                                {"type": "campaign", "key": self.key})
        elif owner.get("key") != self.key:
            raise FleetError(
                f"{path} belongs to campaign {owner.get('key', '')[:12]}"
                f"..., not {self.key[:12]}... — refusing to resume "
                "across campaigns (use a fresh --state-dir)")
        for payload in self.journal.payloads():
            state = self._state.get(payload.get("type"))
            if state is not None:  # unknown types: future records
                state[payload["shard"]] = payload["value"]

    def record(self, kind: str, shard_id: str, value) -> None:
        """Persist one state change (journal first, then memory).

        ``kind`` is ``"done"`` (value: the shard aggregate),
        ``"delivery"`` (the delivery count) or ``"quarantine"`` (the
        reason).
        """
        if self.journal is not None:
            self.journal.record(f"{kind}:{shard_id}", {
                "type": kind, "shard": shard_id, "value": value})
        self._state[kind][shard_id] = value

    # ------------------------------------------------------------------
    # socket plumbing (accept + per-connection reader threads)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        try:
            self._listener.settimeout(0.2)
        except OSError:
            return  # listener already closed: campaign finished first
        while not self._stop.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._conn_seq += 1
            conn_id = self._conn_seq
            stream = FrameStream(sock)
            threading.Thread(target=self._reader_loop,
                             args=(conn_id, stream), daemon=True).start()

    def _reader_loop(self, conn_id: int, stream: FrameStream) -> None:
        while not self._stop.is_set():
            try:
                frame = stream.recv(timeout=1.0)
            except socket.timeout:
                continue
            except FrameError as exc:
                self._events.put(("garbled", conn_id, stream, str(exc)))
                return
            except OSError:
                self._events.put(("gone", conn_id, stream, "io-error"))
                return
            if frame is None:
                self._events.put(("gone", conn_id, stream, "eof"))
                return
            self._events.put(("frame", conn_id, stream, frame))

    # ------------------------------------------------------------------
    # worker pool spawning
    # ------------------------------------------------------------------
    def spawn_worker(self, index: int,
                     chaos: Optional[FleetChaosPlan] = None
                     ) -> subprocess.Popen:
        """Start one local worker process dialed back at us."""
        env = dict(os.environ)
        env[WORKER_INDEX_ENV] = str(index)
        if chaos is not None and chaos.active():
            env[CHAOS_ENV] = chaos.to_json()
        else:
            env.pop(CHAOS_ENV, None)
        cmd = [sys.executable, "-m", "repro.harness.cli", "fleet",
               "worker", "--connect",
               f"{self.address[0]}:{self.address[1]}"]
        if self.cache is None:
            cmd.append("--no-cache")
        proc = subprocess.Popen(cmd, env=env)
        self.worker_procs.append(proc)
        self.counters.bump("workers_spawned")
        return proc

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, *, spawn_workers: int = 0,
            chaos: Optional[FleetChaosPlan] = None) -> Dict:
        """Drive the campaign to completion; return the merged report."""
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        try:
            for index in range(spawn_workers):
                self.spawn_worker(index, chaos)
            for shard in self.shards:
                if (shard.shard_id not in self.completed
                        and shard.shard_id not in self.quarantined):
                    self._push_ready(shard, time.monotonic())
            self._loop()
        finally:
            self._shutdown()
            accept.join(timeout=2.0)
        report = merge_report(self.spec, self.shards,
                              self.completed, self.fp)
        report["quarantined"].update(self.quarantined)
        return report

    def _push_ready(self, shard: ShardSpec, when: float) -> None:
        self._tiebreak += 1
        heapq.heappush(self._ready, (when, self._tiebreak, shard))

    def _unfinished(self) -> bool:
        return any(s.shard_id not in self.completed
                   and s.shard_id not in self.quarantined
                   for s in self.shards)

    def _loop(self) -> None:
        while self._unfinished():
            try:
                event = self._events.get(timeout=0.05)
            except queue.Empty:
                event = None
            if event is not None:
                self._dispatch(event)
                # Drain whatever else is queued before clock work.
                while True:
                    try:
                        self._dispatch(self._events.get_nowait())
                    except queue.Empty:
                        break
            now = time.monotonic()
            self._check_clocks(now)
            self._assign_ready(now)
            self._maybe_run_inline(now)

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def _dispatch(self, event: Tuple) -> None:
        kind, conn_id, stream, payload = event
        if kind == "frame":
            self._on_frame(conn_id, stream, payload)
        elif kind == "garbled":
            self.counters.bump("frames_garbled")
            fleet_instant(self.tracer, "frame_garbled", conn=conn_id,
                          error=payload)
            self._on_worker_gone(conn_id, stream, "garbled frame")
        elif kind == "gone":
            self._on_worker_gone(conn_id, stream, payload)

    def _on_frame(self, conn_id: int, stream: FrameStream,
                  frame: Dict) -> None:
        now = time.monotonic()
        worker = self._workers.get(conn_id)
        if worker is not None:
            worker.lease_expiry = now + self.lease_s
            worker.frames += 1
        kind = frame["type"]
        if kind == "hello":
            self._worker_seq += 1
            worker_id = f"w{self._worker_seq}"
            state = _WorkerState(conn_id=conn_id, stream=stream,
                                 worker_id=worker_id,
                                 lease_expiry=now + self.lease_s)
            self._workers[conn_id] = state
            self.counters.bump("workers_registered")
            self.counters.worker_bump(worker_id, "registered")
            fleet_instant(self.tracer, "worker_registered",
                          worker=worker_id, pid=frame.get("pid"))
            try:
                stream.send({"type": "welcome", "worker_id": worker_id,
                             "lease_s": self.lease_s,
                             "heartbeat_s": self.heartbeat_s})
            except OSError:
                self._on_worker_gone(conn_id, stream, "welcome failed")
        elif kind == "heartbeat":
            self.counters.bump("heartbeats")
            if worker is not None:
                self.counters.worker_bump(worker.worker_id, "heartbeats")
        elif kind == "result":
            self._on_result(worker, frame)
        elif kind == "shard_error":
            fleet_instant(self.tracer, "shard_error",
                          shard=frame.get("shard_id", "")[:12],
                          message=frame.get("message"))
            if worker is not None and worker.shard is not None:
                shard = worker.shard
                worker.shard = None
                self._in_flight.pop(shard.shard_id, None)
                self._requeue(shard, f"worker reported: "
                                     f"{frame.get('message', '')}")
        elif kind == "bye":
            self._workers.pop(conn_id, None)
        # welcome/assign/shutdown from a worker are protocol abuse; a
        # worker sending them is treated like any garbled peer.
        elif kind in ("welcome", "assign", "shutdown"):
            self.counters.bump("frames_garbled")
            self._on_worker_gone(conn_id, stream, f"illegal {kind}")

    def _on_result(self, worker: Optional[_WorkerState],
                   frame: Dict) -> None:
        shard_id = frame.get("shard_id")
        aggregate = frame.get("aggregate")
        known = {s.shard_id: s for s in self.shards}
        if shard_id not in known or not isinstance(aggregate, dict):
            return  # a result for a shard we never issued: drop
        if shard_id in self.completed:
            # Redelivered shard finishing twice (e.g. the original
            # worker was evicted but alive): drop, never double-merge.
            self.counters.bump("duplicate_results")
            return
        self._record_done(known[shard_id], aggregate)
        if worker is not None:
            self.counters.worker_bump(worker.worker_id, "completed")
            if (worker.shard is not None
                    and worker.shard.shard_id == shard_id):
                worker.shard = None

    def _record_done(self, shard: ShardSpec, aggregate: Dict) -> None:
        self.record("done", shard.shard_id, aggregate)
        self._in_flight.pop(shard.shard_id, None)
        self.counters.bump("shards_completed")
        self.counters.bump("units_completed", aggregate.get("units", 0))
        self.counters.bump("unit_failures", aggregate.get("failures", 0))
        fleet_instant(self.tracer, "shard_done",
                      shard=shard.shard_id[:12], index=shard.index)

    def _on_worker_gone(self, conn_id: int, stream: FrameStream,
                        reason: str) -> None:
        stream.close()
        worker = self._workers.pop(conn_id, None)
        if worker is None:
            return  # never registered, or already evicted
        self.counters.bump("workers_dead")
        self.counters.worker_bump(worker.worker_id, "dead")
        fleet_instant(self.tracer, "worker_dead",
                      worker=worker.worker_id, reason=reason)
        if worker.shard is not None:
            shard = worker.shard
            self._in_flight.pop(shard.shard_id, None)
            self._requeue(shard, f"worker {worker.worker_id} died "
                                 f"({reason})")

    # ------------------------------------------------------------------
    # clocks: leases, deadlines
    # ------------------------------------------------------------------
    def _check_clocks(self, now: float) -> None:
        for conn_id, worker in list(self._workers.items()):
            if now >= worker.lease_expiry:
                self.counters.bump("lease_expiries")
                fleet_instant(self.tracer, "lease_expired",
                              worker=worker.worker_id)
                self._on_worker_gone(conn_id, worker.stream,
                                     "lease expired")
            elif worker.shard is not None and now >= worker.deadline:
                self.counters.bump("deadline_expiries")
                fleet_instant(self.tracer, "deadline_expired",
                              worker=worker.worker_id,
                              shard=worker.shard.shard_id[:12])
                self._on_worker_gone(conn_id, worker.stream,
                                     "shard deadline expired")

    # ------------------------------------------------------------------
    # requeue / quarantine / assignment
    # ------------------------------------------------------------------
    def _requeue(self, shard: ShardSpec, reason: str) -> None:
        if shard.shard_id in self.completed:
            return  # result landed before the eviction was processed
        delivered = self.deliveries.get(shard.shard_id, 0)
        if delivered >= self.max_deliveries:
            self.record("quarantine", shard.shard_id, reason)
            self.counters.bump("shards_quarantined")
            fleet_instant(self.tracer, "shard_quarantined",
                          shard=shard.shard_id[:12], reason=reason)
            return
        self.counters.bump("shards_requeued")
        self.counters.shard_bump(shard.shard_id, "requeues")
        backoff = min(self.backoff_max_s,
                      self.backoff_base_s * (2 ** max(0, delivered - 1)))
        backoff *= 1.0 + self._jitter.random()
        fleet_instant(self.tracer, "shard_requeued",
                      shard=shard.shard_id[:12], backoff_s=round(backoff, 4),
                      reason=reason)
        self._push_ready(shard, time.monotonic() + backoff)

    def _assign_ready(self, now: float) -> None:
        idle = [w for w in self._workers.values() if w.shard is None]
        while idle and self._ready and self._ready[0][0] <= now:
            _, _, shard = heapq.heappop(self._ready)
            if (shard.shard_id in self.completed
                    or shard.shard_id in self.quarantined
                    or shard.shard_id in self._in_flight):
                continue
            worker = idle.pop()
            delivery = self.deliveries.get(shard.shard_id, 0) + 1
            self.record("delivery", shard.shard_id, delivery)
            if delivery > 1:
                self.counters.bump("redeliveries")
            self.counters.shard_bump(shard.shard_id, "deliveries")
            self.counters.worker_bump(worker.worker_id, "assigned")
            try:
                worker.stream.send({
                    "type": "assign", "shard": shard.to_dict(),
                    "campaign": self.spec.canonical(),
                    "fingerprint": self.fp, "delivery": delivery})
            except (OSError, FrameError):
                self._on_worker_gone(worker.conn_id, worker.stream,
                                     "assign failed")
                continue
            worker.shard = shard
            worker.deadline = now + self.shard_deadline_s
            self._in_flight[shard.shard_id] = shard
            fleet_instant(self.tracer, "shard_assigned",
                          shard=shard.shard_id[:12], index=shard.index,
                          worker=worker.worker_id, delivery=delivery)

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _fleet_can_recover(self) -> bool:
        """Any registered worker, or a spawned process still alive?"""
        if self._workers:
            return True
        return any(proc.poll() is None for proc in self.worker_procs)

    def _maybe_run_inline(self, now: float) -> None:
        if not self.allow_inline or self._fleet_can_recover():
            return
        # No fleet left. Execute the next ready shard here — one per
        # loop iteration so late-connecting workers can still register.
        while self._ready and self._ready[0][0] > now and not self._workers:
            time.sleep(min(0.05, self._ready[0][0] - now))
            now = time.monotonic()
        if not self._ready or self._ready[0][0] > now:
            return
        _, _, shard = heapq.heappop(self._ready)
        if (shard.shard_id in self.completed
                or shard.shard_id in self.quarantined
                or shard.shard_id in self._in_flight):
            return
        delivery = self.deliveries.get(shard.shard_id, 0) + 1
        self.record("delivery", shard.shard_id, delivery)
        self.counters.bump("shards_inline")
        fleet_instant(self.tracer, "inline_fallback",
                      shard=shard.shard_id[:12], index=shard.index)
        aggregate = execute_shard(shard, self.spec, cache=self.cache,
                                  fp=self.fp)
        self._record_done(shard, aggregate)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        self._stop.set()
        for worker in list(self._workers.values()):
            try:
                worker.stream.send({"type": "shutdown"})
            except (OSError, FrameError):
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        deadline = time.monotonic() + 3.0
        for proc in self.worker_procs:
            remaining = max(0.05, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for worker in self._workers.values():
            worker.stream.close()
        self._workers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FleetCoordinator {self.key[:12]} "
                f"shards={len(self.shards)} "
                f"completed={len(self.completed)}>")


def run_fleet_campaign(spec: CampaignSpec, *, workers: int = 2,
                       cache: Optional[ResultCache] = None,
                       state_dir: Optional[os.PathLike] = None,
                       resume: bool = False,
                       chaos: Optional[FleetChaosPlan] = None,
                       **kwargs) -> Tuple[Dict, FleetCounters]:
    """Convenience wrapper: coordinator + local worker pool, one call."""
    coordinator = FleetCoordinator(spec, cache=cache, state_dir=state_dir,
                                   resume=resume, **kwargs)
    report = coordinator.run(spawn_workers=workers, chaos=chaos)
    return report, coordinator.counters
