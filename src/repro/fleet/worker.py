"""Fleet worker: execute assigned shards, heartbeat, survive chaos.

A worker is a plain process that dials the coordinator, registers with
``hello``, and then loops: receive an ``assign`` frame, execute the
shard via the shared :func:`~repro.fleet.shards.execute_shard` path
(consulting the multi-writer-safe result cache), stream ``heartbeat``
frames from a side thread while the shard runs, and ship the aggregate
back as one ``result`` frame. An ``assign`` whose cost-model
fingerprint differs from the worker's own is refused with a
``shard_error`` before anything executes. Workers are stateless by
design — all durable state lives in the coordinator's journal and the
result cache — so killing one at any instruction loses nothing but
in-flight work.

**Chaos-on-the-harness.** :class:`FleetChaosPlan` follows the simulator
chaos discipline (:mod:`repro.chaos.plan`): plain data, a seed, and
per-point rates, with one dedicated RNG stream per (worker, point) so a
campaign's failure schedule replays exactly from its seed. Three points:

``kill``
    ``os.kill(getpid(), SIGKILL)`` before a unit — the hard death the
    lease/requeue machinery exists for.
``stall``
    Sleep past the lease before a unit — the "live but wedged" worker
    that heartbeat timeouts must evict.
``garble``
    Ship raw non-JSON bytes instead of the result frame — the corrupted
    peer the frame validator must reject without wedging.

The plan travels to spawned workers via the ``AIKIDO_FLEET_CHAOS``
environment variable (JSON), keeping the worker command line identical
with and without chaos.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.fleet.protocol import FrameError, FrameStream
from repro.fleet.shards import CampaignSpec, ShardSpec, execute_shard
from repro.harness.parallel import fingerprint
from repro.harness.resultcache import ResultCache

#: Environment variables the coordinator sets for spawned workers.
CHAOS_ENV = "AIKIDO_FLEET_CHAOS"
WORKER_INDEX_ENV = "AIKIDO_FLEET_WORKER_INDEX"


def _stream_rng(seed: int, worker_index: int, point: str) -> random.Random:
    """Dedicated, replayable RNG stream per (worker, injection point)."""
    basis = f"fleet-chaos:{seed}:{worker_index}:{point}".encode()
    return random.Random(int.from_bytes(
        hashlib.sha256(basis).digest()[:8], "big"))


@dataclass(frozen=True)
class FleetChaosPlan:
    """Seeded, serializable harness-chaos description.

    Rates are per-unit (``kill``/``stall``) or per-result (``garble``)
    firing probabilities in ``[0, 1]``; ``stall_s`` is how long a stall
    sleeps (choose it above the coordinator's lease to force eviction).
    """

    seed: int = 0
    kill_rate: float = 0.0
    stall_rate: float = 0.0
    stall_s: float = 0.0
    garble_rate: float = 0.0

    def active(self) -> bool:
        return any(r > 0 for r in (self.kill_rate, self.stall_rate,
                                   self.garble_rate))

    def to_json(self) -> str:
        return json.dumps({"seed": self.seed, "kill_rate": self.kill_rate,
                           "stall_rate": self.stall_rate,
                           "stall_s": self.stall_s,
                           "garble_rate": self.garble_rate},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetChaosPlan":
        payload = json.loads(text)
        return cls(seed=payload.get("seed", 0),
                   kill_rate=payload.get("kill_rate", 0.0),
                   stall_rate=payload.get("stall_rate", 0.0),
                   stall_s=payload.get("stall_s", 0.0),
                   garble_rate=payload.get("garble_rate", 0.0))

    @classmethod
    def from_env(cls) -> Optional["FleetChaosPlan"]:
        text = os.environ.get(CHAOS_ENV)
        return cls.from_json(text) if text else None


class _ChaosStreams:
    """The per-worker instantiation of a :class:`FleetChaosPlan`."""

    def __init__(self, plan: FleetChaosPlan, worker_index: int):
        self.plan = plan
        self._kill = _stream_rng(plan.seed, worker_index, "kill")
        self._stall = _stream_rng(plan.seed, worker_index, "stall")
        self._garble = _stream_rng(plan.seed, worker_index, "garble")

    def unit_hook(self, _unit_index: int) -> None:
        """Fired before every unit: maybe die, maybe wedge."""
        if (self.plan.kill_rate > 0
                and self._kill.random() < self.plan.kill_rate):
            # A real SIGKILL: no atexit, no finally, no flush — the
            # worker vanishes exactly like an OOM-killed host process.
            os.kill(os.getpid(), signal.SIGKILL)
        if (self.plan.stall_rate > 0
                and self._stall.random() < self.plan.stall_rate):
            time.sleep(self.plan.stall_s)

    def garble_result(self) -> bool:
        return (self.plan.garble_rate > 0
                and self._garble.random() < self.plan.garble_rate)


class _Heartbeat(threading.Thread):
    """Streams heartbeat frames while a shard executes."""

    def __init__(self, stream: FrameStream, worker_id: str,
                 shard_id: str, interval_s: float):
        super().__init__(daemon=True)
        self.stream = stream
        self.worker_id = worker_id
        self.shard_id = shard_id
        self.interval_s = interval_s
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.stream.send({"type": "heartbeat",
                                  "worker_id": self.worker_id,
                                  "shard_id": self.shard_id})
            except OSError:
                return  # coordinator gone; the main loop will notice

    def stop(self) -> None:
        self._stop.set()


def parse_address(text: str) -> Tuple[str, int]:
    """``host:port`` -> tuple, with a usable error message."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise FrameError(f"bad address {text!r}; expected HOST:PORT")
    return host or "127.0.0.1", int(port)


def worker_main(address: Tuple[str, int], *,
                cache: Optional[ResultCache] = None,
                chaos: Optional[FleetChaosPlan] = None,
                worker_index: int = 0,
                connect_timeout: float = 10.0) -> int:
    """Run one worker until the coordinator says ``shutdown``.

    Returns an exit status: 0 after a clean shutdown, 1 when the
    coordinator disappeared (the respawn-friendly outcome), 2 on a
    protocol violation from the coordinator.
    """
    if chaos is None:
        chaos = FleetChaosPlan.from_env()
    streams = (_ChaosStreams(chaos, worker_index)
               if chaos is not None and chaos.active() else None)
    own_fp = fingerprint()
    try:
        sock = socket.create_connection(address, timeout=connect_timeout)
    except OSError as exc:
        print(f"fleet worker: cannot reach coordinator at "
              f"{address[0]}:{address[1]}: {exc}", file=sys.stderr)
        return 1
    stream = FrameStream(sock)
    worker_id = None
    try:
        stream.send({"type": "hello", "pid": os.getpid(),
                     "worker_index": worker_index})
        welcome = stream.recv(timeout=connect_timeout)
        if welcome is None or welcome["type"] != "welcome":
            return 2
        worker_id = welcome["worker_id"]
        heartbeat_s = welcome["heartbeat_s"]
        while True:
            frame = stream.recv(timeout=None)
            if frame is None:
                return 1
            if frame["type"] == "shutdown":
                stream.send({"type": "bye", "worker_id": worker_id})
                return 0
            if frame["type"] != "assign":
                return 2
            shard = ShardSpec.from_dict(frame["shard"])
            if frame.get("fingerprint") != own_fp:
                # Outcomes computed under another cost model or version
                # must never be merged: refuse without executing, so
                # the coordinator requeues (and finally quarantines)
                # the shard.
                theirs = str(frame.get("fingerprint"))[:12]
                stream.send({"type": "shard_error",
                             "worker_id": worker_id,
                             "shard_id": shard.shard_id,
                             "message": f"fingerprint mismatch: "
                                        f"coordinator {theirs}, "
                                        f"worker {own_fp[:12]}"})
                continue
            spec = CampaignSpec.from_dict(frame["campaign"])
            beat = _Heartbeat(stream, worker_id, shard.shard_id,
                              heartbeat_s)
            beat.start()
            try:
                aggregate = execute_shard(
                    shard, spec, cache=cache,
                    unit_hook=(streams.unit_hook if streams else None))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                beat.stop()
                stream.send({"type": "shard_error",
                             "worker_id": worker_id,
                             "shard_id": shard.shard_id,
                             "message": f"{type(exc).__name__}: {exc}"})
                continue
            beat.stop()
            if streams is not None and streams.garble_result():
                # Chaos: ship bytes that can never parse, then die the
                # way a corrupted peer would.
                stream.send_raw(b'{"type": <<garbled result frame\n')
                return 1
            stream.send({"type": "result", "worker_id": worker_id,
                         "shard_id": shard.shard_id,
                         "aggregate": aggregate})
    except FrameError:
        return 2
    except OSError:
        return 1
    finally:
        stream.close()
