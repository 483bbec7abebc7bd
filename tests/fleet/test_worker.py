"""The fleet worker, driven by a scripted in-test coordinator.

The coordinator side is a raw listening socket speaking the wire
protocol by hand, so each test controls exactly which frames the real
:func:`worker_main` sees.
"""

import socket
import threading
from unittest import mock

from repro.fleet import worker as worker_module
from repro.fleet.protocol import FrameStream
from repro.fleet.shards import CampaignSpec, partition
from repro.harness.parallel import fingerprint

ONE_SHARD = CampaignSpec(kind="fuzz", base_seed=1, count=2, shard_size=2)


def serve_one_assign(assign_fingerprint):
    """Run a real worker against a scripted coordinator that hands out
    one shard under ``assign_fingerprint``; return (reply, exit status)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)
    box = {}
    thread = threading.Thread(
        target=lambda: box.setdefault(
            "status", worker_module.worker_main(listener.getsockname())),
        daemon=True)
    thread.start()
    conn, _ = listener.accept()
    stream = FrameStream(conn)
    try:
        assert stream.recv(timeout=10)["type"] == "hello"
        stream.send({"type": "welcome", "worker_id": "w0",
                     "lease_s": 10.0, "heartbeat_s": 5.0})
        (shard,) = partition(ONE_SHARD)
        stream.send({"type": "assign", "shard": shard.to_dict(),
                     "campaign": ONE_SHARD.canonical(),
                     "fingerprint": assign_fingerprint, "delivery": 1})
        reply = stream.recv(timeout=60)
        stream.send({"type": "shutdown"})
        assert stream.recv(timeout=10)["type"] == "bye"
    finally:
        stream.close()
        listener.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return reply, box["status"]


class TestFingerprintCheck:
    def test_mismatched_fingerprint_refused_without_executing(self):
        with mock.patch.object(worker_module, "execute_shard",
                               side_effect=RuntimeError("executed")) \
                as execute:
            reply, status = serve_one_assign("0" * 64)
        assert execute.call_count == 0
        assert reply["type"] == "shard_error"
        assert "fingerprint mismatch" in reply["message"]
        assert status == 0

    def test_matching_fingerprint_executes(self):
        reply, status = serve_one_assign(fingerprint())
        assert reply["type"] == "result"
        assert reply["aggregate"]["units"] == 2
        assert status == 0
