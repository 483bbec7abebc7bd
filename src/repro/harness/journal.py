"""Append-only run journal for checkpoint/resume.

The result cache (:mod:`repro.harness.resultcache`) already makes warm
reruns free — but it lives in a global directory keyed by job hash, and a
user may run with caching disabled or a scratch cache. The journal is the
suite-local complement: one JSONL file per suite invocation, recording
every finished job as a ``{"key": ..., "payload": ...}`` line. Re-running
with ``--resume`` replays finished jobs from the journal and simulates
only what is missing — a suite killed nine jobs into ten restarts with
exactly one simulation left.

The format is deliberately crash-tolerant: a process killed mid-write
leaves at most one truncated final line, which loading skips (along with
any other undecodable line) instead of refusing the whole file. It is
the repo's one crash-safe log: the fleet coordinator persists its shard
state through it too (:mod:`repro.fleet.coordinator`).

:func:`lookup_payload` and :func:`store_payload` own the lookup order
every resumable runner shares — journal before cache, a cache hit is
journaled too, store on success — so suites, fuzz campaigns and fleet
shard units cannot drift apart.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.harness.resultcache import ResultCache


class RunJournal:
    """A JSONL checkpoint file mapping job keys to result payloads.

    ``resume=True`` loads any existing journal content first (the
    ``replayed`` counter says how many entries survived); ``resume=False``
    truncates, so a fresh suite never replays stale results by accident.
    Records are flushed per entry and, with ``fsync=True`` (the
    default), fsync'd too — the journal's whole job is surviving the
    death of the process writing it; ``fsync=False`` trades power-cut
    durability for append throughput (crash-of-the-process safety is
    retained either way, the OS owns the flushed bytes).

    Resume is damage-tolerant: a truncated or otherwise undecodable
    line (a crash mid-append, manual editing) is skipped with a
    :class:`RuntimeWarning` naming the count — never a refusal that
    would cost the campaign every *good* entry in the file.
    """

    def __init__(self, path: os.PathLike, resume: bool = False, *,
                 fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._entries: Dict[str, Dict] = {}
        self.replayed = 0
        self.dropped_lines = 0
        if resume:
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")

    def _load(self) -> None:
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    payload = record["payload"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # Truncated tail from a crash mid-write, or manual
                    # editing damage: skip the line, keep the rest.
                    self.dropped_lines += 1
                    continue
                self._entries[key] = payload
        self.replayed = len(self._entries)
        if self.dropped_lines:
            warnings.warn(
                f"journal {self.path}: skipped {self.dropped_lines} "
                "undecodable line(s) — expected after a crash "
                "mid-append; every decodable entry was kept",
                RuntimeWarning, stacklevel=2)

    def get(self, key: str) -> Optional[Dict]:
        """Return the journaled payload for ``key``, or None."""
        return self._entries.get(key)

    def record(self, key: str, payload: Dict) -> None:
        """Append one finished job (idempotent per key on reload)."""
        self._entries[key] = payload
        with open(self.path, "a") as handle:
            handle.write(json.dumps({"key": key, "payload": payload}))
            handle.write("\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def payloads(self) -> Iterator[Dict]:
        """Every live payload: the last one recorded under each key."""
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RunJournal {self.path} entries={len(self._entries)} "
                f"replayed={self.replayed}>")


def lookup_payload(key: str, journal: Optional[RunJournal],
                   cache: Optional[ResultCache]
                   ) -> Tuple[Optional[Dict], Optional[str]]:
    """Find ``key``'s payload: journal first, then cache.

    Returns ``(payload, source)`` with ``source`` ``"journal"``,
    ``"cache"`` or ``None`` (a miss: simulate, then
    :func:`store_payload`). A cache hit is journaled on the spot, so a
    resume without the cache still replays it.
    """
    if journal is not None:
        payload = journal.get(key)
        if payload is not None:
            return payload, "journal"
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            if journal is not None:
                journal.record(key, payload)
            return payload, "cache"
    return None, None


def store_payload(key: str, payload: Dict, journal: Optional[RunJournal],
                  cache: Optional[ResultCache]) -> None:
    """Checkpoint one successful result: journal first, then cache."""
    if journal is not None:
        journal.record(key, payload)
    if cache is not None:
        cache.put(key, payload)
