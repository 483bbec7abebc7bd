"""The repo's one local executor: process-pool or inline units of work.

Every run of the evaluation (§5) is an independent, deterministic unit
of work: the same job tuple always produces the same metrics, the same
scenario seed the same oracle verdict, the same (log, analysis) pair
the same replayed verdict. That makes the grid embarrassingly parallel
and perfectly cacheable, and this module exploits both:

* :class:`Unit` — the contract: ``key(fp)`` names the result (or is
  None for a unit that is never journaled or cached) and ``execute()``
  computes it as a JSON-safe payload;
* :class:`Job` — one simulation run, described by plain data (a
  registered benchmark name rather than a live
  :class:`~repro.machine.program.Program`, so it pickles cheaply and
  hashes stably); fuzz scenarios (:mod:`repro.scengen.campaign`) and
  replays (:mod:`repro.eventlog.replay`) are the other units;
* :class:`ParallelRunner` — executes a batch of units via
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs>1``) or inline
  (``jobs=1``, byte-for-byte the serial behavior), consulting a
  :class:`~repro.harness.journal.RunJournal` and a
  :class:`~repro.harness.resultcache.ResultCache` first when attached;
  suites, fuzz campaigns, replay fan-outs and fleet shards all run
  through it;
* :func:`fingerprint` — hash of the package version plus every active
  cost constant, folded into each cache key so editing the cost model
  (or running under a :class:`~repro.harness.costmodel.CostModel`
  override) invalidates prior results automatically.

The runner is crash-tolerant (this is the harness the chaos experiments
lean on, so it must outlive anything it measures): per-job wall-clock
timeouts, bounded retry for transient failures, recovery
from a killed worker (:class:`BrokenProcessPool` rebuilds the pool or
falls back to inline execution), per-job :class:`JobFailure` records
instead of batch aborts, and an optional
:class:`~repro.harness.journal.RunJournal` checkpoint so ``--resume``
replays every finished job with zero re-simulation.

Because runs are deterministic per seed, parallel and serial execution
produce identical metrics — ``tests/harness/test_parallel.py`` enforces
this metric-for-metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.analyses.fasttrack.reports import RaceReport
from repro.core.config import AikidoConfig
from repro.errors import (
    HarnessError,
    JobTimeoutError,
    ReproError,
    SuiteFailureError,
)
from repro.harness.costmodel import snapshot
from repro.harness.journal import RunJournal
from repro.harness.resultcache import ResultCache
from repro.harness.runner import MODES, RunResult, run_mode

#: Failure kinds the runner will retry (transient by nature). Simulated
#: errors (deadlock, segfault, invariant violation) are deterministic —
#: retrying replays the identical failure, so they fail fast instead.
_RETRYABLE_KINDS = frozenset({"timeout", "exception"})


class Unit:
    """One picklable, deterministic unit of work for :class:`ParallelRunner`.

    ``key(fp)`` is the unit's journal/cache key under the harness
    fingerprint ``fp``, or None when the unit is never journaled or
    cached; ``execute()`` computes the result as a JSON-safe payload
    (in a pool worker or inline); ``decode(payload)`` is what
    :meth:`ParallelRunner.run` hands back for it; ``label()`` names the
    unit in a :class:`JobFailure`.
    """

    def key(self, fp: str) -> Optional[str]:
        return None

    def execute(self) -> Dict:
        raise NotImplementedError

    def decode(self, payload: Dict) -> Any:
        return payload

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Job(Unit):
    """One simulation run, described by plain (picklable, hashable) data.

    ``workload`` is a registered benchmark name (see
    :mod:`repro.workloads.parsec`); the worker process rebuilds the
    program from the registry, so no simulator state crosses the
    process boundary.
    """

    workload: str
    mode: str
    threads: int = 8
    scale: float = 1.0
    seed: int = 1
    quantum: int = 150
    config: Optional[AikidoConfig] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise HarnessError(
                f"unknown mode {self.mode!r}; expected one of {MODES}")

    def canonical(self) -> Dict:
        """JSON-able description used for cache keying."""
        return {
            "workload": self.workload,
            "mode": self.mode,
            "threads": self.threads,
            "scale": self.scale,
            "seed": self.seed,
            "quantum": self.quantum,
            "config": (dataclasses.asdict(self.config)
                       if self.config is not None else None),
        }

    def key(self, fp: str) -> str:
        return job_key(self, fp)

    def execute(self) -> Dict:
        return result_to_dict(execute_job(self))

    def decode(self, payload: Dict) -> RunResult:
        return result_from_dict(payload)

    def label(self) -> str:
        return f"{self.workload}/{self.mode}"


def fingerprint() -> str:
    """Hash of everything that can change a run's result besides the job.

    Covers the package version and the full cost-constant snapshot, so
    cache entries written under a different cost model (including
    temporary :class:`CostModel` overrides) never satisfy a lookup.
    """
    basis = {"version": __version__, "costs": snapshot()}
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def job_key(job: Job, fp: Optional[str] = None) -> str:
    """Stable cache key for one job under the given fingerprint."""
    basis = {"job": job.canonical(),
             "fingerprint": fp if fp is not None else fingerprint()}
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------
# RunResult <-> JSON
# ---------------------------------------------------------------------
_RACE_FIELDS = ("kind", "block", "address", "prior_epoch",
                "current_tid", "current_clock", "instr_uid")


class CachedRace:
    """Replayed race report whose structured fields were not archived."""

    def __init__(self, description: str):
        self._description = description

    def describe(self) -> str:
        return self._description

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CachedRace {self._description}>"


def _race_to_dict(race) -> Dict:
    if all(hasattr(race, field) for field in _RACE_FIELDS):
        return {field: getattr(race, field) for field in _RACE_FIELDS}
    return {"describe": race.describe()}


def _race_from_dict(payload: Dict):
    if "describe" in payload:
        return CachedRace(payload["describe"])
    return RaceReport(payload["kind"], payload["block"], payload["address"],
                      payload["prior_epoch"], payload["current_tid"],
                      payload["current_clock"],
                      payload.get("instr_uid", -1))


def result_to_dict(result: RunResult) -> Dict:
    """Serialize a :class:`RunResult` for caching / IPC."""
    return {
        "mode": result.mode,
        "cycles": result.cycles,
        "run_stats": dict(result.run_stats),
        "cycle_breakdown": dict(result.cycle_breakdown),
        "races": [_race_to_dict(r) for r in result.races],
        "aikido_stats": dict(result.aikido_stats),
        "hypervisor_stats": dict(result.hypervisor_stats),
        "detector_profile": dict(result.detector_profile),
        "chaos": result.chaos,
        "timeline": [dict(sample) for sample in result.timeline],
        "elision": result.elision,
        "superblocks": result.superblocks,
    }


def result_from_dict(payload: Dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    return RunResult(
        payload["mode"], payload["cycles"], dict(payload["run_stats"]),
        dict(payload["cycle_breakdown"]),
        races=[_race_from_dict(r) for r in payload["races"]],
        aikido_stats=dict(payload["aikido_stats"]),
        hypervisor_stats=dict(payload["hypervisor_stats"]),
        detector_profile=dict(payload["detector_profile"]),
        chaos=payload.get("chaos"),  # absent in pre-chaos archives
        timeline=payload.get("timeline"),  # absent in pre-1.2 archives
        elision=payload.get("elision"),  # absent in pre-elision archives
        superblocks=payload.get("superblocks"),  # absent pre-1.4
    )


def execute_job(job: Job) -> RunResult:
    """Run one job in this process (the serial path and the worker body)."""
    from repro.workloads.parsec import get_benchmark

    spec = get_benchmark(job.workload)
    program = spec.program(threads=job.threads, scale=job.scale)
    kwargs = dict(seed=job.seed, quantum=job.quantum)
    if job.config is not None:
        kwargs["config"] = job.config
    return run_mode(program, job.mode, **kwargs)


@dataclass
class JobFailure:
    """Per-unit failure record: what failed, how, and what it left behind.

    Takes a failed unit's slot in the batch result list so one bad run no
    longer costs the suite every *good* run. ``job`` is the failed
    :class:`Unit` (a :class:`Job` for suite runs). ``kind`` is one of
    ``timeout`` / ``simulated`` / ``exception``;
    ``address`` / ``thread_id`` / ``invariant`` carry the structured
    fields of :class:`~repro.errors.SegmentationFaultError` and
    :class:`~repro.errors.InvariantViolationError` when present.
    """

    job: Unit
    kind: str
    error_type: str
    message: str
    attempts: int = 1
    address: Optional[int] = None
    thread_id: Optional[int] = None
    invariant: Optional[str] = None
    details: Dict = field(default_factory=dict)

    def describe(self) -> str:
        parts = [self.job.label(),
                 f"[{self.kind}] {self.error_type}: {self.message}"]
        if self.address is not None:
            parts.append(f"addr={self.address:#x}")
        if self.thread_id is not None:
            parts.append(f"tid={self.thread_id}")
        if self.invariant is not None:
            parts.append(f"invariant={self.invariant}")
        if self.attempts > 1:
            parts.append(f"after {self.attempts} attempts")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobFailure {self.describe()}>"


@contextmanager
def _deadline(seconds: Optional[float]):
    """Enforce a wall-clock budget on the enclosed block via SIGALRM.

    No-op when ``seconds`` is falsy or we are not on the main thread
    (SIGALRM can only be handled there). Nests: an enclosing deadline's
    remaining time is re-armed on exit, so the per-job guard composes
    with e.g. the test suite's global runaway guard.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeoutError(
            f"job exceeded its {seconds:g}s wall-clock budget")

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if old_delay:
            remaining = old_delay - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001),
                             old_interval)


def _error_outcome(kind: str, exc: BaseException) -> Dict:
    outcome = {
        "status": "error",
        "kind": kind,
        "error_type": type(exc).__name__,
        "message": str(exc),
    }
    for attr in ("address", "thread_id", "invariant"):
        value = getattr(exc, attr, None)
        if value is not None:
            outcome[attr] = value
    details = getattr(exc, "details", None)
    if details:
        outcome["details"] = dict(details)
    return outcome


def _guarded_outcome(unit: Unit, timeout: Optional[float]) -> Dict:
    """Execute one unit, capturing any failure as a plain outcome dict.

    Outcome dicts (not exceptions) cross the process boundary: exception
    pickling would silently drop the structured fields of errors like
    :class:`SegmentationFaultError` whose ``__init__`` takes keyword-only
    extras.
    """
    try:
        with _deadline(timeout):
            payload = unit.execute()
    except JobTimeoutError as exc:
        return _error_outcome("timeout", exc)
    except ReproError as exc:
        return _error_outcome("simulated", exc)
    except Exception as exc:  # noqa: BLE001 - the pool must survive anything
        return _error_outcome("exception", exc)
    return {"status": "ok", "payload": payload}


def _init_pool_worker(parent: int) -> None:
    """Pool-worker start-up: mark the process, and exit once orphaned.

    A SIGKILLed parent (the kill/resume case the journal exists for)
    would otherwise leave its workers blocked on the pool's call queue
    forever; the watchdog ends them within half a second.
    """
    os.environ["AIKIDO_POOL_WORKER"] = "1"

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Map the user-facing ``--jobs`` value to a worker count.

    ``None`` or ``0`` mean "auto" (one worker per CPU); anything below
    zero is an error.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise HarnessError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return jobs


#: What ParallelRunner.run hands back per unit: ``unit.decode(payload)``
#: (a RunResult for a Job) or a failure record.
BatchEntry = Any
#: Called in the runner's process as each unit finishes executing.
Progress = Callable[[Unit, Dict], None]


class ParallelRunner:
    """Execute unit batches across processes, reusing recorded results.

    ``jobs=1`` runs everything inline in submission order — exactly the
    serial behavior. ``jobs>1`` fans the batch out over a
    :class:`ProcessPoolExecutor`; ``jobs=0`` (or None) sizes the pool to
    the machine. Units are :class:`Unit`\\ s: suite :class:`Job`\\ s,
    fuzz scenarios, replays, fleet shard units.

    Lookup order, for every unit with a key: the ``journal`` first, then
    the ``cache`` (a :class:`ResultCache` or None; a hit is journaled
    too, so a resume without the cache still replays it); a miss is
    executed and, on success, recorded — journal first, then cache.

    Hardening knobs (all keyword-only, all off by default):

    ``timeout``
        Per-unit wall-clock budget in seconds; an overrunning unit
        becomes a ``timeout`` failure record instead of hanging the
        batch.
    ``retries``
        Extra attempts granted to *transient* failures (timeout, host
        exception, killed worker). Simulated errors never retry — the
        simulation is deterministic, so the rerun would fail identically.
    ``journal``
        A :class:`RunJournal`; every finished or cache-served unit is
        checkpointed, and journaled results are replayed before cache
        lookup, so resuming an interrupted batch re-executes nothing
        that finished.

    A worker death (:class:`BrokenProcessPool`) is absorbed: completed
    results are kept, the pool is rebuilt for units with retry budget,
    and units without budget run inline in this process — the batch
    always comes back full.

    Counters: ``simulations`` (units actually started), ``cache_hits``,
    ``journal_hits``, ``timeouts``, ``retries_performed``,
    ``pool_recoveries``, ``inline_fallbacks`` — the acceptance check "a
    warm rerun performs zero simulations" is ``runner.simulations == 0``.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ResultCache] = None, *,
                 timeout: Optional[float] = None, retries: int = 0,
                 journal: Optional[RunJournal] = None):
        if retries < 0:
            raise HarnessError(f"retries must be >= 0, got {retries}")
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.journal = journal
        self.simulations = 0
        self.cache_hits = 0
        self.journal_hits = 0
        self.timeouts = 0
        self.retries_performed = 0
        self.pool_recoveries = 0
        self.inline_fallbacks = 0

    def run(self, units: Sequence[Unit], strict: bool = True,
            progress: Optional[Progress] = None) -> List[BatchEntry]:
        """Run a batch; entries come back in submission order.

        Each entry is ``unit.decode(payload)`` or a :class:`JobFailure`.
        With ``strict=True`` (default) any failed unit raises
        :class:`SuiteFailureError` *after* the whole batch settles; the
        exception carries both the failure records and the full mixed
        result list, so completed work is never lost. ``strict=False``
        returns the mixed list directly. ``progress(unit, payload)`` is
        called here as each unit finishes executing (journal and cache
        hits excepted).
        """
        units = list(units)
        results: List[BatchEntry] = []
        for unit, (outcome, attempts) in zip(
                units, self._execute(units, progress)):
            fields = {name: value for name, value in outcome.items()
                      if name not in ("status", "key")}
            results.append(unit.decode(fields["payload"])
                           if outcome["status"] == "ok" else
                           JobFailure(unit, attempts=attempts, **fields))
        failures = [entry for entry in results
                    if isinstance(entry, JobFailure)]
        if failures and strict:
            lines = "; ".join(f.describe() for f in failures)
            raise SuiteFailureError(
                f"{len(failures)} of {len(units)} jobs failed: {lines}",
                failures=failures, results=results)
        return results

    def outcomes(self, units: Sequence[Unit]) -> List[Dict]:
        """Run a batch; return each unit's plain outcome dict, in order.

        ``{"status": "ok", "key", "payload"}`` on success, else the
        error fields (``status``, ``kind``, ``error_type``, ``message``
        and any structured extras) plus ``key`` — the JSON-safe form a
        fleet shard aggregate carries. Never raises for a failed unit.
        """
        return [outcome for outcome, _ in self._execute(list(units), None)]

    # ------------------------------------------------------------------
    # lookup, store, execution backends
    # ------------------------------------------------------------------
    def _lookup(self, key: Optional[str]) -> Optional[Dict]:
        """A recorded payload for ``key``: journal first, then cache."""
        if key is None:
            return None
        if self.journal is not None:
            payload = self.journal.get(key)
            if payload is not None:
                self.journal_hits += 1
                return payload
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                self.cache_hits += 1
                if self.journal is not None:
                    self.journal.record(key, payload)
                return payload
        return None

    def _store(self, key: Optional[str], payload: Dict) -> None:
        """Checkpoint one successful result: journal first, then cache."""
        if key is None:
            return
        if self.journal is not None:
            self.journal.record(key, payload)
        if self.cache is not None:
            self.cache.put(key, payload)

    def _execute(self, units: List[Unit], progress: Optional[Progress]
                 ) -> List[Tuple[Dict, int]]:
        """Settle every unit to ``(keyed outcome, attempts)``."""
        settled: List[Optional[Tuple[Dict, int]]] = [None] * len(units)
        keys: List[Optional[str]] = []
        pending: List[int] = []

        fp = fingerprint()
        for index, unit in enumerate(units):
            keys.append(unit.key(fp))
            payload = self._lookup(keys[index])
            if payload is not None:
                settled[index] = ({"status": "ok", "key": keys[index],
                                   "payload": payload}, 1)
            else:
                pending.append(index)

        if pending:
            self.simulations += len(pending)
            queue: List[Tuple[int, int]] = [(i, 1) for i in pending]
            if self.jobs == 1 or len(pending) == 1:
                self._run_inline(units, queue, settled, keys, progress)
            else:
                self._run_pool(units, queue, settled, keys, progress)
        return settled

    def _run_inline(self, units: List[Unit], queue: List[Tuple[int, int]],
                    settled: List, keys: List[Optional[str]],
                    progress: Optional[Progress]) -> None:
        while queue:
            retry_queue: List[Tuple[int, int]] = []
            for index, attempt in queue:
                outcome = _guarded_outcome(units[index], self.timeout)
                self._settle(units, index, attempt, outcome, settled, keys,
                             progress, retry_queue)
            queue = retry_queue

    def _run_pool(self, units: List[Unit], queue: List[Tuple[int, int]],
                  settled: List, keys: List[Optional[str]],
                  progress: Optional[Progress]) -> None:
        while queue:
            workers = min(self.jobs, len(queue))
            retry_queue: List[Tuple[int, int]] = []
            casualties: List[Tuple[int, int]] = []
            broken = False
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_init_pool_worker,
                                     initargs=(os.getpid(),)) as pool:
                futures = {
                    pool.submit(_guarded_outcome, units[index],
                                self.timeout): (index, attempt)
                    for index, attempt in queue
                }
                not_done = set(futures)
                while not_done and not broken:
                    done, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                    for future in done:
                        index, attempt = futures[future]
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            broken = True
                            casualties.append((index, attempt))
                            continue
                        self._settle(units, index, attempt, outcome,
                                     settled, keys, progress, retry_queue)
                if broken:
                    # The pool is dead but completed futures still hold
                    # their outcomes — harvest them, requeue the rest.
                    self.pool_recoveries += 1
                    for future in not_done:
                        index, attempt = futures[future]
                        try:
                            outcome = future.result(timeout=0)
                        except Exception:  # noqa: BLE001 - dead future
                            casualties.append((index, attempt))
                            continue
                        self._settle(units, index, attempt, outcome,
                                     settled, keys, progress, retry_queue)
            for index, attempt in casualties:
                if attempt <= self.retries:
                    self.retries_performed += 1
                    retry_queue.append((index, attempt + 1))
                else:
                    # No retry budget left: guarantee progress by running
                    # the casualty inline (a kill loop cannot reach us
                    # here — this process is the batch's owner).
                    self.inline_fallbacks += 1
                    outcome = _guarded_outcome(units[index], self.timeout)
                    self._settle(units, index, attempt, outcome, settled,
                                 keys, progress, retry_queue,
                                 lost_worker_fallback=True)
            queue = retry_queue

    def _settle(self, units: List[Unit], index: int, attempt: int,
                outcome: Dict, settled: List, keys: List[Optional[str]],
                progress: Optional[Progress],
                retry_queue: List[Tuple[int, int]],
                lost_worker_fallback: bool = False) -> None:
        """Turn one outcome dict into a result, a retry, or a failure."""
        key = keys[index]
        if outcome["status"] == "ok":
            payload = outcome["payload"]
            self._store(key, payload)
            settled[index] = ({"status": "ok", "key": key,
                               "payload": payload}, attempt)
            if progress is not None:
                progress(units[index], payload)
            return
        kind = outcome["kind"]
        if kind == "timeout":
            self.timeouts += 1
        if (kind in _RETRYABLE_KINDS and attempt <= self.retries
                and not lost_worker_fallback):
            self.retries_performed += 1
            retry_queue.append((index, attempt + 1))
            return
        settled[index] = (dict(outcome, key=key), attempt)

    def run_one(self, job: Job) -> RunResult:
        """Convenience wrapper: run a single job through cache + pool."""
        return self.run([job])[0]

    def stats_line(self) -> str:
        """One-line traffic summary for CLI/script footers."""
        line = (f"{self.simulations} simulated, "
                f"{self.cache_hits} served from cache")
        if self.journal_hits:
            line += f", {self.journal_hits} replayed from journal"
        extras = []
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.retries_performed:
            extras.append(f"{self.retries_performed} retries")
        if self.pool_recoveries:
            extras.append(f"{self.pool_recoveries} pool recoveries")
        if self.inline_fallbacks:
            extras.append(f"{self.inline_fallbacks} inline fallbacks")
        if extras:
            line += " (" + ", ".join(extras) + ")"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ParallelRunner jobs={self.jobs} "
                f"simulations={self.simulations} "
                f"cache_hits={self.cache_hits}>")
