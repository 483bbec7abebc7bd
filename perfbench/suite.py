"""Workloads, timed operations and correctness checks of the benchmark.

A workload is a fixed list of operations built from ``--seed``. One
*pass* runs every operation once; a run repeats passes and reports, per
metric, the sum over its operations of each operation's median time.
An operation is one simulation, one fuzz scenario, one recording or one
replay fan-out.

Every workload reports every end-to-end metric, so each one runs all
three operation families; the family a workload exists for gets its
full input set, the others a small fixed slice:

* Fig. 5 pipelines (``native``, ``fasttrack``, ``aikido-fasttrack``)
  at the default tiers and :class:`AikidoConfig`;
* record + replay: :func:`record_run` streams one simulation into an
  event log, :class:`ReplayFanout` replays it into four detectors
  (``jobs=1``: no process pool);
* oracle: :func:`run_campaign` over one quick scengen scenario, reducer
  off, no journal or cache.

Host speed on a shared machine drifts by tens of percent over tens of
seconds, and most of the drift moves every operation alike. So each
time metric is in seconds at a fixed reference host speed: between
operations (at most every :data:`PROBE_INTERVAL` seconds) the run times
:func:`speed_probe`, a toy register machine that shares no code with
the simulator but exercises the same interpreter paths (bound-method
dispatch, list and dict traffic, small tuples), and an operation's wall
time is multiplied by ``REFERENCE_PROBE_S / probe``, with ``probe`` the
median of the probes right before and right after it. The per-layer
times of a traced run are plain wall time.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.eventlog.replay import ReplayFanout, record_run
from repro.harness.runner import RunResult, run_mode
from repro.scengen.campaign import run_campaign
from repro.scengen.generator import QUICK_CONFIG, generate
from repro.scengen.scenario import instruction_count
from repro.staticanalysis.analysiscache import clear_cache
from repro.workloads import parsec

#: Simulation parameters of every PARSEC operation: the paper's thread
#: count and the ``experiments`` defaults.
THREADS = 8
SCALE = 1.0
QUANTUM = 150

PIPELINES = ("native", "fasttrack", "aikido-fasttrack")
ANALYSES = ("djit", "eraser", "fasttrack", "memtag")

PRIVATE = ("raytrace", "blackscholes", "swaptions")
SHARED = ("freqmine", "bodytrack", "fluidanimate", "vips", "x264",
          "canneal", "streamcluster")
RECORDED = ("canneal", "streamcluster", "fluidanimate")
#: fuzz-oracle's passes are long, so its slices take four programs to
#: get as many samples per metric as the other workloads' two.
FUZZ_SLICE = ("canneal", "streamcluster", "blackscholes", "swaptions")

#: Seconds :func:`speed_probe` takes at the reference host speed.
REFERENCE_PROBE_S = 0.004
#: Minimum host seconds between two speed probes.
PROBE_INTERVAL = 0.1
#: Probes on each side of an operation that set its host speed.
PROBE_WINDOW = 3


@dataclass(frozen=True)
class Plan:
    """What one pass of a workload runs.

    ``pipelines`` and ``recorded`` name PARSEC programs, simulated with
    ``--seed`` as the schedule seed. ``scenarios`` quick scengen
    scenarios go through the oracle: drawn from ``--seed`` when
    ``seeded_scenarios``, else the fixed slice of scengen seeds 1..n.
    """

    pipelines: Tuple[str, ...]
    recorded: Tuple[str, ...]
    scenarios: int
    seeded_scenarios: bool = False


#: A family a workload exists for gets its full input set; the other
#: families get a fixed slice, so their figures do not move with the
#: seed.
PLANS: Dict[str, Plan] = {
    "parsec-private": Plan(PRIVATE, ("blackscholes", "swaptions"), 20),
    "parsec-shared": Plan(SHARED, ("streamcluster", "canneal"), 20),
    "fuzz-oracle": Plan(FUZZ_SLICE, FUZZ_SLICE, 100, True),
    "replay-fanout": Plan(("canneal", "streamcluster"), RECORDED, 20),
}

#: Candidates drawn per seeded scenario (see :func:`scenario_seeds`).
CANDIDATES_PER_SCENARIO = 4

#: End-to-end time metric -> the operation kind it sums.
TIME_METRICS = {
    "native_s": "native",
    "fasttrack_s": "fasttrack",
    "aikido_s": "aikido-fasttrack",
    "record_s": "record",
    "replay_s": "replay",
}


class _ProbeMachine:
    """A toy register machine: list registers, dict memory, dispatch
    through a dict of bound methods. It exercises what the simulator's
    hot loops exercise, so host slowdowns hit both alike."""

    PROGRAM = (("add", 1, 1, 2), ("load", 3, 1), ("store", 1, 3),
               ("mul", 2, 2), ("mask", 1, 1), ("jump",))

    def __init__(self):
        self.ops = {"add": self.add, "load": self.load,
                    "store": self.store, "mul": self.mul,
                    "mask": self.mask, "jump": self.jump}

    def add(self, state, a, b, c):
        state.regs[a] = (state.regs[b] + state.regs[c] + 1) & 0xFFFF

    def mul(self, state, a, b):
        state.regs[a] = (state.regs[b] * 31 + 7) & 0xFFFF

    def mask(self, state, a, b):
        state.regs[a] = state.regs[b] & 0x3FF

    def load(self, state, a, b):
        state.regs[a] = state.memory.get(state.regs[b], (0,))[0]

    def store(self, state, a, b):
        state.memory[state.regs[a]] = (state.regs[b], state.steps)

    def jump(self, state):
        state.pc = -1

    def run(self, steps: int) -> None:
        state = _ProbeState()
        program, ops = self.PROGRAM, self.ops
        for _ in range(steps):
            op = program[state.pc]
            ops[op[0]](state, *op[1:])
            state.pc += 1
            state.steps += 1


class _ProbeState:
    __slots__ = ("regs", "memory", "pc", "steps")

    def __init__(self):
        self.regs = [0] * 4
        self.memory: Dict[int, Tuple[int, int]] = {}
        self.pc = 0
        self.steps = 0


_PROBE_MACHINE = _ProbeMachine()


def speed_probe() -> float:
    """Seconds a fixed run of :class:`_ProbeMachine` takes right now."""
    start = time.perf_counter()
    _PROBE_MACHINE.run(8_000)
    return time.perf_counter() - start


def scenario_seeds(plan: Plan, seed: int) -> List[int]:
    """The scengen seeds a workload's oracle checks.

    Oracle time varies about 50% from one scenario to the next and
    follows the scenario's static size, so a seeded set is sampled by
    size: from the ``CANDIDATES_PER_SCENARIO * n`` scenarios starting at
    ``1 + 1000 * seed``, sorted by static instruction count, every
    ``CANDIDATES_PER_SCENARIO``-th one. Each seed then checks different
    scenarios with the same size mix.
    """
    if not plan.seeded_scenarios:
        return list(range(1, plan.scenarios + 1))
    step = CANDIDATES_PER_SCENARIO
    first = 1 + 1000 * seed
    candidates = range(first, first + step * plan.scenarios)
    by_size = sorted(candidates, key=lambda s: (
        instruction_count(generate(s, QUICK_CONFIG)), s))
    return sorted(by_size[step // 2::step])


class Program:
    """One PARSEC program and the arguments it is simulated with."""

    def __init__(self, name: str, seed: int):
        self.label = name
        self.program = parsec.build_benchmark(name, threads=THREADS,
                                              scale=SCALE)
        self.run_kwargs = {"seed": seed, "quantum": QUANTUM}


def build_inputs(workload: str, seed: int) -> Dict[str, List]:
    """Every input of a workload's pass, built from ``seed``."""
    plan = PLANS[workload]
    return {"pipelines": [Program(n, seed) for n in plan.pipelines],
            "recorded": [Program(n, seed) for n in plan.recorded],
            "scenarios": scenario_seeds(plan, seed)}


# -- digests ---------------------------------------------------------------

def _sha(doc) -> str:
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def run_digest(result: RunResult) -> str:
    """Digest of a run's simulated outcome: cycles, cycle breakdown,
    run stats and race blocks."""
    return _sha({"cycles": result.cycles,
                 "breakdown": result.cycle_breakdown,
                 "stats": result.run_stats,
                 "races": sorted(r.block for r in result.races)})


def replay_digest(stats: Dict, merged: Dict) -> str:
    """Digest of one recording and its fan-out verdicts."""
    return _sha({"events": stats["events"], "bytes": stats["bytes"],
                 "chunks": stats["chunks"], "cycles": stats["cycles"],
                 "verdicts": merged["verdicts"],
                 "disagreements": merged["disagreements"]})


# -- operations ------------------------------------------------------------

@dataclass
class Outcome:
    """One operation's result within one pass."""

    key: str
    kind: str
    seconds: float
    failures: List[str]
    payload: object = None
    digest: Optional[str] = None
    #: ``seconds`` at the reference host speed (None: pass not probed).
    scaled: Optional[float] = None
    start: float = 0.0
    end: float = 0.0


class Workload:
    """A workload's inputs plus the machinery to run and check passes."""

    def __init__(self, name: str, seed: int, workdir: str,
                 reference: Optional[Dict] = None):
        if name not in PLANS:
            raise ValueError(f"unknown workload {name!r}; "
                             f"expected one of {sorted(PLANS)}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.inputs = build_inputs(name, seed)
        #: Digest of each operation in the first pass; later passes must
        #: reproduce it.
        self.first_digests: Dict[str, str] = {}

    # Each runner returns (payload, failures); digests are taken after
    # the clock stops.

    def _pipeline(self, prog: Program, mode: str):
        return run_mode(prog.program, mode, **prog.run_kwargs), []

    def _record(self, prog: Program):
        path = os.path.join(self.workdir, f"{prog.label}.aiklog")
        return record_run(prog.program, path, **prog.run_kwargs), []

    def _replay(self, stats: Dict):
        return ReplayFanout(ANALYSES, jobs=1).run(stats["path"]), []

    def _scenario(self, scenario_seed: int):
        result = run_campaign(scenario_seed, 1, reduce_failing=False)
        failures = [f"oracle disagreement: {p['verdict']['outcome']}"
                    for p in result.disagreements]
        return result, failures

    def operations(self) -> List[Tuple[str, str, Callable]]:
        """(key, kind, thunk) for every operation of one pass, in order.
        A replay thunk takes its recording's payload."""
        ops: List[Tuple[str, str, Callable]] = []
        for prog in self.inputs["pipelines"]:
            for mode in PIPELINES:
                ops.append((f"{mode}:{prog.label}", mode,
                            lambda p=prog, m=mode: self._pipeline(p, m)))
        for prog in self.inputs["recorded"]:
            ops.append((f"record:{prog.label}", "record",
                        lambda p=prog: self._record(p)))
            ops.append((f"replay:{prog.label}", "replay", self._replay))
        for seed in self.inputs["scenarios"]:
            ops.append((f"oracle:scenario-{seed}", "oracle",
                        lambda s=seed: self._scenario(s)))
        return ops

    def run_pass(self, probe: bool = True,
                 on_operation: Optional[Callable[[int], None]] = None
                 ) -> List[Outcome]:
        """Run every operation once, cold, then check every output.

        ``probe`` times the speed probe between operations and fills in
        :attr:`Outcome.scaled`. ``on_operation(index)`` is called before
        each operation starts (the tracer tags spans with it).
        """
        clear_cache()
        clock = time.perf_counter
        probes: List[Tuple[float, float]] = []  # (end time, seconds)

        def maybe_probe(force: bool = False) -> None:
            if force or not probes or clock() - probes[-1][0] >= (
                    PROBE_INTERVAL):
                seconds = speed_probe()
                probes.append((clock(), seconds))

        outcomes: List[Outcome] = []
        recording: Optional[Outcome] = None
        for index, (key, kind, thunk) in enumerate(self.operations()):
            args = ()
            if kind == "replay":
                if recording is None or recording.failures:
                    outcomes.append(Outcome(key, kind, 0.0,
                                            ["recording failed"]))
                    continue
                args = (recording.payload,)
            if kind != "oracle" or outcomes[-1].kind != "oracle":
                # Every simulation starts from a collected heap; the
                # short scenario checks share one collection.
                gc.collect()
            if probe:
                maybe_probe()
            if on_operation is not None:
                on_operation(index)
            start = clock()
            try:
                payload, failures = thunk(*args)
            except Exception as exc:  # a failed operation, not a crash
                end = clock()
                outcome = Outcome(key, kind, end - start,
                                  [f"{type(exc).__name__}: {exc}"])
            else:
                end = clock()
                outcome = Outcome(key, kind, end - start, failures, payload)
                if kind in PIPELINES:
                    outcome.digest = run_digest(payload)
                elif kind == "replay":
                    outcome.digest = replay_digest(args[0], payload)
            outcome.start, outcome.end = start, end
            if kind == "record":
                recording = outcome
            elif kind == "replay":
                os.remove(args[0]["path"])
            outcomes.append(outcome)
        if probe:
            maybe_probe(force=True)
            _scale(outcomes, probes)
        self.check(outcomes)
        return outcomes

    # -- correctness -------------------------------------------------------

    def _reference_for(self, key: str) -> Optional[str]:
        if self.reference is None:
            return None
        return self.reference.get(str(self.seed), {}).get(key)

    def check(self, outcomes: List[Outcome]) -> None:
        """Append a failure to every operation whose output is wrong."""
        instructions: Dict[str, Dict[str, int]] = {}
        for outcome in outcomes:
            if outcome.digest is None:
                continue
            expected = self._reference_for(outcome.key)
            if expected is not None and outcome.digest != expected:
                outcome.failures.append(
                    f"digest {outcome.digest} != reference {expected}")
            first = self.first_digests.setdefault(outcome.key,
                                                  outcome.digest)
            if outcome.digest != first:
                outcome.failures.append(
                    f"digest {outcome.digest} differs from first pass "
                    f"{first}")
            if isinstance(outcome.payload, RunResult):
                label = outcome.key.split(":", 1)[1]
                instructions.setdefault(label, {})[outcome.kind] = (
                    outcome.payload.run_stats.get("instructions"))
        for outcome in outcomes:
            if not isinstance(outcome.payload, RunResult):
                continue
            counts = instructions[outcome.key.split(":", 1)[1]]
            if len(set(counts.values())) > 1:
                outcome.failures.append(
                    f"pipelines retired different instruction counts "
                    f"{counts}")


def _scale(outcomes: List[Outcome], probes: List[Tuple[float, float]]):
    """Fill in each outcome's time at the reference host speed.

    The host speed around an operation is the median of the
    :data:`PROBE_WINDOW` probes before it and as many after it: a probe
    that was itself preempted must not rescale a whole operation.
    """
    ends = [end for end, _ in probes]
    for outcome in outcomes:
        before = bisect.bisect_right(ends, outcome.start)
        after = bisect.bisect_left(ends, outcome.end)
        window = probes[max(before - PROBE_WINDOW, 0):before]
        window += probes[after:after + PROBE_WINDOW]
        speed = statistics.median(seconds for _, seconds in window)
        outcome.scaled = outcome.seconds * REFERENCE_PROBE_S / speed


# -- aggregation -----------------------------------------------------------

class Measurement:
    """Per-operation scaled times over many passes."""

    def __init__(self):
        self.seconds: Dict[str, List[float]] = {}
        self.kinds: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.passes = 0

    def add(self, outcomes: List[Outcome]) -> None:
        self.passes += 1
        for outcome in outcomes:
            if outcome.scaled is not None:
                self.seconds.setdefault(outcome.key, []).append(
                    outcome.scaled)
            self.kinds[outcome.key] = outcome.kind
            self.attempted += 1
            if outcome.failures:
                self.failed += 1
            self.failures.extend(f"{outcome.key}: {f}"
                                 for f in outcome.failures)

    def kind_seconds(self, kind: str) -> float:
        return sum(statistics.median(self.seconds[key])
                   for key, k in self.kinds.items() if k == kind)

    def end_to_end(self) -> Dict[str, float]:
        metrics = {name: self.kind_seconds(kind)
                   for name, kind in TIME_METRICS.items()}
        scenarios = sum(1 for k in self.kinds.values() if k == "oracle")
        metrics["scenarios_per_s"] = scenarios / self.kind_seconds("oracle")
        return metrics


def program_ratios(outcomes: List[Outcome]
                   ) -> Dict[str, Tuple[float, float]]:
    """Program -> (host fasttrack/aikido, simulated fasttrack/aikido)
    from one pass."""
    runs: Dict[str, Dict[str, Outcome]] = {}
    for outcome in outcomes:
        if isinstance(outcome.payload, RunResult):
            label = outcome.key.split(":", 1)[1]
            runs.setdefault(label, {})[outcome.kind] = outcome
    ratios = {}
    for label, by_mode in runs.items():
        ft, aik = by_mode.get("fasttrack"), by_mode.get("aikido-fasttrack")
        if ft is None or aik is None:
            continue
        ratios[label] = (ft.seconds / aik.seconds,
                         ft.payload.cycles / aik.payload.cycles)
    return ratios
