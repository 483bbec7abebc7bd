"""Greedy structural test-case reduction over scenario IR.

Delta-debugging in miniature: enumerate candidate simplifications of a
failing scenario in a fixed order, keep the first one that still trips
the failure predicate, restart from the smaller scenario, and stop when
no move is accepted. Every move strictly decreases a lexicographic size
measure, so the loop terminates; moves are derived from the IR alone
and the oracle is deterministic, so reduction of a fixed seed is fully
deterministic too.

Move classes (the ISSUE's instruction deletion / thread removal /
constant simplification, expressed at the IR level where candidates
stay well-formed by construction):

* drop a whole worker, or the producer/consumer pair;
* drop scenario-wide features (barrier, SMC cadence, chaos, jitter);
* collapse the loop (straight to 1, then by halving);
* drop one op, unwrap a critical section, drop one inner op;
* simplify constants (op args to 0, items to 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Tuple

from repro.errors import JobTimeoutError, ReproError
from repro.scengen.scenario import ScenarioIR, WorkerSpec


def _op_units(op) -> int:
    return 1 + (len(op[2]) if op[0] == "locked" else 0)


def _arg_sum(ir: ScenarioIR) -> int:
    total = 0
    for worker in ir.workers:
        for op in worker.ops:
            if op[0] == "locked":
                total += sum(inner[1] for inner in op[2])
            else:
                total += op[1]
    return total


def measure(ir: ScenarioIR) -> Tuple:
    """Strictly-decreasing size measure (lexicographic)."""
    units = sum(_op_units(op) for w in ir.workers for op in w.ops)
    flags = (int(ir.barrier) + int(ir.smc_period > 0)
             + int(ir.chaos_seed is not None) + int(ir.jitter > 0))
    return (ir.thread_count, units, flags,
            ir.loop_count + ir.pc_items, _arg_sum(ir))


def _with_worker(ir: ScenarioIR, index: int,
                 worker: WorkerSpec) -> ScenarioIR:
    workers = list(ir.workers)
    workers[index] = worker
    return replace(ir, workers=tuple(workers))


def _moves(ir: ScenarioIR) -> Iterator[ScenarioIR]:
    """Candidate simplifications, most aggressive first, fixed order."""
    for i in range(len(ir.workers)):
        yield replace(ir, workers=ir.workers[:i] + ir.workers[i + 1:])
    if ir.pc_pairs > 0:
        yield replace(ir, pc_pairs=ir.pc_pairs - 1,
                      pc_items=ir.pc_items if ir.pc_pairs > 1 else 0)
    if ir.barrier:
        yield replace(ir, barrier=False)
    if ir.smc_period:
        yield replace(ir, smc_period=0)
    if ir.chaos_seed is not None:
        yield replace(ir, chaos_seed=None, chaos_intensity=0.0)
    if ir.jitter > 0:
        yield replace(ir, jitter=0.0)
    if ir.loop_count > 1:
        yield replace(ir, loop_count=1)
        if ir.loop_count > 2:
            yield replace(ir, loop_count=ir.loop_count // 2)
    if ir.pc_pairs > 0 and ir.pc_items > 1:
        yield replace(ir, pc_items=1)
    for i, worker in enumerate(ir.workers):
        for j in range(len(worker.ops)):
            yield _with_worker(
                ir, i, WorkerSpec(worker.ops[:j] + worker.ops[j + 1:]))
    for i, worker in enumerate(ir.workers):
        for j, op in enumerate(worker.ops):
            if op[0] != "locked":
                continue
            # Unwrap the critical section (keeps the inner ops).
            yield _with_worker(ir, i, WorkerSpec(
                worker.ops[:j] + op[2] + worker.ops[j + 1:]))
            for k in range(len(op[2])):
                inner = op[2][:k] + op[2][k + 1:]
                if inner:
                    yield _with_worker(ir, i, WorkerSpec(
                        worker.ops[:j] + (("locked", op[1], inner),)
                        + worker.ops[j + 1:]))
    for i, worker in enumerate(ir.workers):
        for j, op in enumerate(worker.ops):
            if op[0] == "locked":
                for k, inner in enumerate(op[2]):
                    if inner[1] != 0:
                        simplified = (op[2][:k] + ((inner[0], 0),)
                                      + op[2][k + 1:])
                        yield _with_worker(ir, i, WorkerSpec(
                            worker.ops[:j]
                            + (("locked", op[1], simplified),)
                            + worker.ops[j + 1:]))
            elif op[1] != 0:
                yield _with_worker(ir, i, WorkerSpec(
                    worker.ops[:j] + ((op[0], 0),) + worker.ops[j + 1:]))


@dataclass
class ReductionResult:
    minimized: ScenarioIR
    attempts: int
    accepted: int


def reduce_scenario(ir: ScenarioIR,
                    predicate: Callable[[ScenarioIR], bool]
                    ) -> ReductionResult:
    """Shrink ``ir`` while ``predicate`` (the failure) keeps holding.

    ``predicate`` is evaluated on candidates only; ``ir`` itself is
    assumed failing. A candidate whose evaluation raises a simulated
    error counts as not-failing (reduction never trades one failure for
    a different crash).
    """
    current = ir
    attempts = accepted = 0
    improved = True
    while improved:
        improved = False
        for candidate in _moves(current):
            assert measure(candidate) < measure(current)
            attempts += 1
            try:
                still_failing = predicate(candidate)
            except JobTimeoutError:
                raise
            except ReproError:
                still_failing = False
            if still_failing:
                current = candidate
                accepted += 1
                improved = True
                break
    return ReductionResult(current, attempts, accepted)
