"""Schedule exploration: run a workload under many schedules.

Happens-before race detection is schedule-dependent — "the race
detector's ability to detect races is often tied to the particular
execution schedule seen by the application" (paper §7.3). This harness
makes that concrete: run the same program under N scheduler seeds (and
optionally several quanta), union and intersect the race reports, and
report per-race detection frequency. A test helper: the
schedule-dependence tests of ``test_hbgraph_explore.py`` drive it.

Typical use::

    result = explore(lambda: micro.racy_flag()[0], seeds=range(10))
    result.union          # every race any schedule exposed
    result.flaky          # races only some schedules exposed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.harness.runner import run_aikido_fasttrack, run_fasttrack


@dataclass
class ExplorationResult:
    """Aggregated race reports across schedules."""

    runs: int = 0
    #: race key -> number of schedules that reported it.
    frequency: Dict[Tuple, int] = field(default_factory=dict)

    @property
    def union(self) -> Set[Tuple]:
        return set(self.frequency)

    @property
    def intersection(self) -> Set[Tuple]:
        return {key for key, count in self.frequency.items()
                if count == self.runs}

    @property
    def flaky(self) -> Set[Tuple]:
        """Races that only some schedules expose."""
        return self.union - self.intersection

    def detection_rate(self, key: Tuple) -> float:
        return self.frequency.get(key, 0) / max(1, self.runs)


def explore(program_factory: Callable, *, seeds: Iterable[int] = range(8),
            quanta: Iterable[int] = (20,), mode: str = "fasttrack",
            jitter: float = 0.3) -> ExplorationResult:
    """Run the program under every (seed, quantum) pair and aggregate."""
    if mode == "fasttrack":
        runner = run_fasttrack
    elif mode == "aikido-fasttrack":
        runner = run_aikido_fasttrack
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result = ExplorationResult()
    for quantum in quanta:
        for seed in seeds:
            run = runner(program_factory(), seed=seed, quantum=quantum,
                         jitter=jitter)
            result.runs += 1
            for race in run.races:
                result.frequency[race.key] = \
                    result.frequency.get(race.key, 0) + 1
    return result


def render_exploration(result: ExplorationResult) -> str:
    lines = [f"schedules explored: {result.runs}",
             f"races found in at least one schedule: {len(result.union)}",
             f"races found in every schedule: "
             f"{len(result.intersection)}"]
    for key in sorted(result.flaky):
        rate = result.detection_rate(key)
        lines.append(f"  flaky: block {key[0]:#x} ({key[1]}) "
                     f"detected in {rate:.0%} of schedules")
    return "\n".join(lines)
