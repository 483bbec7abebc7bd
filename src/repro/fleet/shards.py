"""Campaign partitioning into content-addressed shards.

A :class:`CampaignSpec` is plain data describing either a *suite*
campaign (benchmarks x seeds x chaos plans, each cell one harness
:class:`~repro.harness.parallel.Job`) or a *fuzz* campaign (a scengen
seed range checked by the differential oracle). :func:`partition` chunks
the campaign's unit list into :class:`ShardSpec`\\ s whose ids are
``sha256(campaign spec + unit slice + cost-model fingerprint)`` — the
same content-addressing discipline as the result cache, so a shard id
names *exactly one* deterministic computation: two coordinators (or one
coordinator before and after a crash) partitioning the same campaign
under the same cost model produce identical shard ids, which is what
makes WAL replay and cross-run dedup sound.

:func:`execute_shard` is the one execution path — workers call it over
the wire, the coordinator calls it for inline degradation, and
:func:`serial_report` calls it for the single-host reference — so the
merged report is bit-identical no matter which path ran each shard. It
runs every unit through an inline
:class:`~repro.harness.parallel.ParallelRunner`, the executor suites and
fuzz campaigns use too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import ChaosPlan
from repro.core.config import AikidoConfig
from repro.fleet.protocol import FleetError
from repro.harness.parallel import Job, ParallelRunner, Unit, fingerprint
from repro.harness.resultcache import ResultCache

#: Default units per shard. Small enough that a lost worker forfeits
#: little work, large enough that framing overhead stays negligible.
DEFAULT_SHARD_SIZE = 25


@dataclass(frozen=True)
class CampaignSpec:
    """Plain-data description of a whole campaign.

    ``kind`` selects the unit family:

    ``"suite"``
        One :class:`Job` per ``benchmark x seed x chaos plan`` cell in
        ``mode``; ``chaos_seeds`` of ``None`` means a chaos-free cell,
        any integer becomes ``ChaosPlan.recovery(seed=n,
        intensity=chaos_intensity)``.
    ``"fuzz"``
        Scenario seeds ``base_seed .. base_seed+count-1`` checked by the
        scengen differential oracle (``quick`` selects the generator
        config exactly as ``aikido-repro fuzz`` does).
    """

    kind: str = "suite"
    benchmarks: Tuple[str, ...] = ("blackscholes",)
    mode: str = "aikido-fasttrack"
    threads: int = 2
    scale: float = 0.05
    quantum: int = 100
    seeds: Tuple[int, ...] = (1,)
    chaos_seeds: Tuple[Optional[int], ...] = (None,)
    chaos_intensity: float = 0.05
    base_seed: int = 1
    count: int = 0
    quick: bool = True
    shard_size: int = DEFAULT_SHARD_SIZE

    def __post_init__(self):
        if self.kind not in ("suite", "fuzz"):
            raise FleetError(
                f"unknown campaign kind {self.kind!r}; "
                "expected 'suite' or 'fuzz'")
        if self.shard_size < 1:
            raise FleetError(
                f"shard_size must be >= 1, got {self.shard_size}")
        if self.kind == "fuzz" and self.count < 1:
            raise FleetError(
                f"fuzz campaigns need count >= 1, got {self.count}")

    def canonical(self) -> Dict:
        """JSON-able description used for shard/campaign keying."""
        return {
            "kind": self.kind,
            "benchmarks": list(self.benchmarks),
            "mode": self.mode,
            "threads": self.threads,
            "scale": self.scale,
            "quantum": self.quantum,
            "seeds": list(self.seeds),
            "chaos_seeds": list(self.chaos_seeds),
            "chaos_intensity": self.chaos_intensity,
            "base_seed": self.base_seed,
            "count": self.count,
            "quick": self.quick,
            "shard_size": self.shard_size,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        return cls(
            kind=payload["kind"],
            benchmarks=tuple(payload["benchmarks"]),
            mode=payload["mode"],
            threads=payload["threads"],
            scale=payload["scale"],
            quantum=payload["quantum"],
            seeds=tuple(payload["seeds"]),
            chaos_seeds=tuple(payload["chaos_seeds"]),
            chaos_intensity=payload["chaos_intensity"],
            base_seed=payload["base_seed"],
            count=payload["count"],
            quick=payload["quick"],
            shard_size=payload["shard_size"],
        )

    # ------------------------------------------------------------------
    # unit enumeration
    # ------------------------------------------------------------------
    def units(self) -> List[Dict]:
        """The campaign's unit list, in canonical (serial) order."""
        if self.kind == "fuzz":
            return [{"seed": seed}
                    for seed in range(self.base_seed,
                                      self.base_seed + self.count)]
        units = []
        for benchmark in self.benchmarks:
            for seed in self.seeds:
                for chaos_seed in self.chaos_seeds:
                    config = None
                    if chaos_seed is not None:
                        config = AikidoConfig(chaos=ChaosPlan.recovery(
                            seed=chaos_seed,
                            intensity=self.chaos_intensity))
                    job = Job(benchmark, self.mode, threads=self.threads,
                              scale=self.scale, seed=seed,
                              quantum=self.quantum, config=config)
                    units.append({"job": job.canonical()})
        return units


def job_from_canonical(payload: Dict) -> Job:
    """Rebuild a :class:`Job` from ``Job.canonical()`` output."""
    config = payload.get("config")
    return Job(payload["workload"], payload["mode"],
               threads=payload["threads"], scale=payload["scale"],
               seed=payload["seed"], quantum=payload["quantum"],
               config=(AikidoConfig.from_dict(config)
                       if config is not None else None))


@dataclass(frozen=True)
class ShardSpec:
    """One content-addressed slice of a campaign.

    ``shard_id`` is ``sha256({campaign, index, units, fingerprint})`` —
    it changes when any unit, the campaign shape, or the cost model
    does, so a WAL entry or cache hit for a shard id can never replay a
    result the current configuration would not reproduce.
    """

    shard_id: str
    index: int
    kind: str
    units: Tuple[Dict, ...] = field(hash=False)

    def to_dict(self) -> Dict:
        return {"shard_id": self.shard_id, "index": self.index,
                "kind": self.kind, "units": list(self.units)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "ShardSpec":
        return cls(shard_id=payload["shard_id"], index=payload["index"],
                   kind=payload["kind"],
                   units=tuple(payload["units"]))


def shard_id(campaign: Dict, index: int, units: Sequence[Dict],
             fp: str) -> str:
    """Content address of one shard under one cost-model fingerprint."""
    basis = {"campaign": campaign, "index": index, "units": list(units),
             "fingerprint": fp}
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def campaign_key(spec: CampaignSpec, fp: Optional[str] = None) -> str:
    """Stable identity of a whole campaign (WAL ownership check)."""
    basis = {"campaign": spec.canonical(),
             "fingerprint": fp if fp is not None else fingerprint()}
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def partition(spec: CampaignSpec,
              fp: Optional[str] = None) -> List[ShardSpec]:
    """Chunk the campaign's units into content-addressed shards."""
    fp = fp if fp is not None else fingerprint()
    canonical = spec.canonical()
    units = spec.units()
    shards = []
    for index in range(0, len(units), spec.shard_size):
        slice_ = units[index:index + spec.shard_size]
        shards.append(ShardSpec(
            shard_id=shard_id(canonical, index // spec.shard_size,
                              slice_, fp),
            index=index // spec.shard_size,
            kind=spec.kind,
            units=tuple(slice_)))
    return shards


# ---------------------------------------------------------------------
# execution (shared by workers, inline degradation, and the serial ref)
# ---------------------------------------------------------------------
def _shard_units(shard: ShardSpec, spec: CampaignSpec) -> List[Unit]:
    """The runner units of one shard, in order."""
    if shard.kind == "fuzz":
        from repro.scengen.campaign import ScenarioUnit
        from repro.scengen.generator import DEFAULT_CONFIG, QUICK_CONFIG

        config = QUICK_CONFIG if spec.quick else DEFAULT_CONFIG
        return [ScenarioUnit(unit["seed"], config, spec.quick)
                for unit in shard.units]
    return [job_from_canonical(unit["job"]) for unit in shard.units]


def execute_shard(shard: ShardSpec, spec: CampaignSpec, *,
                  cache: Optional[ResultCache] = None,
                  unit_hook: Optional[Callable[[int], None]] = None
                  ) -> Dict:
    """Run every unit of one shard; return its aggregate payload.

    ``unit_hook(i)`` fires before unit ``i`` — the seam the fleet chaos
    mode uses to kill or stall a worker mid-shard. The aggregate is a
    pure function of (shard, spec, cost model): a unit outcome carries
    no trace of where its payload came from, so a cache-served unit is
    byte-identical to a freshly simulated one.
    """
    runner = ParallelRunner(cache=cache)
    outcomes = []
    for i, unit in enumerate(_shard_units(shard, spec)):
        if unit_hook is not None:
            unit_hook(i)
        outcomes.extend(runner.outcomes([unit]))
    failures = sum(1 for o in outcomes if o["status"] != "ok")
    return {"shard_id": shard.shard_id, "index": shard.index,
            "units": len(outcomes), "failures": failures,
            "outcomes": outcomes}


def merge_report(spec: CampaignSpec, shards: Sequence[ShardSpec],
                 aggregates: Dict[str, Dict],
                 fp: Optional[str] = None) -> Dict:
    """Merge per-shard aggregates into the campaign's single report.

    Deterministic by construction: shards are folded in index order and
    every field of the report derives from the aggregates alone —
    worker identities, timing, and delivery counts live in the
    coordinator's counters, never here. A shard with no aggregate
    (quarantined) contributes an explicit ``missing`` entry so the
    report never silently under-counts.
    """
    fp = fp if fp is not None else fingerprint()
    outcomes: List[Dict] = []
    missing: List[Dict] = []
    for shard in sorted(shards, key=lambda s: s.index):
        aggregate = aggregates.get(shard.shard_id)
        if aggregate is None:
            missing.append({"shard_id": shard.shard_id,
                            "index": shard.index,
                            "units": len(shard.units)})
            continue
        if aggregate["shard_id"] != shard.shard_id:
            raise FleetError(
                f"aggregate for shard {shard.shard_id[:12]} carries id "
                f"{aggregate['shard_id'][:12]}")
        outcomes.extend(aggregate["outcomes"])
    failures = sum(1 for o in outcomes if o["status"] != "ok")
    report = {
        "campaign": spec.canonical(),
        "fingerprint": fp,
        "shards": len(shards),
        "units": sum(len(s.units) for s in shards),
        "completed_units": len(outcomes),
        "failures": failures,
        "missing_shards": missing,
        "quarantined": {},
        "outcomes": outcomes,
    }
    if spec.kind == "fuzz":
        disagreements = [o["payload"]["seed"] for o in outcomes
                         if o["status"] == "ok"
                         and not o["payload"]["verdict"]["ok"]]
        report["disagreements"] = disagreements
    return report


def serial_report(spec: CampaignSpec, *,
                  cache: Optional[ResultCache] = None) -> Dict:
    """The single-host reference: every shard inline, in order.

    The distributed acceptance check is
    ``run_fleet_campaign(...) == serial_report(...)`` byte for byte.
    """
    fp = fingerprint()
    shards = partition(spec, fp)
    aggregates = {shard.shard_id: execute_shard(shard, spec, cache=cache)
                  for shard in shards}
    return merge_report(spec, shards, aggregates, fp)
