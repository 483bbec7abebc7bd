"""Resumable fuzz campaigns over generated scenarios.

A campaign is a seed range: scenario ``i`` is ``generate(base_seed + i,
config)``, checked by the differential oracle, and its verdict is
journaled (``--journal``/``--resume``, the same
:class:`~repro.harness.journal.RunJournal` the suite harness uses) and
cached (:class:`~repro.harness.resultcache.ResultCache`). Keys fold in
the generator config, the oracle version and the harness fingerprint
(package version + cost model), so stale verdicts never satisfy a
lookup. A killed campaign resumed with ``--resume`` re-simulates
nothing that was already journaled.

Failing scenarios are automatically shrunk by the reducer and, when a
corpus directory is given, archived as one JSON file per seed::

    corpus/
      seed-000017.json     # {"seed", "ir", "verdict", "minimized": {
                           #   "ir", "instructions", "disassembly",
                           #   "attempts"}}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.harness.journal import RunJournal, lookup_payload, store_payload
from repro.harness.parallel import fingerprint
from repro.harness.resultcache import ResultCache
from repro.scengen.generator import (
    DEFAULT_CONFIG,
    QUICK_CONFIG,
    GeneratorConfig,
    generate,
)
from repro.scengen.oracle import (
    TierRunner,
    check_scenario,
    failure_signature,
)
from repro.scengen.reducer import reduce_scenario
from repro.scengen.scenario import ScenarioIR, describe, render

#: Bumped whenever the oracle's checks change meaning, invalidating
#: journaled/cached verdicts from older code.
#: 2: added static_race_superset + lint_clean checks.
#: 3: added eventlog_roundtrip + cross_analysis_agreement checks.
#: 4: added superblock-tier parity checks (fasttrack + aikido).
ORACLE_VERSION = 4


def scenario_key(config: GeneratorConfig, seed: int, quick: bool) -> str:
    """Stable journal/cache key for one scenario's verdict."""
    basis = {
        "kind": "scengen-verdict",
        "oracle": ORACLE_VERSION,
        "config": config.canonical(),
        "seed": seed,
        "quick": quick,
        "fingerprint": fingerprint(),
    }
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CampaignResult:
    """Everything one campaign invocation produced."""

    payloads: List[Dict] = field(default_factory=list)
    simulated: int = 0
    journal_hits: int = 0
    cache_hits: int = 0

    @property
    def disagreements(self) -> List[Dict]:
        return [p for p in self.payloads if not p["verdict"]["ok"]]

    def check_totals(self) -> Dict[str, Dict[str, int]]:
        totals: Dict[str, Dict[str, int]] = {}
        for payload in self.payloads:
            for name, check in payload["verdict"]["checks"].items():
                bucket = totals.setdefault(
                    name, {"pass": 0, "fail": 0, "skipped": 0})
                if check.get("skipped"):
                    bucket["skipped"] += 1
                elif check["ok"]:
                    bucket["pass"] += 1
                else:
                    bucket["fail"] += 1
        return totals

    def stats_line(self) -> str:
        return (f"{self.simulated} simulated, "
                f"{self.journal_hits} replayed from journal, "
                f"{self.cache_hits} cache hits, "
                f"{len(self.disagreements)} disagreement(s)")


def _minimize(ir: ScenarioIR, verdict: Dict, quick: bool,
              tier_runner: Optional[TierRunner]) -> Dict:
    target = set(failure_signature(verdict))

    def predicate(candidate: ScenarioIR) -> bool:
        seen = set(failure_signature(
            check_scenario(candidate, quick=quick,
                           tier_runner=tier_runner)))
        return target <= seen

    reduction = reduce_scenario(ir, predicate)
    _, info = render(reduction.minimized)
    return {
        "ir": reduction.minimized.to_dict(),
        "instructions": info.instruction_count,
        "disassembly": describe(reduction.minimized),
        "attempts": reduction.attempts,
    }


def scenario_payload(seed: int, config: GeneratorConfig, *,
                     quick: bool = True, reduce_failing: bool = True,
                     tier_runner: Optional[TierRunner] = None) -> Dict:
    """Generate + check one scenario, returning the journal payload.

    The single-scenario unit of work shared by :func:`run_campaign` and
    the fleet's fuzz shards (:mod:`repro.fleet.shards`): both paths
    produce byte-identical payloads for the same ``(seed, config,
    quick)``, which is what makes a distributed fuzz campaign's merged
    report bit-identical to the serial one.
    """
    ir = generate(seed, config)
    verdict = check_scenario(ir, quick=quick, tier_runner=tier_runner)
    payload = {"seed": seed, "ir": ir.to_dict(), "verdict": verdict}
    if not verdict["ok"] and reduce_failing:
        payload["minimized"] = _minimize(ir, verdict, quick, tier_runner)
    return payload


def run_campaign(base_seed: int, count: int, *,
                 config: Optional[GeneratorConfig] = None,
                 quick: bool = True,
                 journal: Optional[RunJournal] = None,
                 cache: Optional[ResultCache] = None,
                 corpus_dir: Optional[str] = None,
                 reduce_failing: bool = True,
                 tier_runner: Optional[TierRunner] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignResult:
    """Check ``count`` scenarios starting at ``base_seed``.

    ``tier_runner`` overrides the oracle's tier execution (tests plant
    divergence bugs there); journal and cache are bypassed in that case
    so a planted bug can never poison real verdicts.
    """
    config = config or (QUICK_CONFIG if quick else DEFAULT_CONFIG)
    if tier_runner is not None:
        journal = cache = None
    result = CampaignResult()
    corpus = Path(corpus_dir) if corpus_dir else None
    if corpus is not None:
        corpus.mkdir(parents=True, exist_ok=True)
    for seed in range(base_seed, base_seed + count):
        key = scenario_key(config, seed, quick)
        payload, source = lookup_payload(key, journal, cache)
        if source == "journal":
            result.journal_hits += 1
        elif source == "cache":
            result.cache_hits += 1
        else:
            payload = scenario_payload(seed, config, quick=quick,
                                       reduce_failing=reduce_failing,
                                       tier_runner=tier_runner)
            verdict = payload["verdict"]
            result.simulated += 1
            store_payload(key, payload, journal, cache)
            if progress is not None:
                status = "ok" if verdict["ok"] else "DISAGREEMENT"
                progress(f"scenario {seed}: {status} "
                         f"[{verdict['outcome']}]")
        result.payloads.append(payload)
        if corpus is not None and not payload["verdict"]["ok"]:
            path = corpus / f"seed-{seed:06d}.json"
            path.write_text(json.dumps(payload, indent=2,
                                       sort_keys=True) + "\n")
    return result


def render_campaign(result: CampaignResult) -> str:
    """Human-readable campaign summary."""
    lines = [f"fuzz campaign: {len(result.payloads)} scenario(s), "
             f"{len(result.disagreements)} disagreement(s)"]
    lines.append(f"  {'check':<26s} {'pass':>6s} {'fail':>6s} "
                 f"{'skip':>6s}")
    for name, bucket in sorted(result.check_totals().items()):
        lines.append(f"  {name:<26s} {bucket['pass']:>6d} "
                     f"{bucket['fail']:>6d} {bucket['skipped']:>6d}")
    for payload in result.disagreements:
        verdict = payload["verdict"]
        failing = ", ".join(failure_signature(verdict)) or "(outcome)"
        lines.append(f"  DISAGREEMENT seed {payload['seed']}: {failing}")
        minimized = payload.get("minimized")
        if minimized:
            lines.append(f"    minimized to "
                         f"{minimized['instructions']} instructions "
                         f"({minimized['attempts']} reduction attempts)")
    return "\n".join(lines)
