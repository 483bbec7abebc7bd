"""Content-addressed sharding: partitioning, keys, and report merging."""

import pytest

from repro.core.config import AikidoConfig
from repro.fleet.protocol import FleetError
from repro.fleet.shards import (CampaignSpec, ShardSpec, campaign_key,
                                execute_shard, job_from_canonical,
                                merge_report, partition, serial_report,
                                shard_id)
from repro.harness.parallel import fingerprint
from repro.harness.resultcache import ResultCache

SUITE = CampaignSpec(benchmarks=("blackscholes",), seeds=(1, 2),
                     chaos_seeds=(None, 7), shard_size=3)
FUZZ = CampaignSpec(kind="fuzz", base_seed=10, count=8, shard_size=3)


class TestCampaignSpec:
    def test_suite_units_cross_product(self):
        units = SUITE.units()
        assert len(units) == 1 * 2 * 2  # benchmarks x seeds x chaos
        # Chaos-free cells carry config None; chaos cells a full config.
        configs = [u["job"]["config"] for u in units]
        assert configs.count(None) == 2
        assert sum(1 for c in configs if c is not None) == 2

    def test_fuzz_units_are_the_seed_range(self):
        assert [u["seed"] for u in FUZZ.units()] == list(range(10, 18))

    def test_round_trips_through_canonical(self):
        for spec in (SUITE, FUZZ):
            assert CampaignSpec.from_dict(spec.canonical()) == spec

    def test_rejects_unknown_kind(self):
        with pytest.raises(FleetError, match="unknown campaign kind"):
            CampaignSpec(kind="bake-off")

    def test_rejects_bad_shard_size(self):
        with pytest.raises(FleetError, match="shard_size"):
            CampaignSpec(shard_size=0)

    def test_fuzz_requires_count(self):
        with pytest.raises(FleetError, match="count"):
            CampaignSpec(kind="fuzz", count=0)


class TestJobFromCanonical:
    def test_round_trip_plain(self):
        unit = SUITE.units()[0]
        job = job_from_canonical(unit["job"])
        assert job.canonical() == unit["job"]

    def test_round_trip_with_chaos_config(self):
        unit = next(u for u in SUITE.units()
                    if u["job"]["config"] is not None)
        job = job_from_canonical(unit["job"])
        assert isinstance(job.config, AikidoConfig)
        assert job.canonical() == unit["job"]

    def test_rejects_unknown_config_field(self):
        unit = next(u for u in SUITE.units()
                    if u["job"]["config"] is not None)
        payload = dict(unit["job"])
        payload["config"] = dict(payload["config"], planted=True)
        with pytest.raises(Exception):
            job_from_canonical(payload)


class TestPartition:
    def test_deterministic(self):
        fp = fingerprint()
        assert partition(SUITE, fp) == partition(SUITE, fp)

    def test_covers_every_unit_in_order(self):
        shards = partition(FUZZ)
        assert [len(s.units) for s in shards] == [3, 3, 2]
        flattened = [u for s in shards for u in s.units]
        assert flattened == FUZZ.units()
        assert [s.index for s in shards] == [0, 1, 2]

    def test_fingerprint_changes_shard_ids(self):
        a = partition(SUITE, "fp-one")
        b = partition(SUITE, "fp-two")
        assert all(x.shard_id != y.shard_id for x, y in zip(a, b))

    def test_unit_content_changes_shard_ids(self):
        base = shard_id(SUITE.canonical(), 0, [{"seed": 1}], "fp")
        assert shard_id(SUITE.canonical(), 0, [{"seed": 2}],
                        "fp") != base
        assert shard_id(SUITE.canonical(), 1, [{"seed": 1}],
                        "fp") != base

    def test_campaign_key_tracks_spec_and_fingerprint(self):
        assert campaign_key(SUITE, "fp") == campaign_key(SUITE, "fp")
        assert campaign_key(SUITE, "fp") != campaign_key(FUZZ, "fp")
        assert campaign_key(SUITE, "fp") != campaign_key(SUITE, "fp2")

    def test_shard_spec_round_trips(self):
        shard = partition(SUITE)[0]
        assert ShardSpec.from_dict(shard.to_dict()) == shard


class TestExecuteAndMerge:
    def test_cached_and_fresh_units_are_identical(self, tmp_path):
        """Where a unit's payload came from never leaks into an
        aggregate."""
        spec = CampaignSpec(seeds=(1,), shard_size=4)
        shard = partition(spec)[0]
        cache = ResultCache(tmp_path)
        cold = execute_shard(shard, spec, cache=cache)
        warm = execute_shard(shard, spec, cache=cache)
        assert cache.hits >= 1
        assert cold == warm
        assert cold == execute_shard(shard, spec, cache=None)

    def test_unit_hook_sees_every_index(self):
        spec = CampaignSpec(kind="fuzz", base_seed=1, count=4,
                            shard_size=4)
        shard = partition(spec)[0]
        seen = []
        execute_shard(shard, spec, unit_hook=seen.append)
        assert seen == [0, 1, 2, 3]

    def test_merge_accounts_for_missing_shards(self):
        fp = fingerprint()
        shards = partition(FUZZ, fp)
        aggregates = {s.shard_id: execute_shard(s, FUZZ)
                      for s in shards[:-1]}
        report = merge_report(FUZZ, shards, aggregates, fp)
        assert report["units"] == 8
        assert report["completed_units"] == 6
        assert report["missing_shards"] == [
            {"shard_id": shards[-1].shard_id, "index": 2, "units": 2}]
        assert report["quarantined"] == {}

    def test_merge_rejects_mismatched_aggregate(self):
        fp = fingerprint()
        shards = partition(FUZZ, fp)
        aggregate = execute_shard(shards[0], FUZZ)
        with pytest.raises(FleetError, match="carries id"):
            merge_report(FUZZ, shards,
                         {shards[1].shard_id: aggregate}, fp)

    def test_serial_report_is_deterministic(self, tmp_path):
        spec = CampaignSpec(kind="fuzz", base_seed=5, count=6,
                            shard_size=2)
        first = serial_report(spec, cache=ResultCache(tmp_path))
        second = serial_report(spec, cache=None)
        assert first == second
        assert first["completed_units"] == 6
        assert "disagreements" in first
