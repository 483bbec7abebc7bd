"""Crash-safety of the coordinator's journal-backed shard state.

The coordinator persists completions, deliveries and quarantines through
a :class:`~repro.harness.journal.RunJournal` at ``<state_dir>/wal.jsonl``
before memory mutates; a resumed coordinator folds the journal back into
its ``completed`` / ``deliveries`` / ``quarantined`` maps.
"""

import json

import pytest

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import FleetError
from repro.fleet.shards import CampaignSpec, partition

SPEC = CampaignSpec(kind="fuzz", base_seed=1, count=2, shard_size=1)
OTHER_SPEC = CampaignSpec(kind="fuzz", base_seed=2, count=2, shard_size=1)


def coordinator(tmp_path, spec=SPEC, resume=False):
    coord = FleetCoordinator(spec, state_dir=tmp_path, resume=resume,
                             fsync=False)
    coord._listener.close()  # state only: never serves workers
    return coord


def fresh(tmp_path):
    return coordinator(tmp_path)


def resumed(tmp_path, spec=SPEC):
    return coordinator(tmp_path, spec=spec, resume=True)


def shard_ids():
    return [shard.shard_id for shard in partition(SPEC)]


class TestJournalFirst:
    def test_done_survives_immediate_death(self, tmp_path):
        """No explicit close/flush call: the append itself is durable."""
        first, _ = shard_ids()
        coord = fresh(tmp_path)
        coord.record("done", first, {"shard_id": first, "units": 1})
        # Simulate SIGKILL: drop the object, reload purely from disk.
        del coord
        again = resumed(tmp_path)
        assert again.completed == {first: {"shard_id": first, "units": 1}}
        assert again.counters.totals["shards_resumed"] == 1

    def test_delivery_and_quarantine_survive(self, tmp_path):
        first, second = shard_ids()
        coord = fresh(tmp_path)
        coord.record("delivery", first, 1)
        coord.record("delivery", first, 2)
        coord.record("quarantine", second, "3 failed deliveries")
        del coord
        again = resumed(tmp_path)
        assert again.deliveries == {first: 2}
        assert again.quarantined == {second: "3 failed deliveries"}

    def test_fresh_start_discards_prior_state(self, tmp_path):
        first, _ = shard_ids()
        coord = fresh(tmp_path)
        coord.record("done", first, {"u": 1})
        clean = fresh(tmp_path)  # resume=False
        assert clean.completed == {}
        assert resumed(tmp_path).completed == {}

    def test_quarantined_then_completed_folds_into_both_maps(
            self, tmp_path):
        """A late result for a quarantined shard (its evicted worker was
        alive after all) leaves the shard in both maps — the same fold
        the snapshot-era WAL replay produced."""
        first, second = shard_ids()
        coord = fresh(tmp_path)
        for count in (1, 2, 3):
            coord.record("delivery", first, count)
        coord.record("quarantine", first, "worker w3 died (eof)")
        coord.record("done", first, {"shard_id": first, "units": 1})
        coord.record("delivery", second, 1)
        coord.record("done", second, {"shard_id": second, "units": 1})
        expected = (
            {first: {"shard_id": first, "units": 1},
             second: {"shard_id": second, "units": 1}},
            {first: 3, second: 1},
            {first: "worker w3 died (eof)"})
        assert (coord.completed, coord.deliveries,
                coord.quarantined) == expected
        del coord
        again = resumed(tmp_path)
        assert (again.completed, again.deliveries,
                again.quarantined) == expected

    def test_records_keep_the_type_probe(self, tmp_path):
        """One journal entry per (record type, shard), each payload
        carrying ``"type"`` so ``wal.jsonl`` stays greppable."""
        first, _ = shard_ids()
        coord = fresh(tmp_path)
        coord.record("done", first, {"u": 1})
        lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == [
            "campaign", f"done:{first}"]
        assert '"type": "done"' in lines[1]


class TestDamageTolerance:
    def test_torn_tail_skipped_with_warning(self, tmp_path):
        first, second = shard_ids()
        coord = fresh(tmp_path)
        coord.record("done", first, {"u": 1})
        with open(tmp_path / "wal.jsonl", "a") as handle:
            handle.write('{"key": "done:' + second + '", "payload": {"ty')
        with pytest.warns(RuntimeWarning, match="undecodable"):
            again = resumed(tmp_path)
        assert again.completed == {first: {"u": 1}}
        assert again.journal.dropped_lines == 1

    def test_future_record_types_ignored(self, tmp_path):
        fresh(tmp_path)
        with open(tmp_path / "wal.jsonl", "a") as handle:
            handle.write(json.dumps({
                "key": "lease-transfer:x",
                "payload": {"type": "lease-transfer", "shard": "x"}}))
            handle.write("\n")
        again = resumed(tmp_path)  # no exception, no warning needed
        assert again.completed == {}
        assert again.deliveries == {} and again.quarantined == {}


class TestOwnership:
    def test_wal_campaign_mismatch_refused(self, tmp_path):
        fresh(tmp_path)
        with pytest.raises(FleetError, match="refusing to resume"):
            resumed(tmp_path, spec=OTHER_SPEC)

    def test_no_state_dir_means_no_journal(self):
        coord = FleetCoordinator(SPEC)
        coord._listener.close()
        first, _ = shard_ids()
        coord.record("done", first, {"u": 1})
        assert coord.journal is None
        assert coord.completed == {first: {"u": 1}}
