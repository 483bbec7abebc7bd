"""Replay-equivalence tests: record once, analyze everywhere.

The load-bearing property of the whole pipeline: replaying a recorded
log through a detector yields a verdict **bit-identical** to running
that detector live under full instrumentation — on every bundled
workload, for every registered analysis, however many worker processes
do the replaying.
"""

import os
import signal

import pytest

from repro.chaos.invariants import cross_analysis_disagreements
from repro.errors import HarnessError, InvariantViolationError
from repro.eventlog.log import EventLogWriter
from repro.eventlog.replay import (
    ANALYSES,
    ReplayFanout,
    detector_verdict,
    live_run_verdict,
    record_run,
    replay_log,
)
from repro.workloads.parsec import benchmark_names, build_benchmark

THREADS = 2
SCALE = 0.05
RUN = dict(seed=11, quantum=120, jitter=0.0, compile_blocks=False)


def record_benchmark(tmp_path, name):
    path = str(tmp_path / f"{name}.aiklog")
    program = build_benchmark(name, threads=THREADS, scale=SCALE)
    stats = record_run(program, path, seed=RUN["seed"],
                       quantum=RUN["quantum"], jitter=RUN["jitter"],
                       compile_blocks=RUN["compile_blocks"],
                       chunk_events=256)
    return path, stats


class TestReplayEquivalence:
    @pytest.mark.parametrize("workload", benchmark_names())
    def test_replay_matches_live_on_every_workload(self, tmp_path,
                                                   workload):
        """One recorded run, replayed through all four detectors, is
        bit-identical to four fresh live runs — on all ten workloads."""
        path, stats = record_benchmark(tmp_path, workload)
        assert stats["events"] > 0
        for analysis in sorted(ANALYSES):
            live = live_run_verdict(
                build_benchmark(workload, threads=THREADS, scale=SCALE),
                analysis, seed=RUN["seed"], quantum=RUN["quantum"],
                jitter=RUN["jitter"],
                compile_blocks=RUN["compile_blocks"])
            replayed = replay_log(path, analysis)
            assert replayed == live, (workload, analysis)

    def test_memtag_blocks_subset_of_eraser_on_benchmarks(self, tmp_path):
        for workload in ("canneal", "streamcluster", "x264"):
            path, _ = record_benchmark(tmp_path, workload)
            eraser = replay_log(path, "eraser")
            memtag = replay_log(path, "memtag")
            assert set(memtag["blocks"]) <= set(eraser["blocks"]), workload


class TestFanout:
    def test_parallel_merged_equals_inline_merged(self, tmp_path):
        path, _ = record_benchmark(tmp_path, "canneal")
        inline = ReplayFanout(ANALYSES, jobs=1).run(path)
        parallel = ReplayFanout(ANALYSES, jobs=2).run(path)
        assert parallel == inline

    def test_fanout_reports_zero_disagreements_on_clean_pipeline(
            self, tmp_path):
        path, _ = record_benchmark(tmp_path, "blackscholes")
        merged = ReplayFanout(ANALYSES, jobs=1).run(path)
        assert merged["disagreements"] == []
        assert sorted(merged["verdicts"]) == sorted(ANALYSES)

    def test_analysis_order_is_canonical(self, tmp_path):
        path, _ = record_benchmark(tmp_path, "blackscholes")
        a = ReplayFanout(["memtag", "fasttrack"]).run(path)
        b = ReplayFanout(["fasttrack", "memtag"]).run(path)
        assert a == b
        assert a["analyses"] == ["fasttrack", "memtag"]

    def test_unknown_analysis_rejected(self):
        with pytest.raises(HarnessError, match="unknown analysis"):
            ReplayFanout(["fasttrack", "tsan"])

    def test_empty_analysis_list_rejected(self):
        with pytest.raises(HarnessError, match="at least one analysis"):
            ReplayFanout([])

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(HarnessError, match="jobs"):
            ReplayFanout(["fasttrack"], jobs=-1)

    def test_killed_worker_is_recovered(self, tmp_path, monkeypatch):
        """A replay worker SIGKILLed mid-fan-out costs nothing: its unit
        reruns, and the merged document equals the inline one."""
        path, _ = record_benchmark(tmp_path, "canneal")
        inline = ReplayFanout(["fasttrack", "djit"], jobs=1).run(path)
        flag = str(tmp_path / "killed")
        owner = os.getpid()
        factory = ANALYSES["fasttrack"]

        def dies_once_in_a_worker():
            # The first build in any process but this one dies; the flag
            # file (O_CREAT | O_EXCL) makes "once" hold across processes.
            if os.getpid() != owner:
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return factory()

        monkeypatch.setitem(ANALYSES, "fasttrack", dies_once_in_a_worker)
        parallel = ReplayFanout(["fasttrack", "djit"], jobs=2).run(path)
        assert os.path.exists(flag), "no worker was killed"
        assert parallel == inline


class TestDisagreementCheck:
    def planted_log(self, tmp_path):
        """A hand-written trace with one unordered write pair: every
        analysis flags block 512 (4096 >> 3), so the agreement invariant
        holds. The disagreement paths are exercised directly on doctored
        block sets below."""
        path = str(tmp_path / "planted.aiklog")
        with EventLogWriter(path) as writer:
            writer.extend([
                ("fork", 1, 2),
                ("access", 1, 4096, True, 1),
                ("access", 2, 4096, True, 2),
                ("join", 1, 2),
            ])
        return path

    def test_racy_trace_flags_same_blocks_everywhere(self, tmp_path):
        path = self.planted_log(tmp_path)
        merged = ReplayFanout(ANALYSES, jobs=1).run(path)
        assert merged["verdicts"]["fasttrack"]["blocks"] \
            == merged["verdicts"]["djit"]["blocks"]

    def test_planted_disagreement_raises(self):
        block_sets = {"fasttrack": {4096}, "djit": set()}
        with pytest.raises(InvariantViolationError,
                           match="analysis_agreement"):
            from repro.chaos.invariants import check_analysis_agreement

            check_analysis_agreement(block_sets)

    def test_memtag_excess_is_a_disagreement(self):
        disagreements = cross_analysis_disagreements(
            {"eraser": set(), "memtag": {4096}})
        assert disagreements
        assert any("memtag" in d for d in disagreements)

    def test_agreeing_sets_are_silent(self):
        assert cross_analysis_disagreements(
            {"fasttrack": {1, 2}, "djit": {1, 2},
             "eraser": {1, 2, 3}, "memtag": {2}}) == []


class TestVerdictShape:
    def test_verdict_is_json_safe_and_sorted(self, tmp_path):
        import json

        path, _ = record_benchmark(tmp_path, "canneal")
        verdict = replay_log(path, "fasttrack")
        json.dumps(verdict)  # no sets, no objects
        assert verdict["reports"] == sorted(verdict["reports"])
        assert verdict["blocks"] == sorted(verdict["blocks"])
        assert verdict["analysis"] == "fasttrack"

    def test_detector_verdict_counts_match(self):
        detector = ANALYSES["eraser"]()
        verdict = detector_verdict("eraser", detector)
        assert verdict["report_count"] == 0
        assert verdict["profile"] == {"accesses": 0}
