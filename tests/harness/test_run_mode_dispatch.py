"""run_mode must accept one shared kwarg set across all three modes
(the tier keywords reach every mode, native included), and suite
aggregation must fail cleanly (not ZeroDivisionError) on an empty
suite."""

import pytest

from repro.core.config import AikidoConfig
from repro.errors import HarnessError, WorkloadError
from repro.harness import experiments
from repro.harness.runner import MODES, SHARED_KWARGS, run_mode
from repro.workloads import micro
from repro.workloads.parsec import (benchmark_names, build_benchmark,
                                    get_benchmark)


def _program():
    return micro.locked_counter(2, 10)[0]


class TestSharedKwargDispatch:
    def test_native_accepts_block_size(self):
        # The reported crash: block_size leaked into run_native().
        result = run_mode(_program(), "native", block_size=8,
                          seed=2, quantum=50)
        assert result.cycles > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_accept_shared_kwarg_set(self, mode):
        result = run_mode(_program(), mode, seed=2, quantum=50,
                          jitter=0.1, max_instructions=10_000_000,
                          block_size=8, config=None)
        assert result.mode == mode
        assert result.cycles > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_config_with_block_size_accepted_when_consistent(self, mode):
        result = run_mode(_program(), mode, seed=2, quantum=50,
                          block_size=8, config=AikidoConfig(block_size=8))
        assert result.cycles > 0

    def test_aikido_folds_block_size_into_config(self):
        # block = address // block_size, so the detector's race blocks
        # shift when (and only when) the bare kwarg reaches the config.
        def race_blocks(block_size):
            result = run_mode(micro.racy_counter(2, 10)[0],
                              "aikido-fasttrack", seed=2, quantum=50,
                              block_size=block_size)
            return {race.block for race in result.races}

        wide, narrow = race_blocks(64), race_blocks(4)
        assert wide and narrow and wide != narrow

    def test_native_honours_tier_kwargs(self):
        # The tier keywords used to be stripped for native, so a native
        # tier-parity run compared one tier with itself.
        def run(**tiers):
            return run_mode(build_benchmark("raytrace", threads=2,
                                            scale=0.1),
                            "native", seed=2, quantum=100, **tiers)

        superblock = run()
        assert superblock.superblocks["superblocks_built"] > 0
        assert run(superblocks=False).superblocks is None
        assert run(compile_blocks=False).superblocks is None

    def test_conflicting_block_size_and_config_rejected(self):
        with pytest.raises(HarnessError, match="conflicting"):
            run_mode(_program(), "aikido-fasttrack", block_size=4,
                     config=AikidoConfig(block_size=16))

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(HarnessError, match="unknown keyword"):
            run_mode(_program(), "native", block_siez=8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(HarnessError, match="unknown mode"):
            run_mode(_program(), "valgrind")

    def test_shared_kwargs_is_the_union(self):
        assert {"seed", "quantum", "jitter", "max_instructions",
                "block_size", "compile_blocks", "superblocks",
                "config"} == set(SHARED_KWARGS)


class TestEmptySuiteAggregation:
    @pytest.fixture(scope="class")
    def empty_suite(self):
        return experiments.run_suite(benchmarks=[], threads=2, scale=0.05)

    def test_empty_suite_builds(self, empty_suite):
        assert empty_suite.runs == {}

    def test_geomean_speedup_raises_harness_error(self, empty_suite):
        with pytest.raises(HarnessError, match="empty"):
            empty_suite.geomean_speedup()

    def test_geomean_reduction_raises_harness_error(self, empty_suite):
        with pytest.raises(HarnessError, match="empty"):
            empty_suite.geomean_instrumentation_reduction()

    def test_figure5_raises_harness_error(self, empty_suite):
        with pytest.raises(HarnessError, match="empty"):
            experiments.figure5(empty_suite)


class TestGetBenchmarkErrors:
    def test_error_lists_valid_names(self):
        with pytest.raises(WorkloadError) as excinfo:
            get_benchmark("no-such-benchmark")
        message = str(excinfo.value)
        for name in benchmark_names():
            assert name in message

    def test_error_suggests_close_match(self):
        with pytest.raises(WorkloadError, match="did you mean 'vips'"):
            get_benchmark("vipss")


class TestCLIErrorPaths:
    def test_unknown_benchmark_exits_2_with_message(self, capsys):
        from repro.harness.cli import main
        assert main(["profile", "--benchmark", "vipss",
                     "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'vips'" in err

    def test_negative_jobs_rejected_by_parser(self, capsys):
        from repro.harness.cli import main
        with pytest.raises(SystemExit):
            main(["fig5", "--jobs", "-3"])
        assert "--jobs must be >= 0" in capsys.readouterr().err
