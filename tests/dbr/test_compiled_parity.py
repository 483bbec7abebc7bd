"""The block-compiled and superblock tiers must be observationally
identical to the interpreter tier.

Four layers of evidence:

* differential runs over every bundled workload (plain, under chaos
  injection, and with tracing/metrics on) comparing the full simulated
  surface — cycles, run stats, per-category breakdown, attribution,
  detector profile, hypervisor stats, chaos payload and race reports —
  across all three execution tiers; native runs add the final guest
  user memory to the surface;
* seeded Hypothesis fuzzing over generated multithreaded programs,
  drawing scenarios from the shared ``repro.scengen`` generator (the
  same distributions ``aikido-repro fuzz`` campaigns use);
* unit tests that every invalidation event (re-JIT, full flush, chaos
  cache flush, residency-overhead change) drops the stale closure, and
  that the TLB's translation micro-caches track its entry table through
  fill/invalidate/flush/eviction;
* superblock-tier units: chains form and complete on hot loops, the
  side-exit accounting identity holds, invalidation storms (SMC
  cadences) drop superblocks without breaking parity, and quantum
  tails too short for a whole chain fall back to the compiled tier.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings

from repro import costs
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.plan import ChaosPlan
from repro.core.config import AikidoConfig
from repro.dbr.engine import DBREngine
from repro.errors import InvariantViolationError, ReproError
from repro.guestos.kernel import Kernel
from repro.harness import runner
from repro.harness.runner import build_aikido_system, run_mode
from repro.machine.asm import ProgramBuilder
from repro.machine.tlb import TLB
from repro.scengen.scenario import render
from repro.scengen.strategies import scenario_irs
from repro.workloads.parsec import benchmark_names, build_benchmark
from tests.conftest import guest_memory_digest

PARITY_FIELDS = ("cycles", "run_stats", "cycle_breakdown", "aikido_stats",
                 "hypervisor_stats", "detector_profile", "chaos",
                 "cycle_attribution")


def surface(result):
    """Everything the tiers must agree on, as one comparable value."""
    fields = {name: getattr(result, name) for name in PARITY_FIELDS}
    fields["races"] = [r.describe() for r in result.races]
    return fields


#: ``(compile_blocks, superblocks)`` per tier, superblock first so the
#: common unpacking reads ``superblock, compiled, interp = ...``.
TIER_KNOBS = ((True, True), (True, False), (False, False))


def native_surface(program, **kwargs):
    """:func:`surface` of a native run plus the digest of the guest's
    final user memory (the kernel is kept by patching the runner's)."""
    kernels = []

    class KeptKernel(Kernel):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            kernels.append(self)

    with mock.patch.object(runner, "Kernel", KeptKernel):
        fields = surface(run_mode(program, "native", **kwargs))
    fields["guest_memory"] = guest_memory_digest(kernels[0])
    return fields


def run_all_tiers(program_factory, mode="aikido-fasttrack", **kwargs):
    """Run superblock, compiled and interpreter tiers; each outcome is
    either a result surface or an exception (hostile chaos runs may
    legitimately raise — identically in every tier)."""
    outcomes = []
    for compile_blocks, superblocks in TIER_KNOBS:
        tier_kwargs = dict(kwargs)
        if mode == "aikido-fasttrack":
            config = tier_kwargs.pop("config", None) or AikidoConfig()
            config.compile_blocks = compile_blocks
            config.superblocks = superblocks
            tier_kwargs["config"] = config
        else:
            tier_kwargs["compile_blocks"] = compile_blocks
            tier_kwargs["superblocks"] = superblocks
        try:
            if mode == "native":
                fields = native_surface(program_factory(), **tier_kwargs)
            else:
                fields = surface(run_mode(program_factory(), mode,
                                          **tier_kwargs))
            outcomes.append(("ok", fields))
        except ReproError as exc:
            outcomes.append(("raised", type(exc).__name__, str(exc)))
    return outcomes


class TestWorkloadParity:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_plain_run_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100)
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", benchmark_names())
    def test_native_plain_run_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            mode="native", seed=2, quantum=100)
        assert superblock[0] == "ok", superblock
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["freqmine", "canneal", "vips"])
    def test_chaos_recovery_run_bit_identical(self, name):
        def config():
            return AikidoConfig(
                chaos=ChaosPlan.recovery(seed=11, intensity=0.3),
                check_invariants=True)

        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100, config=config())
        assert compiled[0] == "ok", compiled
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["blackscholes", "streamcluster"])
    def test_hostile_chaos_run_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100,
            config=AikidoConfig(
                chaos=ChaosPlan.hostile(seed=13, intensity=0.2)))
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["bodytrack", "x264"])
    def test_traced_run_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100,
            config=AikidoConfig(trace=True, metrics_cadence=25))
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["canneal", "raytrace"])
    def test_fasttrack_mode_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            mode="fasttrack", seed=2, quantum=100)
        assert superblock == compiled == interp


# ----------------------------------------------------------------------
# seeded fuzzing over generated scenarios (repro.scengen strategies)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(scenario_irs(chaos=False))
def test_fuzzed_scenarios_fasttrack_parity(ir):
    superblock, compiled, interp = run_all_tiers(
        lambda: render(ir)[0], mode="fasttrack",
        seed=ir.sched_seed, quantum=ir.quantum, jitter=ir.jitter,
        max_instructions=300_000)
    assert superblock == compiled == interp


@settings(max_examples=20, deadline=None)
@given(scenario_irs(chaos=False))
def test_fuzzed_scenarios_native_parity(ir):
    superblock, compiled, interp = run_all_tiers(
        lambda: render(ir)[0], mode="native",
        seed=ir.sched_seed, quantum=ir.quantum, jitter=ir.jitter,
        max_instructions=300_000)
    assert superblock == compiled == interp


@settings(max_examples=10, deadline=None)
@given(scenario_irs(chaos=False))
def test_fuzzed_scenarios_aikido_parity(ir):
    superblock, compiled, interp = run_all_tiers(
        lambda: render(ir)[0],
        seed=ir.sched_seed, quantum=ir.quantum, jitter=ir.jitter,
        max_instructions=300_000)
    assert superblock == compiled == interp


@settings(max_examples=8, deadline=None)
@given(scenario_irs(chaos=True).filter(
    lambda ir: ir.chaos_seed is not None))
def test_fuzzed_chaotic_scenarios_aikido_parity(ir):
    def config():
        return AikidoConfig(chaos=ChaosPlan.recovery(
            seed=ir.chaos_seed, intensity=ir.chaos_intensity))

    superblock, compiled, interp = run_all_tiers(
        lambda: render(ir)[0],
        seed=ir.sched_seed, quantum=ir.quantum, jitter=ir.jitter,
        max_instructions=300_000, config=config())
    assert superblock == compiled == interp


# ----------------------------------------------------------------------
# closure invalidation
# ----------------------------------------------------------------------
def _counting_program(iters=10):
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    b.li(4, data)
    with b.loop(counter=2, count=iters):
        b.load(5, base=4, disp=0)
        b.add(5, 5, imm=1)
        b.store(5, base=4, disp=0)
    b.halt()
    return b.build()


def _engine():
    kernel = Kernel(seed=0, quantum=100, jitter=0.0)
    kernel.create_process(_counting_program())
    engine = DBREngine(kernel)
    thread = kernel.process.threads[1]
    return kernel, engine, thread


class RecordingTracer:
    def __init__(self):
        self.instants = []

    def instant(self, name, category, **attrs):
        self.instants.append((name, attrs))

    def span(self, name, category, **attrs):
        import contextlib
        return contextlib.nullcontext()


class TestClosureInvalidation:
    def test_first_entry_compiles_closure(self):
        _, engine, thread = _engine()
        engine.run(thread, budget=1)
        cached = engine.codecache._blocks[0]
        assert cached.compiled is not None
        assert cached.compiled.overhead == costs.DBR_BASE_PER_INSTR
        assert engine.codecache.closures_compiled == 1

    def test_rejit_drops_closure(self):
        _, engine, thread = _engine()
        engine.run(thread, budget=1)  # stay inside block 0
        uid = engine.codecache._blocks[0].instrs[0].uid
        dropped_before = engine.codecache.closures_dropped
        compiled_before = engine.codecache.closures_compiled
        assert engine.invalidate_instruction(uid) == 1
        assert engine.codecache.closures_dropped == dropped_before + 1
        # Re-entry rebuilds and recompiles from program text.
        engine.run(thread, budget=1)
        assert engine.codecache._blocks[0].compiled is not None
        assert engine.codecache.closures_compiled == compiled_before + 1

    def test_invalidate_all_drops_every_closure(self):
        _, engine, thread = _engine()
        engine.run(thread, budget=50)  # touches both blocks
        compiled = sum(1 for c in engine.codecache._blocks.values()
                       if c.compiled is not None)
        assert compiled >= 2
        tracer = RecordingTracer()
        engine.codecache.tracer = tracer
        assert engine.codecache.invalidate_all() >= compiled
        assert engine.codecache.closures_dropped == compiled
        reasons = {attrs["reason"] for name, attrs in tracer.instants
                   if name == "closure_invalidate"}
        assert reasons == {"flush_all"}

    def test_overhead_change_recompiles_closure(self):
        # The AikidoSD install path: residency overhead changes after
        # blocks were already compiled, so the baked per-instruction
        # charge is stale and the block must recompile on next entry.
        _, engine, thread = _engine()
        engine.run(thread, budget=1)  # stay inside block 0
        old = engine.codecache._blocks[0].compiled
        assert old.overhead == costs.DBR_BASE_PER_INSTR
        tracer = RecordingTracer()
        engine.codecache.tracer = tracer
        engine.overhead_per_instr = costs.AIKIDO_RESIDENCY_PER_INSTR
        engine.run(thread, budget=3)
        new = engine.codecache._blocks[0].compiled
        assert new is not old
        assert new.overhead == costs.AIKIDO_RESIDENCY_PER_INSTR
        assert ("closure_invalidate",
                {"block": 0, "reason": "stale_overhead"}) in tracer.instants

    def test_sharing_fault_rejit_drops_closures_in_full_stack(self):
        system = build_aikido_system(
            build_benchmark("canneal", threads=2, scale=0.05),
            seed=2, quantum=100)
        system.run()
        cache = system.engine.codecache
        assert system.stats.rejit_flushes > 0
        assert cache.closures_dropped > 0
        assert cache.closures_compiled > cache.closures_dropped

    def test_chaos_cache_flush_drops_closures(self):
        system = build_aikido_system(
            build_benchmark("freqmine", threads=2, scale=0.05),
            seed=2, quantum=100,
            config=AikidoConfig(
                chaos=ChaosPlan.recovery(seed=11, intensity=0.5)))
        system.run()
        delivered = system.chaos.as_dict()["delivered"]
        assert delivered.get("codecache_flush", 0) > 0
        assert system.engine.codecache.closures_dropped > 0


# ----------------------------------------------------------------------
# superblock tier
# ----------------------------------------------------------------------
def _hot_loop_program(iters=800):
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    b.li(4, data)
    with b.loop(counter=2, count=iters):
        b.load(5, base=4, disp=0)
        b.add(5, 5, imm=1)
        b.store(5, base=4, disp=0)
        b.xor(6, 5, imm=0x55)
    b.halt()
    return b.build()


def _bare_run(program_factory, quantum=100, smc_period=0,
              **engine_kwargs):
    """One bare-engine run; returns (parity surface, engine).

    ``smc_period`` > 0 installs the oracle-style self-modifying-code
    cadence: every ``period`` scheduler ticks one program instruction
    is invalidated, forcing a re-JIT (and superblock-drop) storm at
    identical points in every tier.
    """
    program = program_factory()
    kernel = Kernel(seed=3, quantum=quantum, jitter=0.1)
    kernel.create_process(program)
    engine = DBREngine(kernel, **engine_kwargs)
    if smc_period:
        uids = [instr.uid for instr in program.iter_instructions()][:4]
        state = {"ticks": 0}

        def _tick():
            state["ticks"] += 1
            if state["ticks"] % smc_period == 0:
                fired = state["ticks"] // smc_period
                engine.invalidate_instruction(
                    uids[(fired - 1) % len(uids)])

        kernel.tick_hooks.append(_tick)
    kernel.run()
    return (kernel.counter.total, engine.stats.as_dict(),
            kernel.counter.snapshot()), engine


class TestSuperblockTier:
    def test_forms_and_completes_on_hot_loop(self):
        got, engine = _bare_run(_hot_loop_program,
                                compile_blocks=True, superblocks=True)
        snapshot = engine.superblock_snapshot()
        assert snapshot["superblocks_built"] >= 1
        assert snapshot["completions"] > 0
        assert snapshot["instructions"] > 0
        want, _ = _bare_run(_hot_loop_program, compile_blocks=False)
        assert got == want

    def test_disabled_without_block_compiler(self):
        # superblocks stitch *compiled* blocks; an interpreter-only
        # engine has nothing to stitch and the tier must stay off.
        _, engine = _bare_run(_hot_loop_program,
                              compile_blocks=False, superblocks=True)
        assert engine.superblock_snapshot() is None

    @pytest.mark.parametrize("name",
                             ["blackscholes", "canneal", "bodytrack"])
    def test_entry_accounting_identity(self, name):
        # Every superblock entry retires as exactly one of completion
        # or side exit — nothing double-counted, nothing lost.
        _, engine = _bare_run(
            lambda: build_benchmark(name, threads=2, scale=0.1),
            compile_blocks=True, superblocks=True)
        snapshot = engine.superblock_snapshot()
        assert snapshot["entries"] == (snapshot["completions"]
                                       + snapshot["side_exits"])

    @pytest.mark.parametrize("quantum", [13, 31, 50])
    def test_quantum_tail_parity(self, quantum):
        # A quantum tail shorter than a whole chain must fall back to
        # the compiled tier for those steps — bit-identically.
        got, engine = _bare_run(_hot_loop_program, quantum=quantum,
                                compile_blocks=True, superblocks=True)
        want, _ = _bare_run(_hot_loop_program, quantum=quantum,
                            compile_blocks=False)
        assert got == want
        snapshot = engine.superblock_snapshot()
        assert snapshot["entries"] == (snapshot["completions"]
                                       + snapshot["side_exits"])

    def test_rejit_drops_member_superblocks_and_resets_gate(self):
        _, engine = _bare_run(_hot_loop_program,
                              compile_blocks=True, superblocks=True)
        sb_cache = engine.superblock_cache
        assert sb_cache.by_head, "hot loop never built a superblock"
        head, sb = next(iter(sb_cache.by_head.items()))
        member = sb.members[0].block_index
        uid = engine.codecache._blocks[member].instrs[0].uid
        tracer = RecordingTracer()
        engine.tracer = tracer
        dropped_before = sb_cache.dropped
        assert engine.invalidate_instruction(uid) >= 1
        assert sb_cache.dropped > dropped_before
        assert head not in sb_cache.by_head
        # The rebuilt block gets a fresh chance: no ban, no backoff.
        assert member not in sb_cache.banned
        assert member not in sb_cache.attempt_after
        drops = [attrs for name, attrs in tracer.instants
                 if name == "superblock_drop"]
        assert drops and drops[0]["reason"] == "flush"
        assert drops[0]["dropped"] >= 1

    def test_smc_invalidation_storm_parity(self):
        # The oracle's self-modifying-code cadence at a storm-level
        # period: superblocks must form, be torn down repeatedly, and
        # never perturb the simulated surface.
        interp, _ = _bare_run(_hot_loop_program, quantum=50,
                              smc_period=3, compile_blocks=False)
        compiled, _ = _bare_run(_hot_loop_program, quantum=50,
                                smc_period=3, compile_blocks=True,
                                superblocks=False)
        superblock, engine = _bare_run(_hot_loop_program, quantum=50,
                                       smc_period=3,
                                       compile_blocks=True,
                                       superblocks=True)
        assert interp == compiled == superblock
        snapshot = engine.superblock_snapshot()
        assert snapshot["superblocks_built"] >= 1
        assert snapshot["superblocks_dropped"] >= 1

    def test_full_flush_drops_every_superblock(self):
        _, engine = _bare_run(_hot_loop_program,
                              compile_blocks=True, superblocks=True)
        sb_cache = engine.superblock_cache
        assert sb_cache.by_head
        engine.codecache.invalidate_all()
        assert not sb_cache.by_head
        assert sb_cache.dropped >= 1


# ----------------------------------------------------------------------
# translation micro-cache maintenance
# ----------------------------------------------------------------------
_RW = 0b111  # present | writable | user
_RO = 0b101  # present | user


class TestTLBFastMaps:
    def test_fill_populates_by_permission(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.fill(2, 20, _RO)
        tlb.fill(3, 30, 0b001)  # kernel-only
        assert tlb.fast_ro == {1: 10 << 12, 2: 20 << 12}
        assert tlb.fast_rw == {1: 10 << 12}

    def test_refill_with_downgraded_flags_evicts_fast_entry(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.fill(1, 10, _RO)  # write permission revoked
        assert 1 not in tlb.fast_rw
        assert tlb.fast_ro == {1: 10 << 12}
        tlb.fill(1, 10, 0b001)
        assert not tlb.fast_ro and not tlb.fast_rw

    def test_invalidate_drops_fast_entries(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.invalidate(1)
        assert 1 not in tlb.fast_ro and 1 not in tlb.fast_rw

    def test_flush_clears_fast_maps(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.fill(2, 20, _RO)
        tlb.flush()
        assert not tlb.fast_ro and not tlb.fast_rw

    def test_fifo_eviction_drops_fast_entries(self):
        tlb = TLB(capacity=2)
        tlb.fill(1, 10, _RW)
        tlb.fill(2, 20, _RW)
        tlb.fill(3, 30, _RW)  # evicts vpn 1
        assert 1 not in tlb._entries
        assert 1 not in tlb.fast_ro and 1 not in tlb.fast_rw
        assert set(tlb.fast_rw) == {2, 3}

    def test_fast_maps_always_subset_of_entries(self):
        tlb = TLB(capacity=4)
        for vpn in range(10):
            tlb.fill(vpn, vpn + 100, _RW if vpn % 2 else _RO)
            assert set(tlb.fast_ro) <= set(tlb._entries)
            assert set(tlb.fast_rw) <= set(tlb.fast_ro)

    def test_monitor_catches_poisoned_fast_map(self):
        # The soundness net: if an invalidation ever updated _entries
        # but not the fast maps, the cross-layer monitor must say so.
        system = build_aikido_system(
            build_benchmark("blackscholes", threads=2, scale=0.05),
            seed=2, quantum=100, config=AikidoConfig(check_invariants=True))
        monitor = system.monitor
        monitor.check_all()  # consistent on the freshly built stack
        thread = next(iter(system.kernel.process.live_threads))
        thread.tlb.fast_rw[0xdead] = 0xbeef << 12
        with pytest.raises(InvariantViolationError, match="no backing"):
            monitor.check_all()
        del thread.tlb.fast_rw[0xdead]
        system.run()  # the poisoned map must not leak into the real run
        monitor.check_all()
