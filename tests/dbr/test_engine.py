"""Tests for the DBR engine: code cache, hooks, re-JIT, signal routing."""

import pytest

from repro.dbr.codecache import TRACE_THRESHOLD, CodeCache
from repro.dbr.engine import DBREngine
from repro.dbr.tool import Tool
from repro.errors import SegmentationFaultError
from repro.guestos.kernel import Kernel
from repro.guestos.signals import SIGSEGV, HandlerResult
from repro.machine.asm import ProgramBuilder


def counting_program(iters=10):
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    b.li(4, data)
    with b.loop(counter=2, count=iters):
        b.load(5, base=4, disp=0)
        b.add(5, 5, imm=1)
        b.store(5, base=4, disp=0)
    b.halt()
    return b.build(), data


class RecordingTool(Tool):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.blocks_seen = []
        self.accesses = []
        self.events = []

    def instrument_block(self, cached):
        self.blocks_seen.append(cached.block_index)
        for pos, instr in enumerate(cached.instrs):
            if instr.mem is not None:
                cached.set_hook(pos, self._hook)

    def _hook(self, thread, instr, ea):
        self.accesses.append((thread.tid, instr.uid, ea))
        return None

    def on_sync_event(self, event):
        self.events.append(event)


class TestCodeCache:
    def test_blocks_built_once_until_invalidated(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        cache.get(0)
        cache.get(0)
        assert cache.builds == 1
        cache.invalidate(0)
        cache.get(0)
        assert cache.builds == 2
        assert cache.flushes == 1

    def test_invalidate_by_instruction_uid(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        instr = next(i for i in program.iter_instructions()
                     if i.is_memory_op)
        block_index, _ = program.instruction_locations[instr.uid]
        cache.get(block_index)
        assert cache.invalidate_blocks_of_instruction(instr.uid) == 1
        assert block_index not in cache

    def test_invalidate_uncached_block_is_noop(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        assert cache.invalidate(0) == 0

    def test_cached_copies_do_not_alias_program(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        cached = cache.get(0)
        original = program.blocks[0].instructions[0]
        assert cached.instrs[0] is not original
        assert cached.instrs[0].uid == original.uid

    def test_trace_promotion_counted(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        for _ in range(TRACE_THRESHOLD - 1):
            assert not cache.get(0).in_trace
        assert cache.get(0).in_trace
        for _ in range(5):
            cache.get(0)
        assert cache.traces_built == 1

    def test_build_callbacks_run_in_order(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        order = []
        cache.build_callbacks.append(lambda c: order.append("a"))
        cache.build_callbacks.append(lambda c: order.append("b"))
        cache.get(0)
        assert order == ["a", "b"]


class TestEngineExecution:
    def test_program_result_identical_to_native(self):
        program, data = counting_program(12)
        kernel = Kernel(jitter=0.0)
        kernel.create_process(program)
        engine = DBREngine(kernel)
        engine.attach_tool(RecordingTool())
        kernel.run()
        assert kernel.process.vm.read_word(data) == 12

    def test_every_memory_access_hooked(self):
        program, data = counting_program(7)
        kernel = Kernel(jitter=0.0)
        kernel.create_process(program)
        engine = DBREngine(kernel)
        tool = RecordingTool()
        engine.attach_tool(tool)
        kernel.run()
        # 7 loads + 7 stores.
        assert len(tool.accesses) == 14
        assert all(ea == data for _, _, ea in tool.accesses)
        assert engine.stats.instrumented_execs == 14
        assert engine.stats.memory_refs == 14

    def test_hook_can_redirect_effective_address(self):
        b = ProgramBuilder()
        data = b.segment("data", 64)
        b.label("main")
        b.li(4, data)
        b.li(5, 77)
        b.store(5, base=4, disp=0)
        b.halt()
        program = b.build()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(program)
        engine = DBREngine(kernel)

        class Redirector(Tool):
            def instrument_block(self, cached):
                for pos, instr in enumerate(cached.instrs):
                    if instr.mem is not None:
                        cached.set_hook(
                            pos, lambda t, i, ea: ea + 8)

            def on_sync_event(self, event):
                pass

        engine.attach_tool(Redirector())
        kernel.run()
        assert kernel.process.vm.read_word(data) == 0
        assert kernel.process.vm.read_word(data + 8) == 77

    def test_tool_sees_sync_events(self):
        b = ProgramBuilder()
        b.segment("data", 64)
        b.label("main")
        b.lock(lock_id=1)
        b.unlock(lock_id=1)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        tool = RecordingTool()
        engine.attach_tool(tool)
        kernel.run()
        assert len(tool.events) >= 2

    def test_dbr_overhead_charged(self):
        program, _ = counting_program(10)
        kernel_native = Kernel(jitter=0.0)
        kernel_native.create_process(program)
        kernel_native.run()

        program2, _ = counting_program(10)
        kernel_dbr = Kernel(jitter=0.0)
        kernel_dbr.create_process(program2)
        DBREngine(kernel_dbr)
        kernel_dbr.run()
        assert kernel_dbr.counter.total > kernel_native.counter.total


class TestMasterSignalHandler:
    def test_unrouted_fault_is_fatal(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0xDEAD0000)
        b.load(2, base=1, disp=0)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        engine.register_master_signal_handler()
        with pytest.raises(SegmentationFaultError):
            kernel.run()

    def test_fault_router_gets_first_look(self):
        b = ProgramBuilder()
        data = b.segment("data", 64)
        b.label("main")
        b.li(1, 0xDEAD0000)
        b.load(2, base=1, disp=0)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        engine.register_master_signal_handler()
        seen = []

        def router(thread, info):
            seen.append(info.fault_address)
            return None  # not ours

        engine.fault_router = router
        with pytest.raises(SegmentationFaultError):
            kernel.run()
        assert seen == [0xDEAD0000]

    def test_router_resume_retries_instruction(self):
        b = ProgramBuilder()
        data = b.segment("data", 64)
        b.label("main")
        b.li(1, 0xDEAD0000)
        b.load(2, base=1, disp=0)
        b.store(2, disp=data)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        engine.register_master_signal_handler()

        def router(thread, info):
            thread.regs[1] = data  # repair the bad pointer
            return HandlerResult.RESUME

        engine.fault_router = router
        kernel.run()  # completes
