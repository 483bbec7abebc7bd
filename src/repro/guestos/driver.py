"""Execution drivers: what runs a thread for one scheduler quantum.

A driver runs one thread for up to a quantum of instructions, consulting
the CPU for instruction semantics and the kernel for traps and faults.
The fetch/execute/retire loop lives in the DBR engine
(:class:`repro.dbr.engine.DBREngine`), which fetches through a code
cache and runs instrumentation hooks. :class:`NativeDriver` (the paper's
"native" baseline) runs the same loop with no tool attached and the
engine's native cost profile, so it books exactly what the bare CPU and
kernel book.

Fault protocol: a :class:`~repro.machine.paging.PageFault` means the
instruction did not retire. The driver asks the kernel to repair it
(platform/hypervisor first, then signal delivery); on success the same
instruction is re-executed. This retry loop is what lets AikidoSD repair
the world (unprotect a page, rewrite a block) behind the application's
back.
"""

from __future__ import annotations

from typing import Dict, Optional


class RunStats:
    """Dynamic execution statistics for one run (Table 2 raw material)."""

    def __init__(self):
        #: Dynamic count of executed instructions that reference memory
        #: (Table 2, column 1: what a conservative tool must instrument).
        self.memory_refs = 0
        #: All retired instructions.
        self.instructions = 0
        #: Dynamic executions of *instrumented* instructions (Table 2 col 2).
        self.instrumented_execs = 0
        #: How many of those executions touched a shared page (col 3).
        self.shared_accesses = 0
        #: Analysis events actually delivered to the tool.
        self.tool_invocations = 0

    def as_dict(self) -> dict:
        return {
            "memory_refs": self.memory_refs,
            "instructions": self.instructions,
            "instrumented_execs": self.instrumented_execs,
            "shared_accesses": self.shared_accesses,
            "tool_invocations": self.tool_invocations,
        }


class ExecutionDriver:
    """Common driver machinery; subclasses override the fetch path."""

    def __init__(self, kernel, stats: Optional[RunStats] = None):
        self.kernel = kernel
        self.cpu = kernel.cpu
        self.counter = kernel.counter
        self.stats = stats if stats is not None else RunStats()

    def run(self, thread, budget: int) -> str:
        """Run ``thread`` for at most ``budget`` instructions.

        Returns the stop reason: ``"quantum"``, ``"blocked"``,
        ``"exited"``, or ``"yield"``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _apply_result(self, thread, pc, ii: int, res) -> bool:
        """Apply a non-None CPU result; returns False if thread blocked.

        ``res`` is a control tuple or an Action. The caller has already
        handled ``None`` (fallthrough).
        """
        if res.__class__ is tuple:
            tag = res[0]
            if tag == "jmp":
                pc[0] = res[1]
                pc[1] = 0
            elif tag == "call":
                thread.call_stack.append((pc[0], ii + 1))
                pc[0] = res[1]
                pc[1] = 0
            else:  # ret
                if not thread.call_stack:
                    from repro.errors import InvalidInstructionError
                    raise InvalidInstructionError(
                        f"RET with empty call stack in thread {thread.tid}")
                pc[0], pc[1] = thread.call_stack.pop()
            return True
        # Action: trap into the kernel.
        advanced = self.kernel.service(thread, res)
        if advanced:
            pc[1] = ii + 1
        return thread.runnable


class NativeDriver(ExecutionDriver):
    """The static program with no DBR charges and no tool.

    A per-process dispatcher: each process's quanta run through its own
    DBR engine (an engine is bound to one program) with the native cost
    profile, at the given tiers. All engines share this driver's
    :class:`RunStats` and stay out of ``kernel.drivers``, so every
    quantum keeps entering through :meth:`run`.
    """

    def __init__(self, kernel, *, compile_blocks: bool = True,
                 superblocks: bool = True):
        super().__init__(kernel)
        self.compile_blocks = compile_blocks
        self.superblocks = superblocks
        #: pid -> that process's native-profile engine, built lazily.
        self.engines: Dict[int, object] = {}

    def run(self, thread, budget: int) -> str:
        process = thread.process
        engine = self.engines.get(process.pid)
        if engine is None:
            # Imported here: repro.dbr.engine imports this module.
            from repro.dbr.engine import DBREngine
            engine = self.engines[process.pid] = DBREngine(
                self.kernel, process=process,
                compile_blocks=self.compile_blocks,
                superblocks=self.superblocks, native=True,
                stats=self.stats)
        return engine.run(thread, budget)
