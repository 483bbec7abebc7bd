"""The DBR execution engine.

An :class:`~repro.guestos.driver.ExecutionDriver` that runs application
code out of the code cache, executing instrumentation hooks inline, and
hosting the master SIGSEGV handler that routes Aikido faults to the
sharing detector (paper §3.4).

Running under the engine costs: one block build per cold block, one
dispatch charge per block entry (link stubs / IBL lookups, amortized), and
whatever the attached hooks charge. This models DynamoRIO's "near native
once warm" profile — both the FastTrack baseline and Aikido pay it. The
native baseline runs on the same engine with the *native cost profile*
(``native=True``), which charges none of it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import costs
from repro.dbr.blockcompiler import CTL, ELI, HOOK, MEM, SEG, compile_block
from repro.dbr.codecache import CodeCache
from repro.dbr.superblock import (EXIT_COMPLETE, EXIT_RESUME, EXIT_STALE,
                                  MIN_INSTRUCTIONS, RETRY_EXECUTIONS,
                                  THRASH_MIN_ENTRIES, SuperBlockCache,
                                  compile_superblock, plan_chain)
from repro.dbr.tool import Tool
from repro.dbr.traceprofiler import TraceProfiler
from repro.guestos.driver import ExecutionDriver
from repro.guestos.signals import SIGSEGV, HandlerResult
from repro.machine.paging import PageFault

_MASK64 = 0xFFFFFFFFFFFFFFFF


class DBREngine(ExecutionDriver):
    """Code-cache execution with inline instrumentation hooks.

    One fetch/execute loop (:meth:`_run_steps`) runs every cached block
    through its step list (see :mod:`repro.dbr.blockcompiler`); the
    execution tiers are step-list forms of that loop. The *interpreter*
    tier (``compile_blocks=False``) runs the generic form, one
    ``CPU.execute`` per instruction, and is the reference. The
    *compiled* tier (default) runs the specialized form. The
    *superblock* tier (``superblocks=False`` to disable, on by default
    whenever the compiled tier is) additionally stitches hot block
    chains into single generated functions with guard-protected side
    exits (see :mod:`repro.dbr.superblock` /
    :mod:`repro.dbr.traceprofiler`), dispatched from the loop's fetch
    path. All tiers must produce bit-identical simulated stats.
    """

    def __init__(self, kernel, *, process=None, compile_blocks: bool = True,
                 superblocks: bool = True, native: bool = False,
                 stats=None):
        super().__init__(kernel, stats)
        self.process = process if process is not None else kernel.process
        if self.process is None:
            raise RuntimeError("create the process before the engine")
        #: Native cost profile: books only what the bare CPU and kernel
        #: book, so no dispatch/build/flush/trace charge and no
        #: residency overhead (none of them reaches the cycle
        #: breakdown, not even as a zero). A native engine serves a
        #: :class:`~repro.guestos.driver.NativeDriver`, which owns the
        #: kernel registration and passes its ``stats`` to every
        #: per-process engine it builds.
        self.native = native
        self.codecache = CodeCache(self.process.program,
                                   None if native else kernel.counter)
        self.tool: Optional[Tool] = None
        #: Installed by AikidoSD: callable(thread, SignalInfo) ->
        #: HandlerResult or None (None = not an Aikido fault).
        self.fault_router: Optional[Callable] = None
        self._cache_dirty = False
        #: Execution-tier switch (AikidoConfig.compile_blocks): the
        #: specialized step-list form, or the generic one when False.
        self.compile_blocks = compile_blocks
        #: Superblock-tier switch (AikidoConfig.superblocks) — a layer
        #: on top of the compiled tier, meaningless without it.
        self.superblocks = bool(compile_blocks and superblocks)
        if self.superblocks:
            self.traceprofiler = TraceProfiler()
            self.superblock_cache = SuperBlockCache()
            self.codecache.invalidation_listeners.append(
                self._superblock_invalidate)
        else:
            self.traceprofiler = None
            self.superblock_cache = None
        #: Per-instruction residency overhead of the installed stack;
        #: plain DynamoRIO by default, raised by AikidoSD on install.
        self.overhead_per_instr = 0 if native else costs.DBR_BASE_PER_INSTR
        #: Chaos injector, attached by ChaosInjector.attach (None = off).
        self.chaos = None
        #: Observability tracer, attached by AikidoSystem (None = off).
        self.tracer = None
        #: Static-check elision (``--static-elide``): the plan installed
        #: by AikidoSD (None = off), the uids dynamically retired from
        #: it by page-share tripwires, and the host-side elision
        #: counters ``[checks_elided, fast_path_instructions]`` the
        #: generated fast bodies bump (never part of simulated stats).
        self.elision_plan = None
        self._elision_retired: set = set()
        self._elision_cell = [0, 0]
        if not native:
            kernel.set_driver(self, self.process)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def attach_tool(self, tool: Tool) -> None:
        """Install the analysis tool (block callbacks + sync events)."""
        self.tool = tool
        tool.attach(self)
        self.codecache.build_callbacks.append(tool.instrument_block)
        self.kernel.add_sync_listener(tool.on_sync_event)

    def register_master_signal_handler(self) -> None:
        """Take over SIGSEGV for the process (DynamoRIO does this)."""
        self.process.signal_handlers[SIGSEGV] = self._master_signal_handler

    def set_elision_plan(self, plan) -> None:
        """Install the static elision plan (AikidoSD, static_elide=True).

        Must happen before the first block compiles against it; AikidoSD
        installs it at the same point it raises ``overhead_per_instr``,
        which already forces a recompile of anything built earlier.
        """
        self.elision_plan = plan

    def note_page_shared(self, vpn: int) -> list:
        """Dynamic elision tripwire: page ``vpn`` just became SHARED.

        Retires every elided uid whose static footprint contains the
        page and drops the affected compiled closures — host-side only
        (no simulated flush/build charges), so the cycle stream is
        identical to a run that never elided anything. The block
        recompiles, without the retired uids, at its next natural
        entry. Returns the newly retired ``(uid, tier)`` pairs; the
        caller (AikidoSD) escalates private-tier hits to ``ToolError``
        when per-thread protection makes the transition trustworthy.
        """
        plan = self.elision_plan
        if plan is None:
            return []
        retired = []
        for uid, tier in plan.uids_touching_page(vpn):
            if uid in self._elision_retired:
                continue
            self._elision_retired.add(uid)
            self.codecache.drop_closures_of_instruction(
                uid, "elision_retired")
            retired.append((uid, tier))
        if retired and self.tracer is not None:
            self.tracer.instant("elision_retired", "dbr", vpn=vpn,
                                uids=[u for u, _ in retired])
        return retired

    def elision_snapshot(self) -> Optional[dict]:
        """Host-side elision telemetry (None when elision is off)."""
        plan = self.elision_plan
        if plan is None:
            return None
        return {
            "plan": plan.as_dict(),
            "checks_elided": self._elision_cell[0],
            "fast_path_instructions": self._elision_cell[1],
            "retired_uids": sorted(self._elision_retired),
        }

    def invalidate_instruction(self, uid: int) -> int:
        """Flush cached blocks containing the instruction (re-JIT)."""
        flushed = self.codecache.invalidate_blocks_of_instruction(uid)
        if flushed:
            self._cache_dirty = True
        if self.tracer is not None:
            self.tracer.instant("rejit", "dbr", uid=uid, flushed=flushed)
        return flushed

    # ------------------------------------------------------------------
    # superblock tier
    # ------------------------------------------------------------------
    def _superblock_invalidate(self, block_index: int,
                               reason: str) -> None:
        """Code-cache invalidation listener: a member died, its
        superblocks die with it; a rebuilt block may also have become
        stitchable, so its build ban/backoff resets."""
        sb_cache = self.superblock_cache
        dropped = sb_cache.drop_blocks_of(block_index, reason)
        sb_cache.unban(block_index)
        if dropped and self.tracer is not None:
            self.tracer.instant("superblock_drop", "dbr",
                                block=block_index, reason=reason,
                                dropped=dropped)

    def _try_superblock(self, cached) -> None:
        """Attempt to grow and compile a superblock headed at ``cached``.

        Called from the compiled tier's fetch path when an in-trace
        block is entered at instruction 0 and no superblock covers it
        yet. Entirely host-side: no simulated charges beyond what the
        cost model already books for trace promotion.
        """
        sb_cache = self.superblock_cache
        head = cached.block_index
        if head in sb_cache.banned:
            return
        if cached.executions < sb_cache.attempt_after.get(head, 0):
            return
        members = plan_chain(head, self)
        if not members:
            # The head block itself is unstitchable (hooked, HALT,
            # literal-zero MOD, ...): no chain can ever start here until
            # an invalidation rebuilds the block differently.
            sb_cache.banned.add(head)
            return
        if (len(members) < 2
                or sum(len(m.instrs) for m in members)
                    < MIN_INSTRUCTIONS):
            # Too short to pay for its own entry sequence; the
            # successors may still be warming toward trace membership —
            # retry once the head has run hotter.
            sb_cache.attempt_after[head] = (cached.executions
                                            + RETRY_EXECUTIONS)
            return
        sb = compile_superblock(members, self)
        sb_cache.install(sb)
        if self.tracer is not None:
            self.tracer.instant(
                "superblock_build", "dbr", head=head,
                members=[m.block_index for m in sb.members],
                instructions=sb.count)

    def superblock_snapshot(self) -> Optional[dict]:
        """Host-side superblock telemetry (None when the tier is off)."""
        sb_cache = self.superblock_cache
        if sb_cache is None:
            return None
        return {
            "superblocks_built": sb_cache.built,
            "superblocks_dropped": sb_cache.dropped,
            "side_exits": sb_cache.side_exits,
            "entries": sb_cache.entries,
            "completions": sb_cache.completions,
            "instructions": sb_cache.instructions,
            "live": len(sb_cache.by_head),
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, thread, budget: int) -> str:
        chaos = self.chaos
        if chaos is not None and chaos.fires("codecache_flush",
                                             tid=thread.tid):
            # Recoverable by construction: every block rebuilds from the
            # program text with the same instrumentation on next entry.
            if self.codecache.invalidate_all():
                self._cache_dirty = True
            chaos.note_recovered("codecache_flush")
        return self._run_steps(thread, budget)

    def _compile_block(self, cached, overhead: int):
        """(Re)compile a cached block's closure; tracks traffic/tracing."""
        codecache = self.codecache
        if cached.compiled is not None:
            # Stale: baked with a different residency overhead (the
            # installed stack changed, e.g. AikidoSD install).
            codecache._note_closure_dropped(cached, "stale_overhead")
        compiled = compile_block(cached, self,
                                 generic=not self.compile_blocks)
        assert compiled.overhead == overhead
        cached.compiled = compiled
        codecache.closures_compiled += 1
        if self.tracer is not None:
            self.tracer.instant("block_compile", "dbr",
                                block=cached.block_index,
                                steps=compiled.length)
        return compiled

    def _run_steps(self, thread, budget: int) -> str:
        """The fetch/execute loop: run the thread for up to ``budget``
        instructions, one step (or fused run) at a time."""
        kernel = self.kernel
        execute = self.cpu.execute
        counter = self.counter
        stats = self.stats
        codecache = self.codecache
        pc = thread.pc
        executed = 0
        cur_bi = -1
        cached = None
        steps = None
        length = 0
        #: True only while a yield may be pending: a fault repair for
        #: the instruction being retried may have left a chaos preempt
        #: pending, or the previous quantum did (a thread that blocked
        #: right after a chaos preempt). In the latter case the very
        #: next retired instruction must yield, and only the generic
        #: form checks after every instruction, so the whole quantum
        #: runs on throwaway generic forms with no superblock dispatch
        #: and no profiler edges.
        pending_yield = generic = kernel._yield_requested
        #: Only kernel entries can change ``thread.runnable``, so the
        #: check runs at quantum start and after the paths that entered
        #: the kernel (fault repairs — actions return the new state
        #: directly).
        check_runnable = True
        overhead = self.overhead_per_instr
        dispatch = None if self.native else costs.BLOCK_DISPATCH
        sb_cache = self.superblock_cache
        #: Hot-path locals for the superblock tier: one dict.get per
        #: fetch for dispatch, and the profiler's edge table accessed
        #: directly (TraceProfiler.note_edge semantics, inlined — a
        #: call per block transition is measurable at this loop's
        #: frequency).
        sb_get = sb_cache.by_head.get if sb_cache is not None else None
        by_head = sb_cache.by_head if sb_cache is not None else None
        sb_banned = sb_cache.banned if sb_cache is not None else None
        sb_retry_get = (sb_cache.attempt_after.get
                        if sb_cache is not None else None)
        edges = (self.traceprofiler._edges
                 if self.traceprofiler is not None else None)
        #: Previous *hot* block entered at instruction 0 within this
        #: quantum — the profiler's edge source. Reset to -1 on anything
        #: that breaks the straight execution stream (mid-block
        #: re-entry, superblock exit, quantum start) and on cold blocks:
        #: chains only ever link promoted blocks, so cold-source edges
        #: would be dead weight in the table.
        prev_bi = -1
        if generic:
            sb_get = edges = None
        while executed < budget:
            if check_runnable:
                if not thread.runnable:
                    return "exited" if thread.exited else "blocked"
                check_runnable = False
            bi = pc[0]
            if bi != cur_bi or cached is None or self._cache_dirty:
                if sb_get is not None and pc[1] == 0 \
                        and not pending_yield:
                    sb = sb_get(bi)
                    if sb is not None:
                        if sb.overhead != overhead:
                            sb_cache.drop(sb, "stale_overhead")
                        elif sb.count <= budget - executed:
                            # The whole chain fits in the remaining
                            # budget and nothing can observe state
                            # mid-body — run it. All accounting is
                            # booked by the body at its exit site.
                            # The entry still records its profiler
                            # edge (the body replaces the fetch that
                            # would have) so chains through and past
                            # this superblock can keep maturing.
                            if prev_bi >= 0:
                                per_src = edges.get(prev_bi)
                                if per_src is None:
                                    per_src = edges[prev_bi] = {}
                                per_src[bi] = per_src.get(bi, 0) + 1
                            self._cache_dirty = False
                            retired = sb.fn(thread)
                            code = sb.exit[1]
                            if code != EXIT_STALE:
                                sb.entries += 1
                                sb_cache.entries += 1
                                sb_cache.instructions += retired
                                executed += retired
                                # A full-count EXIT_RESUME is a
                                # completion that fell off the chain
                                # end (fallthrough / not-taken
                                # terminal): pc parks past the block
                                # end exactly like the reference and
                                # the loop below advances it.
                                if (code == EXIT_COMPLETE
                                        or retired == sb.count):
                                    sb_cache.completions += 1
                                else:
                                    # Guard-protected side exit.
                                    sb.side_exits += 1
                                    sb_cache.side_exits += 1
                                    if self.tracer is not None:
                                        self.tracer.instant(
                                            "superblock_side_exit",
                                            "dbr", head=sb.head,
                                            member=sb.exit[0],
                                            code=code)
                                # The block the chain logically left
                                # from stays the profiler's edge
                                # source, so the stream reads as if
                                # the members had dispatched normally.
                                if code == EXIT_RESUME:
                                    # pc is parked inside (or just
                                    # past) a member; resume through
                                    # its ordinary step list. Its
                                    # dispatch is already charged — do
                                    # NOT re-fetch.
                                    member = sb.members[sb.exit[0]]
                                    cached = member
                                    cur_bi = member.block_index
                                    prev_bi = cur_bi
                                    compiled = member.compiled
                                    steps = compiled.steps
                                    length = compiled.length
                                elif code == EXIT_COMPLETE:
                                    cur_bi = -1
                                    prev_bi = (
                                        sb.members[-1].block_index)
                                else:  # REFETCH after a deviation
                                    cur_bi = -1
                                    prev_bi = (sb.members[sb.exit[0]]
                                               .block_index)
                                if (sb.entries >= THRASH_MIN_ENTRIES
                                        and sb.side_exits * 2
                                            >= sb.entries):
                                    # Mispredicting more than it
                                    # completes: evict and stop
                                    # rebuilding until the head block
                                    # is itself invalidated.
                                    sb_cache.drop(sb, "thrash")
                                    sb_cache.banned.add(sb.head)
                                continue
                            # EXIT_STALE: a member's closure changed
                            # under us; nothing was booked. Drop the
                            # superblock and dispatch normally.
                            sb_cache.drop(sb, "stale")
                self._cache_dirty = False
                cached = codecache.get(bi)
                cur_bi = bi
                if dispatch is not None:
                    counter.charge("dbr", dispatch)
                compiled = cached.compiled
                if generic:
                    compiled = compile_block(cached, self, generic=True)
                elif compiled is None or compiled.overhead != overhead:
                    compiled = self._compile_block(cached, overhead)
                steps = compiled.steps
                length = compiled.length
                if edges is not None:
                    if pc[1] == 0:
                        hot = cached.in_trace
                        if prev_bi >= 0:
                            per_src = edges.get(prev_bi)
                            if per_src is None:
                                per_src = edges[prev_bi] = {}
                            per_src[bi] = per_src.get(bi, 0) + 1
                            # Build gate, inlined: banned heads and
                            # heads inside their retry backoff are the
                            # steady state for chains that will never
                            # (or not yet) form — they must not pay a
                            # call per entry.
                            if (hot and bi not in by_head
                                    and bi not in sb_banned
                                    and cached.executions
                                        >= sb_retry_get(bi, 0)):
                                self._try_superblock(cached)
                        prev_bi = bi if hot else -1
                    else:
                        prev_bi = -1
            ii = pc[1]
            if ii >= length:
                pc[0] += 1
                pc[1] = 0
                cur_bi = -1
                continue
            step = steps[ii]
            kind = step[0]
            if kind == ELI:
                # Statically-elided fused run: the whole run (or an
                # exactly-accounted prefix, when a TLB guard misses)
                # retires in one call. Never entered with a pending
                # yield (the post-fault retry must go through the base
                # step's consume_yield check) or a budget too small for
                # the full run — both fall back to the base step.
                if not pending_yield and step[2] <= budget - executed:
                    retired = step[1](thread)
                    if retired:
                        executed += retired
                        continue
                    # Guard missed at position 0: nothing retired, run
                    # this position through its base step below.
                step = step[3]
                kind = step[0]
            if kind == SEG:
                # Fused pure-ALU run: no faults, no kernel entry, no
                # observation point inside — retire it in one go (or a
                # budget-bounded prefix of it).
                count = step[3]
                remaining = budget - executed
                if count <= remaining:
                    run_fn = step[1]
                    if run_fn is not None:
                        run_fn(thread.regs)
                    else:
                        regs = thread.regs
                        for fn in step[2]:
                            fn(regs)
                    counter.instr_cycles += step[4]
                    executed += count
                    stats.instructions += count
                    pc[1] = step[6]
                else:
                    regs = thread.regs
                    for fn in step[2][:remaining]:
                        fn(regs)
                    counter.instr_cycles += step[5][remaining]
                    executed += remaining
                    stats.instructions += remaining
                    pc[1] = ii + remaining
                continue
            if kind == MEM or kind == HOOK:
                if step[1](thread):
                    executed += 1
                    # Neither the closure nor a hook enters the kernel
                    # on the retire path, so the yield flag can only be
                    # pending from a chaos preempt during this
                    # instruction's own fault repair — only then is the
                    # check live.
                    if pending_yield and kernel.consume_yield():
                        return "yield"
                    pending_yield = False
                else:
                    # Faulted (not retired): the handler may have rebuilt
                    # the block — force a re-fetch, like the interpreter.
                    pending_yield = True
                    check_runnable = True
                    cur_bi = -1
                continue
            if kind == CTL:
                # Control transfers and MOD never enter the kernel: no
                # fault, no yield, no runnable change — just count it
                # and re-fetch when control moved.
                if step[1](thread):
                    cur_bi = -1
                executed += 1
                continue
            # GEN: the interpreter body for one instruction — every
            # position of the generic form; in the specialized form only
            # kernel actions and HALT. hooks[ii] and instr.mem are read
            # live — AikidoSD swaps the hook and patches the
            # displacement in place at runtime.
            instr = cached.instrs[ii]
            hook = cached.hooks[ii]
            try:
                if hook is not None:
                    mem = instr.mem
                    if mem is not None:
                        if mem.base is None:
                            ea = mem.disp
                        else:
                            ea = (thread.regs[mem.base] + mem.disp) & _MASK64
                    else:
                        ea = None
                    override = hook(thread, instr, ea)
                    res = execute(instr, thread, ea_override=override)
                    # Counted only on retire (a faulting attempt retries
                    # and must not be counted twice — Table 2 col 2 is a
                    # retired-execution count).
                    stats.instrumented_execs += 1
                else:
                    res = execute(instr, thread)
            except PageFault as fault:
                kernel.repair_fault(thread, fault)
                # The handler may have rebuilt this block: re-fetch so
                # the retry runs the freshly instrumented copy.
                check_runnable = True
                cur_bi = -1
                continue
            counter.instr_cycles += step[1]
            executed += 1
            stats.instructions += 1
            if step[2]:
                stats.memory_refs += 1
            if res is None:
                pc[1] = ii + 1
            else:
                if not self._apply_result(thread, pc, ii, res):
                    return "exited" if thread.exited else "blocked"
                cur_bi = -1
            if kernel.consume_yield():
                return "yield"
            pending_yield = False
        return "quantum"

    # ------------------------------------------------------------------
    # master signal handler (paper §3.4)
    # ------------------------------------------------------------------
    def _master_signal_handler(self, thread, info) -> HandlerResult:
        if self.fault_router is not None:
            result = self.fault_router(thread, info)
            if result is not None:
                return result
        # Not an Aikido fault: the application really faulted. DynamoRIO
        # would deliver the app's own handler; our workloads register
        # none, so it is fatal.
        return HandlerResult.FATAL
