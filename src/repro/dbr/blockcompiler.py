"""Block compiler: turn cached blocks into step lists for the engine.

The engine (:class:`~repro.dbr.engine.DBREngine`) has one fetch/execute
loop; it runs every cached block through a list of steps, one step per
instruction position. An execution tier is a choice of step-list form.

The *generic* form (the interpreter tier, ``compile_blocks=False``) has
one ``GEN`` step at every position: a dict-dispatched ``CPU.execute``,
the precomputed cycle charge and a ``consume_yield`` call for *every*
retired instruction. It is the reference semantics.

The *specialized* form (the compiled tier) pays most of those costs
once, at compile time: when the engine first enters a cached block it
classifies every position into one of five step kinds —

``SEG``
    a maximal run of pure-ALU, unhooked instructions (LI/MOV/ADD/SUB/
    MUL/AND/OR/XOR/SHL/SHR/NOP) fused into a tuple of micro-closures
    that only touch the register file. The run's cycle charges are
    pre-summed so the whole segment retires with one
    ``instr_cycles +=`` and one ``stats.instructions +=``. Segments can
    neither fault nor enter the kernel, so there is no observation
    point inside one: deferring the pc update and the charge to the
    segment end is bit-identical to the interpreter. MOD is *excluded*
    (it can raise ``InvalidInstructionError`` before charging, which
    would corrupt the pre-summed charge at exception time).

``MEM``
    an unhooked LOAD/STORE/ATOMIC_ADD bound into a closure with the
    operands pre-decoded. It probes the owning thread's TLB micro-cache
    (``fast_ro``/``fast_rw``) first and falls back to the platform's
    ``translate`` — counting TLB hits/misses exactly as the interpreter
    path would — and routes page faults through ``kernel.repair_fault``
    with the not-retired/refetch contract intact.

``HOOK``
    a *hooked* LOAD/STORE/ATOMIC_ADD: the instrumented access with the
    analysis inline (paper Fig. 4). The same closure body as ``MEM``,
    except that it computes the address from the *live*
    ``instr.mem.disp``, calls the *live* ``hooks[ii]`` with it and
    applies the returned override before the TLB probe, and counts
    ``instrumented_execs`` on retire. Reading both live means AikidoSD's
    runtime hook swap and in-place mirror patch (seeded
    direct-patching) need no recompile. Hooks never enter the kernel,
    so, as for ``MEM``, the yield check is live only after this
    instruction's own fault repair.

``CTL``
    an unhooked control transfer (JMP/BZ/BNZ/BLT/BGE/CALL/RET) or MOD,
    specialized into a ``fn(thread) -> bool`` closure (True = control
    transferred, the engine must re-fetch). Branch/call targets are
    resolved through ``program.label_index`` once, at compile time, and
    the CALL return site is a prebuilt constant tuple. MOD rides here
    because its divide-by-zero check must raise *before* charging,
    which bars it from a pre-summed segment. Like segments, these steps
    never enter the kernel, so the per-instruction yield check is
    provably dead and skipped.

``GEN``
    everything else — kernel actions and HALT (and a hook on a
    non-memory instruction, which no tool installs): the engine runs
    the interpreter body for that one instruction. Only the cycle
    charge is precomputed.

A :class:`CompiledBlock` stores the engine's ``overhead_per_instr`` it
was baked with; the engine recompiles when the installed stack changes
the residency overhead (AikidoSD raises it on install). The closure
dies with its :class:`~repro.dbr.codecache.CachedBlock` on any flush,
so every re-JIT path (sharing faults, ``invalidate_all``, chaos
flushes, protection-change rewrites) structurally invalidates it.

Correctness bar: bit-identical simulated stats — cycles, fault counts,
race reports, chaos replay logs, trace attribution — versus the
generic form (see ``tests/dbr/test_compiled_parity.py``).
"""

from __future__ import annotations

import functools
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.errors import InvalidInstructionError
from repro.machine.cpu import BASE_COST
from repro.machine.isa import MEMORY_OPCODES, Opcode
from repro.machine.paging import PAGE_SHIFT, PAGE_SIZE, PageFault

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PAGE_MASK = PAGE_SIZE - 1

#: Step kind tags (first element of every step tuple).
SEG = 0
MEM = 1
GEN = 2
CTL = 3
HOOK = 4
#: Statically-elided fused run (``--static-elide``): superimposed over a
#: maximal run of SEG positions and unhooked memory accesses the elision
#: plan proved race-free/private. ``(ELI, fast_fn, count, fallback)``
#: where ``fast_fn(thread) -> retired`` runs the whole run with inline
#: TLB-micro-cache guards and literal-baked effects, bailing (with exact
#: prefix accounting) to the base step at the failing position, and
#: ``fallback`` is the base step the position keeps for budget tails,
#: pending yields and guard misses at position 0.
ELI = 5

#: Opcodes eligible for segment fusion: register-file-only semantics,
#: cannot fault, cannot trap, cannot raise before charging.
SEG_OPCODES = frozenset((
    Opcode.NOP, Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.SUB,
    Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
    Opcode.SHR,
))

#: Opcodes specialized as CTL steps when unhooked.
CTL_OPCODES = frozenset((
    Opcode.JMP, Opcode.BZ, Opcode.BNZ, Opcode.BLT, Opcode.BGE,
    Opcode.CALL, Opcode.RET, Opcode.MOD,
))

#: Opcodes a superblock (see :mod:`repro.dbr.superblock`) can inline at
#: any position of a chain member: pure ALU, unhooked memory accesses
#: (guarded on the TLB micro-cache) and MOD (guarded on its divisor).
STITCH_BODY_OPCODES = SEG_OPCODES | MEMORY_OPCODES | frozenset(
    (Opcode.MOD,))

#: Control opcodes legal only as a chain member's *final* instruction —
#: the block terminators (plus CALL, which the ISA allows mid-block:
#: a mid-block CALL makes the block unstitchable because the chain
#: would have to span the callee and the return site).
STITCH_TAIL_OPCODES = frozenset((
    Opcode.JMP, Opcode.BZ, Opcode.BNZ, Opcode.BLT, Opcode.BGE,
    Opcode.CALL, Opcode.RET,
))


def chain_stitchable(cached) -> bool:
    """Can this cached block serve as a superblock chain member?

    Every position must be unhooked (a hook is an observation point the
    straight-line body cannot host) and every opcode must be one the
    superblock compiler can inline: ALU/memory/MOD anywhere, a control
    transfer only at the final position. Kernel ops, HALT, hooked
    positions and mid-block CALLs all disqualify the block — they run
    through the ordinary step list instead. A MOD with a literal zero
    divisor also disqualifies (it unconditionally raises, so the block
    can never retire past it anyway), as does a memory access with a
    literal misaligned address (same argument — and the superblock
    compiler inlines word-store accesses on the premise that literal
    addresses it sees are aligned).

    The verdict is stable for the life of the CachedBlock for the same
    reason step classification is: hooks are only *added* through a
    flush-and-rebuild, and runtime hook swaps only touch already-hooked
    positions (which already made the block unstitchable).
    """
    instrs = cached.instrs
    last = len(instrs) - 1
    for i, instr in enumerate(instrs):
        if cached.hooks[i] is not None:
            return False
        op = instr.op
        if op in STITCH_BODY_OPCODES:
            if (op is Opcode.MOD and instr.rs2 is None
                    and instr.imm == 0):
                return False
            if (op in MEMORY_OPCODES and instr.mem.base is None
                    and instr.mem.disp & 7):
                # A literal misaligned address raises unconditionally;
                # the superblock compiler inlines word-store accesses
                # on the premise that literal addresses are aligned.
                return False
            continue
        if i == last and op in STITCH_TAIL_OPCODES:
            continue
        return False
    return True


class CompiledBlock:
    """The compiled form of one cached block.

    ``steps[ii]`` is the step covering instruction index ``ii`` (segment
    runs get a suffix step per interior position, so re-entry mid-block
    after a quantum boundary lands on a valid step). ``overhead`` is the
    per-instruction residency overhead the charges were summed with —
    the engine treats a mismatch as stale and recompiles.
    """

    __slots__ = ("steps", "overhead", "length", "elided_uids",
                 "elided_private", "stitchable")

    def __init__(self, steps: List[tuple], overhead: int,
                 elided_uids: FrozenSet[int] = frozenset(),
                 elided_private: FrozenSet[int] = frozenset(),
                 stitchable: bool = False):
        self.steps = steps
        self.overhead = overhead
        self.length = len(steps)
        #: Memory uids fused into ELI fast paths in this closure, and
        #: the private-tier subset (the InvariantMonitor asserts no
        #: private-tier uid's closure coexists with a SHARED footprint
        #: page — see ``elision_no_shared``).
        self.elided_uids = elided_uids
        self.elided_private = elided_private
        #: True when the source block qualifies as a superblock chain
        #: member (see :func:`chain_stitchable`); computed once here so
        #: the chain planner's hot path is one attribute read.
        self.stitchable = stitchable


def _alu_closure(instr) -> Callable:
    """Bind one pure-ALU instruction into a ``fn(regs)`` micro-closure.

    Each branch replicates the matching ``CPU.execute`` arm exactly
    (same masking, same shift clamping) with operands pre-decoded.
    """
    op = instr.op
    rd = instr.rd
    rs1 = instr.rs1
    rs2 = instr.rs2
    imm = instr.imm

    if op is Opcode.LI:
        value = imm & _MASK64

        def fn(regs, _v=value, _rd=rd):
            regs[_rd] = _v
        return fn
    if op is Opcode.MOV:
        def fn(regs, _rd=rd, _rs=rs1):
            regs[_rd] = regs[_rs]
        return fn
    if op is Opcode.NOP:
        def fn(regs):
            pass
        return fn

    if rs2 is not None:
        if op is Opcode.ADD:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] + regs[_b]) & _MASK64
        elif op is Opcode.SUB:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] - regs[_b]) & _MASK64
        elif op is Opcode.MUL:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] * regs[_b]) & _MASK64
        elif op is Opcode.AND:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = regs[_a] & regs[_b]
        elif op is Opcode.OR:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = regs[_a] | regs[_b]
        elif op is Opcode.XOR:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] ^ regs[_b]) & _MASK64
        elif op is Opcode.SHL:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] << (regs[_b] & 63)) & _MASK64
        elif op is Opcode.SHR:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = regs[_a] >> (regs[_b] & 63)
        else:  # pragma: no cover - SEG_OPCODES guards this
            raise AssertionError(f"not a segment opcode: {op}")
        return fn

    if op is Opcode.ADD:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] + _i) & _MASK64
    elif op is Opcode.SUB:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] - _i) & _MASK64
    elif op is Opcode.MUL:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] * _i) & _MASK64
    elif op is Opcode.AND:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = regs[_a] & _i
    elif op is Opcode.OR:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = regs[_a] | _i
    elif op is Opcode.XOR:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] ^ _i) & _MASK64
    elif op is Opcode.SHL:
        shift = imm & 63

        def fn(regs, _rd=rd, _a=rs1, _s=shift):
            regs[_rd] = (regs[_a] << _s) & _MASK64
    elif op is Opcode.SHR:
        shift = imm & 63

        def fn(regs, _rd=rd, _a=rs1, _s=shift):
            regs[_rd] = regs[_a] >> _s
    else:  # pragma: no cover - SEG_OPCODES guards this
        raise AssertionError(f"not a segment opcode: {op}")
    return fn


def _seg_statement(instr) -> Optional[str]:
    """Render one pure-ALU instruction as a Python statement on ``regs``.

    Mirrors the matching ``CPU.execute`` arm exactly; operands are baked
    as literals. Returns None for NOP (no statement).
    """
    op = instr.op
    if op is Opcode.NOP:
        return None
    rd = instr.rd
    if op is Opcode.LI:
        return f"regs[{rd}] = {instr.imm & _MASK64}"
    rs1 = instr.rs1
    if op is Opcode.MOV:
        return f"regs[{rd}] = regs[{rs1}]"
    rs2 = instr.rs2
    rhs = f"regs[{rs2}]" if rs2 is not None else repr(instr.imm)
    if op is Opcode.ADD:
        return f"regs[{rd}] = (regs[{rs1}] + {rhs}) & {_MASK64}"
    if op is Opcode.SUB:
        return f"regs[{rd}] = (regs[{rs1}] - {rhs}) & {_MASK64}"
    if op is Opcode.MUL:
        return f"regs[{rd}] = (regs[{rs1}] * {rhs}) & {_MASK64}"
    if op is Opcode.AND:
        return f"regs[{rd}] = regs[{rs1}] & {rhs}"
    if op is Opcode.OR:
        return f"regs[{rd}] = regs[{rs1}] | {rhs}"
    if op is Opcode.XOR:
        return f"regs[{rd}] = (regs[{rs1}] ^ {rhs}) & {_MASK64}"
    if op is Opcode.SHL:
        shift = f"(regs[{rs2}] & 63)" if rs2 is not None else str(
            instr.imm & 63)
        return f"regs[{rd}] = (regs[{rs1}] << {shift}) & {_MASK64}"
    if op is Opcode.SHR:
        shift = f"(regs[{rs2}] & 63)" if rs2 is not None else str(
            instr.imm & 63)
        return f"regs[{rd}] = regs[{rs1}] >> {shift}"
    raise AssertionError(f"not a segment opcode: {op}")  # pragma: no cover


def _seg_run_fn(instrs) -> Optional[Callable]:
    """exec()-generate one straight-line function for a whole segment.

    Turns N micro-closure calls into a single call; returns None when
    the segment has no statements (all NOP) or a single statement would
    not beat the micro-closure.
    """
    statements = [s for s in (_seg_statement(i) for i in instrs)
                  if s is not None]
    if len(instrs) < 2:
        return None
    if not statements:
        statements = ["pass"]
    source = "def _seg(regs):\n    " + "\n    ".join(statements)
    namespace: dict = {}
    exec(compile(source, "<blockcompiler:seg>", "exec"), {}, namespace)
    return namespace["_seg"]


def _ctl_closure(instr, engine, charge: int, block_index: int,
                 next_ii: int) -> Callable:
    """Bind one control transfer (or MOD) into ``fn(thread) -> bool``.

    True means control transferred (the engine re-fetches, like the
    interpreter's ``cur_bi = -1`` after ``_apply_result``); False means
    fallthrough with pc already advanced. Charge ordering matches the
    interpreter arm for arm: transfers charge before applying the
    result (so a RET-on-empty-stack raises *after* charging, exactly
    like ``_apply_result``), while MOD's zero check raises *before* any
    charge, exactly like ``CPU.execute``.
    """
    op = instr.op
    counter = engine.counter
    stats = engine.stats
    program = engine.codecache.program

    if op is Opcode.MOD:
        rd = instr.rd
        rs1 = instr.rs1
        rs2 = instr.rs2
        imm = instr.imm

        def fn(thread):
            regs = thread.regs
            rhs = regs[rs2] if rs2 is not None else imm
            if rhs == 0:
                raise InvalidInstructionError("modulo by zero")
            regs[rd] = regs[rs1] % rhs
            counter.instr_cycles += charge
            stats.instructions += 1
            thread.pc[1] = next_ii
            return False
        return fn

    if op is Opcode.RET:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            stack = thread.call_stack
            if not stack:
                raise InvalidInstructionError(
                    f"RET with empty call stack in thread {thread.tid}")
            pc = thread.pc
            pc[0], pc[1] = stack.pop()
            return True
        return fn

    target = program.label_index(instr.label)

    if op is Opcode.JMP:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            pc[0] = target
            pc[1] = 0
            return True
        return fn

    if op is Opcode.CALL:
        return_site = (block_index, next_ii)

        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            thread.call_stack.append(return_site)
            pc = thread.pc
            pc[0] = target
            pc[1] = 0
            return True
        return fn

    rs1 = instr.rs1
    rs2 = instr.rs2

    if op is Opcode.BZ:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            if thread.regs[rs1] == 0:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    elif op is Opcode.BNZ:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            if thread.regs[rs1] != 0:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    elif op is Opcode.BLT:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            regs = thread.regs
            if regs[rs1] < regs[rs2]:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    else:  # BGE — CTL_OPCODES guards this
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            regs = thread.regs
            if regs[rs1] >= regs[rs2]:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    return fn


#: The one memory-access body, shared by both memory step kinds and all
#: three memory opcodes: ``{address}`` computes ``ea`` (and, for a HOOK
#: step, runs the hook and applies its override), then the TLB
#: micro-cache probe, the ``translate`` fallback with the fault-repair
#: contract, ``{effect}`` and the retire accounting. Each variant is
#: instantiated once; :func:`_mem_closure` binds the operands. They bind
#: as parameter defaults, not closure cells: fast locals to read, and a
#: step is two GC-tracked objects (function and defaults tuple) instead
#: of one more per operand, which keeps cyclic-GC passes rarer.
_ACCESS_SOURCE = """\
def bind(instr, hooks, ii, base, disp, rd, rs1, charge, next_ii,
         translate, kernel, read_word, write_word, counter, stats):
    def step(thread, instr=instr, hooks=hooks, ii=ii, mem=instr.mem,
             base=base, disp=disp, rd=rd, rs1=rs1, charge=charge,
             next_ii=next_ii, translate=translate, kernel=kernel,
             read_word=read_word, write_word=write_word,
             counter=counter, stats=stats):
        regs = thread.regs
{address}
        tlb = thread.tlb
        pb = tlb.{fast_map}.get(ea >> {page_shift})
        if pb is not None:
            tlb.hits += 1
            tlb.fast_hits += 1
            paddr = pb | (ea & {page_mask})
        else:
            tlb.fast_misses += 1
            try:
                paddr = translate(thread, ea, {is_write})
            except PageFault as fault:
                kernel.repair_fault(thread, fault)
                return False
{effect}
        counter.instr_cycles += charge
        stats.instructions += 1
        stats.memory_refs += 1
{retire}
        thread.pc[1] = next_ii
        return True
    return step
"""

_ACCESS_EFFECTS = {
    Opcode.LOAD: ("fast_ro", False, ["regs[rd] = read_word(paddr)"]),
    Opcode.STORE: ("fast_rw", True, ["write_word(paddr, regs[rs1])"]),
    Opcode.ATOMIC_ADD: ("fast_rw", True, [
        "old = read_word(paddr)",
        f"write_word(paddr, (old + regs[rs1]) & {_MASK64})",
        "if rd is not None:",
        "    regs[rd] = old"]),
}


@functools.lru_cache(maxsize=None)
def _access_binder(op, hooked: bool, direct: bool) -> Callable:
    """exec() one variant of :data:`_ACCESS_SOURCE`, on first use."""
    fast_map, is_write, effect = _ACCESS_EFFECTS[op]
    # A HOOK step reads the displacement live: AikidoSD patches it in
    # place when it redirects a direct access to the mirror.
    disp = "mem.disp" if hooked else "disp"
    address = [f"ea = {disp}" if direct
               else f"ea = (regs[base] + {disp}) & {_MASK64}"]
    retire = []
    if hooked:
        # The hook is read live too (AikidoSD swaps it at runtime). A
        # hook that rewrites the operand returns the new address.
        address += ["override = hooks[ii](thread, instr, ea)",
                    "if override is not None:",
                    "    ea = override"]
        retire = ["stats.instrumented_execs += 1"]

    def indent(lines):
        return "\n".join("        " + line for line in lines)

    source = _ACCESS_SOURCE.format(
        address=indent(address), effect=indent(effect),
        retire=indent(retire), fast_map=fast_map, is_write=is_write,
        page_shift=PAGE_SHIFT, page_mask=_PAGE_MASK)
    namespace: dict = {}
    exec(compile(source, "<blockcompiler:mem>", "exec"),
         {"PageFault": PageFault}, namespace)
    return namespace["bind"]


def _mem_closure(cached, ii: int, engine, charge: int) -> Callable:
    """Bind the memory instruction at ``ii`` into ``fn(thread) -> bool``.

    Returns True when the instruction retired (charge applied, stats and
    pc advanced, so the caller only counts it against the budget and
    checks the yield flag) and False when it page-faulted: the fault has
    been routed through ``kernel.repair_fault`` and the caller must
    refetch the block and retry, exactly like the interpreter's fault
    arm. The fast path resolves the translation from the thread's TLB
    micro-cache; a fast hit stands in for a successful ``lookup`` +
    permission check, so it books a regular TLB hit too.

    A hooked position (a HOOK step) first calls ``hooks[ii]`` with the
    effective address computed from the live displacement, on every
    attempt, exactly like the interpreter, and counts
    ``instrumented_execs`` on retire only.
    """
    instr = cached.instrs[ii]
    mem = instr.mem
    cpu = engine.cpu
    bind = _access_binder(instr.op, cached.hooks[ii] is not None,
                          mem.base is None)
    return bind(instr, cached.hooks, ii, mem.base, mem.disp, instr.rd,
                instr.rs1, charge, ii + 1, cpu.translate, engine.kernel,
                cpu.memory.read_word, cpu.memory.write_word,
                engine.counter, engine.stats)


def _eli_fast_fn(instrs, start: int, engine, overhead: int) -> Callable:
    """exec()-generate the fast body for one statically-elided run.

    ``instrs`` is the run (SEG opcodes + elidable memory accesses),
    ``start`` its first instruction index in the block. The generated
    ``fn(thread) -> retired`` inlines every ALU statement and guards
    each memory access on the owning thread's TLB micro-cache
    (``fast_ro``/``fast_rw``). A guard miss at run position ``k``
    applies the *exact* accounting of the ``k`` already-retired prefix
    instructions (pre-summed cycle charges, instruction/memory-ref
    counts, per-access TLB hit bookkeeping — identical to what the base
    SEG/MEM steps would have booked, because nothing between two fast
    retires can observe intermediate state), parks ``pc`` on the failing
    position and returns ``k``; the engine then re-executes that
    position through its base step, which re-probes, counts the
    ``fast_misses`` and handles translate/fault — so a bail costs
    nothing extra and counts nothing twice. A miss at position 0 returns
    0 with no effects at all.

    The elision counters (``engine._elision_cell``) are host-side
    observability, never part of any simulated stat surface.
    """
    counter = engine.counter
    stats = engine.stats
    memory = engine.cpu.memory

    charges = [BASE_COST[i.op] + overhead for i in instrs]
    cyc_prefix = [0]
    for c in charges:
        cyc_prefix.append(cyc_prefix[-1] + c)
    n = len(instrs)

    lines: List[str] = ["def _eli(thread):",
                        "    regs = thread.regs",
                        "    tlb = thread.tlb"]
    uses_ro = any(i.op is Opcode.LOAD for i in instrs)
    uses_rw = any(i.op in (Opcode.STORE, Opcode.ATOMIC_ADD)
                  for i in instrs)
    if uses_ro:
        lines.append("    fr = tlb.fast_ro")
    if uses_rw:
        lines.append("    fw = tlb.fast_rw")

    def bail(k: int, mems: int) -> List[str]:
        if k == 0:
            return ["        return 0"]
        out = [f"        counter.instr_cycles += {cyc_prefix[k]}",
               f"        stats.instructions += {k}"]
        if mems:
            out += [f"        stats.memory_refs += {mems}",
                    f"        tlb.hits += {mems}",
                    f"        tlb.fast_hits += {mems}",
                    f"        _ec[0] += {mems}"]
        out += [f"        _ec[1] += {k}",
                f"        thread.pc[1] = {start + k}",
                f"        return {k}"]
        return out

    mems_so_far = 0
    for k, instr in enumerate(instrs):
        op = instr.op
        if op in SEG_OPCODES:
            stmt = _seg_statement(instr)
            if stmt is not None:
                lines.append(f"    {stmt}")
            continue
        # Memory access: compute the physical address behind a guard.
        mem = instr.mem
        fmap = "fr" if op is Opcode.LOAD else "fw"
        if mem.base is None:
            page = mem.disp >> PAGE_SHIFT
            off = mem.disp & _PAGE_MASK
            lines.append(f"    pb{k} = {fmap}.get({page})")
            lines.append(f"    if pb{k} is None:")
            lines.extend(bail(k, mems_so_far))
            paddr = f"(pb{k} | {off})" if off else f"pb{k}"
        else:
            lines.append(f"    ea{k} = (regs[{mem.base}] + {mem.disp})"
                         f" & {_MASK64}")
            lines.append(f"    pb{k} = {fmap}.get(ea{k} >> {PAGE_SHIFT})")
            lines.append(f"    if pb{k} is None:")
            lines.extend(bail(k, mems_so_far))
            paddr = f"(pb{k} | (ea{k} & {_PAGE_MASK}))"
        if op is Opcode.LOAD:
            lines.append(f"    regs[{instr.rd}] = read_word({paddr})")
        elif op is Opcode.STORE:
            lines.append(f"    write_word({paddr}, regs[{instr.rs1}])")
        else:  # ATOMIC_ADD
            lines.append(f"    pa{k} = {paddr}")
            lines.append(f"    old{k} = read_word(pa{k})")
            lines.append(f"    write_word(pa{k}, (old{k} + "
                         f"regs[{instr.rs1}]) & {_MASK64})")
            if instr.rd is not None:
                lines.append(f"    regs[{instr.rd}] = old{k}")
        mems_so_far += 1
    # Full completion: total accounting in one shot.
    lines += [f"    counter.instr_cycles += {cyc_prefix[n]}",
              f"    stats.instructions += {n}",
              f"    stats.memory_refs += {mems_so_far}",
              f"    tlb.hits += {mems_so_far}",
              f"    tlb.fast_hits += {mems_so_far}",
              f"    _ec[0] += {mems_so_far}",
              f"    _ec[1] += {n}",
              f"    thread.pc[1] = {start + n}",
              f"    return {n}"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<blockcompiler:eli>", "exec"),
         {"counter": counter, "stats": stats, "_ec": engine._elision_cell,
          "read_word": memory.read_word,
          "write_word": memory.write_word},
         namespace)
    return namespace["_eli"]


def compile_block(cached, engine, generic: bool = False) -> CompiledBlock:
    """Compile a cached block against ``engine``'s current overhead.

    ``generic=True`` builds the generic form: a GEN step at every
    position, no specialization, no elision, never stitchable.

    Classification is stable for the life of the ``CachedBlock``: hooks
    are only *added* through a flush-and-rebuild (AikidoSD's re-JIT), and
    runtime hook swaps replace the callable at an already-hooked (HOOK)
    position in place.
    """
    overhead = engine.overhead_per_instr
    instrs = cached.instrs
    if generic:
        return CompiledBlock([(GEN, BASE_COST[i.op] + overhead,
                               i.op in MEMORY_OPCODES) for i in instrs],
                             overhead)
    hooks = cached.hooks
    n = len(instrs)
    steps: List[Optional[tuple]] = [None] * n
    i = 0
    while i < n:
        instr = instrs[i]
        if hooks[i] is None and instr.op in SEG_OPCODES:
            j = i
            fns: List[Callable] = []
            charges: List[int] = []
            while (j < n and hooks[j] is None
                   and instrs[j].op in SEG_OPCODES):
                fns.append(_alu_closure(instrs[j]))
                charges.append(BASE_COST[instrs[j].op] + overhead)
                j += 1
            # One suffix step per position so mid-run re-entry (quantum
            # boundary landed inside the segment) stays valid; only the
            # run head gets the exec()-generated fast body, interior
            # entries (rare: a quantum boundary parked mid-run) fall
            # back to the micro-closure loop.
            for start in range(i, j):
                sub = tuple(fns[start - i:])
                prefixes: List[int] = [0]
                acc = 0
                for c in charges[start - i:]:
                    acc += c
                    prefixes.append(acc)
                run_fn = _seg_run_fn(instrs[i:j]) if start == i else None
                steps[start] = (SEG, run_fn, sub, len(sub), acc,
                                tuple(prefixes), j)
            i = j
            continue
        if instr.op in MEMORY_OPCODES:
            charge = BASE_COST[instr.op] + overhead
            steps[i] = (MEM if hooks[i] is None else HOOK,
                        _mem_closure(cached, i, engine, charge))
        elif hooks[i] is None and instr.op in CTL_OPCODES:
            charge = BASE_COST[instr.op] + overhead
            steps[i] = (CTL, _ctl_closure(instr, engine, charge,
                                          cached.block_index, i + 1))
        else:
            steps[i] = (GEN, BASE_COST[instr.op] + overhead,
                        instr.op in MEMORY_OPCODES)
        i += 1

    # ------------------------------------------------------------------
    # static-check elision: superimpose ELI fast paths (--static-elide)
    # ------------------------------------------------------------------
    stitchable = chain_stitchable(cached)
    plan = engine.elision_plan
    if plan is None:
        return CompiledBlock(steps, overhead, stitchable=stitchable)
    retired = engine._elision_retired
    elided_uids = set()
    elided_private = set()

    def _elidable(pos: int) -> bool:
        if steps[pos][0] != MEM:
            return False
        uid = instrs[pos].uid
        return uid in plan and uid not in retired

    i = 0
    while i < n:
        if steps[i][0] != SEG and not _elidable(i):
            i += 1
            continue
        j = i
        mem_positions: List[int] = []
        while j < n and (steps[j][0] == SEG or _elidable(j)):
            if steps[j][0] == MEM:
                mem_positions.append(j)
            j += 1
        # Fuse only when there is a check to elide and the run beats a
        # single base step. Interior positions keep their base steps
        # (mid-run re-entry after a quantum boundary or a bail).
        if mem_positions and j - i >= 2:
            fast_fn = _eli_fast_fn(instrs[i:j], i, engine, overhead)
            steps[i] = (ELI, fast_fn, j - i, steps[i])
            for p in mem_positions:
                uid = instrs[p].uid
                elided_uids.add(uid)
                if plan.tier(uid) == "private":
                    elided_private.add(uid)
        i = j
    return CompiledBlock(steps, overhead, frozenset(elided_uids),
                         frozenset(elided_private),
                         stitchable=stitchable)
