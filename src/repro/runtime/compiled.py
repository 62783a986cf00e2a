"""GIR → Python source compilation: the interpreter's opt-in compiled tier.

The decoded tier (:mod:`repro.runtime.decoded`) pays one Python *call* per
retired instruction — the interpreter loop indexes a step-record list and
invokes a closure.  This module removes that last per-step call: every GIR
function is lowered to real Python source — one generator function per GIR
function, straight-line statements per basic block, native control flow via
dispatch on an integer block id, and *frame locals* instead of register-dict
probes — then ``exec``-compiled once per module and cached.

Execution protocol
------------------

Compiled functions are Python *generators* so that the scheduler contract
(one :meth:`~repro.runtime.scheduler.Scheduler.pick` per retired
instruction, including single-thread runs) survives compilation:

- After every retired instruction the generated code runs an inline *gate*:
  it calls ``pick`` and, when the scheduler keeps the current thread,
  simply falls through to the next statement.  When the pick selects a
  different thread the generator commits its local accounting and yields
  the chosen tid; :meth:`Interpreter._loop_compiled` resumes that thread's
  generator directly (the pick has already been consumed).
- ``yield None`` means *no* pick was consumed (the thread blocked or went
  to sleep); the main loop runs a full runnable/pick cycle.
- Every resume of a generator — including the first — therefore means one
  pick has already been spent on this thread, and the generator executes
  the next instruction body with no preceding gate.
- User calls are linked by ``yield from``, so a context switch deep in a
  call chain suspends/resumes the whole chain in one step.

Accounting (``global_step``, ``base_cost``, per-opcode counts) accumulates
in function locals and is *committed* to the interpreter before every
yield, builtin call, user call/return, and failure — so any point where
control can leave the generator observes exact totals, while straight-line
execution touches no interpreter attributes at all.

Instrumented runs (tracers, hooks, profiling) never reach compiled code:
:class:`~repro.runtime.interpreter.Interpreter` falls back to the decoded
tier whenever instrumentation is attached, which is what keeps watchpoint,
PT, and subscriber semantics byte-identical by construction.  Blocking
builtins re-execute exactly like both other tiers: the generated code
spills live registers and the frame's block/index before delegating to
``Interpreter._do_builtin``, and retries on every wakeup.

The per-module cache (:func:`compiled_program`) is a bounded LRU keyed by
module identity and ``analysis_epoch``.

The tier runs only under an explicit ``Interpreter(mode="compiled")``:
campaigns stay on the decoded tier, because the per-module ``exec``
compile costs more than the uninstrumented runs it speeds up.  ``yield
from`` nests one Python frame per MiniC call, so the MiniC call depth this
tier supports is bounded by :func:`sys.getrecursionlimit` (the other tiers
keep MiniC frames in a list and have no such bound).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..lang.ir import Instr, Module, Opcode, Register
from .costmodel import OPCODE_COST
from .decoded import _BINOP_FNS, _operand_spec
from .failures import FailureKind
from .memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    STACK_BASE,
    STACK_STRIDE,
    STRING_BASE,
    Memory,
    MemoryFault,
)
from .threads import Frame, ThreadStatus


class CompileError(Exception):
    """The module could not be lowered to Python source.

    The interpreter treats this as "no compiled tier available" and falls
    back to the decoded stream, so a codegen gap degrades speed, never
    correctness.
    """


#: Builtins whose success path writes ``ins.dst`` (via ``Interpreter._set``);
#: the generated code reloads the destination local from the frame after
#: the call.  Everything else leaves the destination local untouched.
_DST_WRITING_BUILTINS = frozenset({
    "malloc", "strlen", "strcmp", "atoi",
    "mutex_create", "cond_create", "thread_create",
})

#: Builtins that may leave ``frame.index`` unchanged (thread blocked; the
#: call re-executes on wakeup).  These compile to a retry loop.
_BLOCKING_BUILTINS = frozenset({"mutex_lock", "cond_wait", "thread_join"})

_BINOP_EXPR = {
    "+": "{a} + {b}",
    "-": "{a} - {b}",
    "*": "{a} * {b}",
    "&": "{a} & {b}",
    "|": "{a} | {b}",
    "^": "{a} ^ {b}",
    "==": "1 if {a} == {b} else 0",
    "!=": "1 if {a} != {b} else 0",
    "<": "1 if {a} < {b} else 0",
    "<=": "1 if {a} <= {b} else 0",
    ">": "1 if {a} > {b} else 0",
    ">=": "1 if {a} >= {b} else 0",
    "<<": "{a} << ({b} & 63)",
    ">>": "{a} >> ({b} & 63)",
}

_UNOP_EXPR = {
    "-": "-({a})",
    "!": "1 if ({a}) == 0 else 0",
    "~": "~({a})",
}


def _sanitize(text: str) -> str:
    out = []
    for ch in text:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    name = "".join(out)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


class _Names:
    """Collision-free identifier assignment within one namespace."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._by_key: Dict[str, str] = {}
        self._used = set()

    def get(self, key: str) -> str:
        name = self._by_key.get(key)
        if name is None:
            name = self.prefix + _sanitize(key)
            if name in self._used:
                n = 2
                while f"{name}_{n}" in self._used:
                    n += 1
                name = f"{name}_{n}"
            self._used.add(name)
            self._by_key[key] = name
        return name


class _Emitter:
    """Accumulates generated source lines with indentation tracking."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)


class _ModuleCompiler:
    """Shared per-module codegen state: the exec namespace and constants."""

    def __init__(self, module: Module) -> None:
        self.module = module
        # Replay the interpreter's deterministic global/string mapping on a
        # scratch address space (see decoded.py for why this is sound).
        layout = Memory()
        self.global_bases = {
            g.name: layout.map_global(g.name, g.size, tuple(g.init))
            for g in module.globals.values()}
        self.string_bases = [layout.map_string(s) for s in module.strings]
        self.fn_names = _Names("_fn_")
        self._const_n = 0
        self.ns: Dict[str, object] = {
            "MemoryFault": MemoryFault,
            "_Frame": Frame,
            "_RUNNABLE": ThreadStatus.RUNNABLE,
            "_HANG": FailureKind.HANG,
            "_ASSERTION": FailureKind.ASSERTION,
            "_DIV0": FailureKind.DIV_BY_ZERO,
        }

    def operand_spec(self, operand):
        return _operand_spec(operand, self.global_bases, self.string_bases)

    def const(self, prefix: str, value) -> str:
        name = f"_{prefix}{self._const_n}"
        self._const_n += 1
        self.ns[name] = value
        return name

    def instr_const(self, ins: Instr) -> str:
        name = f"_i{ins.uid}"
        self.ns[name] = ins
        return name


class _FunctionCompiler:
    """Lowers one GIR function to one Python generator function."""

    def __init__(self, mc: _ModuleCompiler, fname: str, func) -> None:
        self.mc = mc
        self.fname = fname
        self.func = func
        self.e = _Emitter()
        self.mangled = mc.fn_names.get(fname)
        self.block_ids = {label: i for i, label in enumerate(func.blocks)}
        self.reg_names = _Names("r_")
        self.opkeys: List[str] = []
        regs: List[str] = []
        seen = set(func.params)
        for param in func.params:
            self.reg_names.get(param)  # params claim their names first
        for bb in func:
            for ins in bb.instrs:
                key = ins.opcode.value
                if key not in self.opkeys:
                    self.opkeys.append(key)
                for operand in (ins.dst, *ins.operands):
                    if isinstance(operand, Register) and \
                            operand.name not in seen:
                        seen.add(operand.name)
                        regs.append(operand.name)
        self.locals_to_zero = regs
        # Static charges (base cost + opcode counts) not yet retired at the
        # current emission point: blocks pre-charge their whole static cost
        # on entry, and every commit site subtracts the unretired suffix.
        self.pending: Tuple[int, Dict[str, int]] = (0, {})

    def reg(self, name: str) -> str:
        return self.reg_names.get(name)

    # -- emission helpers --------------------------------------------------

    def _is_builtin_call(self, ins: Instr) -> bool:
        return (ins.opcode == Opcode.CALL
                and ins.callee not in self.mc.module.functions)

    def _static_charge(self, instrs) -> Tuple[int, Dict[str, int]]:
        """The statically known (base cost, opcode counts) of a run of
        instructions.  Builtin calls charge per *attempt* (blocked calls
        retry) and are excluded — their emitter charges dynamically."""
        base = 0
        counts: Dict[str, int] = {}
        for ins in instrs:
            if self._is_builtin_call(ins):
                continue
            base += OPCODE_COST[ins.opcode]
            key = ins.opcode.value
            counts[key] = counts.get(key, 0) + 1
        return base, counts

    def emit_charge(self, charge: Tuple[int, Dict[str, int]],
                    sign: str = "+") -> None:
        base, counts = charge
        if base:
            self.e.line(f"_base {sign}= {base}")
        for key, n in counts.items():
            self.e.line(f"_c_{key} {sign}= {n}")

    def emit_commit(self) -> None:
        e = self.e
        # Un-charge the pre-charged instructions that have not retired yet
        # (everything past the current instruction in this block).
        self.emit_charge(self.pending, "-")
        e.line("interp.global_step = _step")
        e.line("_cost.base_cost += _base")
        e.line("_base = 0")
        for key in self.opkeys:
            c = f"_c_{key}"
            e.line(f"if {c}:")
            e.line(f"    _counts['{key}'] = _counts.get('{key}', 0) + {c}")
            e.line(f"    {c} = 0")

    def emit_hang(self, pc_expr, committed: bool = False) -> None:
        e = self.e
        e.line("if _step > _max_steps:")
        e.indent += 1
        if not committed:
            self.emit_commit()
        e.line('interp._fail(_HANG, tid, %s, '
               'f"exceeded {_max_steps} steps")' % pc_expr)
        e.indent -= 1

    def emit_resync(self) -> None:
        """Re-mirror interpreter state into frame locals after a resume
        point (other threads ran while this generator was suspended)."""
        e = self.e
        e.line("_step = interp.global_step")
        e.line("_dirty = interp._sched_dirty")
        e.line("_rn = interp._runnable_cache")

    def emit_gate(self) -> None:
        """The scheduler gate: one pick per retired instruction.  Falls
        through when the current thread keeps running; commits and yields
        the chosen tid on a context switch.

        ``_dirty`` and ``_rn`` locally mirror ``interp._sched_dirty`` /
        ``interp._runnable_cache``: between resume points only this thread
        executes, so the mirrors are refreshed only after yields, calls,
        and builtins — the hot gate touches no interpreter attributes.
        """
        e = self.e
        e.line("if _dirty:")
        e.line("    interp.global_step = _step")
        e.line("    _rn = interp._runnable_tids()")
        e.line("    _dirty = interp._sched_dirty")
        e.line("_t = _pick(_rn, tid, _step)")
        e.line("if _t != tid:")
        e.indent += 1
        e.line("if _t not in _rn:")  # defensive: scheduler bug
        e.line("    _t = _rn[0]")
        e.line("if _t != tid:")
        e.indent += 1
        self.emit_commit()
        e.line("yield _t")
        self.emit_resync()
        # Restore the pre-charge for this block's unretired remainder.
        self.emit_charge(self.pending, "+")
        e.indent -= 2

    def emit_memfault_handler(self, uid: int) -> None:
        e = self.e
        e.line("except MemoryFault as _f:")
        e.indent += 1
        self.emit_commit()
        e.line(f"interp._fail(_f.kind, tid, {uid}, _f.detail, _f.address)")
        e.indent -= 1

    def emit_raise(self, make_exc) -> None:
        name = self.mc.const("k", make_exc)
        self.emit_commit()
        self.e.line(f"raise {name}()")

    def _expr(self, spec) -> str:
        kind, payload = spec
        if kind == "const":
            return repr(payload)
        return self.reg(payload)

    def _first_raise(self, specs):
        for spec in specs:
            if spec[0] == "raise":
                return spec[1]
        return None

    def _next_pc(self, bb, idx: int, ins: Instr) -> int:
        if idx + 1 < len(bb.instrs):
            return bb.instrs[idx + 1].uid
        return ins.uid  # malformed IR (no terminator): matches _current_pc

    def _block_entry_uid(self, label: str) -> int:
        instrs = self.func.blocks[label].instrs
        return instrs[0].uid if instrs else -1

    def finish_straight(self, npc: int) -> None:
        self.emit_hang(npc)
        self.emit_gate()

    # -- per-opcode emitters ----------------------------------------------

    def emit_instr(self, bb, idx: int, ins: Instr) -> None:
        e = self.e
        op = ins.opcode
        if op == Opcode.CALL and ins.callee not in self.mc.module.functions:
            # Builtins charge per *attempt* inside their own emitter
            # (blocked calls re-execute, and each attempt retires).
            self._emit_builtin(bb, idx, ins)
            return
        # Base cost and opcode count were pre-charged at block entry.
        e.line("_step += 1")
        if op in (Opcode.CONST, Opcode.MOVE):
            self._emit_move(bb, idx, ins)
        elif op == Opcode.BINOP:
            self._emit_binop(bb, idx, ins, ins.op)
        elif op == Opcode.GEP:
            self._emit_binop(bb, idx, ins, "+")
        elif op == Opcode.UNOP:
            self._emit_unop(bb, idx, ins)
        elif op == Opcode.LOAD:
            self._emit_load(bb, idx, ins)
        elif op == Opcode.STORE:
            self._emit_store(bb, idx, ins)
        elif op == Opcode.ALLOCA:
            self._emit_alloca(bb, idx, ins)
        elif op == Opcode.ASSERT:
            self._emit_assert(bb, idx, ins)
        elif op == Opcode.JMP:
            self._emit_jmp(ins)
        elif op == Opcode.BR:
            self._emit_br(ins)
        elif op == Opcode.RET:
            self._emit_ret(ins)
        elif op == Opcode.CALL:
            self._emit_call(bb, idx, ins)
        else:
            self.emit_raise(lambda op=op: RuntimeError(
                f"unknown opcode {op}"))

    def _emit_move(self, bb, idx, ins) -> None:
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(spec[1])
            return
        if ins.dst is not None:
            self.e.line(f"{self.reg(ins.dst.name)} = {self._expr(spec)}")
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_binop(self, bb, idx, ins, op_str: str) -> None:
        specs = [self.mc.operand_spec(o) for o in ins.operands[:2]]
        if op_str in ("/", "%"):
            self._emit_divmod(bb, idx, ins, specs, is_div=(op_str == "/"))
            return
        template = _BINOP_EXPR.get(op_str)
        if template is None:
            self.emit_raise(lambda op_str=op_str: RuntimeError(
                f"unknown binary operator {op_str!r}"))
            return
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(make_exc)
            return
        if ins.dst is not None:
            if specs[0][0] == "const" and specs[1][0] == "const":
                value = _BINOP_FNS[op_str](specs[0][1], specs[1][1])
                rhs = repr(value)
            else:
                rhs = template.format(a=self._expr(specs[0]),
                                      b=self._expr(specs[1]))
            self.e.line(f"{self.reg(ins.dst.name)} = {rhs}")
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_divmod(self, bb, idx, ins, specs, is_div: bool) -> None:
        e = self.e
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(make_exc)
            return
        e.line(f"_va = {self._expr(specs[0])}")
        e.line(f"_vb = {self._expr(specs[1])}")
        e.line("if _vb == 0:")
        e.indent += 1
        self.emit_commit()
        e.line(f"interp._fail(_DIV0, tid, {ins.uid}, 'division by zero')")
        e.indent -= 1
        # C semantics: truncate toward zero.
        e.line("_q = abs(_va) // abs(_vb)")
        e.line("if (_va < 0) != (_vb < 0):")
        e.line("    _q = -_q")
        if ins.dst is not None:
            dst = self.reg(ins.dst.name)
            e.line(f"{dst} = _q" if is_div else f"{dst} = _va - _q * _vb")
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_unop(self, bb, idx, ins) -> None:
        template = _UNOP_EXPR.get(ins.op)
        if template is None:
            op_str = ins.op
            self.emit_raise(lambda op_str=op_str: RuntimeError(
                f"unknown unary operator {op_str!r}"))
            return
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(spec[1])
            return
        if ins.dst is not None:
            self.e.line(f"{self.reg(ins.dst.name)} = "
                        f"{template.format(a=self._expr(spec))}")
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_load(self, bb, idx, ins) -> None:
        e = self.e
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(spec[1])
            return
        e.line("try:")
        e.indent += 1
        if spec[0] == "reg":
            a = self.reg(spec[1])
            # Fast path: a mapped global/string/stack slot cannot fault on
            # a read; heap reads always go through Memory.read (freed
            # blocks keep their slots — a dict hit would hide UAF).
            e.line(f"if {GLOBAL_BASE} <= {a} < {HEAP_BASE} "
                   f"or {a} >= {STACK_BASE}:")
            e.line("    try:")
            e.line(f"        _v = _slots[{a}]")
            e.line("    except KeyError:")
            e.line(f"        _v = _memory.read({a})")
            e.line("else:")
            e.line(f"    _v = _memory.read({a})")
        else:
            addr = spec[1]
            if GLOBAL_BASE <= addr < HEAP_BASE or addr >= STACK_BASE:
                e.line("try:")
                e.line(f"    _v = _slots[{addr}]")
                e.line("except KeyError:")
                e.line(f"    _v = _memory.read({addr})")
            else:
                e.line(f"_v = _memory.read({addr})")
        e.indent -= 1
        self.emit_memfault_handler(ins.uid)
        if ins.dst is not None:
            e.line(f"{self.reg(ins.dst.name)} = _v")
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_store(self, bb, idx, ins) -> None:
        e = self.e
        specs = [self.mc.operand_spec(o) for o in ins.operands[:2]]
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(make_exc)
            return
        a, v = self._expr(specs[0]), self._expr(specs[1])
        e.line("try:")
        e.indent += 1
        if specs[0][0] == "reg":
            # Fast path mirrors Memory.write: mapped global/stack slots
            # cannot fault on a write; strings (read-only) and heap slots
            # (liveness checks) always go through Memory.write.
            e.line(f"if ({GLOBAL_BASE} <= {a} < {STRING_BASE} "
                   f"or {a} >= {STACK_BASE}) and {a} in _slots:")
            e.line(f"    _slots[{a}] = {v}")
            e.line("else:")
            e.line(f"    _memory.write({a}, {v})")
        else:
            addr = specs[0][1]
            if GLOBAL_BASE <= addr < STRING_BASE or addr >= STACK_BASE:
                e.line(f"if {addr} in _slots:")
                e.line(f"    _slots[{addr}] = {v}")
                e.line("else:")
                e.line(f"    _memory.write({addr}, {v})")
            else:
                e.line(f"_memory.write({addr}, {v})")
        e.indent -= 1
        self.emit_memfault_handler(ins.uid)
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_alloca(self, bb, idx, ins) -> None:
        e = self.e
        dst = f"{self.reg(ins.dst.name)} = " if ins.dst is not None else ""
        e.line("try:")
        e.line(f"    {dst}_memory.stack_alloc(tid, {ins.size})")
        self.emit_memfault_handler(ins.uid)
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_assert(self, bb, idx, ins) -> None:
        e = self.e
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(spec[1])
            return
        message = ins.text or "assertion failed"
        e.line(f"if {self._expr(spec)} == 0:")
        e.indent += 1
        self.emit_commit()
        e.line(f"interp._fail(_ASSERTION, tid, {ins.uid}, {message!r})")
        e.indent -= 1
        self.finish_straight(self._next_pc(bb, idx, ins))

    def _emit_jmp(self, ins) -> None:
        label = ins.labels[0]
        if label not in self.block_ids:
            self.emit_raise(lambda label=label: KeyError(label))
            return
        self.emit_hang(self._block_entry_uid(label))
        self.emit_gate()
        self.e.line(f"_b = {self.block_ids[label]}")
        self.e.line("continue")

    def _emit_br(self, ins) -> None:
        e = self.e
        then_label, else_label = ins.labels[0], ins.labels[1]
        missing = then_label if then_label not in self.block_ids else (
            else_label if else_label not in self.block_ids else None)
        if missing is not None:
            self.emit_raise(lambda missing=missing: KeyError(missing))
            return
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(spec[1])
            return

        def arm(label: str) -> None:
            self.emit_hang(self._block_entry_uid(label))
            self.emit_gate()
            e.line(f"_b = {self.block_ids[label]}")
            e.line("continue")

        if spec[0] == "const":
            arm(then_label if spec[1] != 0 else else_label)
            return
        e.line(f"if {self.reg(spec[1])} != 0:")
        e.indent += 1
        arm(then_label)
        e.indent -= 1
        arm(else_label)

    def _emit_ret(self, ins) -> None:
        e = self.e
        if ins.operands:
            spec = self.mc.operand_spec(ins.operands[0])
            if spec[0] == "raise":
                self.emit_raise(spec[1])
                return
            e.line(f"_v = {self._expr(spec)}")
        else:
            e.line("_v = 0")
        self.emit_commit()
        e.line("_frames = thread.frames")
        e.line("_frames.pop()")
        e.line("_memory.stack_release(tid, frame.stack_base)")
        e.line("if not _frames:")
        e.indent += 1
        # Thread exit: raises _ProgramExit for tid 0, else marks FINISHED.
        e.line("interp._finish_thread(thread, _v)")
        self.emit_hang("-1", committed=True)
        e.line("return _v")
        e.indent -= 1
        # The caller spilled block/index at its CALL; advancing index here
        # keeps _current_pc exact for deadlock/hang reports (decoded parity).
        e.line("_frames[-1].index += 1")
        self.emit_hang("interp._current_pc(thread)", committed=True)
        self.emit_gate()
        e.line("return _v")

    def _emit_call(self, bb, idx, ins) -> None:
        e = self.e
        callee = ins.callee
        func = self.mc.module.functions[callee]
        specs = [self.mc.operand_spec(o) for o in ins.operands]
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(make_exc)
            return
        arg_exprs = [self._expr(s) for s in specs]
        param_exprs = [arg_exprs[j] if j < len(arg_exprs) else "0"
                       for j in range(len(func.params))]
        rd = self.mc.const("rd", ins.dst) if ins.dst is not None else "None"
        e.line(f"frame.block = {bb.label!r}")
        e.line(f"frame.index = {idx}")
        self.emit_commit()
        # The commit above already un-charged this block's remainder; every
        # accounting touch until the callee returns must be suffix-free.
        suffix, self.pending = self.pending, (0, {})
        e.line("_sb = _stack_tops.get(tid)")
        e.line("if _sb is None:")
        e.line(f"    _sb = {STACK_BASE} + tid * {STACK_STRIDE}")
        e.line(f"_nf = _Frame(function={callee!r}, block={func.entry!r}, "
               f"index=0, regs={{}}, return_dst={rd}, stack_base=_sb, "
               f"call_pc={ins.uid}, call_line={ins.line})")
        e.line("thread.frames.append(_nf)")
        entry_uid = self.mc.module.functions[callee] \
            .blocks[func.entry].instrs[0].uid \
            if func.blocks[func.entry].instrs else -1
        self.emit_hang(entry_uid, committed=True)
        self.emit_gate()
        target = self.mc.fn_names.get(callee)
        args = ", ".join(["interp", "tid", "thread", "_nf", *param_exprs])
        if ins.dst is not None:
            e.line(f"{self.reg(ins.dst.name)} = yield from {target}({args})")
        else:
            e.line(f"yield from {target}({args})")
        self.emit_resync()
        self.emit_charge(suffix, "+")
        self.pending = suffix

    def _emit_builtin(self, bb, idx, ins) -> None:
        e = self.e
        name = ins.callee
        iconst = self.mc.instr_const(ins)
        spilled = set()
        for operand in ins.operands:
            if isinstance(operand, Register) and operand.name not in spilled:
                spilled.add(operand.name)
                e.line(f"_regs[{operand.name!r}] = {self.reg(operand.name)}")
        e.line(f"frame.block = {bb.label!r}")
        e.line(f"frame.index = {idx}")
        blocking = name in _BLOCKING_BUILTINS
        # Un-charge this block's unretired remainder once, up front: the
        # attempt loop commits per retry, and a retried subtraction would
        # double-count.  Re-added after the builtin completes.
        suffix, self.pending = self.pending, (0, {})
        self.emit_charge(suffix, "-")

        def attempt() -> None:
            e.line("_step += 1")
            e.line(f"_base += {OPCODE_COST[Opcode.CALL]}")
            e.line("_c_call += 1")
            self.emit_commit()
            e.line("try:")
            e.line(f"    interp._do_builtin(tid, thread, {iconst})")
            self.emit_memfault_handler(ins.uid)
            # Builtins may change thread states (wake, spawn, block).
            e.line("_dirty = interp._sched_dirty")

        if blocking:
            # Re-execute on every wakeup until the builtin advances the
            # frame — each attempt is one retired instruction, exactly as
            # in the strict and decoded tiers.
            e.line("while True:")
            e.indent += 1
            attempt()
            e.line(f"if frame.index != {idx}:")
            e.line("    break")
            self.emit_hang(ins.uid, committed=True)
            e.line("yield None")
            self.emit_resync()
            e.indent -= 1
        else:
            attempt()
        if ins.dst is not None and name in _DST_WRITING_BUILTINS:
            e.line(f"{self.reg(ins.dst.name)} = _regs[{ins.dst.name!r}]")
        self.emit_hang(self._next_pc(bb, idx, ins), committed=True)
        self.emit_charge(suffix, "+")
        self.pending = suffix
        if name == "usleep":
            # usleep advances the frame but puts the thread to sleep: no
            # pick is consumed; the main loop advances virtual time.
            e.line("if thread.status is _RUNNABLE:")
            e.indent += 1
            self.emit_gate()
            e.indent -= 1
            e.line("else:")
            e.line("    yield None")
            e.indent += 1
            self.emit_resync()
            e.indent -= 1
        else:
            self.emit_gate()

    # -- whole-function assembly ------------------------------------------

    def compile(self) -> str:
        e = self.e
        params = [self.reg(p) for p in self.func.params]
        sig = ", ".join(["interp", "tid", "thread", "frame", *params])
        e.line(f"def {self.mangled}({sig}):")
        e.indent += 1
        e.line("if 0:")
        e.line("    yield")  # every compiled function is a generator
        e.line("_pick = interp.scheduler.pick")
        e.line("_max_steps = interp.max_steps")
        e.line("_cost = interp.cost")
        e.line("_counts = _cost.counts")
        e.line("_memory = interp.memory")
        e.line("_slots = _memory._slots")
        e.line("_stack_tops = _memory._stack_tops")
        e.line("_regs = frame.regs")
        e.line("_step = interp.global_step")
        e.line("_dirty = interp._sched_dirty")
        e.line("_rn = interp._runnable_cache")
        e.line("_base = 0")
        for key in self.opkeys:
            e.line(f"_c_{key} = 0")
        for name in self.locals_to_zero:
            e.line(f"{self.reg(name)} = 0")
        entry_id = self.block_ids.get(self.func.entry, 0)
        e.line(f"_b = {entry_id}")
        e.line("while True:")
        e.indent += 1
        first = True
        for label, bb in self.func.blocks.items():
            e.line(f"{'if' if first else 'elif'} _b == "
                   f"{self.block_ids[label]}:")
            first = False
            e.indent += 1
            # Pre-charge the block's whole static cost; commit sites
            # subtract the unretired suffix (self.pending), so committed
            # accounting is exact at every observation point.
            self.emit_charge(self._static_charge(bb.instrs), "+")
            for idx, ins in enumerate(bb.instrs):
                self.pending = self._static_charge(bb.instrs[idx + 1:])
                self.emit_instr(bb, idx, ins)
            self.pending = (0, {})
            last = bb.instrs[-1] if bb.instrs else None
            if last is None or last.opcode not in (Opcode.JMP, Opcode.BR,
                                                   Opcode.RET):
                # Fall-through off a block end: the decoded tier would
                # IndexError fetching the next record; match it.
                e.line("raise IndexError('list index out of range')")
            e.indent -= 1
        if first:  # function with no blocks at all
            e.line("raise IndexError('list index out of range')")
        e.indent -= 2
        return "\n".join(e.lines)


class CompiledProgram:
    """The exec-compiled generator functions for every function of a module."""

    __slots__ = ("module", "epoch", "source", "functions", "params")

    def __init__(self, module: Module) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        self.module = module
        self.epoch = module.analysis_epoch
        try:
            mc = _ModuleCompiler(module)
            chunks = []
            for fname, func in module.functions.items():
                chunks.append(_FunctionCompiler(mc, fname, func).compile())
            self.source = "\n\n".join(chunks)
            code = compile(self.source,
                           f"<gir-compiled:{id(module):#x}@{self.epoch}>",
                           "exec")
            ns = mc.ns
            exec(code, ns)
            self.functions = {fname: ns[mc.fn_names.get(fname)]
                              for fname in module.functions}
            self.params = {fname: tuple(func.params)
                           for fname, func in module.functions.items()}
        except Exception as exc:
            raise CompileError(f"GIR compilation failed: {exc}") from exc

    def thread_gen(self, interp, tid: int):
        """A fresh generator driving ``tid``'s root frame (which sits at
        its function's entry block, index 0 — thread starts only)."""
        thread = interp.threads[tid]
        frame = thread.frames[-1]
        regs = frame.regs
        fn = self.functions[frame.function]
        args = [regs.get(p, 0) for p in self.params[frame.function]]
        return fn(interp, tid, thread, frame, *args)


# ---------------------------------------------------------------------------
# The per-module cache: bounded LRU with an eviction counter
# ---------------------------------------------------------------------------

#: Maximum number of modules whose compiled programs stay resident.  Unlike
#: the decoded tier's weak cache, compiled programs hold exec'd code
#: objects, so the cache is bounded (fleet campaigns touch one module; the
#: cap only matters for corpus-wide sweeps).
COMPILED_CACHE_CAP = 32

_CACHE: "OrderedDict[Module, CompiledProgram]" = OrderedDict()

#: Monotonic count of capacity evictions (tests assert on deltas).
cache_evictions = 0


def compiled_program(module: Module) -> CompiledProgram:
    """The (cached) compiled program for ``module``.

    Keyed by module identity; a bumped ``analysis_epoch`` (re-finalize)
    transparently rebuilds the entry.  LRU-bounded by
    :data:`COMPILED_CACHE_CAP`.
    """
    global cache_evictions
    program = _CACHE.get(module)
    if program is not None and program.epoch == module.analysis_epoch:
        _CACHE.move_to_end(module)
        return program
    program = CompiledProgram(module)
    _CACHE[module] = program
    _CACHE.move_to_end(module)
    while len(_CACHE) > COMPILED_CACHE_CAP:
        _CACHE.popitem(last=False)
        cache_evictions += 1
    return program
