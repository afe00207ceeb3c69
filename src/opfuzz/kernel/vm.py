"""Interpreter for KernelIR with sanitizers, validation, and block coverage.

Sanitizer verdicts:
  - tensor element access on an empty (size-0) tensor -> Crash NPE
    (the data pointer is null); index out of range or wrong arity on a
    non-empty tensor -> Crash OOB
  - integer or float divide/modulo by zero -> Crash FPE
  - any integer arithmetic result outside signed 64-bit -> Crash IOF,
    never a silently wrapped value
  - resource verb on a null / never-created handle -> Crash NPE; on a
    closed handle -> Crash UAF; Pop on an open empty stack -> Crash OOB

`require_fail` and binding-level dtype mismatches are ValidationReject,
mirroring frontend parameter errors rather than crashes. IR that reads a
shape off a value without one, takes a non-int `dim` axis, or orders
values that have no order raises EngineError naming the kernel and opcode.

Each kernel is specialised into Python once, on its first `execute`: one
generated source, compiled and cached on the kernel (`KernelIR.compiled`),
holds `check(b)`, the binding check; `run(b, h, g)`, that check, then in
graph mode the prepass, then the eager run; `share(b, h, g, w)`, the same
check and prepass, then the eager run kept in `w`; and `prepass(b)`.
Value ids become locals and each instruction one small template, its one
semantics; a block with one predecessor is written inline after it, so a
walk dispatches only on loop headers and joins. The prepass wraps the
same template in a lifting over one extra value, unknown, as abstract
interpretation lifts a concrete transfer function: an instruction that
reads an unknown value or crashes writes unknown (so does a shape query
over a value without a shape); element loads, index computations and
resource calls are unknown, and stores and emits are skipped. Consts and
parameter fetches written once cost nothing at run time. No corpus text
enters the source: names, messages, entities and non-int constants are
names in its namespace. Covered blocks are an int bitmask, and each
distinct mask maps to one cached frozenset.
Compilation changes speed, never results: for every binding the verdict,
the covered blocks, the outputs and their order, the crash site (its
`instr_index` counts positions in `block.instrs`, skipped consts included),
the handle table and any EngineError are those of a plain instruction-by-
instruction interpreter, and both step caps, read from this module at call
time, trip at exactly the same instruction. A crash site is read off the
generated line the crash passed through, and a walk that could pass its
cap goes on in a capped form, compiled on first need, that counts every
instruction. `tests/test_vm_compiled.py` pins this against such an
interpreter kept in `tests/_oracles.py`, which shares no code with this
one and raises the bare Python error where this module raises the
EngineErrors above.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field

from .ir import (
    ATTR_PYTYPES,
    INT64_MAX,
    INT64_MIN,
    Crash,
    DType,
    EngineError,
    ExecOutcome,
    KernelIR,
    ResourceRef,
    Success,
    TensorVal,
    ValidationReject,
    reads,
)

MODES = ("eager", "graph")

# instructions an eager run may execute before it raises EngineError
_STEP_CAP = 10_000_000
# instructions the graph prepass walks before it gives up (returns None)
_PREPASS_STEP_CAP = 100_000


class _CrashSignal(Exception):
    def __init__(self, kind: str):
        self.kind = kind


class _RejectSignal(Exception):
    def __init__(self, message: str):
        self.message = message


@dataclass
class RuntimeHandle:
    entity: str
    closed: bool = False
    payload: list = field(default_factory=list)


class HandleTable:
    """Campaign-scoped store of live resource handles."""

    def __init__(self):
        self.entries: dict[int, RuntimeHandle] = {}
        self._next = 1

    def create(self, entity: str, payload=None, closed: bool = False) -> int:
        hid = self._next
        self._next += 1
        self.entries[hid] = RuntimeHandle(entity, closed, list(payload or []))
        return hid

    def get(self, hid: int | None) -> RuntimeHandle | None:
        if hid is None:
            return None
        return self.entries.get(hid)


def trunc_div(a: int, b: int) -> int:
    """C-style integer division: truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def trunc_mod(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return a - trunc_div(a, b) * b


def _checked_int(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise _CrashSignal("IOF")
    return value


def _bin_op(op: str, a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        raise EngineError("arithmetic on booleans")
    if isinstance(a, int) and isinstance(b, int):
        if op == "+":
            return _checked_int(a + b)
        if op == "-":
            return _checked_int(a - b)
        if op == "*":
            return _checked_int(a * b)
        if op == "/":
            if b == 0:
                raise _CrashSignal("FPE")
            return _checked_int(trunc_div(a, b))
        if op == "%":
            if b == 0:
                raise _CrashSignal("FPE")
            return _checked_int(trunc_mod(a, b))
    elif isinstance(a, float) and isinstance(b, float):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise _CrashSignal("FPE")
            return a / b
        if op == "%":
            if b == 0.0:
                raise _CrashSignal("FPE")
            # C's fmod: NaN for an infinite dividend, where math.fmod raises
            return math.nan if math.isinf(a) else math.fmod(a, b)
    raise EngineError(f"bad bin operands: {op} {type(a).__name__} {type(b).__name__}")


_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _flat_index(tensor: TensorVal, idxs) -> int:
    """Bounds-checked row-major flattening; the shared access sanitizer."""
    if len(idxs) != tensor.rank:
        raise _CrashSignal("OOB")
    if tensor.size <= 0:
        # empty or malformed (negative-extent) backing store
        raise _CrashSignal("NPE")
    flat = 0
    for idx, extent in zip(idxs, tensor.shape):
        if idx < 0 or idx >= extent:
            raise _CrashSignal("OOB")
        flat = flat * extent + idx
    return flat


_MISSING = object()


class _Run:
    """Resource state of one execution: the campaign handle table and the
    handles this run materialized for fresh/filled/closed binding refs."""

    def __init__(self, handles: HandleTable):
        self.handles = handles
        self._ref_ids: dict[int, int | None] = {}

    def resolve_ref(self, ref: ResourceRef) -> int | None:
        if ref.state == "live":
            return ref.handle_id
        if ref.state == "null":
            return None
        key = id(ref)
        if key not in self._ref_ids:
            if ref.state == "fresh":
                self._ref_ids[key] = self.handles.create(ref.entity)
            elif ref.state == "filled":
                self._ref_ids[key] = self.handles.create(ref.entity, payload=[1.0])
            elif ref.state == "closed":
                self._ref_ids[key] = self.handles.create(ref.entity, closed=True)
            else:
                raise EngineError(f"unknown resource state {ref.state!r}")
        return self._ref_ids[key]

    def res_call(self, verb: str, entity: str, args: tuple):
        if verb == "New":
            hid = self.handles.create(entity)
            return ResourceRef(entity, "live", hid)
        ref = args[0]
        if not isinstance(ref, ResourceRef):
            raise EngineError(f"resource verb {verb} on non-handle {type(ref).__name__}")
        if ref.entity != entity:
            raise _RejectSignal(f"{verb}: expected {entity} handle, got {ref.entity}")
        entry = self.handles.get(self.resolve_ref(ref))
        if entry is None:
            raise _CrashSignal("NPE")
        if entry.closed:
            raise _CrashSignal("UAF")
        if verb == "Push":
            entry.payload.append(args[1] if len(args) > 1 else None)
            return 1
        if verb == "Pop":
            if not entry.payload:
                raise _CrashSignal("OOB")
            return entry.payload.pop()
        if verb == "Close":
            entry.closed = True
            return 1
        if verb == "Find":
            return len(entry.payload)
        if verb == "Remove":
            n = len(entry.payload)
            entry.payload.clear()
            return n
        raise EngineError(f"unknown resource verb {verb!r}")


class _Unknown:
    __repr__ = lambda self: "<unknown>"


_UNKNOWN = _Unknown()


# -- compilation ------------------------------------------------------------------

# the opcodes whose value the prepass never knows
_OPAQUE = ("tload", "index", "res_call")


def _successors(term) -> tuple:
    head = term[0] if term else None
    return term[2:4] if head == "br" else term[1:2] if head == "jmp" else ()


def _tuple(exprs) -> str:
    return f"({exprs[0]},)" if len(exprs) == 1 else f"({', '.join(exprs)})"


class _Program:
    __slots__ = ("source", "check", "run", "share", "prepass")


def _namespace(kernel: KernelIR, table: dict) -> dict:
    """The generated functions' globals, before the names of their
    constants: the runtime they call, and the handlers that read the crash
    site, reject block or faulting opcode off `table` at the generated line
    a signal passed through."""
    kid = kernel.kernel_id
    cache: dict[int, frozenset] = {}

    def cover(mask: int) -> frozenset:
        fs = cache.get(mask)
        if fs is None:
            fs = cache[mask] = frozenset((kid, i) for i in range(mask.bit_length()) if mask >> i & 1)
        return fs

    def crash(e, c):
        bid, k, _, path = table[e.__traceback__.tb_lineno]
        return ExecOutcome(Crash(e.kind, kid, bid, k), cover(c | path))

    def reject(e, c):
        bid, _, _, path = table[e.__traceback__.tb_lineno]
        return ExecOutcome(ValidationReject(e.message, bid), cover(c | path))

    def bad(e):
        at = table.get(e.__traceback__.tb_lineno)
        if at is None:
            return e
        return EngineError(f"{kid}: {at[2]} in block {at[0]}, instruction {at[1]}: {type(e).__name__}: {e}")

    def capped(name):
        def first(*state):
            walks = _Source(kernel).capped()
            ns["_run_capped"], ns["_prepass_capped"] = walks["run_capped"], walks["prepass_capped"]
            return walks[name](*state)

        return first

    ns = {
        "_EO": ExecOutcome, "_S": Success, "_VR": ValidationReject, "_EE": EngineError,
        "_CS": _CrashSignal, "_RS": _RejectSignal, "_bin": _bin_op, "_flat": _flat_index,
        "_index": operator.index, "_R": _Run, "_HT": HandleTable, "_U": _UNKNOWN, "_M": _MISSING,
        "_TV": TensorVal, "_RR": ResourceRef, "_vm": sys.modules[__name__], "_K": kernel,
        "_cov": cover, "_crash": crash, "_reject": reject, "_bad": bad,
        "_run_capped": capped("run_capped"), "_prepass_capped": capped("prepass_capped"),
        "_fe": frozenset({(kid, kernel.entry)}),
    }  # fmt: skip
    return ns


class _Source:
    """The source of one kernel's functions, their namespace, and a table
    from each line that runs an instruction to (block, index in
    `block.instrs`, opcode, mask of the blocks walked to it since its tree's
    root).

    A root is the entry or a block with other than one predecessor; every
    other block is written inline after its predecessor, so a root's tree
    is the root and the blocks only it leads to, and a walk dispatches on
    roots alone. A tree whose longest walk could pass the step cap hands
    the walk's state to its capped form, which checks the steps before
    every instruction.
    """

    def __init__(self, kernel: KernelIR):
        self.kernel = kernel
        self.kid = kernel.kernel_id
        self.lines: list[str] = []
        self.names: dict = {}
        self.table: dict[int, tuple] = {}
        self.ns = _namespace(kernel, self.table)
        instrs = [i for b in kernel.blocks for i in b.instrs]
        writes: dict[int, int] = {}
        read: set = set()
        for instr in instrs:
            if instr.dst is not None:
                writes[instr.dst] = writes.get(instr.dst, 0) + 1
            read.update(reads(instr) or ())
        for b in kernel.blocks:
            if b.terminator and b.terminator[0] == "br":
                read.add(b.terminator[1])
        unwritten = sorted(read - writes.keys())
        if unwritten:
            raise EngineError(f"{self.kid}: value {unwritten[0]} is read but never written")
        self.once = {d for d, n in writes.items() if n == 1}
        self.resources = any(i.opcode == "res_call" for i in instrs)
        # consts written once are their value; parameters fetched once are
        # the binding check's local of the parameter
        self.consts: dict = {}
        self.params: dict[int, str] = {}
        self.fetches: dict[str, str] = {}  # param local -> name, in program order
        names = [p.name for p in kernel.params]
        for instr in instrs:
            op, d = instr.opcode, instr.dst
            if d in self.once and op == "const":
                self.consts[d] = instr.args[0]
            elif d in self.once and op in ("get_input", "get_attr"):
                name = kernel.inputs[instr.args[0]].name if op == "get_input" else instr.args[0]
                if name in names:
                    local = self.params[d] = f"p{names.index(name)}"
                    self.fetches.setdefault(local, name)
        self.locals = [f"v{d}" for d in sorted(writes) if d not in self.consts and d not in self.params]
        preds = Counter(x for b in kernel.blocks for x in _successors(b.terminator))
        self.roots = [b for b in range(len(kernel.blocks)) if b == kernel.entry or preds[b] != 1]
        self.static_entry = not preds[kernel.entry]

    def emit(self, depth: int, line: str, at: tuple | None = None):
        self.lines.append("    " * depth + line)
        if at is not None:
            self.table[len(self.lines)] = at

    def const(self, value, literal: bool = True) -> str:
        """`value` in the source: an int as itself, anything else (or an
        int that is not to be a literal) as a name in the namespace."""
        if literal and type(value) is int:
            return repr(value)
        key = (type(value), repr(value))
        if key not in self.names:
            self.names[key] = f"k{len(self.names)}"
            self.ns[self.names[key]] = value
        return self.names[key]

    def val(self, v: int, literal: bool = True) -> str:
        if v in self.consts:
            return self.const(self.consts[v], literal)
        return self.params.get(v) or f"v{v}"

    def known(self, v: int) -> bool:
        """Whether `v` is never unknown: a const or a parameter."""
        return v in self.consts or v in self.params

    def template(self, instr) -> list:
        """The instruction's lines over concrete values; none for a const or
        a parameter fetch written once."""
        op, d, args = instr.opcode, instr.dst, instr.args
        if self.known(d):
            return []
        D, V, K = f"v{d}", self.val, self.const
        if op == "const":
            return [f"{D} = {K(args[0])}"]
        if op == "get_input" or op == "get_attr":
            return [f"{D} = b[{K(self.kernel.inputs[args[0]].name if op == 'get_input' else args[0])}]"]
        if op == "bin":
            o, x, y = args[0], V(args[1]), V(args[2])
            slow = f"{D} = _bin({K(o)}, {x}, {y})"
            if o not in ("+", "-", "*") or any(type(self.consts.get(i, 0)) is not int for i in args[1:]):
                return [slow]
            tests = [f"type({e}) is int" for i, e in zip(args[1:], (x, y)) if i not in self.consts]
            fast = [f"{D} = {x} {o} {y}", f"if {D} < {INT64_MIN} or {D} > {INT64_MAX}: raise _CS({K('IOF')})"]
            return [f"if {' and '.join(tests)}:", *("    " + t for t in fast), "else:", "    " + slow] if tests else fast
        if op == "cmp":
            _CMP[args[0]]  # an unknown comparison fails to compile
            return [f"{D} = {V(args[1])} {args[0]} {V(args[2])}"]
        if op == "logic":
            o, a, b = args
            return [f"{D} = not {V(a)}" if o == "not" else f"{D} = {V(a)} {'and' if o == 'and' else 'or'} {V(b)}"]
        if op in ("rank", "size", "dim"):
            t = V(args[0], False)
            if op == "rank":
                return [f"{D} = len({t}.shape)"]
            if op == "size":
                return [f"{D} = {t}.size"]
            return [
                f"{D} = _index({V(args[1])})",
                f"if {D} < 0 or {D} >= len({t}.shape): raise _CS({K('OOB')})",
                f"{D} = {t}.shape[{D}]",
            ]
        if op in ("tload", "index", "tstore"):
            t = V(args[0], False)
            flat = f"_flat({t}, {_tuple([V(i) for i in args[1]])})"
            if op == "tstore":
                return [f"{t}.flat_set({flat}, {V(args[2])})"]
            return [f"{D} = {t}.flat_get({flat})" if op == "tload" else f"{D} = {flat}"]
        if op == "emit":
            return [f"o[{K(args[0])}] = {V(args[1])}"]
        if op == "res_call":
            return [f"{D} = r.res_call({K(args[0])}, {K(args[1])}, {_tuple([V(i) for i in args[2]])})"]
        return [f"raise _EE({K(f'unknown opcode {op!r}')})"]

    def lifted(self, instr) -> list:
        """The instruction over the shape domain: its template, guarded to
        write unknown where it reads unknown or crashes."""
        op, d = instr.opcode, instr.dst
        if op == "tstore" or op == "emit" or (op in _OPAQUE and d in self.once):
            return []
        if op in _OPAQUE:
            return [f"v{d} = _U"]
        lines = self.template(instr)
        ids = reads(instr)
        if not ids or not lines:
            return lines  # a const, a parameter fetch or an unknown opcode
        errors = "(_CS, AttributeError, TypeError)" if op in ("rank", "size", "dim") else "_CS"
        lines = ["try:", *("    " + t for t in lines), f"except {errors}:", f"    v{d} = _U"]
        unknown = [f"{self.val(i)} is _U" for i in dict.fromkeys(ids) if not self.known(i)]
        if not unknown:
            return lines
        return [f"if {' or '.join(unknown)}:", f"    v{d} = _U", "else:", *("    " + t for t in lines)]

    def covered(self, mask: int, static: bool) -> str:
        if not static:
            return f"_cov(c | {mask})"
        self.ns[f"_f{mask}"] = self.ns["_cov"](mask)
        return f"_f{mask}"

    def span(self, bid: int) -> int:
        """The most instructions a walk of `bid`'s tree from `bid` runs."""
        inline = [self.span(x) for x in _successors(self.kernel.blocks[bid].terminator) if x not in self.roots]
        return len(self.kernel.blocks[bid].instrs) + max(inline, default=0)

    def block(self, depth: int, bid: int, path: int, steps: int, prepass: bool, guarded: bool, static: bool):
        """Block `bid`, then the blocks written inline after it. `path` is
        the mask of the blocks walked since the root, `bid` included, and
        `steps` their instruction count; `static` says the walk began at the
        entry, so `c` and `s` are still 0."""
        block = self.kernel.blocks[bid]
        n = len(block.instrs)
        at = "" if static else "s + "
        stop = "return None" if prepass else f"raise _EE({self.const(f'{self.kid}: step cap exceeded')})"
        for k, instr in enumerate(block.instrs):
            lines = self.lifted(instr) if prepass else self.template(instr)
            if guarded and lines:
                self.emit(depth, f"if {at}{steps - n + k} >= cap: {stop}")
            for line in lines:
                self.emit(depth, line, (bid, k, instr.opcode, path))
        if guarded and n:
            self.emit(depth, f"if {at}{steps} > cap: {stop}")

        def goto(depth, x):
            if x not in self.roots:
                self.block(depth, x, path | 1 << x, steps + len(self.kernel.blocks[x].instrs), prepass, guarded, static)
            else:
                self.emit(depth, f"c {'' if static else '|'}= {path}; s {'' if static else '+'}= {steps}; bid = {x}; continue")

        term = block.terminator
        head = term[0] if term else None
        if head == "br":
            cond, then, other = self.val(term[1]), term[2], term[3]
            unknown = not self.known(term[1])
            if prepass and term[4] == "require":
                fail = self.kernel.blocks[other].terminator
                msg = self.const(fail[1]) if fail and fail[0] == "require_fail" else f"_K.blocks[{other}].terminator[1]"
                self.emit(depth, f"if {f'{cond} is not _U and ' if unknown else ''}not {cond}:")
                self.emit(depth + 1, f"return _EO(_VR({msg}, {other}), {self.covered(path | 1 << other, static)})")
            else:
                if prepass and unknown:
                    self.emit(depth, f"if {cond} is _U: return None")
                self.emit(depth, f"if not {cond}:")
                goto(depth + 1, other)
            goto(depth, then)
        elif head == "jmp":
            goto(depth, term[1])
        elif head == "ret":
            self.emit(depth, "return None" if prepass else f"return _EO(_S(o), {self.covered(path, static)})")
        elif head == "require_fail":
            self.emit(depth, f"return _EO(_VR({self.const(term[1])}, {bid}), {self.covered(path, static)})")
        else:
            self.emit(depth, f"raise _EE({self.const(f'unknown terminator {term!r}')})")

    def state(self, prepass: bool) -> list:
        """What a walk reads and writes, in the order the capped walk takes it."""
        run = [] if prepass else ["o", "r"] if self.resources else ["o"]
        return ["b", *run, "c", "s", "cap", *self.fetches, *self.locals]

    def tree(self, depth: int, root: int, prepass: bool, static: bool, guarded: bool):
        if not guarded:
            self.emit(depth, f"if {'' if static else 's + '}{self.span(root)} > cap:")
            self.emit(depth + 1, f"return _{'prepass' if prepass else 'run'}_capped({root}, {', '.join(self.state(prepass))})")
        self.block(depth, root, 1 << root, len(self.kernel.blocks[root].instrs), prepass, guarded, static)

    def walk(self, prepass: bool, guarded: bool):
        """The blocks from the entry, or in the capped walk from root `bid`:
        one tree, or a loop that dispatches on the root to walk."""
        entry = self.kernel.entry
        static = self.static_entry and not guarded
        roots = [r for r in self.roots if not (static and r == entry)]
        self.emit(1, "try:")
        if not roots:
            self.tree(2, entry, prepass, True, guarded)
        else:
            if not guarded:
                self.emit(2, f"bid = {entry}")
            self.emit(2, "while True:")
            for i, r in enumerate(roots):
                self.emit(3, f"{'elif' if i else 'if'} bid == {r}:")
                self.tree(4, r, prepass, False, guarded)
            if static:
                self.emit(3, "else:")
                self.tree(4, entry, prepass, True, guarded)
        if not prepass:
            self.emit(1, "except _CS as e: return _crash(e, c)")
            self.emit(1, "except _RS as e: return _reject(e, c)")
        self.emit(1, "except (AttributeError, TypeError) as e: raise _bad(e)")

    def check(self, reject):
        """The binding check; `reject(message)` is the line that rejects."""
        for i, p in enumerate(self.kernel.params):
            x, K = f"p{i}", self.const
            if p.role == "attr":
                test, got = f"type({x}) is not {K(ATTR_PYTYPES[p.dtype])}", f"parameter {p.name}: expected {p.dtype.name} attr, got "
            elif p.container == "resource":
                test, got = f"not isinstance({x}, _RR)", f"parameter {p.name}: expected resource handle, got "
            else:
                test, got = f"not isinstance({x}, _TV)", f"parameter {p.name}: expected {p.dtype.name} tensor, got "
            self.emit(1, f"{x} = b.get({K(p.name)}, _M)")
            self.emit(1, f"if {test}:")
            self.emit(2, f"if {x} is _M: raise _EE({K(f'{self.kid}: binding missing parameter {p.name!r}')})")
            self.emit(2, reject(f"{K(got)} + type({x}).__name__"))
            if p.role == "attr" and p.dtype is DType.INT:
                self.emit(1, f"if {x} < {INT64_MIN} or {x} > {INT64_MAX}: raise _EE({K(f'attr {p.name} outside signed 64-bit range')})")
            elif p.role != "attr" and p.container == "resource":
                wrong = K(f"parameter {p.name}: expected {p.entity} handle, got ")
                self.emit(1, f"if {x}.entity != {K(p.entity)}: " + reject(f"{wrong} + {x}.entity"))
            elif p.role != "attr":
                self.emit(1, f"if {x}.dtype is not {K(p.dtype)}: " + reject(f"{K(got)} + {x}.dtype.name"))

    def start(self, prepass: bool):
        """A walk's locals, step cap, coverage mask and step count."""
        if self.locals:
            self.emit(1, " = ".join([*self.locals, "_U" if prepass else "None"]))
        self.emit(1, f"cap = _vm.{'_PREPASS_STEP_CAP' if prepass else '_STEP_CAP'}")
        self.emit(1, "c = s = 0")

    def front(self, head: str):
        """A function's head, the binding check, then in graph mode the prepass."""
        self.emit(0, f"def {head}:")
        self.check(lambda m: f"return _EO(_VR({m}, {self.kernel.entry}), _fe)")
        self.emit(1, "if g:")
        self.emit(2, "e = _vm.shape_infer_prepass(_K, b)")  # a module global, for tracers
        self.emit(2, "if e is not None: return e")

    def program(self) -> _Program:
        """`check(b)`, the binding check; `run(b, h, g)`, the check, then in
        graph mode the prepass, then the eager walk; `share(b, h, g, w)`,
        the same check and prepass, then the walk kept in the list `w`,
        which `run` walks and keeps first if `w` is empty; `prepass(b)`. A
        walk that could pass its step cap goes on in `run_capped` or
        `prepass_capped`, compiled from a source of their own on first use."""
        self.emit(0, "def check(b):")
        self.check(lambda m: f"return {m}")
        self.emit(1, "return None")
        self.front("share(b, h, g, w)")
        self.emit(1, "if not w: w.append(run(b, h, False))")
        self.emit(1, "return w[0]")
        self.front("run(b, h, g)")
        if self.resources:
            self.emit(1, "r = _R(h if h is not None else _HT())")
        self.emit(1, "o = {}")
        self.start(False)
        self.walk(False, False)
        self.emit(0, "def prepass(b):")
        for local, name in self.fetches.items():
            self.emit(1, f"{local} = b[{self.const(name)}]")
        self.start(True)
        self.walk(True, False)
        prog = _Program()
        prog.source = self.compile()
        prog.check, prog.run, prog.share, prog.prepass = (self.ns[f] for f in ("check", "run", "share", "prepass"))
        return prog

    def capped(self) -> dict:
        """The namespace of `run_capped` and `prepass_capped`: the rest of a
        walk from root `bid`, with a step check before each instruction."""
        for prepass in (False, True):
            self.emit(0, f"def {'prepass' if prepass else 'run'}_capped(bid, {', '.join(self.state(prepass))}):")
            self.walk(prepass, True)
        self.compile()
        return self.ns

    def compile(self) -> str:
        source = "\n".join(self.lines) + "\n"
        exec(compile(source, "<kernel>", "exec"), self.ns)
        return source


def _program(kernel: KernelIR) -> _Program:
    """The kernel's program, compiled on first use."""
    prog = kernel.compiled
    if prog is None:
        prog = kernel.compiled = _Source(kernel).program()
    return prog


def check_binding(kernel: KernelIR, binding: dict) -> str | None:
    """Validate presence and dtypes.  Returns a reject message or None.

    A missing parameter is a harness bug and raises; a wrong dtype is the
    moral equivalent of a frontend type error and rejects.
    """
    return _program(kernel).check(binding)


def shape_infer_prepass(kernel: KernelIR, binding: dict) -> ExecOutcome | None:
    """Graph-mode pre-execution walk over shape-computable values.

    Evaluates requires whose conditions are derivable from shapes and attrs
    alone; element loads, resource calls, and anything downstream of them are
    unknown and assumed to pass.  Returns the early ValidationReject outcome,
    or None when no shape-level require provably fails.
    """
    return (kernel.compiled or _program(kernel)).prepass(binding)


def execute(
    kernel: KernelIR, binding: dict, mode: str = "eager", handles: HandleTable | None = None, walk: list | None = None
) -> ExecOutcome:
    """Deterministic interpretation of one kernel under one binding. Graph
    mode runs `shape_infer_prepass`, looked up as a module global, before
    the eager run.

    `walk` lets the modes of one input share the eager walk: a list, empty
    for the first mode, that each call passes after its own binding check
    and, in graph mode, its prepass. The first call to get past them walks
    and keeps the outcome in `walk`; a later one returns it. So every
    reject the check or the prepass makes still comes from the mode that
    makes it. The caller vouches that the walk is a pure function of the
    binding: no resource handles in it, no store into its tensors, and
    each mode's `handles` fresh or None."""
    if mode not in MODES:
        raise EngineError(f"unknown mode {mode!r}")
    prog = kernel.compiled or _program(kernel)
    if walk is None:
        return prog.run(binding, handles, mode == "graph")
    return prog.share(binding, handles, mode == "graph", walk)
