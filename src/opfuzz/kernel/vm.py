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
mirroring frontend parameter errors rather than crashes.

Each kernel is compiled once, on its first `execute`, into a `_Program`
cached on the kernel (`KernelIR.compiled`). Value ids become slots of a
list env; per block the program holds a tuple of closures with their
operands resolved, plus the encoded terminator. Each instruction has one
semantics, its closure over concrete values for eager runs. The graph
prepass runs that closure lifted over one extra value, unknown, as abstract
interpretation lifts a concrete transfer function: an instruction that
reads an unknown value or crashes writes unknown. Both modes are short
block walkers over the same program. Consts written by exactly one
instruction are preloaded into per-kernel env templates, parameter fetches
fill their slots as the env is built, and in the shape domain the element
loads, index computations and resource calls written once are unknown from
the start.
Compilation changes speed, never results: for every binding the verdict,
the covered blocks, the outputs and their order, the crash site (its
`instr_index` counts positions in `block.instrs`, skipped consts included),
the handle table and any EngineError are those of a plain instruction-by-
instruction interpreter, and both step caps trip at exactly the same
instruction. `tests/test_vm_compiled.py` pins this against such an
interpreter kept in `tests/_oracles.py`, which shares no code with this one.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
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


# the ops whose int-by-int case the compiled closures check inline
_INT_FAST = {"+": operator.add, "-": operator.sub, "*": operator.mul}

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


def _binding_check(p):
    """The check of one parameter: a reject message or None; raises when
    the parameter is missing or an int attr leaves signed 64-bit."""
    name = p.name
    missing = f"binding missing parameter {name!r}"

    if p.role == "attr":
        expected = ATTR_PYTYPES[p.dtype]
        wanted = f"parameter {name}: expected {p.dtype.name} attr, got "
        is_int = p.dtype is DType.INT

        def check(binding, kernel_id):
            v = binding.get(name, _MISSING)
            if type(v) is not expected:
                if v is _MISSING:
                    raise EngineError(f"{kernel_id}: {missing}")
                return wanted + type(v).__name__
            if is_int and not (INT64_MIN <= v <= INT64_MAX):
                raise EngineError(f"attr {name} outside signed 64-bit range")
            return None

    elif p.container == "resource":
        entity = p.entity

        def check(binding, kernel_id):
            v = binding.get(name, _MISSING)
            if not isinstance(v, ResourceRef):
                if v is _MISSING:
                    raise EngineError(f"{kernel_id}: {missing}")
                return f"parameter {name}: expected resource handle, got {type(v).__name__}"
            if v.entity != entity:
                return f"parameter {name}: expected {entity} handle, got {v.entity}"
            return None

    else:
        dtype = p.dtype
        wanted = f"parameter {name}: expected {dtype.name} tensor, got "

        def check(binding, kernel_id):
            v = binding.get(name, _MISSING)
            if not isinstance(v, TensorVal):
                if v is _MISSING:
                    raise EngineError(f"{kernel_id}: {missing}")
                return wanted + type(v).__name__
            if v.dtype is not dtype:
                return wanted + v.dtype.name
            return None

    return check


def check_binding(kernel: KernelIR, binding: dict) -> str | None:
    """Validate presence and dtypes.  Returns a reject message or None.

    A missing parameter is a harness bug and raises; a wrong dtype is the
    moral equivalent of a frontend type error and rejects.
    """
    kid = kernel.kernel_id
    for check in _program(kernel).checks:
        message = check(binding, kid)
        if message is not None:
            return message
    return None


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

# terminator kinds; the two branch kinds come first so `kind <= _REQUIRE`
# tests for either
_BRANCH, _REQUIRE, _JMP, _RET, _FAIL, _BAD = range(6)


def _gather(ids):
    """env -> tuple of the values at `ids`."""
    if not ids:
        return lambda env: ()
    if len(ids) == 1:
        (i,) = ids
        return lambda env: (env[i],)
    return operator.itemgetter(*ids)


def _eager_op(instr, kernel, bslot, oslot, rslot):
    """One instruction over concrete values: a closure that updates the env."""
    op, d, args = instr.opcode, instr.dst, instr.args
    if op == "const":
        v = args[0]

        def run(env):
            env[d] = v

    elif op == "get_input" or op == "get_attr":
        name = kernel.inputs[args[0]].name if op == "get_input" else args[0]

        def run(env):
            env[d] = env[bslot][name]

    elif op == "bin":
        o, a, b = args
        arith = _INT_FAST.get(o)
        if arith is not None:

            def run(env):
                x = env[a]
                y = env[b]
                if type(x) is int and type(y) is int:
                    r = arith(x, y)
                    if r < INT64_MIN or r > INT64_MAX:
                        raise _CrashSignal("IOF")
                    env[d] = r
                else:
                    env[d] = _bin_op(o, x, y)

        else:

            def run(env):
                env[d] = _bin_op(o, env[a], env[b])

    elif op == "cmp":
        o, a, b = args
        cmp = _CMP[o]

        def run(env):
            env[d] = cmp(env[a], env[b])

    elif op == "logic":
        o, a, b = args
        if o == "not":

            def run(env):
                env[d] = not env[a]

        elif o == "and":

            def run(env):
                env[d] = env[a] and env[b]

        else:

            def run(env):
                env[d] = env[a] or env[b]

    elif op == "rank":
        t = args[0]

        def run(env):
            env[d] = env[t].rank

    elif op == "size":
        t = args[0]

        def run(env):
            env[d] = env[t].size

    elif op == "dim":
        t, a = args

        def run(env):
            tensor = env[t]
            axis = env[a]
            if axis < 0 or axis >= tensor.rank:
                raise _CrashSignal("OOB")
            env[d] = tensor.shape[axis]

    elif op == "tload":
        t, idxs = args[0], _gather(args[1])

        def run(env):
            tensor = env[t]
            env[d] = tensor.flat_get(_flat_index(tensor, idxs(env)))

    elif op == "index":
        t, idxs = args[0], _gather(args[1])

        def run(env):
            env[d] = _flat_index(env[t], idxs(env))

    elif op == "tstore":
        t, idxs, v = args[0], _gather(args[1]), args[2]

        def run(env):
            tensor = env[t]
            tensor.flat_set(_flat_index(tensor, idxs(env)), env[v])

    elif op == "emit":
        name, v = args

        def run(env):
            env[oslot][name] = env[v]

    elif op == "res_call":
        verb, entity, call_args = args[0], args[1], _gather(args[2])

        def run(env):
            env[d] = env[rslot].res_call(verb, entity, call_args(env))

    else:

        def run(env):
            raise EngineError(f"unknown opcode {op!r}")

    return run


def _shape_op(instr, kernel, bslot):
    """One instruction over the {known, unknown} shape domain, or None when
    the instruction leaves the env as it is.

    The eager closure lifted over one extra value: it writes unknown when
    any value it reads is unknown or when it crashes, and a shape query over
    a value that has no shape is unknown too. Element loads, index
    computations and resource calls are always unknown; stores and emits
    are skipped.
    """
    op, d = instr.opcode, instr.dst
    U = _UNKNOWN
    if op in ("tload", "index", "res_call"):

        def run(env):
            env[d] = U

        return run
    if op == "tstore" or op == "emit":
        return None
    eager = _eager_op(instr, kernel, bslot, None, None)
    ids = reads(instr)
    if not ids:
        return eager  # a const, a parameter fetch or an unknown opcode
    unknown_on = (_CrashSignal, AttributeError, TypeError) if op in ("rank", "size", "dim") else _CrashSignal
    a, b = ids if len(ids) == 2 else ids * 2  # every such instruction reads one value or two

    def run(env):
        if env[a] is U or env[b] is U:
            env[d] = U
        else:
            try:
                eager(env)
            except unknown_on:
                env[d] = U

    return run


def _encode_terminator(term) -> tuple:
    """(kind, x, y, z): a branch is (cond, then, else), a jump (target,),
    a require failure (message,), anything unknown (the terminator,)."""
    head = term[0]
    if head == "br":
        return (_REQUIRE if term[4] == "require" else _BRANCH, term[1], term[2], term[3])
    if head == "jmp":
        return (_JMP, term[1], None, None)
    if head == "ret":
        return (_RET, None, None, None)
    if head == "require_fail":
        return (_FAIL, term[1], None, None)
    return (_BAD, term, None, None)


class _Program:
    """A kernel lowered for the block walkers in `_run_eager` and
    `shape_infer_prepass`.

    `eager` and `shape` hold one record per block: (closures, instruction
    count, coverage key, terminator kind, x, y, z). `eager_positions[bid]`
    and `shape_positions[bid]` give each closure's index in `block.instrs`;
    the two domains skip different instructions. The env is a list: the
    value slots, then the binding, the outputs dict and the run's resource
    state (`bslot`, `oslot`, `rslot`).
    """

    def __init__(self, kernel: KernelIR):
        kid = self.kernel_id = kernel.kernel_id
        self.entry = kernel.entry
        self.checks = tuple(_binding_check(p) for p in kernel.params)
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
            raise EngineError(f"{kid}: value {unwritten[0]} is read but never written")
        n = max([*writes, *read], default=-1) + 1
        self.bslot, self.oslot, self.rslot = bslot, oslot, rslot = n, n + 1, n + 2
        eager_env = [None] * (n + 3)
        shape_env = [_UNKNOWN] * (n + 3)
        param_names = {p.name for p in kernel.params}
        fetches = []
        self.uses_resources = any(i.opcode == "res_call" for i in instrs)
        self.eager, self.shape = [], []
        self.eager_positions, self.shape_positions = [], []
        for block in kernel.blocks:
            eops, epos, sops, spos = [], [], [], []
            for k, instr in enumerate(block.instrs):
                op, d = instr.opcode, instr.dst
                once = d is not None and writes[d] == 1
                if once and op == "const":
                    eager_env[d] = shape_env[d] = instr.args[0]
                    continue
                if once and op in ("get_input", "get_attr"):
                    name = kernel.inputs[instr.args[0]].name if op == "get_input" else instr.args[0]
                    if name in param_names:
                        # present by the time a walker runs: check_binding saw to it
                        fetches.append((d, name))
                        continue
                eops.append(_eager_op(instr, kernel, bslot, oslot, rslot))
                epos.append(k)
                if once and op in ("tload", "index", "res_call"):
                    continue  # the shape env's slot is unknown from the start
                run = _shape_op(instr, kernel, bslot)
                if run is not None:
                    sops.append(run)
                    spos.append(k)
            key = (kid, block.bid)
            term = _encode_terminator(block.terminator)
            self.eager.append((tuple(eops), len(block.instrs), key, *term))
            self.shape.append((tuple(sops), len(block.instrs), key, *term))
            self.eager_positions.append(tuple(epos))
            self.shape_positions.append(tuple(spos))
        self.fetches = tuple(fetches)
        self.eager_env = eager_env
        self.shape_env = shape_env


def _program(kernel: KernelIR) -> _Program:
    """The kernel's program, compiled on first use."""
    prog = kernel.compiled
    if prog is None:
        prog = kernel.compiled = _Program(kernel)
    return prog


def _env(prog: _Program, template: list, binding: dict) -> list:
    env = template.copy()
    env[prog.bslot] = binding
    for slot, name in prog.fetches:
        env[slot] = binding[name]
    return env


def _run_eager(prog: _Program, binding: dict, handles: HandleTable | None) -> ExecOutcome:
    env = _env(prog, prog.eager_env, binding)
    outputs: dict = {}
    env[prog.oslot] = outputs
    if prog.uses_resources:
        env[prog.rslot] = _Run(handles if handles is not None else HandleTable())
    kid = prog.kernel_id
    blocks = prog.eager
    covered: set = set()
    cap = _STEP_CAP
    steps = 0
    bid = prog.entry
    while True:
        ops, n, key, kind, x, y, z = blocks[bid]
        covered.add(key)
        steps += n
        if steps > cap:
            # the cap falls inside this block: run only what comes before it
            ops = ops[: bisect_left(prog.eager_positions[bid], cap - steps + n)]
        it = iter(ops)
        try:
            for run in it:
                run(env)
        except _CrashSignal as c:
            # the failing closure is the last one the loop took from `it`
            at = prog.eager_positions[bid][len(ops) - 1 - len(tuple(it))]
            return ExecOutcome(Crash(c.kind, kid, bid, at), frozenset(covered))
        except _RejectSignal as r:
            return ExecOutcome(ValidationReject(r.message, bid), frozenset(covered))
        if steps > cap:
            raise EngineError(f"{kid}: step cap exceeded")
        if kind <= _REQUIRE:
            bid = y if env[x] else z
        elif kind == _JMP:
            bid = x
        elif kind == _RET:
            return ExecOutcome(Success(outputs), frozenset(covered))
        elif kind == _FAIL:
            return ExecOutcome(ValidationReject(x, bid), frozenset(covered))
        else:
            raise EngineError(f"unknown terminator {x!r}")


def shape_infer_prepass(kernel: KernelIR, binding: dict) -> ExecOutcome | None:
    """Graph-mode pre-execution walk over shape-computable values.

    Evaluates requires whose conditions are derivable from shapes and attrs
    alone; element loads, resource calls, and anything downstream of them are
    unknown and assumed to pass.  Returns the early ValidationReject outcome,
    or None when no shape-level require provably fails.
    """
    prog = kernel.compiled or _program(kernel)
    env = _env(prog, prog.shape_env, binding)
    kid = kernel.kernel_id
    blocks = prog.shape
    covered: set = set()
    cap = _PREPASS_STEP_CAP
    steps = 0
    bid = kernel.entry
    while True:
        ops, n, key, kind, x, y, z = blocks[bid]
        covered.add(key)
        steps += n
        if steps > cap:
            for run in ops[: bisect_left(prog.shape_positions[bid], cap - steps + n)]:
                run(env)
            return None
        for run in ops:
            run(env)
        if kind == _JMP:
            bid = x
        elif kind == _REQUIRE:
            cond = env[x]
            if cond is _UNKNOWN or cond:
                bid = y
            else:
                covered.add((kid, z))
                msg = kernel.blocks[z].terminator[1]
                return ExecOutcome(ValidationReject(msg, z), frozenset(covered))
        elif kind == _BRANCH:
            cond = env[x]
            if cond is _UNKNOWN:
                return None
            bid = y if cond else z
        elif kind == _RET:
            return None
        elif kind == _FAIL:
            return ExecOutcome(ValidationReject(x, bid), frozenset(covered))
        else:
            raise EngineError(f"unknown terminator {x!r}")


def execute(kernel: KernelIR, binding: dict, mode: str = "eager", handles: HandleTable | None = None) -> ExecOutcome:
    """Deterministic interpretation of one kernel under one binding."""
    if mode not in MODES:
        raise EngineError(f"unknown mode {mode!r}")
    prog = kernel.compiled or _program(kernel)
    reject = check_binding(kernel, binding)
    if reject is not None:
        return ExecOutcome(ValidationReject(reject, kernel.entry), frozenset({(kernel.kernel_id, kernel.entry)}))
    if mode == "graph":
        early = shape_infer_prepass(kernel, binding)
        if early is not None:
            return early
    return _run_eager(prog, binding, handles)
