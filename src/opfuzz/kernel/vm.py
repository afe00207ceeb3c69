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
"""

from __future__ import annotations

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
)

MODES = ("eager", "graph")

_STEP_CAP = 10_000_000


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
            import math

            return math.fmod(a, b)
    raise EngineError(f"bad bin operands: {op} {type(a).__name__} {type(b).__name__}")


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
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


def check_binding(kernel: KernelIR, binding: dict) -> str | None:
    """Validate presence and dtypes.  Returns a reject message or None.

    A missing parameter is a harness bug and raises; a wrong dtype is the
    moral equivalent of a frontend type error and rejects.
    """
    for p in kernel.params:
        if p.name not in binding:
            raise EngineError(f"{kernel.kernel_id}: binding missing parameter {p.name!r}")
        v = binding[p.name]
        if p.role == "attr":
            expected = ATTR_PYTYPES[p.dtype]
            if type(v) is not expected:
                return f"parameter {p.name}: expected {p.dtype.name} attr, got {type(v).__name__}"
            if p.dtype is DType.INT and not (INT64_MIN <= v <= INT64_MAX):
                raise EngineError(f"attr {p.name} outside signed 64-bit range")
        elif p.container == "resource":
            if not isinstance(v, ResourceRef):
                return f"parameter {p.name}: expected resource handle, got {type(v).__name__}"
            if v.entity != p.entity:
                return f"parameter {p.name}: expected {p.entity} handle, got {v.entity}"
        else:
            if not isinstance(v, TensorVal):
                return f"parameter {p.name}: expected {p.dtype.name} tensor, got {type(v).__name__}"
            if v.dtype is not p.dtype:
                return f"parameter {p.name}: expected {p.dtype.name} tensor, got {v.dtype.name}"
    return None


class _Run:
    def __init__(self, kernel: KernelIR, binding: dict, handles: HandleTable):
        self.kernel = kernel
        self.binding = binding
        self.handles = handles
        self.env: dict[int, object] = {}
        self.covered: set = set()
        self.outputs: dict = {}
        # per-execution materialization of fresh/filled/closed binding refs
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

    def exec_instr(self, instr):
        op = instr.opcode
        env = self.env
        if op == "const":
            env[instr.dst] = instr.args[0]
        elif op == "get_input":
            env[instr.dst] = self.binding[self.kernel.inputs[instr.args[0]].name]
        elif op == "get_attr":
            env[instr.dst] = self.binding[instr.args[0]]
        elif op == "bin":
            o, a, b = instr.args
            env[instr.dst] = _bin_op(o, env[a], env[b])
        elif op == "cmp":
            o, a, b = instr.args
            env[instr.dst] = _CMP[o](env[a], env[b])
        elif op == "logic":
            o, a, b = instr.args
            env[instr.dst] = (not env[a]) if o == "not" else (env[a] and env[b]) if o == "and" else (env[a] or env[b])
        elif op == "rank":
            env[instr.dst] = env[instr.args[0]].rank
        elif op == "size":
            env[instr.dst] = env[instr.args[0]].size
        elif op == "dim":
            t = env[instr.args[0]]
            axis = env[instr.args[1]]
            if axis < 0 or axis >= t.rank:
                raise _CrashSignal("OOB")
            env[instr.dst] = t.shape[axis]
        elif op == "tload":
            t = env[instr.args[0]]
            idxs = [env[i] for i in instr.args[1]]
            env[instr.dst] = t.flat_get(_flat_index(t, idxs))
        elif op == "index":
            t = env[instr.args[0]]
            idxs = [env[i] for i in instr.args[1]]
            env[instr.dst] = _flat_index(t, idxs)
        elif op == "tstore":
            t = env[instr.args[0]]
            idxs = [env[i] for i in instr.args[1]]
            t.flat_set(_flat_index(t, idxs), env[instr.args[2]])
        elif op == "emit":
            self.outputs[instr.args[0]] = env[instr.args[1]]
        elif op == "res_call":
            verb, entity, arg_ids = instr.args
            env[instr.dst] = self.res_call(verb, entity, tuple(env[i] for i in arg_ids))
        else:
            raise EngineError(f"unknown opcode {op!r}")

    def run(self) -> ExecOutcome:
        kid = self.kernel.kernel_id
        bid = self.kernel.entry
        steps = 0
        while True:
            block = self.kernel.blocks[bid]
            self.covered.add((kid, bid))
            for i, instr in enumerate(block.instrs):
                steps += 1
                if steps > _STEP_CAP:
                    raise EngineError(f"{kid}: step cap exceeded")
                try:
                    self.exec_instr(instr)
                except _CrashSignal as c:
                    return self.outcome(Crash(c.kind, kid, bid, i))
                except _RejectSignal as r:
                    return self.outcome(ValidationReject(r.message, bid))
            term = block.terminator
            if term[0] == "jmp":
                bid = term[1]
            elif term[0] == "br":
                bid = term[2] if self.env[term[1]] else term[3]
            elif term[0] == "require_fail":
                return self.outcome(ValidationReject(term[1], bid))
            elif term[0] == "ret":
                return self.outcome(Success(self.outputs))
            else:
                raise EngineError(f"unknown terminator {term!r}")

    def outcome(self, verdict) -> ExecOutcome:
        return ExecOutcome(verdict, frozenset(self.covered))


class _Unknown:
    __repr__ = lambda self: "<unknown>"


_UNKNOWN = _Unknown()


def shape_infer_prepass(kernel: KernelIR, binding: dict) -> ExecOutcome | None:
    """Graph-mode pre-execution walk over shape-computable values.

    Evaluates requires whose conditions are derivable from shapes and attrs
    alone; element loads, resource calls, and anything downstream of them are
    unknown and assumed to pass.  Returns the early ValidationReject outcome,
    or None when no shape-level require provably fails.
    """
    env: dict[int, object] = {}
    covered: set = set()
    kid = kernel.kernel_id
    bid = kernel.entry
    steps = 0

    def value(vid):
        return env.get(vid, _UNKNOWN)

    while True:
        block = kernel.blocks[bid]
        covered.add((kid, bid))
        for instr in block.instrs:
            steps += 1
            if steps > 100_000:
                return None
            op = instr.opcode
            if op == "const":
                env[instr.dst] = instr.args[0]
            elif op == "get_input":
                env[instr.dst] = binding[kernel.inputs[instr.args[0]].name]
            elif op == "get_attr":
                env[instr.dst] = binding[instr.args[0]]
            elif op in ("tload", "index", "res_call"):
                env[instr.dst] = _UNKNOWN
            elif op == "tstore" or op == "emit":
                pass
            elif op == "rank":
                t = value(instr.args[0])
                env[instr.dst] = t.rank if isinstance(t, TensorVal) else _UNKNOWN
            elif op == "size":
                t = value(instr.args[0])
                env[instr.dst] = t.size if isinstance(t, TensorVal) else _UNKNOWN
            elif op == "dim":
                t = value(instr.args[0])
                axis = value(instr.args[1])
                if isinstance(t, TensorVal) and isinstance(axis, int) and 0 <= axis < t.rank:
                    env[instr.dst] = t.shape[axis]
                else:
                    env[instr.dst] = _UNKNOWN
            elif op == "bin":
                o, a, b = instr.args
                va, vb = value(a), value(b)
                if va is _UNKNOWN or vb is _UNKNOWN:
                    env[instr.dst] = _UNKNOWN
                else:
                    try:
                        env[instr.dst] = _bin_op(o, va, vb)
                    except _CrashSignal:
                        env[instr.dst] = _UNKNOWN
            elif op == "cmp":
                o, a, b = instr.args
                va, vb = value(a), value(b)
                env[instr.dst] = _UNKNOWN if va is _UNKNOWN or vb is _UNKNOWN else _CMP[o](va, vb)
            elif op == "logic":
                o, a, b = instr.args
                va = value(a)
                vb = value(b) if b is not None else None
                if va is _UNKNOWN or (b is not None and vb is _UNKNOWN):
                    env[instr.dst] = _UNKNOWN
                else:
                    env[instr.dst] = (not va) if o == "not" else (va and vb) if o == "and" else (va or vb)
            else:
                raise EngineError(f"unknown opcode {op!r}")
        term = block.terminator
        if term[0] == "jmp":
            bid = term[1]
        elif term[0] == "ret":
            return None
        elif term[0] == "require_fail":
            return ExecOutcome(ValidationReject(term[1], bid), frozenset(covered))
        elif term[0] == "br":
            cond = value(term[1])
            tag = term[4]
            if tag == "require":
                if cond is _UNKNOWN or cond:
                    bid = term[2]
                else:
                    fail_bid = term[3]
                    covered.add((kid, fail_bid))
                    msg = kernel.blocks[fail_bid].terminator[1]
                    return ExecOutcome(ValidationReject(msg, fail_bid), frozenset(covered))
            else:
                if cond is _UNKNOWN:
                    return None
                bid = term[2] if cond else term[3]
        else:
            raise EngineError(f"unknown terminator {term!r}")


def execute(kernel: KernelIR, binding: dict, mode: str = "eager", handles: HandleTable | None = None) -> ExecOutcome:
    """Deterministic interpretation of one kernel under one binding."""
    if mode not in MODES:
        raise EngineError(f"unknown mode {mode!r}")
    if handles is None:
        handles = HandleTable()
    reject = check_binding(kernel, binding)
    if reject is not None:
        return ExecOutcome(ValidationReject(reject, kernel.entry), frozenset({(kernel.kernel_id, kernel.entry)}))
    if mode == "graph":
        early = shape_infer_prepass(kernel, binding)
        if early is not None:
            return early
    return _Run(kernel, binding, handles).run()
