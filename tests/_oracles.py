"""Independent reference computations the tests compare the package against.

Each oracle recomputes a result the package also computes, by a different
route: per-seed graph reachability instead of a named-set fixpoint for
taint, an explicit pairwise tournament instead of a keyed min() for call
paths, exhaustive small-domain enumeration for generation soundness,
the stdlib `random` calls the random baseline's direct bit draws replace,
the per-pick guided draw the per-plan tensor drawers replaced,
a plain instruction-by-instruction interpreter for the compiled VM,
the per-node-type constraint walkers and arithmetic that the expression
core replaced, the AST interpreter and its atom reader (`_eval_value`) the
compiled constraint predicates and value functions replaced, the
hand-written lexers the regex scanner replaced, and the
two-pass extractor the one region walk replaced. Oracles share only parsed
inputs, constants and value types with the code under test, never logic,
except where a section says so.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

from opfuzz.constraints import (
    NEGATE_CMP,
    Arith,
    AttrRef,
    Cmp,
    Constraint,
    ConstraintError,
    ConstraintTree,
    Dim,
    Forall,
    Lit,
    LogicalNode,
    Ndim,
    Size,
    Unliftable,
    Val,
    Var,
    _FAIL,
    _EvalFail,
    _ExprParser,
    _arith,
    _param,
    _tensor,
    _fold,
    nodes,
    normal_form,
    render,
)
from opfuzz.corpus import CorpusError
from opfuzz.extractor import ExtractionError, _finalize, _Lifter, _Unliftable, find_sinks, propagate_taint
from opfuzz import constraints
from opfuzz.generator import (
    DENSE_ELEMENT_LIMIT,
    RANDOM_STRING_CHARS,
    GuidedGenerator,
    _axis_pool,
    _draw,
    _elem_pool,
    _flat_of,
    _rank_pool,
)
from opfuzz.kernel.ir import (
    ATTR_PYTYPES,
    INT64_MAX,
    INT64_MIN,
    Crash,
    DType,
    EngineError,
    ExecOutcome,
    IfRegion,
    KernelIR,
    LoopRegion,
    RequireRegion,
    ResourceRef,
    Success,
    TensorVal,
    ValidationReject,
)
from opfuzz.kernel import vm
from opfuzz.kernel.parser import KernelParseError
from opfuzz.registry import DescriptorError

# -- call-path placement -------------------------------------------------------


def best_declared_path(paths):
    """Tournament minimum: fewest segments, then lexicographic."""
    best = None
    for cand in paths:
        if best is None:
            best = cand
            continue
        if len(cand) < len(best):
            best = cand
        elif len(cand) == len(best) and tuple(cand) < tuple(best):
            best = cand
    return best


def declared_paths_by_op(specs):
    """Every path any descriptor declares for each operator name."""
    out = defaultdict(list)
    for spec in specs:
        out[spec.name].append(spec.module_path)
        out[spec.name].extend(spec.aliases)
    return out


# -- value-flow graph -----------------------------------------------------------


def flow_edges(kernel: KernelIR):
    """Static (src vid -> dst vid) edges, one per operand of each instruction.

    tstore points its value and index operands at the stored-into tensor id,
    which is what lets later loads from that tensor pick the flow back up.
    """
    edges = []
    for block in kernel.blocks:
        for inst in block.instrs:
            op = inst.opcode
            if op in ("const", "get_input", "get_attr", "emit"):
                continue
            if op == "tstore":
                base, idxs, val = inst.args
                for src in (val, *idxs):
                    edges.append((src, base))
                continue
            if op in ("bin", "cmp", "logic"):
                srcs = [a for a in inst.args[1:] if a is not None]
            elif op == "tload":
                srcs = [inst.args[0], *inst.args[1]]
            elif op in ("rank", "size"):
                srcs = [inst.args[0]]
            elif op == "dim":
                srcs = list(inst.args)
            elif op == "res_call":
                srcs = list(inst.args[2])
            else:
                raise AssertionError(f"oracle does not know opcode {op!r}")
            if inst.dst is None:
                continue
            for src in srcs:
                edges.append((src, inst.dst))
    return edges


def _adjacency(kernel: KernelIR):
    adj = defaultdict(set)
    for src, dst in flow_edges(kernel):
        adj[src].add(dst)
    return adj


def _reachable(adj, start: int) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def seed_params(kernel: KernelIR) -> dict:
    """vid -> {param name} at each parameter fetch."""
    seeds = {}
    for block in kernel.blocks:
        for inst in block.instrs:
            if inst.opcode == "get_input":
                seeds[inst.dst] = {kernel.inputs[inst.args[0]].name}
            elif inst.opcode == "get_attr":
                seeds[inst.dst] = {inst.args[0]}
    return seeds


def reach_taint(kernel: KernelIR) -> dict:
    """Taint by reachability: every vid a seed can reach carries its param.

    The flow-insensitive fixpoint and transitive closure over the static
    edge set agree by construction; computing the closure per seed makes
    this an independent check of the package's chaotic iteration.
    """
    adj = _adjacency(kernel)
    taint = defaultdict(set)
    for vid, names in seed_params(kernel).items():
        for reached in _reachable(adj, vid):
            taint[reached] |= names
    return {vid: frozenset(names) for vid, names in taint.items()}


def element_guard_params(kernel: KernelIR) -> set:
    """Input params whose loaded elements can reach a branch condition."""
    adj = _adjacency(kernel)
    input_vids = {}
    for block in kernel.blocks:
        for inst in block.instrs:
            if inst.opcode == "get_input":
                input_vids[inst.dst] = kernel.inputs[inst.args[0]].name
    conds = set()
    for block in kernel.blocks:
        if block.terminator and block.terminator[0] == "br":
            conds.add(block.terminator[1])
    marked = set()
    for block in kernel.blocks:
        for inst in block.instrs:
            if inst.opcode == "tload" and inst.args[0] in input_vids:
                if _reachable(adj, inst.dst) & conds:
                    marked.add(input_vids[inst.args[0]])
    return marked


# -- exhaustive small-domain enumeration ---------------------------------------

BRUTE_INTS = (-1, 0, 1, 2)
BRUTE_FLOATS = (-1.0, 0.0, 1.0, 2.0)
BRUTE_MAX_RANK = 2
BRUTE_MAX_EXTENT = 3
BRUTE_ELEMENT_SIZE_CAP = 3  # full element vectors only for tiny tensors
BRUTE_PRODUCT_LIMIT = 60000
RESOURCE_STATES = ("null", "fresh", "filled", "closed")


def brute_shapes():
    shapes = [()]
    shapes += [(a,) for a in range(BRUTE_MAX_EXTENT + 1)]
    shapes += [
        (a, b)
        for a in range(BRUTE_MAX_EXTENT + 1)
        for b in range(BRUTE_MAX_EXTENT + 1)
    ]
    return shapes


def kernel_string_literals(kernel: KernelIR) -> list:
    lits = []
    for block in kernel.blocks:
        for inst in block.instrs:
            if inst.opcode == "const" and isinstance(inst.args[0], str):
                if inst.args[0] not in lits:
                    lits.append(inst.args[0])
    return lits


def _elem_values(dtype: DType, strings):
    kind = dtype.name
    if kind == "DT_INT64":
        return BRUTE_INTS
    if kind == "DT_FLOAT":
        return BRUTE_FLOATS
    if kind == "DT_BOOL":
        return (False, True)
    if kind == "DT_STRING":
        return tuple(strings)
    raise AssertionError(f"no element domain for {dtype}")


def tensor_domain(dtype: DType, strings, with_elements: bool) -> list:
    values = _elem_values(dtype, strings)
    out = []
    for shape in brute_shapes():
        size = 1
        for e in shape:
            size *= e
        for v in values:
            out.append(TensorVal(dtype, shape, fill=v))
        if with_elements and 0 < size <= BRUTE_ELEMENT_SIZE_CAP:
            for combo in itertools.product(values, repeat=size):
                if len(set(combo)) > 1:  # uniform combos equal some fill above
                    out.append(TensorVal(dtype, shape, data=list(combo)))
    return out


def param_domain(param, strings, element_params) -> list:
    if param.dtype is DType.DT_RESOURCE:
        return [ResourceRef(param.entity or "Resource", s) for s in RESOURCE_STATES]
    if param.dtype.is_tensor:
        return tensor_domain(param.dtype, strings, param.name in element_params)
    kind = param.dtype.name
    if kind == "INT":
        return list(BRUTE_INTS)
    if kind == "FLOAT":
        return list(BRUTE_FLOATS)
    if kind == "BOOL":
        return [False, True]
    if kind == "STRING":
        return list(strings)
    raise AssertionError(f"no domain for {param.dtype}")


def enumerate_bindings(kernel: KernelIR):
    """All bindings over the small domain, or base + single + pair sweeps.

    The sweep fallback still exercises every constraint both ways because
    corpus constraints relate at most two parameters.
    """
    strings = kernel_string_literals(kernel) + ["", "zz"]
    element_params = element_guard_params(kernel)
    names = [p.name for p in kernel.params]
    domains = [param_domain(p, strings, element_params) for p in kernel.params]
    total = 1
    for d in domains:
        total *= len(d)
    if total <= BRUTE_PRODUCT_LIMIT:
        for combo in itertools.product(*domains):
            yield dict(zip(names, combo))
        return
    base = {n: d[0] for n, d in zip(names, domains)}
    yield dict(base)
    for i, name in enumerate(names):
        for v in domains[i][1:]:
            b = dict(base)
            b[name] = v
            yield b
    for i, j in itertools.combinations(range(len(names)), 2):
        for vi in domains[i][1:]:
            for vj in domains[j][1:]:
                b = dict(base)
                b[names[i]] = vi
                b[names[j]] = vj
                yield b


# -- random baseline through the stdlib calls ----------------------------------


def _reference_string(rng) -> str:
    n = rng.randrange(17)
    return "".join(RANDOM_STRING_CHARS[rng.randrange(len(RANDOM_STRING_CHARS))] for _ in range(n))


def _reference_element(rng, dtype: DType):
    if dtype is DType.DT_INT64:
        return rng.randint(INT64_MIN, INT64_MAX)
    if dtype is DType.DT_FLOAT:
        return rng.uniform(-1e18, 1e18)
    if dtype is DType.DT_STRING:
        return _reference_string(rng)
    if dtype is DType.DT_BOOL:
        return rng.randrange(2) == 1
    raise ValueError(f"no random element for {dtype}")


def reference_generate_random(spec, rng) -> dict:
    """The random baseline drawn with randrange/randint/uniform, one call per value."""
    binding = {}
    for p in spec.params:
        if p.container == "resource":
            binding[p.name] = ResourceRef(p.entity, ("null", "fresh", "filled", "closed")[rng.randrange(4)])
        elif p.role == "attr":
            if p.dtype is DType.INT:
                binding[p.name] = rng.randint(INT64_MIN, INT64_MAX)
            elif p.dtype is DType.FLOAT:
                binding[p.name] = rng.uniform(-1e18, 1e18)
            elif p.dtype is DType.STRING:
                binding[p.name] = _reference_string(rng)
            else:
                binding[p.name] = rng.randrange(2) == 1
        else:
            rank = rng.randrange(5)
            shape = tuple(rng.randrange(9) for _ in range(rank))
            size = 1
            for e in shape:
                size *= e
            data = [_reference_element(rng, p.dtype) for _ in range(size)]
            binding[p.name] = TensorVal(p.dtype, shape, data=data)
    return binding


# -- the guided draw, one pool lookup per pick ------------------------------------
#
# This section subclasses the generator and shares its solve plans, hints and
# candidate pools: what it keeps apart is the draw path over them, as it read
# before each hints entry got a drawer of its own. Each solve looks up its plan
# and hints, each rank, axis and element pick looks up its pool, each shape goes
# through `TensorVal`'s checks and each candidate is tested on a copy of the
# binding.


class ReferenceGuidedGenerator(GuidedGenerator):
    def generate(self, rng, iteration: int) -> tuple:
        vec_index = (iteration - 1) % self.n_vectors
        plans = self.vector_plan(vec_index).plans
        binding = {}
        settled = set()
        for name in self.data.order:
            binding[name], held = self._solve_param(rng, name, plans, binding)
            if held:
                settled.add(name)
        self.repair(rng, binding, plans, settled)
        return binding, vec_index

    def _test(self, name: str, value, resolved, bound: dict) -> int:
        trial = dict(bound)
        trial[name] = value
        return sum(1 for e in resolved if constraints.evaluate(e, trial))

    def _solve_param(self, rng, name: str, plans, bound: dict) -> tuple:
        p = self.params[name]
        if p.container == "resource":
            return self._draw_resource(rng, p), False
        plan = plans.plan(name, bound)
        resolved = plan.resolved
        hints, scalar = self._hints(plan, name, bound)
        best = None
        best_score = -1
        for _ in range(self.RETRIES):
            if p.role == "attr":
                value = _draw(rng, _elem_pool(scalar, p.dtype.element, self.string_pool))
            else:
                value = self._draw_tensor(rng, p, hints, plan.ndim_referenced)
            score = self._test(name, value, resolved, bound)
            if score > best_score:
                best, best_score = value, score
            if score == len(resolved):
                break
        return best, best_score == len(resolved)

    def _draw_tensor(self, rng, p, hints, ndim_referenced: bool):
        rank = _draw(rng, _rank_pool(hints, ndim_referenced))
        shape = self._draw_shape(rng, hints, rank)
        return self._fill_elements(rng, p, shape, hints)

    def _draw_shape(self, rng, hints, rank: int) -> tuple:
        if rank == 0:
            return ()
        size = hints.size
        size_pins = hints.size_pins
        for _ in range(8):
            shape = [_draw(rng, _axis_pool(hints, axis)) for axis in range(rank)]
            if size_pins:
                shape = self._fit_size(shape, hints, size_pins[0])
                if shape is None:
                    continue
            if size.admits(math.prod(shape)):
                return tuple(shape)
        if size_pins:
            n = size_pins[0]
            fitted = self._fit_size([1] * rank, hints, n)
            if fitted:
                return tuple(fitted)
            return tuple([1] * (rank - 1) + [max(n, 0)])
        return tuple(shape)

    def _fit_size(self, shape, hints, n: int):
        pinned = {}
        for axis, r in hints.dims.items():
            if axis < len(shape) and r.pins:
                pinned[axis] = r.pins[0]
        fixed = math.prod(pinned.values())
        free = [a for a in range(len(shape)) if a not in pinned]
        if not free:
            return list(shape) if fixed == n else None
        if fixed == 0 or n % fixed != 0:
            return None
        out = list(shape)
        for axis, v in pinned.items():
            out[axis] = v
        for a in free[:-1]:
            out[a] = 1
        out[free[-1]] = n // fixed
        return out

    def _fill_elements(self, rng, p, shape: tuple, hints) -> TensorVal:
        size = math.prod(shape)
        if p.is_file and self.control.fixture:
            label = self.control.fixture
            if 0 <= size <= DENSE_ELEMENT_LIMIT:
                return TensorVal(p.dtype, shape, data=[label] * size)
            return TensorVal(p.dtype, shape, fill=label)
        pool = _elem_pool(hints.elems, p.dtype, self.string_pool)
        if 0 <= size <= DENSE_ELEMENT_LIMIT:
            t = TensorVal(p.dtype, shape, data=[_draw(rng, pool) for _ in range(size)])
        else:
            t = TensorVal(p.dtype, shape, fill=_draw(rng, pool))
        for idx, erange in hints.at_index.items():
            flat = _flat_of(shape, idx)
            if flat is not None:
                t.flat_set(flat, _draw(rng, _elem_pool(erange, p.dtype, self.string_pool)))
        return t


# -- the kernel VM as a plain interpreter ----------------------------------------

# read at call time, so tests can lower them like the VM's own caps
STEP_CAP = 10_000_000
PREPASS_STEP_CAP = 100_000


class _Crash(Exception):
    def __init__(self, kind: str):
        self.kind = kind


class _Reject(Exception):
    def __init__(self, message: str):
        self.message = message


def _ref_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _ref_int(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise _Crash("IOF")
    return value


def _ref_fmod(a, b) -> float:
    """C11 F.10.7.1: fmod(+-inf, y) is NaN for any y; otherwise Python's
    fmod is C's (the divisor has been checked nonzero)."""
    if a in (float("inf"), float("-inf")):
        return float("nan")
    return math.fmod(a, b)


def _ref_bin(op: str, a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        raise EngineError("arithmetic on booleans")
    if isinstance(a, int) and isinstance(b, int):
        if op == "+":
            return _ref_int(a + b)
        if op == "-":
            return _ref_int(a - b)
        if op == "*":
            return _ref_int(a * b)
        if op in ("/", "%") and b == 0:
            raise _Crash("FPE")
        if op == "/":
            return _ref_int(_ref_div(a, b))
        if op == "%":
            return _ref_int(a - _ref_div(a, b) * b)
    elif isinstance(a, float) and isinstance(b, float):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op in ("/", "%") and b == 0.0:
            raise _Crash("FPE")
        if op == "/":
            return a / b
        if op == "%":
            return _ref_fmod(a, b)
    raise EngineError(f"bad bin operands: {op} {type(a).__name__} {type(b).__name__}")


def _ref_cmp(op: str, a, b):
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _ref_flat(tensor: TensorVal, idxs) -> int:
    if len(idxs) != len(tensor.shape):
        raise _Crash("OOB")
    if math.prod(tensor.shape) <= 0:
        raise _Crash("NPE")
    flat = 0
    for idx, extent in zip(idxs, tensor.shape):
        if idx < 0 or idx >= extent:
            raise _Crash("OOB")
        flat = flat * extent + idx
    return flat


def _ref_check(kernel: KernelIR, binding: dict):
    for p in kernel.params:
        if p.name not in binding:
            raise EngineError(f"{kernel.kernel_id}: binding missing parameter {p.name!r}")
        v = binding[p.name]
        if p.role == "attr":
            if type(v) is not ATTR_PYTYPES[p.dtype]:
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


def _input_name(kernel: KernelIR, index: int) -> str:
    return [p for p in kernel.params if p.role == "input"][index].name


class _RefRun:
    def __init__(self, kernel: KernelIR, binding: dict, handles):
        self.kernel = kernel
        self.binding = binding
        self.handles = handles
        self.env: dict = {}
        self.covered: set = set()
        self.outputs: dict = {}
        self.ref_ids: dict = {}

    def handle_of(self, ref: ResourceRef):
        if ref.state == "live":
            return ref.handle_id
        if ref.state == "null":
            return None
        if id(ref) not in self.ref_ids:
            if ref.state == "fresh":
                self.ref_ids[id(ref)] = self.handles.create(ref.entity)
            elif ref.state == "filled":
                self.ref_ids[id(ref)] = self.handles.create(ref.entity, payload=[1.0])
            elif ref.state == "closed":
                self.ref_ids[id(ref)] = self.handles.create(ref.entity, closed=True)
            else:
                raise EngineError(f"unknown resource state {ref.state!r}")
        return self.ref_ids[id(ref)]

    def call(self, verb: str, entity: str, args: tuple):
        if verb == "New":
            return ResourceRef(entity, "live", self.handles.create(entity))
        ref = args[0]
        if not isinstance(ref, ResourceRef):
            raise EngineError(f"resource verb {verb} on non-handle {type(ref).__name__}")
        if ref.entity != entity:
            raise _Reject(f"{verb}: expected {entity} handle, got {ref.entity}")
        hid = self.handle_of(ref)
        entry = None if hid is None else self.handles.entries.get(hid)
        if entry is None:
            raise _Crash("NPE")
        if entry.closed:
            raise _Crash("UAF")
        if verb == "Push":
            entry.payload.append(args[1] if len(args) > 1 else None)
            return 1
        if verb == "Pop":
            if not entry.payload:
                raise _Crash("OOB")
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

    def step(self, instr):
        op, env, args = instr.opcode, self.env, instr.args
        if op == "const":
            env[instr.dst] = args[0]
        elif op == "get_input":
            env[instr.dst] = self.binding[_input_name(self.kernel, args[0])]
        elif op == "get_attr":
            env[instr.dst] = self.binding[args[0]]
        elif op == "bin":
            env[instr.dst] = _ref_bin(args[0], env[args[1]], env[args[2]])
        elif op == "cmp":
            env[instr.dst] = _ref_cmp(args[0], env[args[1]], env[args[2]])
        elif op == "logic":
            o, a, b = args
            if o == "not":
                env[instr.dst] = not env[a]
            elif o == "and":
                env[instr.dst] = env[a] and env[b]
            else:
                env[instr.dst] = env[a] or env[b]
        elif op == "rank":
            env[instr.dst] = len(env[args[0]].shape)
        elif op == "size":
            env[instr.dst] = math.prod(env[args[0]].shape)
        elif op == "dim":
            t, axis = env[args[0]], env[args[1]]
            if axis < 0 or axis >= len(t.shape):
                raise _Crash("OOB")
            env[instr.dst] = t.shape[axis]
        elif op in ("tload", "index", "tstore"):
            t = env[args[0]]
            flat = _ref_flat(t, [env[i] for i in args[1]])
            if op == "tload":
                env[instr.dst] = t.flat_get(flat)
            elif op == "index":
                env[instr.dst] = flat
            else:
                t.flat_set(flat, env[args[2]])
        elif op == "emit":
            self.outputs[args[0]] = env[args[1]]
        elif op == "res_call":
            verb, entity, arg_ids = args
            env[instr.dst] = self.call(verb, entity, tuple(env[i] for i in arg_ids))
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
                if steps > STEP_CAP:
                    raise EngineError(f"{kid}: step cap exceeded")
                try:
                    self.step(instr)
                except _Crash as c:
                    return ExecOutcome(Crash(c.kind, kid, bid, i), frozenset(self.covered))
                except _Reject as r:
                    return ExecOutcome(ValidationReject(r.message, bid), frozenset(self.covered))
            term = block.terminator
            if term[0] == "jmp":
                bid = term[1]
            elif term[0] == "br":
                bid = term[2] if self.env[term[1]] else term[3]
            elif term[0] == "require_fail":
                return ExecOutcome(ValidationReject(term[1], bid), frozenset(self.covered))
            elif term[0] == "ret":
                return ExecOutcome(Success(self.outputs), frozenset(self.covered))
            else:
                raise EngineError(f"unknown terminator {term!r}")


_UNKNOWN = object()


def reference_prepass(kernel: KernelIR, binding: dict):
    """The graph prepass over a dict env where a missing value is unknown."""
    env: dict = {}
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
            if steps > PREPASS_STEP_CAP:
                return None
            op, args, dst = instr.opcode, instr.args, instr.dst
            if op == "const":
                env[dst] = args[0]
            elif op == "get_input":
                env[dst] = binding[_input_name(kernel, args[0])]
            elif op == "get_attr":
                env[dst] = binding[args[0]]
            elif op in ("tload", "index", "res_call"):
                env[dst] = _UNKNOWN
            elif op in ("tstore", "emit"):
                pass
            elif op in ("rank", "size"):
                t = value(args[0])
                if not isinstance(t, TensorVal):
                    env[dst] = _UNKNOWN
                else:
                    env[dst] = len(t.shape) if op == "rank" else math.prod(t.shape)
            elif op == "dim":
                t, axis = value(args[0]), value(args[1])
                if isinstance(t, TensorVal) and isinstance(axis, int) and 0 <= axis < len(t.shape):
                    env[dst] = t.shape[axis]
                else:
                    env[dst] = _UNKNOWN
            elif op in ("bin", "cmp"):
                va, vb = value(args[1]), value(args[2])
                if va is _UNKNOWN or vb is _UNKNOWN:
                    env[dst] = _UNKNOWN
                elif op == "cmp":
                    env[dst] = _ref_cmp(args[0], va, vb)
                else:
                    try:
                        env[dst] = _ref_bin(args[0], va, vb)
                    except _Crash:
                        env[dst] = _UNKNOWN
            elif op == "logic":
                o, a, b = args
                va = value(a)
                vb = value(b) if b is not None else None
                if va is _UNKNOWN or (b is not None and vb is _UNKNOWN):
                    env[dst] = _UNKNOWN
                elif o == "not":
                    env[dst] = not va
                elif o == "and":
                    env[dst] = va and vb
                else:
                    env[dst] = va or vb
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
            if term[4] == "require":
                if cond is _UNKNOWN or cond:
                    bid = term[2]
                else:
                    covered.add((kid, term[3]))
                    msg = kernel.blocks[term[3]].terminator[1]
                    return ExecOutcome(ValidationReject(msg, term[3]), frozenset(covered))
            else:
                if cond is _UNKNOWN:
                    return None
                bid = term[2] if cond else term[3]
        else:
            raise EngineError(f"unknown terminator {term!r}")


def reference_execute(kernel: KernelIR, binding: dict, mode: str, handles) -> ExecOutcome:
    """`vm.execute` as a binding check, the graph prepass, then a walk that
    runs one instruction at a time over a dict env."""
    if mode not in ("eager", "graph"):
        raise EngineError(f"unknown mode {mode!r}")
    reject = _ref_check(kernel, binding)
    if reject is not None:
        return ExecOutcome(ValidationReject(reject, kernel.entry), frozenset({(kernel.kernel_id, kernel.entry)}))
    if mode == "graph":
        early = reference_prepass(kernel, binding)
        if early is not None:
            return early
    return _RefRun(kernel, binding, handles).run()


def per_mode_execute(kernel: KernelIR, binding: dict, modes) -> list:
    """One full `vm.execute` per mode, in order, each on a fresh handle
    table: the outcomes a walk shared between the modes must reproduce."""
    return [vm.execute(kernel, binding, mode, vm.HandleTable()) for mode in modes]


# -- constraint-AST walkers ----------------------------------------------------
#
# The hand-written recursive walkers the traversal core in `constraints`
# (`children`/`rebuild`/`nodes`/`atoms`/`replace`) replaced, each listing the
# node types itself. What they pin is which nodes a walk visits, in what
# order, and how it rebuilds the tree; they read atom values through
# `_eval_value` below and render through the package's `render`, and fold
# arithmetic with `reference_arith` below. `reference_evaluate` is the
# evaluator `constraints.evaluate` compiles into one generated function per
# expression; it too reads values through `_eval_value`, the package's
# `_tensor` and the traversal core's `nodes`. `_eval_value` is the atom
# reader `constraints.value_of` compiles away, moved here unchanged: it
# shares the package's `_param`, `_tensor` and `_arith` (its operand rule in
# front of the VM's arithmetic, which `reference_arith` pins on its own).


def _eval_value(expr, binding: dict, env: dict):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise ConstraintError(f"unbound quantifier variable {expr.name!r}")
    if isinstance(expr, AttrRef):
        return _param(binding, expr.param)
    if isinstance(expr, Ndim):
        return _tensor(binding, expr.param).rank
    if isinstance(expr, Size):
        return _tensor(binding, expr.param).size
    if isinstance(expr, Dim):
        t = _tensor(binding, expr.param)
        if expr.axis < 0 or expr.axis >= t.rank:
            raise _EvalFail()
        return t.shape[expr.axis]
    if isinstance(expr, Val):
        t = _tensor(binding, expr.param)
        idxs = [_eval_value(i, binding, env) for i in expr.idxs]
        if len(idxs) != t.rank or t.size <= 0:
            raise _EvalFail()
        flat = 0
        for idx, extent in zip(idxs, t.shape):
            if not isinstance(idx, int) or idx < 0 or idx >= extent:
                raise _EvalFail()
            flat = flat * extent + idx
        return t.flat_get(flat)
    if isinstance(expr, Arith):
        a = _eval_value(expr.left, binding, env)
        b = _eval_value(expr.right, binding, env)
        r = _arith(expr.op, a, b)
        if r is _FAIL:
            raise _EvalFail()
        return r
    raise ConstraintError(f"cannot evaluate {type(expr).__name__} as a value")


class ArithFail(Exception):
    """`reference_arith` found a bad operand, an overflow or a zero divisor."""


def reference_arith(op: str, a, b):
    """The constraint evaluator's own int/float arithmetic before it used
    the VM's: bools and non-numbers fail, ints stay in signed 64-bit, `/`
    and `%` truncate toward zero, and an int mixes freely with a float
    unless it is too large for one.  Float `%` follows C's fmod, NaN for an
    infinite dividend."""

    def check64(v):
        if v < INT64_MIN or v > INT64_MAX:
            raise ArithFail()
        return v

    if isinstance(a, bool) or isinstance(b, bool):
        raise ArithFail()
    if isinstance(a, int) and isinstance(b, int):
        if op == "+":
            return check64(a + b)
        if op == "-":
            return check64(a - b)
        if op == "*":
            return check64(a * b)
        if b == 0:
            raise ArithFail()
        if op == "/":
            return check64(_ref_div(a, b))
        return check64(a - _ref_div(a, b) * b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        for v in (a, b):
            # from half an ulp above the largest double, an int rounds past it
            if isinstance(v, int) and abs(v) >= 2**1024 - 2**970:
                raise ArithFail()
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            raise ArithFail()
        if op == "/":
            return a / b
        return _ref_fmod(a, b)
    raise ArithFail()


def ref_params_of(expr) -> set:
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (AttrRef, Ndim, Size, Dim)):
            out.add(e.param)
        elif isinstance(e, Val):
            out.add(e.param)
            stack.extend(e.idxs)
        elif isinstance(e, (Arith, Cmp)):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, Forall):
            stack.extend([e.lo, e.hi, e.body])
    return out


def ref_walk_atoms(expr):
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (AttrRef, Ndim, Size, Dim)):
            yield e
        elif isinstance(e, Val):
            yield e
            stack.extend(e.idxs)
        elif isinstance(e, (Arith, Cmp)):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, Forall):
            stack.extend([e.lo, e.hi, e.body])


def ref_val_atoms(expr):
    out = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Val):
            out.append(e)
            stack.extend(e.idxs)
        elif isinstance(e, (Arith, Cmp)):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, Forall):
            stack.extend([e.lo, e.hi, e.body])
    return out


def ref_string_literals(tree) -> list:
    found = []

    def walk(e):
        if isinstance(e, Lit) and isinstance(e.value, str) and e.value not in found:
            found.append(e.value)
        elif isinstance(e, (Arith, Cmp)):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Forall):
            walk(e.lo)
            walk(e.hi)
            walk(e.body)
        elif isinstance(e, Val):
            for i in e.idxs:
                walk(i)

    for c in tree.all_constraints() + tree.all_guards():
        if not c.is_unliftable:
            walk(c.expr)
    return found


_REF_PRECEDENCE = ("ndim", "shape", "size", "value", "dtype")


def _ref_attr_of_atom(atom) -> str:
    if isinstance(atom, Ndim):
        return "ndim"
    if isinstance(atom, Dim):
        return "shape"
    if isinstance(atom, Size):
        return "size"
    return "value"  # Val and AttrRef


def ref_param_attrs(expr) -> dict:
    out = {}

    def note(param, attr):
        old = out.get(param)
        if old is None or _REF_PRECEDENCE.index(attr) < _REF_PRECEDENCE.index(old):
            out[param] = attr

    def walk(e):
        if isinstance(e, (AttrRef, Ndim, Size, Dim)):
            note(e.param, _ref_attr_of_atom(e))
        elif isinstance(e, Val):
            note(e.param, "value")
            for i in e.idxs:
                walk(i)
        elif isinstance(e, (Arith, Cmp)):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Forall):
            walk(e.body)

    walk(expr)
    return out


def ref_rename_var(expr, old: str, new: str):
    if isinstance(expr, Var) and expr.name == old:
        return Var(new)
    if isinstance(expr, Val):
        return Val(expr.param, tuple(ref_rename_var(i, old, new) for i in expr.idxs))
    if isinstance(expr, Arith):
        return Arith(expr.op, ref_rename_var(expr.left, old, new), ref_rename_var(expr.right, old, new))
    if isinstance(expr, Cmp):
        return Cmp(expr.op, ref_rename_var(expr.left, old, new), ref_rename_var(expr.right, old, new))
    return expr


def ref_fold(expr):
    if isinstance(expr, Arith):
        left = ref_fold(expr.left)
        right = ref_fold(expr.right)
        if isinstance(left, Lit) and isinstance(right, Lit):
            try:
                value = reference_arith(expr.op, left.value, right.value)
            except ArithFail:
                value = None
            if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
                return Lit(value)  # an inf or nan stays unfolded: the grammar cannot write it
        return Arith(expr.op, left, right)
    if isinstance(expr, Cmp):
        return Cmp(expr.op, ref_fold(expr.left), ref_fold(expr.right))
    if isinstance(expr, Val):
        return Val(expr.param, tuple(ref_fold(i) for i in expr.idxs))
    if isinstance(expr, Forall):
        return Forall(expr.var, ref_fold(expr.lo), ref_fold(expr.hi), ref_fold(expr.body))
    return expr


_REF_FLIP = {"<": ">", "<=": ">="}


def ref_normalize(expr):
    expr = ref_fold(expr)
    if isinstance(expr, Forall):
        body = expr.body
        if expr.var != "i":
            body = ref_rename_var(body, expr.var, "i")
        return Forall("i", ref_normalize(expr.lo), ref_normalize(expr.hi), ref_normalize(body))
    if isinstance(expr, Cmp):
        left, right, op = expr.left, expr.right, expr.op
        if op in ("<", "<="):
            left, right = right, left
            op = _REF_FLIP[op]
        if op in ("==", "!=") and render(right) < render(left):
            left, right = right, left
        return Cmp(op, left, right)
    return expr


def ref_var_only_in_val_indices(expr, var: str) -> bool:
    if isinstance(expr, Var):
        return expr.name != var
    if isinstance(expr, Val):
        return all(isinstance(i, Var) or ref_var_only_in_val_indices(i, var) for i in expr.idxs)
    if isinstance(expr, (Arith, Cmp)):
        return ref_var_only_in_val_indices(expr.left, var) and ref_var_only_in_val_indices(expr.right, var)
    return True



def reference_evaluate(expr, binding: dict) -> bool:
    """The AST interpreter `evaluate` compiles away: each node evaluated
    where it stands, its operands read through `_eval_value`, a quantifier
    walked with a fresh env per index."""
    try:
        return _ref_eval_bool(expr, binding, {})
    except _EvalFail:
        return False


def _ref_eval_bool(expr, binding: dict, env: dict) -> bool:
    if isinstance(expr, Unliftable):
        return True
    if isinstance(expr, Lit) and isinstance(expr.value, bool):
        return expr.value
    if isinstance(expr, Cmp):
        a = _eval_value(expr.left, binding, env)
        b = _eval_value(expr.right, binding, env)
        if isinstance(a, str) != isinstance(b, str):
            raise _EvalFail()
        # only numbers are ordered
        if expr.op not in ("==", "!=") and not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            raise _EvalFail()
        return _REF_CMP[expr.op](a, b)
    if isinstance(expr, Forall):
        lo = _eval_value(expr.lo, binding, env)
        hi = _eval_value(expr.hi, binding, env)
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise _EvalFail()
        if ref_var_only_in_val_indices(expr.body, expr.var):
            indices = range(lo, hi) if hi - lo <= 10_000 else _ref_uniform_indices(expr, lo, hi, binding)
            return all(_ref_eval_bool(expr.body, binding, {**env, expr.var: v}) for v in indices)
        # any other range: one step per index, false once the kernel's step cap is spent
        steps = 0
        for v in range(lo, hi):
            if steps == vm._STEP_CAP:
                return False
            steps += 1
            if not _ref_eval_bool(expr.body, binding, {**env, expr.var: v}):
                return False
        return True
    raise ConstraintError(f"cannot evaluate {type(expr).__name__} as a predicate")


_REF_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _ref_uniform_indices(expr, lo: int, hi: int, binding: dict):
    """The indices a large forall whose variable is only a whole val() index
    needs: the first plus each override of a fill-backed tensor, or all of
    them where a tensor is dense."""
    whole = (Var(expr.var),)
    tensors = []
    for a in [e for e in nodes(expr.body) if type(e) is Val and e.idxs == whole]:
        t = _tensor(binding, a.param)
        if t.rank != 1 or lo < 0 or hi > t.shape[0]:
            raise _EvalFail()
        tensors.append(t)
    if any(t.data is not None for t in tensors):
        return range(lo, hi)
    return sorted({lo} | {flat for t in tensors for flat in t.overrides if lo <= flat < hi}) if lo < hi else []


def ref_substitute_bound(expr, bound: dict, keep: str):
    def sub(e):
        if isinstance(e, (AttrRef, Ndim, Size, Dim)):
            if e.param == keep or e.param not in bound:
                return e
            return Lit(_eval_value(e, bound, {}))
        if isinstance(e, Val):
            idxs = tuple(sub(i) for i in e.idxs)
            if e.param == keep or e.param not in bound:
                return Val(e.param, idxs)
            if all(isinstance(i, Lit) for i in idxs):
                return Lit(_eval_value(Val(e.param, idxs), bound, {}))
            return Val(e.param, idxs)
        if isinstance(e, Arith):
            return Arith(e.op, sub(e.left), sub(e.right))
        if isinstance(e, Cmp):
            return Cmp(e.op, sub(e.left), sub(e.right))
        if isinstance(e, Forall):
            return Forall(e.var, sub(e.lo), sub(e.hi), sub(e.body))
        return e

    return sub(expr)


def ref_fold_atoms(expr, bound, keep: str) -> tuple:
    def folds(e) -> bool:
        if isinstance(e, Lit):
            return True
        if isinstance(e, (AttrRef, Ndim, Size, Dim)):
            return e.param != keep and e.param in bound
        if isinstance(e, Val):
            return e.param != keep and e.param in bound and all(folds(i) for i in e.idxs)
        return False

    out = []

    def walk(e):
        if isinstance(e, (AttrRef, Ndim, Size, Dim, Val)) and folds(e):
            out.append(e)
        elif isinstance(e, Val):
            for i in e.idxs:
                walk(i)
        elif isinstance(e, (Arith, Cmp)):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Forall):
            walk(e.lo)
            walk(e.hi)
            walk(e.body)

    walk(expr)
    return tuple(out)


# -- the hand-written lexers ---------------------------------------------------

# The four character loops the regex scanner (`kernel.parser.scan`) replaced,
# one per input language, copied unchanged apart from their names. Kernel
# and descriptor tokens are (kind, value, line, col), script tokens
# (kind, value, line), constraint tokens (kind, value). They raise the
# package's error types, and the constraint one leaves its parsing to
# `RefExprParser` below.

_REF_PUNCT2 = ("==", "!=", "<=", ">=", "..")
_REF_PUNCT1 = "{}()[]<>,;:=+-*/%"


def ref_kernel_tokenize(source: str):
    """Yield (kind, value, line, col); kind in {ident, int, float, str, punct}."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise KernelParseError("unterminated string", line, start_col)
                j += 1
            if j >= n:
                raise KernelParseError("unterminated string", line, start_col)
            tokens.append(("str", source[i + 1 : j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                tokens.append(("float", float(source[i:j]), line, start_col))
            else:
                tokens.append(("int", int(source[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in _REF_PUNCT2:
            tokens.append(("punct", two, line, start_col))
            i += 2
            col += 2
            continue
        if c in _REF_PUNCT1:
            tokens.append(("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise KernelParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", None, line, col))
    return tokens


def ref_descriptor_tokenize(text: str):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c == '"':
            start_l, start_c = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise DescriptorError("unterminated string", start_l, start_c)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise DescriptorError("unterminated string", start_l, start_c)
            i += 1
            col += 1
            toks.append(("str", "".join(buf), start_l, start_c))
        elif c.isalpha() or c == "_":
            start_l, start_c = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], start_l, start_c))
            col += j - i
            i = j
        elif c in "{}:":
            toks.append(("punct", c, line, col))
            i += 1
            col += 1
        else:
            raise DescriptorError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def ref_script_tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r":
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c == '"':
            j = text.index('"', i + 1)
            toks.append(("str", text[i + 1 : j], line))
            i = j + 1
        elif c.isdigit():
            j = i
            if text[i : i + 2] in ("0x", "0X"):
                j = i + 2
                while j < n and text[j] in "0123456789abcdefABCDEF":
                    j += 1
                toks.append(("int", int(text[i:j], 16), line))
            else:
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(("int", int(text[i:j]), line))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], line))
            i = j
        elif c in "{};":
            toks.append(("punct", c, line))
            i += 1
        else:
            raise CorpusError(f"test script line {line}: unexpected character {c!r}")
    toks.append(("eof", None, line))
    return toks


def ref_constraint_tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
        elif c == '"':
            j = text.index('"', i + 1)
            toks.append(("str", text[i + 1 : j]))
            i = j + 1
        elif c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit() and _ref_prev_is_operand(toks) is False):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            lit = text[i:j]
            toks.append(("num", float(lit) if "." in lit else int(lit)))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j]))
            i = j
        elif text[i : i + 2] in ("==", "!=", "<=", ">="):
            toks.append(("op", text[i : i + 2]))
            i += 2
        elif c in "+-*/%<>()[],:":
            toks.append(("op", c))
            i += 1
        else:
            raise ConstraintError(f"unexpected character {c!r} in constraint text")
    toks.append(("eof", None))
    return toks


def _ref_prev_is_operand(toks) -> bool:
    if not toks:
        return False
    k, v = toks[-1]
    return k in ("num", "ident", "str") or (k == "op" and v in (")", "]"))


class RefExprParser(_ExprParser):
    """The constraint parser over the hand-written constraint lexer's tokens.

    That lexer folded a `-` into the number after it unless the previous
    token was an operand, so the parser's minus rule is the old one: any
    `-` in factor position is `0 - factor`, folded.
    """

    def __init__(self, text: str):
        self.toks = ref_constraint_tokenize(text)
        self.pos = 0
        self.quant_vars = set()

    def parse_factor(self):
        if self.at("op", "-"):
            self.next()
            return _fold(Arith("-", Lit(0), self.parse_factor()))
        return super().parse_factor()


def ref_parse_constraint(text: str):
    p = RefExprParser(text)
    return p.finish(p.parse_constraint())


# -- the two-pass extractor ----------------------------------------------------

# The extractor before it lifted in one region walk: `extract_raw` copied the
# region skeleton into a tree of raw IR predicates (keeping the requires that
# hold a sink), and `lift_constraints` walked that copy to build the
# `ConstraintTree`. Copied unchanged apart from their names, with the old
# `predicate` (its own negation step) in `_RefLifter`. This section shares
# taint, `find_sinks`, `_Lifter.value`, `_finalize` and `normal_form` with
# the package: what it pins is the walk, the negation steps and the notes.


@dataclass
class RawConstraint:
    cond_id: int
    pass_on_true: bool
    block: int
    message: str
    quant: tuple | None = None  # (var_id, lo_id, hi_id)


@dataclass
class RawBranch:
    guard_id: int
    negate: bool
    block: int
    node: "RawNode"


@dataclass
class RawNode:
    constraints: list = field(default_factory=list)
    branches: list = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.constraints and not self.branches


@dataclass
class RawTree:
    kernel_id: str
    root: RawNode
    mixed_loops: int = 0
    untainted_requires: int = 0


def ref_extract_raw(kernel: KernelIR, sinks: list | None = None) -> RawTree:
    """Region walk: requires become constraints, sink-bearing ifs become
    branches, all-require loop bodies become quantified constraints, and
    loops mixing requires with nested control flow are skipped whole."""
    if sinks is None:
        sinks = find_sinks(kernel)
    by_block = {s.block: s for s in sinks}
    tree = RawTree(kernel.kernel_id, RawNode())

    def require_constraint(region: RequireRegion, quant=None) -> RawConstraint | None:
        site = by_block.get(region.block)
        if site is None:
            tree.untainted_requires += 1
            return None
        return RawConstraint(region.cond_id, site.pass_on_true, region.block, region.message, quant)

    def walk(regions) -> RawNode:
        node = RawNode()
        for region in regions:
            if isinstance(region, RequireRegion):
                c = require_constraint(region)
                if c is not None:
                    node.constraints.append(c)
            elif isinstance(region, IfRegion):
                then_node = walk(region.then_regions)
                else_node = walk(region.else_regions)
                if not then_node.is_empty:
                    node.branches.append(RawBranch(region.guard_id, False, region.block, then_node))
                if not else_node.is_empty:
                    node.branches.append(RawBranch(region.guard_id, True, region.block, else_node))
            elif isinstance(region, LoopRegion):
                if all(isinstance(r, RequireRegion) for r in region.body_regions):
                    quant = (region.var_id, region.lo_id, region.hi_id)
                    for r in region.body_regions:
                        c = require_constraint(r, quant)
                        if c is not None:
                            node.constraints.append(c)
                else:
                    tree.mixed_loops += 1
            else:
                raise ExtractionError(f"unknown region type {type(region).__name__}")
        return node

    tree.root = walk(kernel.regions)
    return tree


class _RefLifter(_Lifter):
    def predicate(self, vid: int, qvars: dict) -> list:
        """Boolean value id -> conjunction of comparison expressions."""
        inst = self.defs.get(vid)
        if inst is None:
            raise _Unliftable(f"predicate {vid} has no definition")
        if inst.opcode == "cmp":
            cop, a, b = inst.args
            return [Cmp(cop, self.value(a, qvars), self.value(b, qvars))]
        if inst.opcode == "logic":
            lop, a, b = inst.args
            if lop == "and":
                return self.predicate(a, qvars) + self.predicate(b, qvars)
            if lop == "not":
                inner = self.predicate(a, qvars)
                if len(inner) == 1 and isinstance(inner[0], Cmp):
                    c = inner[0]
                    return [Cmp(NEGATE_CMP[c.op], c.left, c.right)]
                raise _Unliftable("negation of a non-comparison")
            raise _Unliftable("disjunction in a predicate")
        if inst.opcode == "const" and isinstance(inst.args[0], bool):
            return [Cmp("==", Lit(1), Lit(1 if inst.args[0] else 0))]
        raise _Unliftable(f"opcode {inst.opcode} is not a predicate")


def ref_lift_constraints(raw: RawTree, kernel: KernelIR) -> ConstraintTree:
    lifter = _RefLifter(kernel)
    tree = ConstraintTree(
        raw.kernel_id,
        skipped_mixed_loops=raw.mixed_loops,
        skipped_untainted=raw.untainted_requires,
    )

    def lift_one(rc: RawConstraint) -> list:
        try:
            if rc.quant is None:
                exprs = lifter.predicate(rc.cond_id, {})
                if not rc.pass_on_true:
                    if len(exprs) != 1:
                        raise _Unliftable("negation of a conjunction")
                    exprs = [Cmp(NEGATE_CMP[exprs[0].op], exprs[0].left, exprs[0].right)]
            else:
                var_id, lo_id, hi_id = rc.quant
                lo = lifter.value(lo_id, {})
                hi = lifter.value(hi_id, {})
                qvars = {var_id: Var("i")}
                bodies = lifter.predicate(rc.cond_id, qvars)
                if not rc.pass_on_true:
                    if len(bodies) != 1:
                        raise _Unliftable("negation of a conjunction")
                    bodies = [Cmp(NEGATE_CMP[bodies[0].op], bodies[0].left, bodies[0].right)]
                exprs = [Forall("i", lo, hi, b) for b in bodies]
        except _Unliftable as e:
            return [Constraint(Unliftable(e.note), rc.block, rc.message)]
        out = []
        for e in exprs:
            final = _finalize(e)
            if final is not None:
                out.append(Constraint(final, rc.block, rc.message))
        return out

    def lift_guard(br: RawBranch) -> Constraint:
        try:
            exprs = lifter.predicate(br.guard_id, {})
            if br.negate:
                if len(exprs) != 1:
                    raise _Unliftable("negation of a conjunction")
                exprs = [Cmp(NEGATE_CMP[exprs[0].op], exprs[0].left, exprs[0].right)]
            if len(exprs) != 1:
                raise _Unliftable("conjunction guard")
            return Constraint(_fold(exprs[0]), br.block, "")
        except _Unliftable as e:
            return Constraint(Unliftable(e.note), br.block, "")

    def lift_node(raw_node: RawNode, constraints: list, branches: list):
        seen = set()
        for rc in raw_node.constraints:
            for c in lift_one(rc):
                key = normal_form(c.expr) if not c.is_unliftable else repr(c.expr)
                if key in seen:
                    continue
                seen.add(key)
                constraints.append(c)
        for rb in raw_node.branches:
            node = LogicalNode(lift_guard(rb))
            lift_node(rb.node, node.constraints, node.branches)
            branches.append(node)

    lift_node(raw.root, tree.constraints, tree.branches)
    return tree


def reference_extract(kernel: KernelIR) -> ConstraintTree:
    """Taint, sinks, the raw region tree, then lifting over it."""
    taint = propagate_taint(kernel)
    sinks = find_sinks(kernel, taint)
    return ref_lift_constraints(ref_extract_raw(kernel, sinks), kernel)
