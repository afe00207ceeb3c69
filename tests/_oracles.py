"""Independent reference computations the tests compare the package against.

Each oracle recomputes a result the package also computes, by a different
route: per-seed graph reachability instead of a named-set fixpoint for
taint, an explicit pairwise tournament instead of a keyed min() for call
paths, exhaustive small-domain enumeration for generation soundness, and
the stdlib `random` calls the random baseline's direct bit draws replace.
Oracles share only parsed inputs and constants with the code under test,
never logic.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from opfuzz.generator import RANDOM_STRING_CHARS
from opfuzz.kernel.ir import INT64_MAX, INT64_MIN, DType, KernelIR, ResourceRef, TensorVal

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
