"""Input generation: constraint-guided and random baseline.

The guided path walks parameters in dependency order, solving each
against the constraints that mention it (with earlier parameters
substituted in), then runs a bounded repair fixpoint.  Violation
probes flip exactly one active constraint to exercise rejection
handling.  The random baseline draws structure and values from wide
distributions with no knowledge of constraints.

The data template fixes the parameter order and the choice vectors before
the first draw, so the guided generator compiles them into solve plans,
built lazily and kept for the generator's life.  Per choice vector it
keeps the active constraints and the steps of a draw: each param in
order with its solve plan, or none for a resource.  Per (param, names
already bound) a plan keeps the constraints that resolve for the param
and the bound atoms their residuals fold to literals; a memo maps those
atoms' values to the hints read from the residuals, and a plan with no
folded atoms holds its one hints entry itself.  Each hints entry builds
its draw on first use: a scalar attr's picks from the element pool of its
`DType.element`, a tensor's `_TensorDrawer`, which holds the rank, axis,
element and `at_index` pools and builds tensors whose shapes it drew
from pools of non-negative ints through `TensorVal.trusted`.  A candidate
is scored in place, written into the binding under test and deleted
after.  A draw then only reads atoms, consumes the rng and tests
candidates, in the same order as reading each pool per pick, so reports
do not change; a test pins this against that path, kept in
`tests/_oracles.py`.  Atoms are read through `constraints.value_of` and
candidates tested through `constraints.evaluate`, the compiled forms of
one lowering.  Repair's first pass skips the constraints a param's solve
already saw hold.  Each pick from a pool, and each resource state, is
drawn with `_below(getrandbits, n)`, inlined in `_draw`, which gives
`randrange(n)`'s value for the same rng consumption, without its per-call
checks.

The random baseline draws straight from the rng's `getrandbits` and
`random`, one list comprehension per element dtype (an attr's is its
`DType.element`), without the stdlib's per-call argument checks, and
builds its tensors through `TensorVal.trusted`.  Its
contract: the same values and the same rng consumption, in the same order,
as drawing each rank, extent, state and length with `randrange`, each int
with `randint(INT64_MIN, INT64_MAX)` and each float with
`uniform(-1e18, 1e18)` on a `random.Random`.  A test pins this against a
reference that makes those stdlib calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

from .constraints import (
    ATOM_TYPES,
    Arith,
    AttrRef,
    Cmp,
    ConstraintTree,
    Dim,
    FLIP_CMP,
    Forall,
    Lit,
    NEGATE_CMP,
    Ndim,
    Size,
    Val,
    Var,
    _EvalFail,
    atoms,
    children,
    evaluate,
    nodes,
    params_of,
    render,
    replace,
    toposort_params,
    value_of,
)
from .kernel.ir import DType, INT64_MAX, INT64_MIN, ResourceRef, TensorVal, _product

# value pools; order is fixed so campaigns are reproducible
INT_SPECIALS = (0, 1, -1, 2, 7, 1048576, 2147483647, 2147483649, -2147483648)
EXTENT_SPECIALS = (0, 1, 2, 7, 1048576)
FLOAT_SPECIALS = (1.0, 0.0, -1.0, 0.5, 2.0, 1000000000.0)
STRING_DEFAULTS = ("", "a", "ab")
WINDOW = 8
DENSE_ELEMENT_LIMIT = 64
RANDOM_STRING_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"


# -- templates --


@dataclass
class ControlTemplate:
    op: str
    modes: tuple
    fixture: str | None = None
    sequence: tuple | None = None
    position: int = 0
    producers: dict = field(default_factory=dict)
    unfillable: tuple = ()

    def as_json(self) -> dict:
        return {
            "op": self.op,
            "modes": list(self.modes),
            "fixture": self.fixture,
            "sequence": list(self.sequence) if self.sequence else None,
            "position": self.position,
            "producers": dict(sorted(self.producers.items())),
            "unfillable": list(self.unfillable),
        }


@dataclass
class DataTemplate:
    op: str
    order: tuple
    constraints: list  # root Constraint objects in extraction order
    guards: list  # Constraint objects, depth-first
    vectors: tuple  # branch choice vectors

    def as_json(self) -> dict:
        return {
            "op": self.op,
            "order": list(self.order),
            "constraints": [render(c.expr) for c in self.constraints],
            "guards": [render(g.expr) for g in self.guards],
            "choice_vectors": [list(v) for v in self.vectors],
        }


def build_control_template(corpus, op: str) -> ControlTemplate:
    spec = corpus.spec_for(op)
    fixture = corpus.fixture_for(op)
    seq = corpus.sequence_for(op)
    producers = {}
    unfillable = []
    for p in spec.params:
        if p.container != "resource":
            continue
        producer = None
        if seq is not None:
            pos = seq.ops.index(op)
            for earlier in seq.ops[:pos]:
                other = corpus.spec_for(earlier)
                if any(o.entity == p.entity for o in other.outputs):
                    producer = earlier
                    break
        if producer is None:
            unfillable.append(p.name)
        else:
            producers[p.name] = producer
    return ControlTemplate(
        op=op,
        modes=tuple(corpus.modes),
        fixture=fixture.label if fixture else None,
        sequence=seq.ops if seq else None,
        position=seq.ops.index(op) if seq else 0,
        producers=producers,
        unfillable=tuple(unfillable),
    )


def _choice_vectors(n_guards: int, cap: int = 16) -> tuple:
    return tuple(itertools.islice(itertools.product((True, False), repeat=n_guards), cap))


def build_data_template(corpus, op: str) -> DataTemplate:
    spec = corpus.spec_for(op)
    tree = corpus.tree_for(op)
    branches = list(tree.branch_nodes())
    return DataTemplate(
        op=op,
        order=tuple(toposort_params(tree, spec)),
        constraints=list(tree.constraints),
        guards=[br.guard for br in branches],
        vectors=_choice_vectors(len(branches)),
    )


def describe_templates(corpus, op: str) -> dict:
    return {
        "control": build_control_template(corpus, op).as_json(),
        "data": build_data_template(corpus, op).as_json(),
    }


# -- residual substitution and hint extraction --


def _folds(e, bound, keep: str) -> bool:
    """Whether `e` is an atom over a bound param other than `keep`, with
    every val() index a literal or folding too: the names in `bound` fix
    its value."""
    return (
        type(e) in ATOM_TYPES
        and e.param != keep
        and e.param in bound
        and all(type(i) is Lit or _folds(i, bound, keep) for i in children(e))
    )


def _substitute_bound(expr, bound: dict, keep: str):
    """Replace atoms over already-bound params (except `keep`) with literals.

    Raises _EvalFail when a bound atom cannot evaluate (the constraint is
    already unsatisfiable regardless of `keep`).
    """
    return replace(expr, lambda e: Lit(value_of(e, bound)) if _folds(e, bound, keep) else None)


def _fold_atoms(expr, bound, keep: str) -> tuple:
    """The atoms `_substitute_bound(expr, ...)` replaces with literals, given
    only the names in `bound`: the residual is fixed by their values."""
    out = []

    def note(e):
        if _folds(e, bound, keep):
            out.append(e)  # a folded val() evaluates its indices itself
            return e
        return None

    replace(expr, note)
    return tuple(out)


_DEAD = object()  # fold-key entry: a bound atom failed, so the residual is dropped


def _value_key(v):
    """A memo key part that tells 1, True and 1.0 apart, and 0.0 from -0.0."""
    t = type(v)
    if t is int or t is str:
        return v
    return (t, repr(v)) if t is float else (t, v)


def _fold_key(folds, bound: dict) -> tuple:
    """The folded atoms' values: equal keys give equal residuals."""
    key = []
    for group in folds:
        mark = len(key)
        try:
            for atom in group:
                key.append(_value_key(value_of(atom, bound)))
        except _EvalFail:
            del key[mark:]
            key.append(_DEAD)
    return tuple(key)


_INF = float("inf")


@dataclass
class _Range:
    lo: float = -_INF
    hi: float = _INF
    pins: list = field(default_factory=list)
    avoids: set = field(default_factory=set)
    moduli: list = field(default_factory=list)

    def bound(self, op: str, v):
        """Narrow by `x op v`. A strict bound becomes the nearest value past
        `v`: the next int, or for a float the next double."""
        if op == "==":
            self.pins.append(v)
        elif op == "!=":
            self.avoids.add(v)
        elif op == ">=":
            self.lo = max(self.lo, v)
        elif op == ">":
            self.lo = max(self.lo, math.nextafter(v, _INF) if type(v) is float else v + 1)
        elif op == "<=":
            self.hi = min(self.hi, v)
        elif op == "<":
            self.hi = min(self.hi, math.nextafter(v, -_INF) if type(v) is float else v - 1)

    def admits(self, v) -> bool:
        if v in self.avoids:
            return False
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            if not (self.lo <= v <= self.hi):
                return False
            if self.moduli and isinstance(v, int):
                return all(m != 0 and v % m == 0 for m in self.moduli)
        return True


@dataclass
class _TensorHints:
    rank: _Range = field(default_factory=_Range)
    size: _Range = field(default_factory=_Range)
    dims: dict = field(default_factory=dict)  # axis -> _Range
    elems: _Range = field(default_factory=_Range)  # all-element and rank-0 val bounds
    at_index: dict = field(default_factory=dict)  # const idx tuple -> _Range
    val_arities: set = field(default_factory=set)
    max_dim_axis: int | None = None  # highest axis any dim() atom touches
    # the hints entry's `draw(rng)` for its param, built on first use
    drawer: object = field(default=None, repr=False, compare=False)

    def dim(self, axis: int) -> _Range:
        return self.dims.setdefault(axis, _Range())

    @cached_property
    def size_pins(self) -> list:
        return [v for v in self.size.pins if self.size.admits(v)]


def _hint_cmp(hints: _TensorHints, scalar: _Range, op: str, left, right, keep: str):
    # orient the keep-param atom to the left
    def is_keep_atom(e):
        return isinstance(e, ATOM_TYPES) and e.param == keep

    if not is_keep_atom(left) and is_keep_atom(right):
        left, right = right, left
        op = FLIP_CMP[op]
    if not isinstance(right, Lit) or not is_keep_atom(left):
        return _hint_modulo(hints, left, right, op, keep)
    v = right.value
    if isinstance(left, AttrRef):
        scalar.bound(op, v)
    elif isinstance(left, Ndim):
        hints.rank.bound(op, v)
    elif isinstance(left, Size):
        hints.size.bound(op, v)
    elif isinstance(left, Dim):
        hints.dim(left.axis).bound(op, v)
    elif left.idxs and all(isinstance(i, Lit) for i in left.idxs):
        idx = tuple(i.value for i in left.idxs)
        hints.at_index.setdefault(idx, _Range()).bound(op, v)
    else:
        hints.elems.bound(op, v)


def _hint_modulo(hints: _TensorHints, left, right, op: str, keep: str):
    if (
        op == "=="
        and isinstance(left, Arith)
        and left.op == "%"
        and isinstance(left.right, Lit)
        and isinstance(right, Lit)
        and right.value == 0
    ):
        inner, m = left.left, left.right.value
        if isinstance(m, int) and m > 0:
            if isinstance(inner, Dim) and inner.param == keep:
                hints.dim(inner.axis).moduli.append(m)
            elif isinstance(inner, Size) and inner.param == keep:
                hints.size.moduli.append(m)


def _collect_hints(exprs, keep: str) -> tuple:
    """(tensor hints, scalar range) read from resolved residual constraints."""
    hints = _TensorHints()
    scalar = _Range()
    for e in exprs:
        if isinstance(e, Cmp):
            _hint_cmp(hints, scalar, e.op, e.left, e.right, keep)
        elif isinstance(e, Forall) and isinstance(e.body, Cmp):
            body = e.body
            left, right, op = body.left, body.right, body.op

            def keep_val(x):
                return isinstance(x, Val) and x.param == keep and x.idxs == (Var(e.var),)

            if keep_val(left) and isinstance(right, Lit):
                hints.elems.bound(op, right.value)
                hints.val_arities.add(1)
            elif keep_val(right) and isinstance(left, Lit):
                hints.elems.bound(FLIP_CMP[op], left.value)
                hints.val_arities.add(1)
        for atom in atoms(e):
            if isinstance(atom, Val) and atom.param == keep:
                hints.val_arities.add(len(atom.idxs))
            elif isinstance(atom, Dim) and atom.param == keep:
                if hints.max_dim_axis is None or atom.axis > hints.max_dim_axis:
                    hints.max_dim_axis = atom.axis
    return hints, scalar


def _string_literals(tree: ConstraintTree) -> list:
    found = []
    for c in tree.all_constraints() + tree.all_guards():
        if not c.is_unliftable:
            for e in nodes(c.expr):
                if type(e) is Lit and isinstance(e.value, str) and e.value not in found:
                    found.append(e.value)
    return found


# -- candidate drawing --


def _int_candidates(rng_range: _Range, specials) -> list:
    lo, hi = rng_range.lo, rng_range.hi
    pins = [p for p in rng_range.pins if rng_range.admits(p)]
    if pins:
        return pins
    pool = [s for s in specials if rng_range.admits(s)]
    for m in rng_range.moduli:
        for k in (1, 2, 4):
            c = m * k
            if rng_range.admits(c) and c not in pool:
                pool.append(c)
    if not pool:
        base = int(lo) if lo != -_INF else 0
        top = int(hi) if hi != _INF else base + WINDOW - 1
        window = [v for v in range(base, min(base + WINDOW, top + 1)) if rng_range.admits(v)]
        pool = window or [int(lo) if lo != -_INF else math.floor(hi) if hi != _INF else 0]
    return pool


def _rank_pool(hints: _TensorHints, ndim_referenced: bool) -> list:
    """Ranks to draw from; a single entry is taken without the rng."""
    r = hints.rank
    # dim(p, k) references only evaluate when rank > k
    floor = 0 if hints.max_dim_axis is None else hints.max_dim_axis + 1
    pins = [v for v in r.pins if r.admits(v) and 0 <= v <= 6]
    if pins:
        return pins
    if len(hints.val_arities) == 1:
        arity = next(iter(hints.val_arities))
        if r.admits(arity) and arity >= floor:
            return [arity]
    base = (1, 2) if ndim_referenced else (0, 1, 2)
    pool = [v for v in base if r.admits(v) and v >= floor]
    return pool or [v for v in range(floor, 7) if r.admits(v)] or [max(floor, 1)]


def _axis_pool(hints: _TensorHints, axis: int) -> list:
    """Extents to draw for one axis of a shape."""
    pool = _int_candidates(hints.dims.get(axis, _Range()), EXTENT_SPECIALS)
    pool = [v for v in pool if v >= 0] or [1]
    if hints.size.lo >= 1 or hints.size_pins or hints.elems.pins or hints.at_index:
        pool = [v for v in pool if v > 0] or pool
    return pool


def _draw(rng, pool):
    """A pick from `pool`: `pool[_below(rng.getrandbits, len(pool))]`,
    inlined, or its one entry without the rng."""
    n = len(pool)
    if n < 2:
        return pool[0]
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return pool[r]


def _draws(rng, pool, n: int) -> list:
    """`[_draw(rng, pool) for _ in range(n)]`, with `_below` inlined."""
    m = len(pool)
    if m < 2:
        return [pool[0]] * n
    getbits, k, out = rng.getrandbits, m.bit_length(), []
    for _ in range(n):
        r = getbits(k)
        while r >= m:
            r = getbits(k)
        out.append(pool[r])
    return out


def _elem_pool(erange: _Range, dtype: DType, string_pool) -> list:
    if dtype is DType.DT_INT64:
        return _int_candidates(erange, INT_SPECIALS)
    if dtype is DType.DT_FLOAT:
        pins = [p for p in erange.pins if erange.admits(p)]
        if pins:
            return pins
        pool = [v for v in FLOAT_SPECIALS if erange.admits(v)]
        return pool or [float(erange.lo) if erange.lo != -_INF else float(erange.hi) if erange.hi != _INF else 0.0]
    if dtype is DType.DT_STRING:
        pins = [p for p in erange.pins if p not in erange.avoids]
        if pins:
            return pins
        pool = [s for s in string_pool if s not in erange.avoids]
        return pool or ["x"]
    if dtype is DType.DT_BOOL:
        pins = [p for p in erange.pins if p not in erange.avoids]
        return pins or [True, False]
    raise ValueError(f"no element pool for {dtype}")


def _fit_size(shape, hints: _TensorHints, n: int):
    """Adjust free axes so the product equals n, keeping pinned axes."""
    pinned = {}
    for axis, r in hints.dims.items():
        if axis < len(shape) and r.pins:
            pinned[axis] = r.pins[0]
    fixed = _product(pinned.values())
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


class _TensorDrawer:
    """One hints entry's tensor draw with its pools read once: the rank,
    then the axes (eight tries at an admitted size, then `_fit_size`'s
    fallbacks), then the elements, then the `at_index` overrides, each pick
    consuming the rng as one `_draw` from its pool."""

    def __init__(self, hints: _TensorHints, p, ndim_referenced: bool, fixture, string_pool):
        self.hints, self.dtype = hints, p.dtype
        self.ranks = _rank_pool(hints, ndim_referenced)
        self.axes = [_axis_pool(hints, axis) for axis in range(max(self.ranks))]
        size = hints.size
        self.size_free = size.lo == -_INF and size.hi == _INF and not size.avoids and not size.moduli
        self.size_pin = hints.size_pins[0] if hints.size_pins else None
        self.label = fixture if p.is_file and fixture else None  # a file param's every element
        if self.label is None:
            self.elems = _elem_pool(hints.elems, p.dtype, string_pool)
            self.at_index = [(idx, _elem_pool(r, p.dtype, string_pool)) for idx, r in hints.at_index.items()]
        # shapes drawn from the axis pools alone may skip TensorVal's checks
        self.trusted = p.dtype.is_tensor and all(type(v) is int and v >= 0 for pool in self.axes for v in pool)

    def draw(self, rng) -> TensorVal:
        rank = _draw(rng, self.ranks)
        shape, trusted = self._shape(rng, rank) if rank != 0 else ((), self.trusted)
        size, label = _product(shape), self.label
        if 0 <= size <= DENSE_ELEMENT_LIMIT:
            data, fill = [label] * size if label is not None else _draws(rng, self.elems, size), None
        else:
            data, fill = None, label if label is not None else _draw(rng, self.elems)
        t = TensorVal.trusted(self.dtype, shape, size, data, fill) if trusted else TensorVal(self.dtype, shape, data, fill)
        if label is None:
            for idx, pool in self.at_index:
                flat = _flat_of(shape, idx)
                if flat is not None:
                    t.flat_set(flat, _draw(rng, pool))
        return t

    def _shape(self, rng, rank: int) -> tuple:
        """(shape, whether `TensorVal.trusted` may take it)."""
        axes, pin = self.axes[:rank], self.size_pin
        for _ in range(8):
            shape = [_draw(rng, pool) for pool in axes]
            if pin is not None:
                shape = _fit_size(shape, self.hints, pin)
                if shape is None:
                    continue
            if self.size_free or self.hints.size.admits(_product(shape)):
                return tuple(shape), self.trusted and pin is None
        if pin is None:
            return tuple(shape), self.trusted
        # honest fallback: a shape meeting the size pin
        return tuple(_fit_size([1] * rank, self.hints, pin) or [1] * (rank - 1) + [max(pin, 0)]), False


# -- solve plans --


@dataclass
class _SolvePlan:
    """What solving one param against fixed exprs and bound names needs,
    beyond the bound values themselves."""

    resolved: list  # exprs over the param whose other params are all bound
    folds: tuple  # per resolved expr, its atoms over bound params
    ndim_referenced: bool  # some expr, resolved or not, reads ndim(param)
    memo: dict = field(default_factory=dict)  # fold key -> (tensor hints, scalar range)
    hints: tuple | None = None  # the one memo entry of a plan without folded atoms


class _ExprPlans:
    """The solve plans over one fixed list of constraint expressions,
    built on first use per (param, names already bound)."""

    def __init__(self, exprs: list, param_names, order_index: dict):
        self.exprs = exprs
        self.params = [params_of(e) & param_names for e in exprs]
        # each expr's latest-ordered param, the one repair re-solves
        self.lasts = [max(ps, key=order_index.__getitem__) if ps else None for ps in self.params]
        self.ndim_params = {a.param for e in exprs for a in atoms(e) if type(a) is Ndim}
        self.plans: dict = {}

    def plan(self, name: str, bound: dict) -> _SolvePlan:
        names = frozenset(bound)
        plan = self.plans.get((name, names))
        if plan is None:
            resolved = [e for e, ps in zip(self.exprs, self.params) if name in ps and ps - {name} <= names]
            folds = tuple(_fold_atoms(e, names, name) for e in resolved)
            plan = self.plans[(name, names)] = _SolvePlan(resolved, folds, name in self.ndim_params)
            if not any(folds):
                plan.hints = _collect_hints(resolved, name)
        return plan


@dataclass
class _VectorPlan:
    """One choice vector's active sets and the plans over them."""

    validation: list
    plans: _ExprPlans  # over the validation exprs, then the guard pins
    steps: list  # generate's (param, its solve plan or None for a resource), in order
    probes: dict = field(default_factory=dict)  # validation index -> plans with it negated


# -- the guided generator --


class GuidedGenerator:
    """Per-operator guided input factory; deterministic given an rng.

    Everything a draw needs that the data template fixes (the active
    constraints of each choice vector, which of them resolve for each
    param, and the hints read from them) is built once and cached in solve
    plans; a draw then only consumes the rng and tests candidates.
    """

    RETRIES = 6
    REPAIR_PASSES = 8

    def __init__(self, corpus, op: str):
        self.corpus = corpus
        self.op = op
        self.spec = corpus.spec_for(op)
        self.tree = corpus.tree_for(op)
        self.control = build_control_template(corpus, op)
        self.data = build_data_template(corpus, op)
        self.string_pool = tuple(_string_literals(self.tree)) + STRING_DEFAULTS
        self.params = {p.name: p for p in self.spec.params}
        self.param_names = set(self.params)
        self.order_index = {n: i for i, n in enumerate(self.data.order)}
        self.vector_plans: dict = {}  # vector index -> _VectorPlan

    @property
    def n_vectors(self) -> int:
        return len(self.data.vectors)

    def active_sets(self, vector) -> tuple:
        """(validation constraints, guard steering pins) for one choice vector."""
        validation = [c for c in self.tree.constraints if not c.is_unliftable]
        pins = []
        bit = 0

        def walk(branches, live: bool):
            nonlocal bit
            for br in branches:
                take = vector[bit] if bit < len(vector) else False
                bit += 1
                guard = br.guard
                if live and not guard.is_unliftable:
                    if take:
                        pins.append(guard.expr)
                    elif isinstance(guard.expr, Cmp):
                        pins.append(Cmp(NEGATE_CMP[guard.expr.op], guard.expr.left, guard.expr.right))
                if take and live:
                    validation.extend(c for c in br.constraints if not c.is_unliftable)
                walk(br.branches, live and take)

        walk(self.tree.branches, True)
        return validation, pins

    def plans_over(self, exprs: list) -> _ExprPlans:
        return _ExprPlans(exprs, self.param_names, self.order_index)

    def vector_plan(self, vec_index: int) -> _VectorPlan:
        vp = self.vector_plans.get(vec_index)
        if vp is None:
            validation, pins = self.active_sets(self.data.vectors[vec_index])
            plans = self.plans_over([c.expr for c in validation] + pins)
            order = self.data.order
            resource = {n for n, p in self.params.items() if p.container == "resource"}
            steps = [(n, None if n in resource else plans.plan(n, order[:i])) for i, n in enumerate(order)]
            vp = self.vector_plans[vec_index] = _VectorPlan(validation, plans, steps)
        return vp

    def generate(self, rng, iteration: int) -> tuple:
        """Returns (binding, vector index used)."""
        vec_index = (iteration - 1) % self.n_vectors
        vp = self.vector_plan(vec_index)
        binding = {}
        settled = set()
        for name, plan in vp.steps:
            if plan is None:
                binding[name] = self._draw_resource(rng, self.params[name])
                continue
            binding[name], held = self._solve(rng, name, plan, binding)
            if held:
                settled.add(name)
        self.repair(rng, binding, vp.plans, settled)
        return binding, vec_index

    # solving

    def _residuals(self, name: str, resolved, bound: dict) -> list:
        residuals = []
        for e in resolved:
            try:
                residuals.append(_substitute_bound(e, bound, name))
            except _EvalFail:
                continue  # dead constraint: an already-bound atom cannot evaluate
        return residuals

    def _hints(self, plan: _SolvePlan, name: str, bound: dict) -> tuple:
        """(tensor hints, scalar range) for `name` under `bound`, from the memo
        when the folded atoms had these values before."""
        key = _fold_key(plan.folds, bound)
        try:
            hit = plan.memo.get(key)
        except TypeError:  # an unhashable bound value: solve without the memo
            return _collect_hints(self._residuals(name, plan.resolved, bound), name)
        if hit is None:
            hit = plan.memo[key] = _collect_hints(self._residuals(name, plan.resolved, bound), name)
        return hit

    def _solve_param(self, rng, name: str, plans: _ExprPlans, bound: dict) -> tuple:
        """(value, whether it met every expr resolved for it)."""
        p = self.params[name]
        if p.container == "resource":
            return self._draw_resource(rng, p), False
        return self._solve(rng, name, plans.plan(name, bound), bound)

    def _solve(self, rng, name: str, plan: _SolvePlan, bound: dict) -> tuple:
        """`_solve_param` for a non-resource param on its plan.  Each
        candidate is scored in place, in `bound[name]`, which `bound` must
        not hold: it is deleted again after the test."""
        hints, scalar = plan.hints or self._hints(plan, name, bound)
        draw = hints.drawer
        if draw is None:
            p = self.params[name]
            if p.role == "attr":
                draw = partial(_draw, pool=_elem_pool(scalar, p.dtype.element, self.string_pool))
            else:
                draw = _TensorDrawer(hints, p, plan.ndim_referenced, self.control.fixture, self.string_pool).draw
            hints.drawer = draw
        resolved = plan.resolved
        full = len(resolved)
        best, best_score = None, -1
        for _ in range(self.RETRIES):
            value = bound[name] = draw(rng)
            score = 0
            for e in resolved:
                if evaluate(e, bound):
                    score += 1
            del bound[name]
            if score == full:
                return value, True
            if score > best_score:
                best, best_score = value, score
        return best, False

    def _draw_resource(self, rng, p) -> ResourceRef:
        wired = p.name in self.control.producers
        if wired:
            # live-heavy mix keeps sequences mostly coherent while still
            # probing every broken-handle state
            roll = _below(rng.getrandbits, 9)
            state = "live" if roll < 5 else _RESOURCE_STATES[roll - 5]
        else:
            state = _RESOURCE_STATES[_below(rng.getrandbits, 4)]
        return ResourceRef(p.entity, state)

    # repair

    def repair(self, rng, binding: dict, exprs, settled=frozenset()) -> bool:
        """Bounded fixpoint: re-solve the latest-ordered param of the first
        violated constraint.  True when everything holds at exit.

        `exprs` is a list of constraint expressions or the `_ExprPlans`
        over one.  The first pass takes as holding every expr whose
        latest-ordered param is in `settled`: that param's solve already
        tested it on these values, and every test passed.
        """
        plans = exprs if isinstance(exprs, _ExprPlans) else self.plans_over(list(exprs))
        exprs, lasts = plans.exprs, plans.lasts
        for _ in range(self.REPAIR_PASSES):
            for e, target in zip(exprs, lasts):
                if target not in settled and not evaluate(e, binding):
                    break
            else:
                return True
            if target is None:
                return False  # constant-false constraint; nothing to adjust
            others = {k: v for k, v in binding.items() if k != target}
            binding[target], _ = self._solve_param(rng, target, plans, others)
            settled = frozenset()
        for e in exprs:
            if not evaluate(e, binding):
                return False
        return True

    # violation probes

    def make_violation(self, rng, binding: dict, vec_index: int, probe_counter: int):
        """Flip exactly one active validation constraint; None if impossible."""
        vp = self.vector_plan(vec_index % self.n_vectors)
        targets = vp.validation  # active_sets leaves out unliftable constraints
        if not targets:
            return None
        all_exprs = vp.plans.exprs
        for k in range(len(targets)):
            i = (probe_counter + k) % len(targets)
            c = targets[i]
            mutated = self._violate_one(rng, binding, vp, i)
            if mutated is None:
                continue
            for e in all_exprs:
                if e is not c.expr and not evaluate(e, mutated):
                    break
            else:
                if not evaluate(c.expr, mutated):
                    return mutated, c
        return None

    def _violate_one(self, rng, binding: dict, vp: _VectorPlan, i: int):
        expr = vp.validation[i].expr
        target = vp.plans.lasts[i]  # the validation exprs lead the plans' list
        if target is None:
            return None
        new = dict(binding)
        if isinstance(expr, Forall):
            return self._violate_forall(rng, new, expr)
        if not isinstance(expr, Cmp):
            return None
        plans = vp.probes.get(i)
        if plans is None:
            negated = Cmp(NEGATE_CMP[expr.op], expr.left, expr.right)
            plans = vp.probes[i] = self.plans_over([e for e in vp.plans.exprs if e is not expr] + [negated])
        others = {k: v for k, v in new.items() if k != target}
        new[target], _ = self._solve_param(rng, target, plans, others)
        return new

    def _violate_forall(self, rng, new: dict, expr: Forall):
        body = expr.body
        if not isinstance(body, Cmp):
            return None
        val_atom = None
        for side in (body.left, body.right):
            if isinstance(side, Val) and side.idxs == (Var(expr.var),):
                val_atom = side
        if val_atom is None:
            return None
        tensor = new.get(val_atom.param)
        if not isinstance(tensor, TensorVal) or tensor.size <= 0:
            return None
        # solve a single element against the negated body
        erange = _Range()
        other = body.right if val_atom is body.left else body.left
        if not isinstance(other, Lit):
            try:
                other = Lit(value_of(other, new))
            except Exception:
                return None
        op = body.op if val_atom is body.left else FLIP_CMP[body.op]
        erange.bound(NEGATE_CMP[op], other.value)
        pool = _elem_pool(erange, tensor.dtype, self.string_pool)
        bad = _draw(rng, pool)
        clone = _clone_tensor(tensor)
        clone.flat_set(0, bad)
        new[val_atom.param] = clone
        return new


def _flat_of(shape: tuple, idx: tuple):
    if len(idx) != len(shape):
        return None
    flat = 0
    for i, extent in zip(idx, shape):
        if not (0 <= i < extent):
            return None
        flat = flat * extent + i
    return flat


def _clone_tensor(t: TensorVal) -> TensorVal:
    if t.data is not None:
        return TensorVal(t.dtype, t.shape, data=list(t.data))
    clone = TensorVal(t.dtype, t.shape, fill=t.fill)
    clone.overrides.update(t.overrides)
    return clone


# -- random baseline --

_RESOURCE_STATES = ("null", "fresh", "filled", "closed")
_CHAR_COUNT = len(RANDOM_STRING_CHARS)
_CHAR_BITS = _CHAR_COUNT.bit_length()


def _below(getbits, n: int) -> int:
    """`randrange(n)` for n > 0, drawn from `getbits` (a `getrandbits`)."""
    k = n.bit_length()
    r = getbits(k)
    while r >= n:
        r = getbits(k)
    return r


def _random_int64(getbits) -> int:
    """`randint(INT64_MIN, INT64_MAX)`: `_below(getbits, 2**64)`, inlined."""
    r = getbits(65)
    while r >= 2**64:
        r = getbits(65)
    return INT64_MIN + r


def _random_string(getbits) -> str:
    chars = []
    for _ in range(_below(getbits, 17)):
        r = getbits(_CHAR_BITS)
        while r >= _CHAR_COUNT:
            r = getbits(_CHAR_BITS)
        chars.append(RANDOM_STRING_CHARS[r])
    return "".join(chars)


def _random_elements(rng, dtype: DType, size: int) -> list:
    getbits = rng.getrandbits
    if dtype is DType.DT_INT64:
        return [_random_int64(getbits) for _ in range(size)]
    if dtype is DType.DT_FLOAT:
        # uniform(-1e18, 1e18); the span 2e18 is exact in a double
        random = rng.random
        return [-1e18 + 2e18 * random() for _ in range(size)]
    if dtype is DType.DT_STRING:
        return [_random_string(getbits) for _ in range(size)]
    if dtype is DType.DT_BOOL:
        return [_below(getbits, 2) == 1 for _ in range(size)]
    if size:
        raise ValueError(f"no random element for {dtype}")
    return []


def generate_random(spec, rng) -> dict:
    """Structure-blind baseline draw; pure in (spec, rng state)."""
    getbits = rng.getrandbits
    binding = {}
    for p in spec.params:
        if p.container == "resource":
            binding[p.name] = ResourceRef(p.entity, _RESOURCE_STATES[_below(getbits, 4)])
        elif p.role == "attr":
            binding[p.name] = _random_elements(rng, p.dtype.element, 1)[0]
        else:
            rank = _below(getbits, 5)
            shape = tuple([_below(getbits, 9) for _ in range(rank)])
            size = _product(shape)  # at most 8**4 elements, far below EAGER_ELEMENT_CAP
            data = _random_elements(rng, p.dtype, size)
            if p.dtype.is_tensor:
                binding[p.name] = TensorVal.trusted(p.dtype, shape, size, data)
            else:
                binding[p.name] = TensorVal(p.dtype, shape, data=data)  # raises, as it checks the dtype
    return binding
