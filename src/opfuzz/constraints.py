"""Lifted constraint language over frontend parameter names.

Expressions are trees over the atoms ndim(p), dim(p, k), size(p),
val(p, idx...), bare attr references, and literals, combined with
arithmetic and comparisons, optionally under a single forall quantifier
with half-open bounds.  Evaluation is total: an out-of-range atom or a
zero divisor makes the enclosing constraint false rather than raising,
because a check that would fail at runtime is a failed check.

Every walk over an expression goes through one traversal core: `children`
lists a node's sub-expressions left to right (the two operands of `Arith`
and `Cmp`, the indices of `Val`, the bounds and body of `Forall`),
`rebuild` makes the same node over new children, and `nodes`, `atoms` and
`replace` are the pre-order iteration and top-down rewrite built on them.
The grammar keeps a `Forall` at the top of a constraint only, always over
a `Cmp` body: the parser and the extractor build no other shape, so a walk
never meets a quantifier nested inside another expression.

Arithmetic is the kernel VM's (`vm._bin_op`: checked signed 64-bit ints,
C-style `/` and `%`, IEEE floats) and comparison is the VM's `_CMP` table.
The evaluator keeps its own operand rule in front of them, in `_arith`: a
bool or a non-number operand makes the constraint false, where the VM
raises `EngineError`; an int mixed with a float is promoted to floats, as
Python's mixed arithmetic does, where the VM raises too, and an int too
large for a float makes the constraint false; and an overflow or a zero
divisor, a crash in the VM, makes the constraint false.  A str
equals only a str, and only numbers (bools among them) are ordered: an
ordering with any other operand is false.

The lowering in `_Lowering` is the package's one semantics of the
language.  `evaluate` runs compiled predicates.  On its first evaluation an
expression is lowered into the source of one flat function `pred(b)` over
the binding `b`, compiled, and cached on the expression node, so it lives
as long as the expression.  Each atom becomes a local and each way to fail
an early `return False`; `+ - *` on two operands that are always exact ints is
checked inline against the int64 range, and every other operation goes
through `_arith`.  A `Forall` becomes a `for` loop; where its variable only
ever is a whole val() index, a range over 10,000 loops over the indices
`_probes` picks instead, one per distinct element.  Any other `Forall`
is false, before its first index, over a range longer than `vm._STEP_CAP`:
a check that cannot be made is false, and the kernel's own loop, which
runs at least one step per index, has hit that step cap first.  A range
just under the cap whose kernel loop takes several steps per index can
still pass here and fail the kernel.  No corpus text reaches
the generated source: param names, str and float literals, messages and
the quantifier's tensors are names in the function's globals, and the
source holds only names the compiler makes up, the grammar's operators and
ints.  `evaluate_tree` calls `evaluate` once per constraint and guard it
visits.  `value_of` reads a value expression (an atom or arithmetic) the
same way: lowered in value mode into a function `value(b)`, cached on the
node beside its predicate, where each way to fail returns `_FAIL`, which
`value_of` raises as `_EvalFail`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache

from .kernel import vm
from .kernel.ir import INT64_MAX, INT64_MIN, TensorVal
from .kernel.parser import ARITH_LEVELS, Tokens, token_pattern
from .kernel.vm import _CMP, _CrashSignal, _bin_op

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

# Table-style attribute buckets, most-specific first for mixed-atom constraints
ATTR_PRECEDENCE = ("ndim", "shape", "size", "value", "dtype")


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class Lit:
    value: object  # int | float | str | bool


@dataclass(frozen=True)
class AttrRef:
    param: str


@dataclass(frozen=True)
class Ndim:
    param: str


@dataclass(frozen=True)
class Dim:
    param: str
    axis: int


@dataclass(frozen=True)
class Size:
    param: str


@dataclass(frozen=True)
class Val:
    param: str
    idxs: tuple = ()


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Arith:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: str
    lo: object
    hi: object
    body: object


@dataclass(frozen=True)
class Unliftable:
    note: str


@dataclass
class Constraint:
    """One lifted predicate plus its kernel provenance."""

    expr: object
    block: int = -1
    message: str = ""

    @property
    def is_unliftable(self) -> bool:
        return isinstance(self.expr, Unliftable)


@dataclass
class LogicalNode:
    guard: Constraint
    constraints: list = field(default_factory=list)
    branches: list = field(default_factory=list)


@dataclass
class ConstraintTree:
    kernel_id: str
    constraints: list = field(default_factory=list)
    branches: list = field(default_factory=list)
    skipped_mixed_loops: int = 0
    skipped_untainted: int = 0

    def branch_nodes(self):
        """Every branch node, pre-order, left to right."""
        stack = self.branches[::-1]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.branches))

    def all_constraints(self):
        """Every validation constraint, root and branch-nested."""
        return self.constraints + [c for node in self.branch_nodes() for c in node.constraints]

    def all_guards(self):
        return [node.guard for node in self.branch_nodes()]


# -- traversal core --

# the atoms over one parameter; a val()'s indices are its children
ATOM_TYPES = (AttrRef, Ndim, Size, Dim, Val)


def children(expr) -> tuple:
    """The sub-expressions of `expr`, left to right."""
    t = type(expr)
    if t is Arith or t is Cmp:
        return (expr.left, expr.right)
    if t is Val:
        return expr.idxs
    if t is Forall:
        return (expr.lo, expr.hi, expr.body)
    return ()


def rebuild(expr, kids):
    """`expr` with its children, in `children` order, replaced by `kids`."""
    t = type(expr)
    if t is Arith or t is Cmp:
        return t(expr.op, *kids)
    if t is Val:
        return Val(expr.param, tuple(kids))
    if t is Forall:
        return Forall(expr.var, *kids)
    return expr


def nodes(expr):
    """Every node of `expr`, pre-order, left to right."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))


def atoms(expr):
    """The atom nodes of `expr`, a val()'s index atoms included, pre-order."""
    return (e for e in nodes(expr) if isinstance(e, ATOM_TYPES))


def replace(expr, f):
    """Rebuild `expr` top-down: a node for which `f` returns a node becomes
    that node, unvisited below; every other node is rebuilt over its
    replaced children."""
    new = f(expr)
    if new is not None:
        return new
    kids = children(expr)
    return rebuild(expr, [replace(k, f) for k in kids]) if kids else expr


# -- evaluation --


class _EvalFail(Exception):
    """Internal: atom out of range or bad arithmetic; constraint is false."""


def _param(binding: dict, name: str):
    try:
        return binding[name]
    except KeyError:
        raise ConstraintError(f"binding missing param {name!r}")


def _tensor(binding: dict, name: str) -> TensorVal:
    v = _param(binding, name)
    if not isinstance(v, TensorVal):
        raise _EvalFail()
    return v


def _var_only_in_val_indices(expr, var: str) -> bool:
    """True when every Var(var) occurrence is a whole val() index."""
    v = Var(var)
    uses = sum(1 for e in nodes(expr) if e == v)
    return uses == sum(e.idxs.count(v) for e in nodes(expr) if type(e) is Val)


# -- compiled predicates --

_FAIL = object()  # `_arith`'s result where the constraint is false


def _arith(op: str, a, b):
    """The evaluator's operand rule in front of the VM's arithmetic."""
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return _FAIL
    try:
        if isinstance(a, float) is not isinstance(b, float):
            a, b = float(a), float(b)
        return _bin_op(op, a, b)
    except (_CrashSignal, OverflowError):  # IOF or FPE, or an int too large for a float
        return _FAIL


def _probes(b: dict, lo: int, hi: int, params: tuple):
    """The indices a forall over more than 10,000 of them must check when
    its variable only ever is a whole val() index into the tensors `params`;
    None when one of them cannot be indexed so.

    The body's truth at an index depends only on the elements loaded there,
    so one index per distinct element suffices: for fill-backed tensors the
    first index plus each point override.
    """
    tensors = []
    for p in params:
        try:
            t = _tensor(b, p)
        except _EvalFail:
            return None
        if t.rank != 1 or lo < 0 or hi > t.shape[0]:
            return None
        tensors.append(t)
    if any(t.data is not None for t in tensors):
        return range(lo, hi)  # campaigns draw no dense data this large, but walk it all if it comes
    return sorted({lo, *(flat for t in tensors for flat in t.overrides if lo <= flat < hi)})


def _int_typed(e) -> bool:
    """Whether the value of `e`, where it has one, is always an exact int."""
    t = type(e)
    if t is Lit:
        return type(e.value) is int
    if t is Arith:
        return e.op in ARITH_LEVELS and _int_typed(e.left) and _int_typed(e.right)
    return t is Var or t is Ndim or t is Size or t is Dim


def _type_test(e, code: str, number: bool) -> str:
    """Source for whether the value `code` of `e` is a number (an int or a
    float) or, with `number` false, a str."""
    types, name = ((int, float), "(int, float)") if number else (str, "str")
    if type(e) is Lit:
        return str(isinstance(e.value, types))
    return str(number) if type(e) is Arith or _int_typed(e) else f"isinstance({code}, {name})"


class _Lowering:
    """The body of one `pred(b)`, or in value mode of one `value(b)`: each
    atom a local, each failure an early `return False` (`return _FAIL` in
    value mode), and every value from the corpus a name in `ns`."""

    def __init__(self, fail: str = "False"):
        self.ns = {"_T": TensorVal, "_CE": ConstraintError, "_arith": _arith, "_FAIL": _FAIL, "_CMP": _CMP, "_probes": _probes, "_vm": vm}
        self.lines = []
        self.pad = "    "
        self.n = 0
        self.fail = fail

    def emit(self, line: str):
        self.lines.append(self.pad + line)

    def fail_if(self, cond: str):
        self.emit(f"if {cond}: return {self.fail}")

    def name(self) -> str:
        self.n += 1
        return f"v{self.n}"

    def local(self, code: str) -> str:
        v = self.name()
        self.emit(f"{v} = {code}")
        return v

    def const(self, value) -> str:
        if type(value) is int:
            return repr(value)
        k = f"k{len(self.ns)}"
        self.ns[k] = value
        return k

    def raise_(self, message: str) -> str:
        self.emit(f"raise _CE({self.const(message)})")
        return "None"

    def param(self, p: str, scope: dict) -> str:
        if ("param", p) not in scope:
            v = scope["param", p] = self.name()
            self.emit(f"try: {v} = b[{self.const(p)}]")
            self.emit(f"except KeyError: raise _CE({self.const(f'binding missing param {p!r}')})")
        return scope["param", p]

    def tensor(self, p: str, scope: dict) -> str:
        v = self.param(p, scope)
        if ("tensor", p) not in scope:
            scope["tensor", p] = v
            self.fail_if(f"not isinstance({v}, _T)")
        return v

    def value(self, e, scope: dict) -> str:
        t = type(e)
        if t is Lit:
            return self.const(e.value)
        if t is Var:
            return scope.get(("var", e.name)) or self.raise_(f"unbound quantifier variable {e.name!r}")
        if t is AttrRef:
            return self.param(e.param, scope)
        if t is Ndim or t is Size or t is Dim or t is Val:
            x = self.tensor(e.param, scope)
            if t is Ndim:
                return self.local(f"len({x}.shape)")
            if t is Size:
                return self.local(f"{x}.size")
            if t is Dim:
                ax = self.const(e.axis)
                self.fail_if(f"{ax} < 0 or {ax} >= len({x}.shape)")
                return self.local(f"{x}.shape[{ax}]")
            idxs = [self.value(i, scope) for i in e.idxs]
            self.fail_if(f"len({x}.shape) != {len(idxs)}")
            flat = "0"  # an index in range on every axis leaves no extent below 1
            for k, (i, ix) in enumerate(zip(e.idxs, idxs)):
                if not _int_typed(i):
                    self.fail_if(f"not isinstance({ix}, int)")
                self.fail_if(f"{ix} < 0 or {ix} >= {x}.shape[{k}]")
                flat = ix if k == 0 else self.local(f"{flat} * {x}.shape[{k}] + {ix}")
            return self.local(f"{x}.flat_get({flat})")
        if t is Arith:
            a, c = self.value(e.left, scope), self.value(e.right, scope)
            if e.op in ("+", "-", "*") and _int_typed(e.left) and _int_typed(e.right):
                r = self.local(f"{a} {e.op} {c}")
                self.fail_if(f"{r} < {INT64_MIN} or {r} > {INT64_MAX}")
            else:
                r = self.local(f"_arith({self.const(e.op)}, {a}, {c})")
                self.fail_if(f"{r} is _FAIL")
            return r
        return self.raise_(f"cannot evaluate {t.__name__} as a value")

    def pred(self, e, scope: dict):
        """Lines that return False where `e` fails and fall through where it holds."""
        t = type(e)
        if t is Cmp:
            a, c = self.value(e.left, scope), self.value(e.right, scope)
            if e.op in ("==", "!="):
                sa, sc = _type_test(e.left, a, False), _type_test(e.right, c, False)
                if sa != sc:  # a str equals only a str
                    self.fail_if(f"{sa} != {sc}")
            else:  # only numbers are ordered
                for side, code in ((e.left, a), (e.right, c)):
                    test = _type_test(side, code, True)
                    if test != "True":
                        self.fail_if(f"not {test}")
            self.fail_if(f"not {a} {e.op} {c}" if e.op in CMP_OPS else f"not _CMP[{self.const(e.op)}]({a}, {c})")
        elif t is Forall:
            lo, hi = self.value(e.lo, scope), self.value(e.hi, scope)
            for bound, code in ((e.lo, lo), (e.hi, hi)):
                if not _int_typed(bound):
                    self.fail_if(f"not isinstance({code}, int)")
            if not _var_only_in_val_indices(e.body, e.var):
                # a range the kernel could not walk within its step cap either
                self.fail_if(f"{hi} - {lo} > _vm._STEP_CAP")
                span = f"range({lo}, {hi})"
            else:
                whole = (Var(e.var),)
                params = self.const(tuple(a.param for a in nodes(e.body) if type(a) is Val and a.idxs == whole))
                span = self.local(f"range({lo}, {hi}) if {hi} - {lo} <= 10000 else _probes(b, {lo}, {hi}, {params})")
                self.fail_if(f"{span} is None")
            v = self.name()
            self.emit(f"for {v} in {span}:")
            self.pad += "    "
            self.pred(e.body, {**scope, ("var", e.var): v})
            self.pad = self.pad[:-4]
        elif t is Unliftable or (t is Lit and isinstance(e.value, bool)):
            # an opaque check cannot guide anything: assume it satisfiable
            self.emit("return False" if t is Lit and not e.value else "pass")
        else:
            self.raise_(f"cannot evaluate {t.__name__} as a predicate")


@lru_cache(maxsize=512)
def _code(source: str):
    return compile(source, "<constraint>", "exec")


def _compile(expr, name: str):
    """`expr`'s function `name`, "pred" or "value", cached on the node as
    `_pred` or `_value` on first use."""
    if name == "pred":
        low = _Lowering()
        low.pred(expr, {})
        result = "True"
    else:
        low = _Lowering("_FAIL")
        result = low.value(expr, {})
    ns = low.ns
    exec(_code(f"def {name}(b):\n" + "\n".join(low.lines) + f"\n    return {result}\n"), ns)
    try:
        object.__setattr__(expr, "_" + name, ns[name])
    except AttributeError:
        pass  # not a node: its function only raises
    return ns[name]


def evaluate(expr, binding: dict) -> bool:
    """Truth of one constraint expression under a concrete binding."""
    try:
        pred = expr._pred
    except AttributeError:
        pred = _compile(expr, "pred")
    return pred(binding)


def value_of(expr, binding: dict):
    """The value of one value expression under a concrete binding; raises
    _EvalFail where it has none (an atom out of range, bad arithmetic)."""
    try:
        f = expr._value
    except AttributeError:
        f = _compile(expr, "value")
    v = f(binding)
    if v is _FAIL:
        raise _EvalFail()
    return v


def evaluate_tree(tree: ConstraintTree, binding: dict) -> bool:
    """Whole-tree truth: root conjunction, branch children gated by guards."""
    return _node_holds(tree.constraints, tree.branches, binding)


def _node_holds(constraints, branches, binding: dict) -> bool:
    for c in constraints:
        if not evaluate(c.expr, binding):
            return False
    for br in branches:
        if evaluate(br.guard.expr, binding) and not _node_holds(br.constraints, br.branches, binding):
            return False
    return True


# -- rendering and normalization --


def render(expr) -> str:
    if isinstance(expr, Lit):
        if isinstance(expr.value, str):
            return '"' + expr.value + '"'
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, float) and not math.isfinite(expr.value):
            raise ConstraintError(f"cannot render the non-finite float {expr.value!r}")
        text = repr(expr.value)
        if "e" in text:  # the grammar reads no exponent: write the float positionally
            text = format(Decimal(text), "f")
            text += "" if "." in text else ".0"
        return text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, AttrRef):
        return expr.param
    if isinstance(expr, Ndim):
        return f"ndim({expr.param})"
    if isinstance(expr, Size):
        return f"size({expr.param})"
    if isinstance(expr, Dim):
        return f"dim({expr.param}, {expr.axis})"
    if isinstance(expr, Val):
        if expr.idxs:
            return f"val({expr.param}, " + ", ".join(render(i) for i in expr.idxs) + ")"
        return f"val({expr.param})"
    if isinstance(expr, Arith):
        return f"{_render_operand(expr.left, expr.op)} {expr.op} {_render_operand(expr.right, expr.op, right=True)}"
    if isinstance(expr, Cmp):
        return f"{render(expr.left)} {expr.op} {render(expr.right)}"
    if isinstance(expr, Forall):
        return f"forall {expr.var} in [{render(expr.lo)}, {render(expr.hi)}): {render(expr.body)}"
    if isinstance(expr, Unliftable):
        return f"unliftable({expr.note})"
    raise ConstraintError(f"cannot render {expr!r}")


def _render_operand(child, parent_op: str, right: bool = False) -> str:
    """Parenthesize a child the left-associative grammar would regroup: one
    of lower precedence, or on the right one of equal precedence."""
    text = render(child)
    if isinstance(child, Arith) and ARITH_LEVELS[child.op] < ARITH_LEVELS[parent_op] + right:
        return f"({text})"
    return text


NEGATE_CMP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
# the operator that keeps a comparison true with its operands swapped
FLIP_CMP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _fold(expr):
    """Bottom-up constant folding of arithmetic over two literals."""
    kids = children(expr)
    if not kids:
        return expr
    expr = rebuild(expr, [_fold(k) for k in kids])
    if type(expr) is Arith and type(expr.left) is Lit and type(expr.right) is Lit:
        value = _arith(expr.op, expr.left.value, expr.right.value)
        if value is not _FAIL and (not isinstance(value, float) or math.isfinite(value)):  # the grammar writes no inf or nan
            return Lit(value)
    return expr


def normalize(expr):
    """Canonical form: folded, < and <= flipped, ==/!= lex-ordered, var -> i."""
    expr = _fold(expr)
    if isinstance(expr, Forall):
        body = expr.body
        if expr.var != "i":
            old = Var(expr.var)
            body = replace(body, lambda e: Var("i") if e == old else None)
        return Forall("i", normalize(expr.lo), normalize(expr.hi), normalize(body))
    if isinstance(expr, Cmp):
        left, right, op = expr.left, expr.right, expr.op
        if op in ("<", "<="):
            left, right = right, left
            op = FLIP_CMP[expr.op]
        if op in ("==", "!=") and render(right) < render(left):
            left, right = right, left
        return Cmp(op, left, right)
    return expr


def normal_form(expr) -> str:
    return render(normalize(expr))


# -- tree serialization and parsing --


def serialize_tree(tree: ConstraintTree) -> str:
    lines = []

    def walk(constraints, branches, depth):
        pad = "  " * depth
        for c in constraints:
            lines.append(pad + render(c.expr))
        for br in branches:
            lines.append(pad + "branch: " + render(br.guard.expr))
            walk(br.constraints, br.branches, depth + 1)

    walk(tree.constraints, tree.branches, 0)
    return "\n".join(lines) + ("\n" if lines else "")


_TOKENS = token_pattern(
    r'(?P<str>"[^"]*")|(?P<num>\d[\d.]*)|(?P<ident>[A-Za-z_]\w*)|(?P<op>==|!=|<=|>=|[+\-*/%<>()\[\],:])',
    skip=r"[ \t]*",
)
_CONVERT = {"str": lambda s: s[1:-1], "num": lambda s: float(s) if "." in s else int(s)}


def _lex_error(message: str, line: int, col: int) -> ConstraintError:
    return ConstraintError(f"{message} in constraint text")


class _ExprParser(Tokens):
    """Recursive-descent parser for the lifted grammar (golden-file syntax)."""

    ATOMS = ("ndim", "size", "dim", "val")

    def __init__(self, text: str, quant_vars=()):
        super().__init__(text, _TOKENS, _CONVERT, _lex_error)
        self.quant_vars = set(quant_vars)

    def fail(self, message: str, tok=None):
        raise ConstraintError(message)  # constraint text is one line: no position

    def parse_constraint(self):
        if self.at("ident", "forall"):
            return self.parse_forall()
        return self.parse_cmp()

    def parse_forall(self):
        self.expect("ident", "forall")
        var = self.expect("ident")
        self.expect("ident", "in")
        self.expect("op", "[")
        lo = self.parse_arith()
        self.expect("op", ",")
        hi = self.parse_arith()
        self.expect("op", ")")
        self.expect("op", ":")
        self.quant_vars.add(var)
        body = self.parse_cmp()
        self.quant_vars.discard(var)
        return Forall(var, lo, hi, body)

    def parse_cmp(self):
        left = self.parse_arith()
        if not self.at("op", *CMP_OPS):
            self.fail("constraint must be a comparison")
        return Cmp(self.next()[1], left, self.parse_arith())

    def parse_arith(self):
        return self.climb("op", ARITH_LEVELS, self.parse_factor, lambda tok, left, right: Arith(tok[1], left, right))

    def parse_factor(self):
        k, v, *_ = self.peek()
        if k == "num":
            self.next()
            return Lit(v)
        if k == "str":
            self.next()
            return Lit(v)
        if k == "op" and v == "-":
            sign = self.next()
            k, v, at = self.peek()
            if k == "num" and at == sign[2] + 1:
                # a sign written against its number belongs to the literal, so
                # -0.0 keeps its sign and INT64_MIN its value; `- 0` folds
                self.next()
                return Lit(-v)
            return _fold(Arith("-", Lit(0), self.parse_factor()))
        if k == "op" and v == "(":
            self.next()
            e = self.parse_arith()
            self.expect("op", ")")
            return e
        if k == "ident":
            self.next()
            if v in self.ATOMS and self.at("op", "("):
                return self.parse_atom(v)
            if v in ("true", "false"):
                return Lit(v == "true")
            if v in self.quant_vars:
                return Var(v)
            return AttrRef(v)
        self.fail(f"unexpected token {v!r} in constraint text")

    def parse_atom(self, kind):
        self.expect("op", "(")
        param = self.expect("ident")
        if kind in ("ndim", "size"):
            self.expect("op", ")")
            return Ndim(param) if kind == "ndim" else Size(param)
        if kind == "dim":
            self.expect("op", ",")
            axis = self.parse_arith()
            self.expect("op", ")")
            if not isinstance(axis, Lit) or type(axis.value) is not int:
                self.fail("dim() axis must be an integer literal")
            return Dim(param, axis.value)
        idxs = []
        while self.at("op", ","):
            self.next()
            idxs.append(self.parse_arith())
        self.expect("op", ")")
        return Val(param, tuple(idxs))

    def finish(self, expr):
        if not self.at("eof"):
            self.fail(f"trailing tokens after constraint: {self.peek()[1]!r}")
        return expr


def parse_constraint(text: str):
    p = _ExprParser(text)
    return p.finish(p.parse_constraint())


def parse_tree(text: str, kernel_id: str = "") -> ConstraintTree:
    """Parse the line-oriented golden format back into a tree."""
    tree = ConstraintTree(kernel_id)
    # stack of (depth, constraints_list, branches_list)
    stack = [(0, tree.constraints, tree.branches)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2 != 0:
            raise ConstraintError(f"line {lineno}: odd indentation")
        depth = indent // 2
        while stack and stack[-1][0] > depth:
            stack.pop()
        if not stack or stack[-1][0] != depth:
            raise ConstraintError(f"line {lineno}: indentation skips a level")
        _, constraints, branches = stack[-1]
        body = raw.strip()
        try:
            expr = parse_constraint(body.removeprefix("branch:"))
        except ConstraintError as e:
            raise ConstraintError(f"line {lineno}: {e}") from None
        if body.startswith("branch:"):
            node = LogicalNode(Constraint(expr))
            branches.append(node)
            stack.append((depth + 1, node.constraints, node.branches))
        else:
            constraints.append(Constraint(expr))
    return tree


def tree_equal(a: ConstraintTree, b: ConstraintTree) -> bool:
    """Structural equality up to normalization and per-node ordering."""

    def node_key(constraints, branches):
        cset = frozenset(normal_form(c.expr) for c in constraints)
        bset = []
        for br in branches:
            bset.append((normal_form(br.guard.expr), node_key(br.constraints, br.branches)))
        return (cset, frozenset(bset))

    return node_key(a.constraints, a.branches) == node_key(b.constraints, b.branches)


# -- parameter dependency ordering --


def params_of(expr) -> set:
    return {a.param for a in atoms(expr)}


def _bare_source(expr):
    """A side usable as a generation source: attr-ref, size, or ndim atom."""
    if isinstance(expr, (AttrRef, Size, Ndim)):
        return expr.param
    return None


def toposort_params(tree: ConstraintTree, spec) -> list:
    """Order parameters so constraint sources are generated before targets.

    Two edge rules: an equality `f(p) == g(q)` with a bare attr/size/ndim
    side q makes every other referenced param depend on q; and any
    constraint mixing attrs with tensor params makes the tensors depend on
    the attrs (attr values parameterize tensor construction, never the
    reverse).  Ready ties resolve attrs first, then declaration order.
    """
    import logging

    names = [p.name for p in spec.params]
    decl_index = {n: i for i, n in enumerate(names)}
    is_attr = {p.name: p.role == "attr" for p in spec.params}
    deps: dict[str, set] = {n: set() for n in names}

    exprs = [c.expr for c in tree.all_constraints() if not isinstance(c.expr, Unliftable)]
    exprs += [g.expr for g in tree.all_guards() if not isinstance(g.expr, Unliftable)]
    for expr in exprs:
        referenced = {p for p in params_of(expr) if p in deps}
        if len(referenced) < 2:
            continue
        if isinstance(expr, Cmp) and expr.op == "==":
            sources = [s for s in (_bare_source(expr.left), _bare_source(expr.right)) if s in referenced]
            if len(sources) == 2 and sources[0] != sources[1]:
                # both sides bare: the attr side is the source (scalars
                # parameterize tensors), then earlier declaration wins
                src, dst = sorted(sources, key=lambda n: (0 if is_attr[n] else 1, decl_index[n]))
                deps[dst].add(src)
            elif len(sources) >= 1:
                src = sources[0]
                for p in referenced:
                    if p != src:
                        deps[p].add(src)
        attrs = {p for p in referenced if is_attr[p]}
        tensors = referenced - attrs
        for t in tensors:
            deps[t] |= attrs

    order = []
    placed = set()
    remaining = set(names)
    warned = False
    while remaining:
        ready = [n for n in remaining if deps[n] <= placed]
        if not ready:
            if not warned:
                logging.getLogger(__name__).warning(
                    "constraint dependency cycle among %s; falling back to declaration order", sorted(remaining)
                )
                warned = True
            ready = list(remaining)
        nxt = min(ready, key=lambda n: (0 if is_attr[n] else 1, decl_index[n]))
        order.append(nxt)
        placed.add(nxt)
        remaining.discard(nxt)
    return order


# -- taxonomy classification --


@dataclass
class ConstraintStats:
    by_category: dict
    single_param: dict
    param_pairs: dict

    def as_json(self) -> dict:
        return {
            "by_category": dict(sorted(self.by_category.items())),
            "single_param": dict(sorted(self.single_param.items())),
            "param_pairs": dict(sorted(self.param_pairs.items())),
        }


_ATTR_OF_ATOM = {Ndim: "ndim", Dim: "shape", Size: "size", Val: "value", AttrRef: "value"}


def _param_attrs(expr) -> dict:
    """param -> attribute bucket, most specific kept, quantifier bounds skipped."""
    out: dict[str, str] = {}
    # bounds are loop machinery, not the checked predicate
    for a in atoms(expr.body if type(expr) is Forall else expr):
        attr = _ATTR_OF_ATOM[type(a)]
        old = out.get(a.param)
        if old is None or ATTR_PRECEDENCE.index(attr) < ATTR_PRECEDENCE.index(old):
            out[a.param] = attr
    return out


def classify_constraints(trees: dict, kernels: dict, modes: list, dependency_count: int) -> ConstraintStats:
    """Bucket every constraint per the reporting taxonomy.

    Validation constraints come from the trees plus one dtype constraint per
    declared kernel parameter; logical counts the branch guards; environmental
    is the mode matrix; dependency is supplied by the caller (fixtures,
    sequences, wired resource params).
    """
    single = {"ndim": 0, "shape": 0, "size": 0, "value": 0, "dtype": 0}
    pairs: dict[str, int] = {}
    unliftable = 0
    logical = 0

    for tree in trees.values():
        logical += len(tree.all_guards())
        for c in tree.all_constraints():
            if c.is_unliftable:
                unliftable += 1
                continue
            attrs = _param_attrs(c.expr)
            if len(attrs) == 0:
                continue  # fully folded constant check constrains nothing
            if len(attrs) == 1:
                single[next(iter(attrs.values()))] += 1
            else:
                params = sorted(attrs)
                for i in range(len(params)):
                    for j in range(i + 1, len(params)):
                        key = ",".join(sorted((attrs[params[i]], attrs[params[j]])))
                        pairs[key] = pairs.get(key, 0) + 1

    for kernel in kernels.values():
        single["dtype"] += len(kernel.params)

    validation = sum(single.values()) + sum(pairs.values())
    by_category = {
        "validation": validation,
        "logical": logical,
        "environmental": len(modes),
        "dependency": dependency_count,
    }
    if unliftable:
        by_category["unliftable"] = unliftable
    return ConstraintStats(by_category, single, pairs)
