"""Constraint expressions: evaluation, normalization, text format, ordering."""

import dataclasses
import io
import logging
import sys
import time
import tokenize
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_evaluate
from opfuzz import constraints
from opfuzz.constraints import (
    CMP_OPS,
    FLIP_CMP,
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
    NEGATE_CMP,
    Ndim,
    Size,
    Unliftable,
    Val,
    Var,
    _Lowering,
    atoms,
    classify_constraints,
    evaluate,
    evaluate_tree,
    normal_form,
    normalize,
    params_of,
    parse_constraint,
    parse_tree,
    render,
    serialize_tree,
    toposort_params,
    tree_equal,
)
from opfuzz.kernel import vm
from opfuzz.kernel.ir import INT64_MAX, INT64_MIN, DType, ParamDecl, ResourceRef, TensorVal
from test_expr_core import _EXPRS, _cmp, _values


class FakeSpec:
    def __init__(self, params):
        self.params = params


def attr(name):
    return ParamDecl(name, "attr", DType.INT, "scalar")


def tens(name):
    return ParamDecl(name, "input", DType.DT_INT64, "tensor")


# -- evaluation: hand-computed expected values --

VEC = TensorVal(DType.DT_INT64, (3,), data=[5, -2, 7])
FLOAT_INF = TensorVal(DType.DT_FLOAT, (1,), data=[float("inf")])


@pytest.mark.parametrize(
    "expr,binding,want",
    [
        (Cmp(">", Ndim("x"), Lit(0)), {"x": VEC}, True),
        (Cmp("==", Size("x"), Lit(3)), {"x": VEC}, True),
        (Cmp("==", Dim("x", 0), Lit(3)), {"x": VEC}, True),
        (Cmp("<", Val("x", (Lit(1),)), Lit(0)), {"x": VEC}, True),
        (Cmp(">=", AttrRef("n"), Lit(2)), {"n": 2}, True),
        (Cmp(">", Arith("+", Lit(2), Lit(2)), Lit(3)), {}, True),
        (Cmp("==", Arith("%", Lit(7), Lit(2)), Lit(1)), {}, True),
        (Cmp("==", Arith("/", Lit(-7), Lit(2)), Lit(-3)), {}, True),
        (Cmp("!=", Lit("a"), Lit("b")), {}, True),
        (Cmp(">", Lit(1), Lit(2)), {}, False),
        (Cmp("==", Arith("%", Val("x", (Lit(0),)), Lit(2.0)), Lit(0.0)), {"x": FLOAT_INF}, False),
        (Cmp("!=", Arith("%", Lit(float("-inf")), Lit(2.0)), Lit(0.0)), {}, True),
        # only numbers are ordered: anything else makes an ordering false
        (Cmp("<", AttrRef("n"), Lit(1)), {"n": ResourceRef("Stack", "live")}, False),
        (Cmp("<", AttrRef("n"), Lit(1)), {"n": None}, False),
    ],
)
def test_evaluate_ground_truth(expr, binding, want):
    assert evaluate(expr, binding) is want


@pytest.mark.parametrize(
    "expr,binding",
    [
        # every partial operation degrades to an unsatisfied constraint
        (Cmp("==", Dim("x", 5), Lit(1)), {"x": VEC}),
        (Cmp(">", Val("x", (Lit(9),)), Lit(0)), {"x": VEC}),
        (Cmp("==", Arith("/", AttrRef("n"), Lit(0)), Lit(0)), {"n": 4}),
        (Cmp("==", Arith("%", AttrRef("n"), Lit(0)), Lit(0)), {"n": 4}),
        (Cmp(">", Arith("*", Lit(2**62), Lit(4)), Lit(0)), {}),
        (Cmp(">", Lit("a"), Lit(1)), {}),
        (Cmp(">", Val("x", (Lit(0),)), Lit(0)), {"x": TensorVal(DType.DT_INT64, (-1,), fill=1)}),
    ],
)
def test_evaluate_is_total_and_fails_closed(expr, binding):
    assert evaluate(expr, binding) is False


def test_forall_empty_range_holds():
    body = Cmp(">", Val("x", (Var("i"),)), Lit(100))
    expr = Forall("i", Lit(0), Lit(0), body)
    assert evaluate(expr, {"x": VEC}) is True


def test_forall_checks_each_index():
    body = Cmp(">", Val("x", (Var("i"),)), Lit(0))
    expr = Forall("i", Lit(0), Size("x"), body)
    assert evaluate(expr, {"x": VEC}) is False  # element 1 is negative
    good = TensorVal(DType.DT_INT64, (3,), data=[5, 2, 7])
    assert evaluate(expr, {"x": good}) is True


def test_forall_large_range_matches_explicit_loop_semantics():
    # fill-backed tensor, range too large to walk: hand-derived outcomes
    n = 50_000
    big = TensorVal(DType.DT_INT64, (n,), fill=3)
    body = Cmp(">", Val("x", (Var("i"),)), Lit(0))
    expr = Forall("i", Lit(0), Size("x"), body)
    assert evaluate(expr, {"x": big}) is True
    dented = TensorVal(DType.DT_INT64, (n,), fill=3)
    dented.flat_set(n - 1, -1)
    assert evaluate(expr, {"x": dented}) is False


def test_forall_bounds_short_circuit():
    bad_hi = Forall(
        "i",
        Lit(0),
        Arith("/", Lit(1), Lit(0)),
        Cmp(">", Val("x", (Var("i"),)), Lit(0)),
    )
    assert evaluate(bad_hi, {"x": VEC}) is False


def test_forall_past_the_step_cap_is_false(monkeypatch):
    # a range the kernel's own loop cannot walk within its step cap
    monkeypatch.setattr(vm, "_STEP_CAP", 1000)
    expr = Forall("i", Lit(0), AttrRef("m"), Cmp("<=", Var("i"), AttrRef("m")))
    for m, want in ((INT64_MAX, False), (1001, False), (1000, True)):
        assert evaluate(expr, {"m": m}) is want
        assert reference_evaluate(expr, {"m": m}) is want


def test_forall_past_the_real_step_cap_fails_before_walking():
    # the range is checked against the cap first, so an over-cap range costs no index
    expr = Forall("i", Lit(0), AttrRef("m"), Cmp("<=", Var("i"), AttrRef("m")))
    start = time.perf_counter()
    assert evaluate(expr, {"m": INT64_MAX}) is False
    assert time.perf_counter() - start < 0.2


# -- tree evaluation --


def test_guard_gates_branch_children():
    from opfuzz.constraints import LogicalNode

    guard = Constraint(Cmp(">", AttrRef("n"), Lit(0)))
    child = Constraint(Cmp("==", Ndim("x"), Lit(1)))
    tree = ConstraintTree(
        "K", [], [LogicalNode(guard, [child], [])]
    )
    scalar = TensorVal(DType.DT_INT64, (), data=[1])
    vector = TensorVal(DType.DT_INT64, (2,), fill=0)
    assert evaluate_tree(tree, {"n": 1, "x": vector}) is True
    assert evaluate_tree(tree, {"n": 1, "x": scalar}) is False
    # guard false: child does not apply
    assert evaluate_tree(tree, {"n": 0, "x": scalar}) is True


def test_branch_nodes_are_listed_pre_order_left_to_right():
    def node(name, *branches):
        return LogicalNode(Constraint(AttrRef(name)), [Constraint(Ndim(name))], list(branches))

    tree = ConstraintTree("K", [Constraint(Size("r"))], [node("a", node("b", node("c")), node("d")), node("e")])
    assert [n.guard.expr.param for n in tree.branch_nodes()] == list("abcde")
    assert [g.expr.param for g in tree.all_guards()] == list("abcde")
    assert [c.expr.param for c in tree.all_constraints()] == list("rabcde")


# -- normalization --


@pytest.mark.parametrize(
    "a,b",
    [
        ("3 < n", "n > 3"),
        ("3 <= n", "n >= 3"),
        ("n == size(x)", "size(x) == n"),
        ("n != size(x)", "size(x) != n"),
        ("forall j in [0, size(x)): val(x, j) >= 0", "forall i in [0, size(x)): val(x, i) >= 0"),
    ],
)
def test_normal_forms_identify_spelling_variants(a, b):
    assert normal_form(parse_constraint(a)) == normal_form(parse_constraint(b))


def test_normalization_folds_constants():
    e = Cmp(">", Arith("+", Lit(2), Lit(3)), AttrRef("n"))
    assert render(normalize(e)) == "5 > n"
    assert normal_form(e) == normal_form(parse_constraint("n < 5"))


def test_distinct_constraints_stay_distinct():
    assert normal_form(parse_constraint("n > 3")) != normal_form(parse_constraint("n >= 3"))
    assert normal_form(parse_constraint("size(x) == 1")) != normal_form(
        parse_constraint("size(y) == 1")
    )


def test_negation_table_is_involutive():
    for op, neg in NEGATE_CMP.items():
        assert NEGATE_CMP[neg] == op
        assert neg != op


def test_flip_table_is_an_involution():
    assert sorted(FLIP_CMP) == sorted(CMP_OPS)
    for op, flipped in FLIP_CMP.items():
        assert FLIP_CMP[flipped] == op


def test_flip_table_swaps_operands():
    for op in CMP_OPS:
        for a in range(-2, 3):
            for b in range(-2, 3):
                want = evaluate(Cmp(op, Lit(a), Lit(b)), {})
                assert evaluate(Cmp(FLIP_CMP[op], Lit(b), Lit(a)), {}) == want, (a, op, b)


# -- text format round trips --


def test_render_parse_round_trip_all_corpus_trees(corpus):
    for name, tree in corpus.trees.items():
        text = serialize_tree(tree)
        back = parse_tree(text, tree.kernel_id)
        assert tree_equal(tree, back), name
        # a second trip is byte-stable
        assert serialize_tree(back) == text, name


def test_golden_files_round_trip(corpus):
    for group in corpus.registry.groups:
        golden = corpus.golden_tree(group.name)
        if golden is None:
            continue
        again = parse_tree(serialize_tree(golden), golden.kernel_id)
        assert tree_equal(golden, again), group.name


def test_tree_equal_detects_differences(corpus):
    tree = corpus.tree_for("MatrixDet")
    mutated = ConstraintTree(
        tree.kernel_id,
        tree.constraints[:-1],
        tree.branches,
    )
    assert not tree_equal(tree, mutated)


@pytest.mark.parametrize("text", ["ndim(x) ==", 'val(x) == "abc', "val(x) == 1.2.3", "dim(x, true) == 1"])
def test_parse_rejects_garbage(text):
    with pytest.raises(ConstraintError):
        parse_constraint(text)


def test_constraint_arithmetic_is_left_associative_by_precedence():
    n, m, k = AttrRef("n"), AttrRef("m"), AttrRef("k")
    assert parse_constraint("n - m - k == 0") == Cmp("==", Arith("-", Arith("-", n, m), k), Lit(0))
    assert parse_constraint("n + m * k == 0") == Cmp("==", Arith("+", n, Arith("*", m, k)), Lit(0))
    assert parse_constraint("n / m % k == 0") == Cmp("==", Arith("%", Arith("/", n, m), k), Lit(0))
    assert parse_constraint("-n * m == 0") == Cmp("==", Arith("*", Arith("-", Lit(0), n), m), Lit(0))


@pytest.mark.parametrize("text", ["n == m == k", "n < m < k"])
def test_constraint_comparisons_do_not_chain(text):
    with pytest.raises(ConstraintError, match="trailing tokens after constraint"):
        parse_constraint(text)


def test_render_keeps_right_grouping():
    grouped, flat = parse_constraint("n - (m - k) == 0"), parse_constraint("n - m - k == 0")
    assert render(grouped) == "n - (m - k) == 0"
    assert not tree_equal(ConstraintTree("K", [Constraint(grouped)]), ConstraintTree("K", [Constraint(flat)]))


# -- params and ordering --


def test_params_of_walks_all_atom_kinds():
    e = Forall(
        "i",
        Lit(0),
        Size("a"),
        Cmp("<", Val("b", (Var("i"),)), Arith("+", AttrRef("c"), Dim("d", 1))),
    )
    assert params_of(e) == {"a", "b", "c", "d"}


LARM_ORDER = [
    "num_rows",
    "num_cols",
    "max_rows_in_memory",
    "ckpt_path",
    "old_tensor_name",
    "row_remapping",
    "col_remapping",
    "initializing_values",
]


def test_larm_order_is_pinned(corpus):
    spec = corpus.spec_for("LARM")
    assert toposort_params(corpus.tree_for("LARM"), spec) == LARM_ORDER


def test_larm_order_survives_declaration_shuffle(corpus):
    spec = corpus.spec_for("LARM")
    flipped = dataclasses.replace(spec, params=tuple(reversed(spec.params)))
    order = toposort_params(corpus.tree_for("LARM"), flipped)
    pos = {n: i for i, n in enumerate(order)}
    # sources still precede their dependents regardless of declaration order
    assert pos["num_rows"] < pos["row_remapping"]
    assert pos["num_cols"] < pos["col_remapping"]
    assert pos["num_rows"] < pos["initializing_values"]


def test_scalar_divisor_precedes_divided_tensor(corpus):
    order = toposort_params(corpus.tree_for("BTCBFS"), corpus.spec_for("BTCBFS"))
    assert order.index("logits_dimension") < order.index("stats_summary")


def test_every_op_order_is_a_permutation(corpus):
    for spec in corpus.registry.testable:
        order = toposort_params(corpus.tree_for(spec.name), spec)
        assert sorted(order) == sorted(p.name for p in spec.params), spec.name


def test_cycle_falls_back_to_declaration_order(caplog):
    # a * 2 == size(t): the bare tensor side makes the attr depend on the
    # tensor while attr-tensor mixing orders the tensor after the attr
    expr = Cmp("==", Arith("*", AttrRef("a"), Lit(2)), Size("t"))
    tree = ConstraintTree("K", [Constraint(expr)], [])
    spec = FakeSpec([attr("a"), tens("t")])
    with caplog.at_level(logging.WARNING):
        order = toposort_params(tree, spec)
    assert order == ["a", "t"]
    assert any("cycle" in r.message for r in caplog.records)


def test_attrs_come_first_on_ties():
    tree = ConstraintTree("K", [], [])
    spec = FakeSpec([tens("t"), attr("a")])
    assert toposort_params(tree, spec) == ["a", "t"]


# -- taxonomy --


def test_classification_matches_manifest_exactly(corpus, manifest):
    trees = {s.kernel_id: corpus.tree_for(s.name) for s in corpus.registry.testable}
    kernels = {s.kernel_id: corpus.kernel_for(s.name) for s in corpus.registry.testable}
    stats = classify_constraints(trees, kernels, corpus.modes, corpus.dependency_count)
    golden = manifest["taxonomy"]
    out = stats.as_json()
    assert out["by_category"] == {
        "validation": golden["validation"]["total"],
        "logical": golden["logical"],
        "environmental": golden["environmental"],
        "dependency": golden["dependency"],
    }
    assert out["single_param"] == golden["validation"]["singles"]
    assert out["param_pairs"] == golden["validation"]["pairs"]
    assert sum(out["single_param"].values()) + sum(out["param_pairs"].values()) == golden[
        "validation"
    ]["total"]


def test_dependency_count_parts(corpus, manifest):
    # one fixture file, two sequences, five wired resource parameters
    assert len(corpus.fixtures) == 1
    assert len(corpus.sequences) == 2
    wired = sum(
        1
        for seq in corpus.sequences
        for op in seq.ops
        for p in corpus.spec_for(op).params
        if p.container == "resource"
    )
    assert wired == 5
    assert corpus.dependency_count == 8
    assert manifest["taxonomy"]["dependency"] == 8


# -- property: normalization preserves meaning --

_PARAMS = ("n", "m")


def _exprs(literals=st.integers(-5, 5)):
    atoms = st.one_of(
        literals.map(Lit),
        st.sampled_from(_PARAMS).map(AttrRef),
    )

    def extend(children):
        return st.builds(
            Arith,
            st.sampled_from(["+", "-", "*", "/", "%"]),
            children,
            children,
        )

    values = st.recursive(atoms, extend, max_leaves=6)
    return st.builds(Cmp, st.sampled_from(list(NEGATE_CMP)), values, values)


@given(expr=_exprs(), n=st.integers(-4, 4), m=st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_normalize_preserves_evaluation(expr, n, m):
    binding = {"n": n, "m": m}
    assert evaluate(normalize(expr), binding) == evaluate(expr, binding)


@given(expr=_exprs())
@settings(max_examples=300, deadline=None)
def test_normalize_is_idempotent(expr):
    once = normalize(expr)
    assert normal_form(once) == normal_form(normalize(once))


_WIDE_LITERALS = st.integers(-5, 5) | st.sampled_from(
    [-1000, INT64_MIN, -0.0, -2.5, 2.5, 1e16, 1e-5, -2.5e-300, 1.5e300]
)


@given(expr=_exprs(_WIDE_LITERALS))
@settings(max_examples=300, deadline=None)
def test_render_round_trips(expr):
    text = render(expr)
    again = parse_constraint(text)
    assert again == expr
    assert render(again) == text


# -- compiled predicates against the AST interpreter --

_INF = float("inf")
_SCALAR_POOL = [0, 1, -1, 2, True, False, 2.5, 0.0, -0.0, _INF, -_INF, float("nan"), INT64_MIN, INT64_MAX, "", "a"]
_SCALAR_POOL += [ResourceRef("Stack", "live"), None]  # atoms that are neither numbers nor tensors


def _dense(dtype, shape, data):
    return TensorVal(dtype, shape, data=data)


def _lazy(shape, fill, overrides=()):
    t = TensorVal(DType.DT_INT64, shape, fill=fill)
    for flat, v in overrides:
        t.flat_set(flat, v)
    return t


_TENSOR_POOL = [
    _dense(DType.DT_INT64, (), [2]),
    _dense(DType.DT_INT64, (2,), [0, 1]),
    _dense(DType.DT_INT64, (3,), [INT64_MIN, -1, INT64_MAX]),
    _dense(DType.DT_INT64, (0,), []),
    _dense(DType.DT_INT64, (1, 2), [1, 0]),
    _dense(DType.DT_FLOAT, (4,), [-0.0, _INF, float("nan"), 1.5]),
    _dense(DType.DT_STRING, (2,), ["a", ""]),
    _dense(DType.DT_BOOL, (2,), [True, False]),
    _lazy((-1,), 1),
    # fill-backed over a range too large to walk, with overrides in and out of it
    _lazy((50_000,), 3),
    _lazy((50_000,), 3, [(0, -4), (49_999, 2.5), (12_345, "a")]),
    _lazy((20_000,), 0, [(10_001, 1)]),
    # dense past the shortcut's threshold: the shortcut walks every index
    _dense(DType.DT_INT64, (10_002,), [1] * 10_001 + [-1]),
]

# n, m, x and y are the expressions' params; each may be missing
_MISSING = object()
_MIXED_BINDINGS = st.fixed_dictionaries(
    dict.fromkeys("nmxy", st.sampled_from(_SCALAR_POOL + _TENSOR_POOL + [_MISSING] * 3))
).map(lambda b: {k: v for k, v in b.items() if v is not _MISSING})


def _large_foralls(var):
    lo = st.sampled_from([Lit(0), Lit(1), Lit(True), Lit(-1), AttrRef("n")])
    hi = st.sampled_from([Size("x"), Dim("y", 0), Lit(20_000), Lit(60_000), AttrRef("m")])
    element = st.builds(Val, st.sampled_from(["x", "y"]), st.just((Var(var),)))
    body = st.one_of(_cmp(var), st.builds(Cmp, st.sampled_from(CMP_OPS), element, st.one_of(element, _values(None))))
    return st.builds(Forall, st.just(var), lo, hi, body)


_DIFF_EXPRS = st.one_of(_EXPRS, _large_foralls("i"), _cmp("k"))  # the last has an unbound var


def _verdict(fn, expr, binding):
    try:
        return "ok", repr(fn(expr, binding))
    except Exception as exc:
        return "raise", type(exc).__name__, str(exc)


@given(expr=_DIFF_EXPRS, binding=_MIXED_BINDINGS)
@settings(max_examples=1500, deadline=None)
def test_compiled_predicates_match_the_ast_interpreter(expr, binding):
    with mock.patch.object(vm, "_STEP_CAP", 100_000):  # the reference walks a million steps a second
        want = _verdict(reference_evaluate, expr, binding)
        assert want[:2] != ("raise", "TypeError")
        assert _verdict(evaluate, expr, binding) == want
        assert _verdict(evaluate, expr, binding) == want  # the cached function too


@pytest.mark.parametrize(
    "expr,binding,want",
    [
        (Unliftable("opaque"), {}, ("ok", "True")),
        (Lit(False), {}, ("ok", "False")),
        # strs compare only for (in)equality
        (Cmp("<", Lit("a"), Lit("b")), {}, ("ok", "False")),
        (Cmp(">", AttrRef("n"), AttrRef("m")), {"n": "b", "m": "a"}, ("ok", "False")),
        (Cmp("<=", Val("x", (Lit(0),)), AttrRef("n")), {"x": _TENSOR_POOL[6], "n": "b"}, ("ok", "False")),
        (Cmp("!=", Val("x", (Lit(0),)), AttrRef("n")), {"x": _TENSOR_POOL[6], "n": "b"}, ("ok", "True")),
        (Lit(3), {}, ("raise", "ConstraintError", "cannot evaluate Lit as a predicate")),
        (Size("x"), {"x": VEC}, ("raise", "ConstraintError", "cannot evaluate Size as a predicate")),
        (Cmp("==", Cmp("==", Lit(1), Lit(1)), Lit(1)), {}, ("raise", "ConstraintError", "cannot evaluate Cmp as a value")),
        # a quantifier nested in a body, over the outer variable
        (Forall("i", Lit(0), Lit(2), Forall("j", Lit(0), Var("i"), Cmp("<", Var("j"), Lit(1)))), {}, ("ok", "True")),
        (Forall("i", Lit(0), Lit(3), Forall("j", Lit(0), Var("i"), Cmp("<", Var("j"), Lit(1)))), {}, ("ok", "False")),
    ],
)
def test_compiled_predicates_on_edge_cases(expr, binding, want):
    assert _verdict(reference_evaluate, expr, binding) == want
    assert _verdict(evaluate, expr, binding) == want


_HOSTILE = [
    'x"] or __import__("sys").modules.setdefault("opfuzz_injected", 1) or b["',
    "n')\n    __import__('sys').modules.setdefault('opfuzz_injected', 1)\n#",
    "#)\\\n__import__",
]


@pytest.mark.parametrize("name", _HOSTILE)
def test_corpus_text_never_reaches_generated_source(name):
    tensor = TensorVal(DType.DT_STRING, (2,), data=[name, "b"])
    exprs = [
        (Cmp("==", AttrRef(name), Lit(name)), {name: name}, True),
        (Cmp("!=", AttrRef(name), Lit(name)), {name: name}, False),
        (Cmp(">", AttrRef(name), Lit(2.5)), {name: 3}, True),
        (Forall(name, Lit(0), Size(name), Cmp("!=", Val(name, (Var(name),)), Lit(name + "!"))), {name: tensor}, True),
        (Cmp("==", Val(name, (Lit(0),)), Lit(name)), {name: tensor}, True),
    ]
    for expr, binding, want in exprs:
        assert evaluate(expr, binding) is want
        low = _Lowering()
        low.pred(expr, {})
        assert not any(name in line or "import" in line for line in low.lines)
    with pytest.raises(ConstraintError, match="binding missing param"):
        evaluate(Cmp("==", AttrRef(name), Lit(1)), {})
    assert "opfuzz_injected" not in sys.modules


def _lowered_names_and_strings(low: _Lowering) -> tuple:
    """The NAME tokens of a lowering's source, less attribute names (the
    VM's `.shape`, `.size`), and its STRING tokens."""
    source = "def f(b):\n" + "\n".join(low.lines) + "\n"
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    names = {t.string for prev, t in zip(tokens, tokens[1:]) if t.type == tokenize.NAME and prev.string != "."}
    return names, [t.string for t in tokens if t.type == tokenize.STRING]


def test_lowered_corpus_constraints_hold_no_corpus_text(corpus):
    for spec in corpus.registry.testable:
        tree = corpus.tree_for(spec.name)
        words = {p.name for p in spec.params}
        for c in tree.all_constraints() + tree.all_guards():
            lowerings = [_Lowering()]
            lowerings[0].pred(c.expr, {})
            for atom in atoms(c.expr):
                lowerings.append(_Lowering("_FAIL"))
                lowerings[-1].value(atom, {})
            for low in lowerings:
                names, strings = _lowered_names_and_strings(low)
                assert not strings, (spec.name, render(c.expr))
                assert not words & names, (spec.name, render(c.expr))


def test_evaluate_tree_looks_up_evaluate_once_per_constraint_and_guard(monkeypatch):
    seen = []
    real = constraints.evaluate

    def counting(expr, binding):
        seen.append(expr)
        return real(expr, binding)

    monkeypatch.setattr(constraints, "evaluate", counting)
    pos, neg = Cmp(">", AttrRef("n"), Lit(0)), Cmp("<", AttrRef("n"), Lit(0))
    root = [Constraint(Cmp("!=", AttrRef("n"), Lit(5)))]
    taken = LogicalNode(Constraint(pos), [Constraint(Cmp("<", AttrRef("n"), Lit(9)))], [LogicalNode(Constraint(neg))])
    skipped = LogicalNode(Constraint(neg), [Constraint(Lit(False))])
    tree = ConstraintTree("K", root, [taken, skipped])
    assert evaluate_tree(tree, {"n": 1}) is True
    # the root, the taken guard, its child and nested guard, then the skipped guard
    assert seen == [root[0].expr, pos, taken.constraints[0].expr, neg, neg]
