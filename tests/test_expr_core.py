"""The expression core: walkers and arithmetic against the code they
replaced, and the evaluated tree against the kernel it was lifted from."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    ArithFail,
    ref_fold,
    ref_fold_atoms,
    ref_normalize,
    ref_param_attrs,
    ref_params_of,
    ref_string_literals,
    ref_substitute_bound,
    ref_val_atoms,
    ref_var_only_in_val_indices,
    ref_walk_atoms,
    reference_arith,
)
from opfuzz.constraints import (
    CMP_OPS,
    Arith,
    AttrRef,
    Cmp,
    Constraint,
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
    _EvalFail,
    _fold,
    _param_attrs,
    _var_only_in_val_indices,
    atoms,
    evaluate,
    evaluate_tree,
    nodes,
    normal_form,
    normalize,
    params_of,
    parse_constraint,
    parse_tree,
    tree_equal,
    value_of,
)
from opfuzz.generator import GuidedGenerator, _fold_atoms, _string_literals, _substitute_bound, generate_random
from opfuzz.kernel.ir import INT64_MAX, INT64_MIN, Crash, DType, ResourceRef, Success, TensorVal, ValidationReject
from opfuzz.kernel.vm import HandleTable, execute

_ARITH_OPS = st.sampled_from(["+", "-", "*", "/", "%"])
_INF = float("inf")

# -- walkers ------------------------------------------------------------------

_LITS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.5, _INF, "", "a", "b", True, False]),
).map(Lit)
_PARAMS = st.sampled_from(["n", "m", "x", "y"])
_SIMPLE_ATOMS = st.one_of(
    st.builds(AttrRef, _PARAMS),
    st.builds(Ndim, _PARAMS),
    st.builds(Size, _PARAMS),
    st.builds(Dim, _PARAMS, st.integers(0, 2)),
)


def _values(var):
    """Value expressions; `var` is the quantifier variable in scope, if any."""
    leaf = st.one_of(_LITS, _SIMPLE_ATOMS, *([st.just(Var(var))] if var else []))
    index = st.one_of(leaf, st.builds(Arith, _ARITH_OPS, leaf, leaf), st.builds(Val, _PARAMS, st.tuples(leaf)))
    val = st.builds(Val, _PARAMS, st.lists(index, max_size=2).map(tuple))
    return st.recursive(st.one_of(leaf, val), lambda c: st.builds(Arith, _ARITH_OPS, c, c), max_leaves=4)


def _cmp(var):
    return st.builds(Cmp, st.sampled_from(CMP_OPS), _values(var), _values(var))


# the grammar: a comparison, or one top-level forall over a comparison
_EXPRS = st.one_of(
    _cmp(None),
    *(st.builds(Forall, st.just(v), _values(None), _values(None), _cmp(v)) for v in ("i", "k")),
)

_TENSORS = st.sampled_from(
    [
        TensorVal(DType.DT_INT64, shape, data=data)
        for shape, data in [((), [2]), ((2,), [0, 1]), ((2,), [-1, 1]), ((0,), []), ((1, 2), [1, 0])]
    ]
)
_SCALARS = st.sampled_from([0, 1, -1, True, 2.5, -0.0, "a"])
_BINDINGS = st.fixed_dictionaries({"n": _SCALARS, "m": _SCALARS, "x": _TENSORS, "y": _TENSORS})


def _outcome(fn, *args):
    """The result's repr (which tells 1 from 1.0 and 0.0 from -0.0), or the
    type of what it raised."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:
        return "raise", type(exc).__name__


def _reprs(exprs) -> set:
    return {repr(e) for e in exprs}


@given(expr=_EXPRS, more=st.lists(_EXPRS, max_size=2), keep=_PARAMS, names=st.sets(_PARAMS), binding=_BINDINGS)
@settings(max_examples=300, deadline=None)
def test_walkers_match_the_per_node_type_references(expr, more, keep, names, binding):
    assert params_of(expr) == ref_params_of(expr)
    assert _reprs(atoms(expr)) == _reprs(ref_walk_atoms(expr))
    assert _reprs(e for e in nodes(expr) if type(e) is Val) == _reprs(ref_val_atoms(expr))
    assert _param_attrs(expr) == ref_param_attrs(expr)
    assert _outcome(_fold, expr) == _outcome(ref_fold, expr)
    # normalize renames a forall's variable to i through `replace`
    assert _outcome(normalize, expr) == _outcome(ref_normalize, expr)
    body = expr.body if isinstance(expr, Forall) else expr
    for var in ("i", "k"):
        assert _var_only_in_val_indices(body, var) == ref_var_only_in_val_indices(body, var)

    # string literals feed the string pool, so their order is part of a draw
    roots = [Constraint(Unliftable("opaque")), Constraint(expr)] + [Constraint(e) for e in more[:1]]
    tree = ConstraintTree("t", roots, [LogicalNode(Constraint(e)) for e in more[1:]])
    assert tuple(_string_literals(tree)) == tuple(ref_string_literals(tree))

    names = frozenset(names)  # `keep` among them too: its atoms stay unfolded
    bound = {k: v for k, v in binding.items() if k in names}
    assert _outcome(_substitute_bound, expr, bound, keep) == _outcome(ref_substitute_bound, expr, bound, keep)
    assert tuple(map(repr, _fold_atoms(expr, names, keep))) == tuple(map(repr, ref_fold_atoms(expr, names, keep)))


def test_walkers_visit_left_to_right():
    expr = Forall("i", Lit("lo"), Lit("hi"), Cmp("==", Val("x", (Lit("a"), Var("i"))), Arith("+", Lit("b"), Lit("a"))))
    tree = ConstraintTree("t", [Constraint(expr)])
    assert _string_literals(tree) == ["lo", "hi", "a", "b"] == ref_string_literals(tree)
    folded = Cmp("<", Arith("+", AttrRef("n"), Dim("x", 0)), Val("x", (AttrRef("m"),)))
    assert _fold_atoms(folded, {"n", "m", "x"}, "y") == (AttrRef("n"), Dim("x", 0), Val("x", (AttrRef("m"),)))
    assert _fold_atoms(folded, {"n", "x"}, "y") == (AttrRef("n"), Dim("x", 0))


# -- evaluator arithmetic -----------------------------------------------------

_OPERANDS = st.one_of(
    st.sampled_from(
        [INT64_MIN, INT64_MIN + 1, INT64_MIN - 1, INT64_MAX, INT64_MAX - 1, INT64_MAX + 1, 0, -1, 1, 2, -2, 3, -7]
    ),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([0.0, -0.0, _INF, -_INF, float("nan"), 1.5, -2.5, 1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["", "a"]),
)


def _arith_outcome(fn, op, a, b):
    try:
        return "ok", repr(fn(op, a, b))
    except (ArithFail, _EvalFail):
        return "fail", None
    except Exception as exc:
        return "raise", type(exc).__name__


def _package_arith(op, a, b):
    return value_of(Arith(op, Lit(a), Lit(b)), {})


@given(op=_ARITH_OPS, a=_OPERANDS, b=_OPERANDS, c=_OPERANDS)
@settings(max_examples=1500, deadline=None)
def test_evaluator_arithmetic_matches_the_reference(op, a, b, c):
    want = _arith_outcome(reference_arith, op, a, b)
    assert _arith_outcome(_package_arith, op, a, b) == want

    expr = Arith(op, Lit(a), Lit(b))
    if want[0] == "raise":
        assert _outcome(_fold, expr) == want
        assert _outcome(evaluate, Cmp("==", expr, Lit(c)), {}) == want
        return
    value = reference_arith(op, a, b) if want[0] == "ok" else None
    folds = want[0] == "ok" and not (isinstance(value, float) and not math.isfinite(value))
    assert repr(_fold(expr)) == (repr(Lit(value)) if folds else repr(expr))
    for other in (c, value):
        truth = want[0] == "ok" and isinstance(other, str) == isinstance(value, str) and value == other
        assert evaluate(Cmp("==", expr, Lit(other)), {}) is truth


_NO_FLOAT = 2**1024 - 2**970  # the least int that float() cannot convert


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
@pytest.mark.parametrize("big", [_NO_FLOAT, -(10**400)], ids=["2**1024-2**970", "-10**400"])
def test_an_int_too_large_for_a_float_fails_against_a_float(op, big):
    for a, b in ((big, 1.5), (1.5, big)):
        assert _arith_outcome(reference_arith, op, a, b) == ("fail", None)
        assert _arith_outcome(_package_arith, op, a, b) == ("fail", None)
        assert _fold(Arith(op, Lit(a), Lit(b))) == Arith(op, Lit(a), Lit(b))
    fits = _arith_outcome(reference_arith, op, _NO_FLOAT - 1, 1.5)
    assert fits[0] == "ok" and _arith_outcome(_package_arith, op, _NO_FLOAT - 1, 1.5) == fits
    assert evaluate(Cmp("<", Arith(op, Lit(big), AttrRef("f")), Lit(0)), {"f": 1.0}) is False
    text = f"x < {big} {op} 1.5"
    assert tree_equal(parse_tree(text), parse_tree(text))
    assert normal_form(parse_constraint(text)) == f"{big} {op} 1.5 > x"


# -- the tree against the kernel ----------------------------------------------


def _holds_live_ref(binding) -> bool:
    return any(isinstance(v, ResourceRef) and v.state == "live" for v in binding.values())


def test_tree_verdict_matches_the_kernel_on_generated_bindings(corpus):
    """A binding the kernel runs to success satisfies the lifted tree, and
    one it rejects violates it; a crash says nothing about the tree."""
    rng = random.Random(7)
    checked = {"guided": 0, "random": 0, "probe": 0}
    disagreements = []
    for spec in corpus.registry.testable:
        gen = GuidedGenerator(corpus, spec.name)
        kernel, tree = corpus.kernel_for(spec.name), corpus.tree_for(spec.name)
        for iteration in range(1, 301):
            binding, vec_index = gen.generate(rng, iteration)
            arms = [("guided", binding)]
            probe = gen.make_violation(rng, binding, vec_index, iteration)
            if probe is not None:
                arms.append(("probe", probe[0]))
            arms.append(("random", generate_random(spec, rng)))
            for arm, b in arms:
                if _holds_live_ref(b):
                    continue  # needs a producer earlier in its sequence
                truth = evaluate_tree(tree, b)
                verdict = execute(kernel, b, "eager", HandleTable()).verdict
                if isinstance(verdict, Crash):
                    continue
                checked[arm] += 1
                assert isinstance(verdict, (Success, ValidationReject))
                if truth != isinstance(verdict, Success):
                    disagreements.append((spec.name, arm, iteration, verdict))
    assert disagreements == []
    assert min(checked.values()) >= 1000, checked
