"""Taint propagation, sink discovery, and constraint lifting."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfuzz.constraints import CMP_OPS, Arith, Cmp, ConstraintError, Forall, Lit, Val, parse_tree, render, serialize_tree, tree_equal
from opfuzz.extractor import (
    ExtractionError,
    extract_constraints,
    find_sinks,
    propagate_taint,
    seed_sources,
)
from opfuzz.kernel.parser import parse_kernel

from _oracles import reach_taint, reference_extract


def test_taint_matches_reachability_oracle_on_every_kernel(corpus):
    for kid, kern in sorted(corpus.kernels.items()):
        fixpoint = {v: s for v, s in propagate_taint(kern).items() if s}
        closure = reach_taint(kern)
        assert fixpoint == closure, kid


def test_store_feeds_later_loads():
    src = """
kernel K {
  input x : tensor<i64>;
  input buf : tensor<i64>;
  output y : tensor<i64>;
  buf[0] = x[0];
  v = buf[0];
  require v > 0, "positive";
  emit y = buf;
}
"""
    kern = parse_kernel(src)
    taint = propagate_taint(kern)
    sinks = find_sinks(kern)
    assert len(sinks) == 1
    assert sinks[0].params == frozenset({"x", "buf"})
    assert taint == reach_taint(kern) | {
        v: frozenset() for v in taint if not taint[v]
    }


def test_sink_counts_match_manifest(corpus, manifest):
    for kid, want in manifest["kernel_sinks"].items():
        kern = corpus.kernels[kid]
        assert len(find_sinks(kern)) == want, kid


def test_sink_polarity_pass_on_non_failing_branch():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  require rank(x) == 1, "vector";
  emit y = x;
}
"""
    kern = parse_kernel(src)
    (sink,) = find_sinks(kern)
    term = kern.blocks[sink.block].terminator
    fail_bid = term[3] if sink.pass_on_true else term[2]
    assert kern.blocks[fail_bid].terminator[0] == "require_fail"


def test_untainted_require_is_skipped_and_counted():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  require 1 == 1, "always";
  require rank(x) == 1, "vector";
  emit y = x;
}
"""
    tree = extract_constraints(parse_kernel(src))
    assert tree.skipped_untainted == 1
    assert len(tree.constraints) == 1


def test_mixed_loop_body_is_skipped_whole():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  for i in 0..size(x) {
    require x[i] >= 0, "nonnegative";
    if x[i] > 10 {
      emit y = x;
    }
  }
  emit y = x;
}
"""
    tree = extract_constraints(parse_kernel(src))
    assert tree.skipped_mixed_loops == 1
    assert not tree.constraints


def test_all_require_loop_lifts_to_forall():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  for i in 0..size(x) {
    require x[i] >= 0, "nonnegative";
  }
  emit y = x;
}
"""
    tree = extract_constraints(parse_kernel(src))
    assert len(tree.constraints) == 1
    expr = tree.constraints[0].expr
    assert isinstance(expr, Forall)
    assert render(expr) == "forall i in [0, size(x)): val(x, i) >= 0"



def test_overflowing_float_literals_stay_unfolded_and_round_trip():
    big = "1" + "0" * 300 + ".0"  # 1e300: the product is inf
    src = f"""
kernel K {{
  input x : tensor<f32>;
  output y : tensor<f32>;
  require x[0] < {big} * {big}, "big";
  emit y = x;
}}
"""
    tree = extract_constraints(parse_kernel(src))
    assert tree.constraints[0].expr == Cmp("<", Val("x", (Lit(0),)), Arith("*", Lit(1e300), Lit(1e300)))
    text = serialize_tree(tree)
    back = parse_tree(text)
    assert tree_equal(tree, back)
    assert back.constraints[0].expr == tree.constraints[0].expr
    for special in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ConstraintError, match="non-finite"):
            render(Cmp("<", Val("x", (Lit(0),)), Lit(special)))


def test_conjunction_splits_into_two_constraints():
    src = """
kernel K {
  attr n : int;
  output y : tensor<i64>;
  require n > 0 and n < 10, "range";
  emit y = n;
}
"""
    tree = extract_constraints(parse_kernel(src))
    rendered = sorted(render(c.expr) for c in tree.constraints)
    assert rendered == ["n < 10", "n > 0"]


def test_disjunction_is_kept_but_unliftable():
    src = """
kernel K {
  attr n : int;
  output y : tensor<i64>;
  require n < 0 or n > 10, "outside";
  emit y = n;
}
"""
    tree = extract_constraints(parse_kernel(src))
    assert len(tree.constraints) == 1
    assert tree.constraints[0].is_unliftable


def test_branch_with_else_negates_guard():
    src = """
kernel K {
  attr n : int;
  input x : tensor<i64>;
  output y : tensor<i64>;
  if n > 0 {
    require rank(x) == 1, "vector when positive";
  } else {
    require rank(x) == 2, "matrix otherwise";
  }
  emit y = x;
}
"""
    tree = extract_constraints(parse_kernel(src))
    guards = sorted(render(b.guard.expr) for b in tree.branches)
    assert guards == ["n <= 0", "n > 0"]


def test_branch_without_sinks_is_transparent():
    src = """
kernel K {
  attr n : int;
  input x : tensor<i64>;
  output y : tensor<i64>;
  if n > 0 {
    v = x[0];
  }
  emit y = x;
}
"""
    tree = extract_constraints(parse_kernel(src))
    assert not tree.branches and not tree.constraints


def test_duplicate_requires_dedup_within_node():
    src = """
kernel K {
  attr n : int;
  output y : tensor<i64>;
  require n > 0, "one";
  require 0 < n, "same thing spelled backwards";
  emit y = n;
}
"""
    tree = extract_constraints(parse_kernel(src))
    assert len(tree.constraints) == 1


def test_undeclared_attr_fetch_raises():
    kern = parse_kernel(
        """
kernel K {
  attr n : int;
  output y : tensor<i64>;
  require n > 0, "positive";
  emit y = n;
}
"""
    )
    for block in kern.blocks:
        for inst in block.instrs:
            if inst.opcode == "get_attr":
                inst.args = ("ghost",)
    with pytest.raises(ExtractionError, match="ghost"):
        seed_sources(kern)


def test_extraction_matches_every_golden_tree(corpus):
    for group in corpus.registry.groups:
        if group.kernel_id is None:
            continue
        golden = corpus.golden_tree(group.name)
        extracted = extract_constraints(corpus.kernels[group.kernel_id])
        assert tree_equal(extracted, golden), group.name


def test_tree_mirrors_region_structure(corpus):
    tree = extract_constraints(corpus.kernel_for("BTCBFS"))
    assert tree.skipped_mixed_loops == 0 and tree.skipped_untainted == 0
    assert len(tree.branches) == 2
    assert any(isinstance(c.expr, Forall) for c in tree.constraints)


def test_guard_expressions_are_cmp_or_unliftable(corpus):
    for name in (g.name for g in corpus.registry.groups if g.kernel_id):
        tree = corpus.golden_tree(name)
        for guard in tree.all_guards():
            assert isinstance(guard.expr, Cmp) or guard.is_unliftable, name


def _edge_kernel(body: str):
    return parse_kernel(
        "kernel K {\n  attr n : int;\n  input x : tensor<i64>;\n  output y : tensor<i64>;\n  "
        + body
        + "\n  emit y = x;\n}\n"
    )


# (statements, serialized tree, skipped mixed loops, skipped untainted requires)
_EDGE_PINS = {
    "not": ('require not (n > 0), "np";', "n <= 0\n", 0, 0),
    "not-over-conjunction": (
        'require not (n > 0 and n < 5), "nc";',
        "unliftable(negation of a non-comparison)\n",
        0,
        0,
    ),
    "and-true": ('require n > 0 and true, "at";', "n > 0\n", 0, 0),
    "and-false": ('require n > 0 and false, "af";', "n > 0\n1 == 0\n", 0, 0),
    "conjunction-guard": (
        'if n > 0 and n < 5 { require rank(x) == 1, "a"; } else { require rank(x) == 2, "b"; }',
        "branch: unliftable(conjunction guard)\n  ndim(x) == 1\n"
        "branch: unliftable(negation of a conjunction)\n  ndim(x) == 2\n",
        0,
        0,
    ),
    "dim-attr-axis": ('require dim(x, n) > 0, "da";', "unliftable(non-constant dim axis)\n", 0, 0),
    "else-only": ('if n > 0 { emit y = x; } else { require size(x) > 0, "e"; }', "branch: n <= 0\n  size(x) > 0\n", 0, 0),
    "nested-if": (
        'if n > 0 { if rank(x) > 1 { require dim(x, 1) == n, "in"; } require rank(x) < 4, "out"; }',
        "branch: n > 0\n  ndim(x) < 4\n  branch: ndim(x) > 1\n    dim(x, 1) == n\n",
        0,
        0,
    ),
    "loop-conjunction-and-not": (
        'for i in 0..size(x) { require x[i] > 0 and x[i] < n, "c"; require not (x[i] == 3), "d"; }',
        "forall i in [0, size(x)): val(x, i) > 0\n"
        "forall i in [0, size(x)): val(x, i) < n\n"
        "forall i in [0, size(x)): val(x, i) != 3\n",
        0,
        0,
    ),
    "loop-in-if": (
        'if n > 0 { for i in 0..n { require x[i] >= 0, "l"; } }',
        "branch: n > 0\n  forall i in [0, n): val(x, i) >= 0\n",
        0,
        0,
    ),
    "counters-only": (
        'if n > 0 { require 1 == 1, "u"; } for i in 0..n { require x[i] > 0, "m"; if x[i] > 1 { emit y = x; } }',
        "",
        1,
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(_EDGE_PINS))
def test_edge_kernel_trees_are_pinned(case):
    body, text, mixed, untainted = _EDGE_PINS[case]
    tree = extract_constraints(_edge_kernel(body))
    assert (serialize_tree(tree), tree.skipped_mixed_loops, tree.skipped_untainted) == (text, mixed, untainted)


# -- the one region walk against the two-pass extractor -----------------------


def _tree_rows(tree) -> list:
    """Every expr, block and message of `tree`, node by node, and its counters."""
    rows = [(tree.kernel_id, tree.skipped_mixed_loops, tree.skipped_untainted)]

    def walk(node, path):
        rows.extend((path, repr(c.expr), c.block, c.message) for c in node.constraints)
        for k, br in enumerate(node.branches):
            g = br.guard
            rows.append((path + (k,), "guard", repr(g.expr), g.block, g.message))
            walk(br, path + (k,))

    walk(tree, ())
    return rows


@functools.cache
def _int_terms(loop_var):
    names = ["n", "rank(x)", "size(x)", "dim(x, 0)", "dim(x, n)", "x[0]", "x[n]", "0", "1", "3"]
    if loop_var:
        names += [loop_var, f"x[{loop_var}]"]
    term = st.sampled_from(names)
    return term | st.builds("{} + {}".format, term, term)


@functools.cache
def _conditions(loop_var=None):
    ints = _int_terms(loop_var)
    leaves = st.builds("{} {} {}".format, ints, st.sampled_from(CMP_OPS), ints) | st.sampled_from(["true", "false"])
    return st.recursive(
        leaves,
        lambda c: st.builds("not ({})".format, c)
        | st.builds("({} and {})".format, c, c)
        | st.builds("({} or {})".format, c, c),
        max_leaves=4,
    )


@st.composite
def _statements(draw, depth=0, loop_var=None):
    """Kernel statements over `attr n` and `input x`: requires, emits, ifs
    with and without else, all-require loops and mixed loops."""
    kinds = ["require", "require", "emit"] + (["if", "if-else", "loop", "mixed-loop"] if depth < 3 else [])
    out = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "require":
            out.append(f'require {draw(_conditions(loop_var))}, "{draw(st.sampled_from("ab"))}";')
        elif kind == "emit":
            out.append("emit y = x;")
        elif kind.startswith("if"):
            text = f"if {draw(_conditions(loop_var))} {{ {draw(_statements(depth + 1, loop_var))} }}"
            if kind == "if-else":
                text += f" else {{ {draw(_statements(depth + 1, loop_var))} }}"
            out.append(text)
        else:
            var = f"i{depth}"
            bounds = _int_terms(loop_var)
            body = [f'require {c}, "l";' for c in draw(st.lists(_conditions(var), max_size=3))]
            if kind == "mixed-loop":
                body.append(f"if {draw(_conditions(var))} {{ {draw(_statements(depth + 1, var))} }}")
            out.append(f"for {var} in {draw(bounds)}..{draw(bounds)} {{ {' '.join(body)} }}")
    return " ".join(out)


@given(body=_statements())
@settings(max_examples=200, deadline=None)
def test_region_walk_matches_the_two_pass_extractor(body):
    kern = _edge_kernel(body)
    assert _tree_rows(extract_constraints(kern)) == _tree_rows(reference_extract(kern))


def test_region_walk_matches_the_two_pass_extractor_on_every_kernel(corpus):
    kernels = list(corpus.kernels.values()) + [_edge_kernel(pin[0]) for pin in _EDGE_PINS.values()]
    for kern in kernels:
        assert _tree_rows(extract_constraints(kern)) == _tree_rows(reference_extract(kern)), kern.kernel_id
