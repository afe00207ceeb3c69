"""Guided and random input generation: templates, solving, probes, repair."""

import collections
import dataclasses
import math
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opfuzz.constraints import (
    Arith,
    AttrRef,
    Cmp,
    Dim,
    Lit,
    Ndim,
    Size,
    Val,
    _EvalFail,
    evaluate,
    evaluate_tree,
    params_of,
    parse_constraint,
    render,
)
from opfuzz import constraints, generator, orchestrator
from opfuzz.corpus import encode_binding, load_corpus
from opfuzz.generator import (
    EXTENT_SPECIALS,
    GuidedGenerator,
    RANDOM_STRING_CHARS,
    _CHAR_REJECTS,
    _CHAR_TABLE,
    _DEAD,
    _ExprPlans,
    _Range,
    _TensorDrawer,
    _TensorHints,
    _axis_pool,
    _below,
    _draw,
    _elem_pool,
    _fold_atoms,
    _fold_key,
    _random_strings,
    _rank_pool,
    _substitute_bound,
    _choice_vectors,
    build_control_template,
    build_data_template,
    describe_templates,
    generate_random,
)
from opfuzz.kernel.ir import INT64_MAX, INT64_MIN, DType, EngineError, ParamDecl, ResourceRef, TensorVal
from opfuzz.kernel.vm import HandleTable, execute
from opfuzz.registry import OpSpec, camel_tokens, cluster_entities

from _oracles import ReferenceGuidedGenerator, reference_generate_random

NO_RESOURCE_OPS = None  # filled by fixture below


@pytest.fixture(scope="module")
def plain_ops(corpus):
    """Testable ops with no resource params; standalone execution is meaningful."""
    out = []
    for spec in corpus.registry.testable:
        if all(p.container != "resource" for p in spec.params):
            out.append(spec.name)
    return out


# -- entity clustering --


@pytest.mark.parametrize(
    "name,tokens",
    [
        ("StackPush", ["Stack", "Push"]),
        ("LookupTableFind", ["Lookup", "Table", "Find"]),
        ("BTCBFS", ["BTCBFS"]),
        ("AvgPoolGrad", ["Avg", "Pool", "Grad"]),
        ("NGrams", ["N", "Grams"]),
    ],
)
def test_camel_tokenization(name, tokens):
    assert camel_tokens(name) == tokens


def test_entity_clusters_match_manifest(corpus, manifest):
    names = [s.name for s in corpus.registry.testable]
    clusters = cluster_entities(names)
    for entity, members in manifest["entity_groups"].items():
        assert clusters[entity] == members
    multi = {e: m for e, m in clusters.items() if len(m) > 1}
    assert multi == manifest["entity_groups"]
    singletons = [e for e, m in clusters.items() if len(m) == 1]
    assert len(singletons) == len(names) - 7


# -- templates --


def test_control_template_wires_sequence_producer(corpus):
    tpl = build_control_template(corpus, "StackPop")
    assert tpl.sequence == ("Stack", "StackPush", "StackPop", "StackClose")
    assert tpl.position == 2
    assert tpl.producers == {"handle": "Stack"}
    assert not tpl.unfillable


def test_control_template_finds_fixture(corpus):
    tpl = build_control_template(corpus, "LARM")
    assert tpl.fixture == "bundle_checkpoint"


def test_control_template_plain_op_is_standalone(corpus):
    tpl = build_control_template(corpus, "MatrixDet")
    assert tpl.sequence is None and tpl.producers == {} and tpl.fixture is None


def test_data_template_orders_all_params(corpus):
    for spec in corpus.registry.testable:
        tpl = build_data_template(corpus, spec.name)
        assert sorted(tpl.order) == sorted(p.name for p in spec.params), spec.name


def test_choice_vectors_cover_guards(corpus):
    tpl = build_data_template(corpus, "BTCBFS")
    assert len(tpl.guards) == 2
    assert sorted(tpl.vectors) == [
        (False, False),
        (False, True),
        (True, False),
        (True, True),
    ]


def test_choice_vectors_cap():
    assert len(_choice_vectors(2)) == 4
    assert len(_choice_vectors(5)) == 16  # capped product
    assert len(_choice_vectors(40)) == 16  # the 2**40 product is never built
    assert tuple(_choice_vectors(0)) == ((),)


def test_describe_templates_is_json_shaped(corpus):
    desc = describe_templates(corpus, "StackPop")
    assert desc["control"]["position"] == 2
    assert desc["data"]["order"] == ["handle"]


# -- guided generation gate --


def test_guided_bindings_satisfy_their_tree(corpus):
    for spec in corpus.registry.testable:
        gen = GuidedGenerator(corpus, spec.name)
        rng = random.Random(5)
        tree = corpus.tree_for(spec.name)
        for i in range(40):
            binding, _ = gen.generate(rng, i)
            assert evaluate_tree(tree, binding), (spec.name, i)


def test_guided_bindings_execute_without_reject(corpus, plain_ops):
    for op in plain_ops:
        gen = GuidedGenerator(corpus, op)
        kern = corpus.kernel_for(op)
        rng = random.Random(6)
        for i in range(40):
            binding, _ = gen.generate(rng, i)
            out = execute(kern, binding, "eager", HandleTable())
            assert not out.is_reject, (op, i, out.verdict)


def test_guided_iterates_choice_vectors_round_robin(corpus):
    gen = GuidedGenerator(corpus, "BTCBFS")
    rng = random.Random(1)
    seen = [gen.generate(rng, i)[1] for i in range(1, 9)]
    assert seen == [0, 1, 2, 3, 0, 1, 2, 3]


def test_taken_guard_pins_hold(corpus):
    gen = GuidedGenerator(corpus, "BTCBFS")
    tree = corpus.tree_for("BTCBFS")
    rng = random.Random(9)
    for i in range(1, 9):
        binding, vec_index = gen.generate(rng, i)
        vector = gen.data.vectors[vec_index]
        for take, node in zip(vector, tree.branches):
            got = evaluate(node.guard.expr, binding)
            assert got is take, (i, vector)


def test_generation_is_deterministic(corpus):
    for op in ("LARM", "BTCBFS", "StackPush"):
        a = GuidedGenerator(corpus, op)
        b = GuidedGenerator(corpus, op)
        ra, rb = random.Random(11), random.Random(11)
        for i in range(12):
            ba, va = a.generate(ra, i)
            bb, vb = b.generate(rb, i)
            assert va == vb
            assert encode_binding(ba) == encode_binding(bb), (op, i)


def test_file_param_pins_fixture_label(corpus):
    gen = GuidedGenerator(corpus, "LARM")
    rng = random.Random(2)
    for i in range(6):
        binding, _ = gen.generate(rng, i)
        ckpt = binding["ckpt_path"]
        assert isinstance(ckpt, TensorVal)
        assert ckpt.flat_get(0) == "bundle_checkpoint"


# -- violation probes --


def test_violation_flips_exactly_one_constraint(corpus):
    for spec in corpus.registry.testable:
        gen = GuidedGenerator(corpus, spec.name)
        rng = random.Random(13)
        for i in range(12):
            binding, vec_index = gen.generate(rng, i)
            out = gen.make_violation(rng, binding, vec_index, i)
            if out is None:
                continue
            mutated, target = out
            validation, _ = gen.active_sets(gen.data.vectors[vec_index])
            assert evaluate(target.expr, mutated) is False, spec.name
            for c in validation:
                if c is not target:
                    assert evaluate(c.expr, mutated) is True, (spec.name, i)


def test_violation_probe_rejects_at_runtime(corpus, plain_ops):
    for op in plain_ops:
        gen = GuidedGenerator(corpus, op)
        kern = corpus.kernel_for(op)
        rng = random.Random(14)
        probes = 0
        for i in range(20):
            binding, vec_index = gen.generate(rng, i)
            out = gen.make_violation(rng, binding, vec_index, i)
            if out is None:
                continue
            probes += 1
            result = execute(kern, out[0], "eager", HandleTable())
            assert result.is_reject, (op, i)
        tree = corpus.tree_for(op)
        if tree.constraints or tree.branches:
            assert probes > 0, op


def test_violation_round_robins_over_targets(corpus):
    gen = GuidedGenerator(corpus, "MatrixDet")
    rng = random.Random(15)
    hit = set()
    for i in range(8):
        binding, vec_index = gen.generate(rng, i)
        out = gen.make_violation(rng, binding, vec_index, i)
        assert out is not None
        hit.add(id(out[1]))
    assert len(hit) == 2  # both requires get their turn


# -- solve plans --


def _draws(gen, seed: int, rounds: int) -> list:
    """Encoded bindings and probes of `rounds` passes over every vector."""
    rng = random.Random(seed)
    out = []
    for i in range(1, rounds * gen.n_vectors + 1):
        binding, vec_index = gen.generate(rng, i)
        out.append(encode_binding(binding))
        probe = gen.make_violation(rng, binding, vec_index, i)
        out.append(None if probe is None else (encode_binding(probe[0]), id(probe[1])))
    return out


def test_warm_plans_draw_like_fresh_ones(corpus):
    for spec in corpus.registry.testable:
        warm = GuidedGenerator(corpus, spec.name)
        rng = random.Random(5)
        for vec_index in reversed(range(warm.n_vectors)):
            # repair first, so its plans (all params but one bound) come before generate's
            warm.repair(rng, generate_random(spec, rng), warm.vector_plan(vec_index).plans)
            binding, _ = warm.generate(rng, vec_index + 1)
            for k in range(3):
                warm.make_violation(rng, binding, vec_index, k)
        assert warm.vector_plans
        # both read the corpus's constraint objects, so probe targets compare by id
        assert _draws(warm, 21, 3) == _draws(GuidedGenerator(corpus, spec.name), 21, 3), spec.name


@pytest.fixture(scope="module")
def generator_pairs(corpus):
    """Per testable op, a generator and its reference, kept warm across examples."""
    return [(spec, GuidedGenerator(corpus, spec.name), ReferenceGuidedGenerator(corpus, spec.name)) for spec in corpus.registry.testable]


def _solve_run(gen, spec, rng, start: int) -> list:
    """Draws, probes and repairs of a random binding, with the rng state after each round."""
    out = []
    for i in range(start, start + 3):
        binding, vec_index = gen.generate(rng, i)
        out.append((repr(encode_binding(binding)), vec_index))
        probe = gen.make_violation(rng, binding, vec_index, i)
        out.append(None if probe is None else (repr(encode_binding(probe[0])), render(probe[1].expr)))
        broken = generate_random(spec, rng)
        held = gen.repair(rng, broken, gen.vector_plan(vec_index).plans)
        out.append((held, repr(encode_binding(broken)), rng.getstate()))
    return out


@given(seed=st.integers(0, 2**32 - 1), start=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_the_specialised_draw_matches_the_reference(generator_pairs, seed, start):
    """Same bindings, probes, repairs and rng consumption as one pool lookup per pick."""
    for spec, gen, ref in generator_pairs:
        assert _solve_run(gen, spec, random.Random(seed), start) == _solve_run(ref, spec, random.Random(seed), start), spec.name


_BOUND_SITES = ("rank", "size", "elems", "dim0", "dim1", "at0", "at1", "at01")


def _synthetic_hints(bounds, moduli) -> _TensorHints:
    hints = _TensorHints()
    for site, op, v in bounds:
        if site.startswith("dim"):
            r = hints.dim(int(site[3:]))
        elif site.startswith("at"):
            r = hints.at_index.setdefault(tuple(int(c) for c in site[2:]), _Range())
        else:
            r = getattr(hints, site)
        r.bound(op, v)
    for site, m in moduli:
        (hints.size if site == "size" else hints.dim(int(site[3:]))).moduli.append(m)
    return hints


def _tensor_outcome(draw) -> str:
    try:
        t = draw()
    except EngineError as exc:
        return repr(exc)
    return repr((t.dtype, t.shape, t.size, t.data, t.fill, t.overrides))


@given(
    bounds=st.lists(
        st.tuples(st.sampled_from(_BOUND_SITES), st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), st.integers(-3, 9)),
        max_size=6,
    ),
    moduli=st.lists(st.tuples(st.sampled_from(["size", "dim0", "dim1"]), st.integers(1, 4)), max_size=2),
    dtype=st.sampled_from([DType.DT_INT64, DType.DT_FLOAT, DType.DT_STRING, DType.DT_BOOL]),
    is_file=st.booleans(),
    ndim_referenced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_a_drawer_draws_like_the_reference_on_any_hints(corpus, bounds, moduli, dtype, is_file, ndim_referenced, seed):
    """Size, axis, element and `at_index` bounds the corpus may not combine."""
    ref = ReferenceGuidedGenerator(corpus, "LARM")  # it has a fixture for file params
    p = ParamDecl("x", "input", dtype, "tensor", is_file=is_file)
    hints = _synthetic_hints(bounds, moduli)
    drawer = _TensorDrawer(hints, p, ndim_referenced, ref.control.fixture, ref.string_pool)
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(4):
        got = _tensor_outcome(lambda: drawer.draw(fast))
        assert got == _tensor_outcome(lambda: ref._draw_tensor(slow, p, hints, ndim_referenced))
        assert fast.getstate() == slow.getstate()


def test_a_fitted_shape_with_a_negative_extent_takes_the_checked_constructor():
    hints = _TensorHints()
    hints.rank.bound("==", 2)
    hints.size.bound("==", 0)
    hints.dim(0).bound("==", -1)  # a pin no axis pool draws, but `_fit_size` keeps
    drawer = _TensorDrawer(hints, ParamDecl("x", "input", DType.DT_INT64, "tensor"), False, None, ())
    assert drawer.trusted  # every axis pool holds non-negative ints only
    with pytest.raises(EngineError, match="negative extent"):
        drawer.draw(random.Random(0))


def test_a_range_with_only_an_upper_bound_draws_inside_it():
    r = _Range()
    r.bound("<", -5000000000)
    for dtype in (DType.DT_INT64, DType.DT_FLOAT):
        pool = _elem_pool(r, dtype, ())
        assert pool and all(r.admits(v) for v in pool), (dtype, pool)


def test_strict_float_bounds_keep_the_values_between_them():
    r = _Range()
    r.bound(">", 0.5)
    r.bound("<", 1.2)
    pool = _elem_pool(r, DType.DT_FLOAT, ())
    assert pool and all(0.5 < v < 1.2 for v in pool), pool
    r = _Range()
    r.bound(">", 0.5)
    r.bound("<", 0.75)  # no special fits: the draw falls back to the lower bound
    assert [v for v in _elem_pool(r, DType.DT_FLOAT, ()) if not 0.5 < v < 0.75] == []


def test_a_strict_float_bound_keeps_the_specials_below_it():
    r = _Range()
    r.bound("<", 2.5)
    assert 2.0 in _elem_pool(r, DType.DT_FLOAT, ())
    r = _Range()
    r.bound(">", 3)  # an int bound still steps to the next int
    r.bound("<", 9)
    assert (r.lo, r.hi) == (4, 8)


def test_solve_memo_keeps_equal_but_distinct_values_apart(corpus):
    gen = GuidedGenerator(corpus, "MatrixDet")
    plans = _ExprPlans([Cmp("==", AttrRef("b"), AttrRef("a"))], {"a", "b"}, {"a": 0, "b": 1})
    values = [1, True, 1.0, 0.0, -0.0]
    for _ in range(2):
        for v in values:
            plan = plans.plan("b", {"a": v})
            _, scalar = gen._hints(plan, "b", {"a": v})
            (pin,) = scalar.pins
            assert type(pin) is type(v) and repr(pin) == repr(v)
    assert len(plan.memo) == len(values)
    # an unhashable bound value is solved without the memo
    tensor = TensorVal(DType.DT_INT64, (1,), data=[1])
    _, scalar = gen._hints(plan, "b", {"a": tensor})
    assert scalar.pins == [tensor] and len(plan.memo) == len(values)


_ALPHA_OPS = """op {
  name: "Alpha"
  module: "raw_ops"
  kernel: "AlphaKernel"
  input_arg { name: "x" type: DT_FLOAT }
  attr { name: "alpha" type: "float" }
  output_arg { name: "y" type: DT_FLOAT }
}
"""

_ALPHA_KERNEL = """kernel AlphaKernel {
  input x : tensor<f32>;
  attr alpha : float;
  output y : tensor<f32>;
  require alpha > 5000000000.0, "alpha too small";
  emit y = x;
}
"""


def test_a_float_attr_is_drawn_inside_a_bound_no_special_meets(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(Path(generator.__file__).parent / "corpus_data", root)
    (root / "ops" / "alpha.ops").write_text(_ALPHA_OPS)
    (root / "kernels" / "alpha.krn").write_text(_ALPHA_KERNEL)
    gen = GuidedGenerator(load_corpus(root), "Alpha")
    rng = random.Random(0)
    for iteration in range(1, 4):
        binding, _ = gen.generate(rng, iteration)
        assert binding["alpha"] > 5e9


def test_rank_and_axis_pools_keep_equal_keys_apart():
    """Rank pool `True` and axis pool `1` stay apart, though `True == 1`."""
    calls = [(_rank_pool, True, [3]), (_axis_pool, 1, list(EXTENT_SPECIALS))]
    for order in (calls, calls[::-1]):
        hints = _TensorHints()
        hints.rank.bound("==", 3)
        for pool, key, want in order:
            assert pool(hints, key) == want


def _fold_exprs():
    index = st.one_of(st.integers(-1, 2).map(Lit), st.sampled_from(["n", "m"]).map(AttrRef))
    atoms = st.one_of(
        st.integers(-2, 2).map(Lit),
        st.sampled_from(["n", "m"]).map(AttrRef),
        st.just(Ndim("x")),
        st.just(Size("x")),
        st.integers(0, 1).map(lambda axis: Dim("x", axis)),
        index.map(lambda i: Val("x", (i,))),
    )
    values = st.recursive(atoms, lambda c: st.builds(Arith, st.sampled_from(["+", "%"]), c, c), max_leaves=4)
    return st.builds(Cmp, st.sampled_from(["==", "<"]), values, values)


# values that compare equal across types or signs, so a type-blind key collides
_ATTR_VALUES = st.sampled_from([0, 1, True, 1.0, 0.0, -0.0, 2, "1"])
_ELEMS = st.sampled_from([0, 1, True, 0.0, -0.0])
_TENSORS = st.sampled_from([(), (2,), (0,), (1, 2)]).flatmap(
    lambda shape: st.lists(_ELEMS, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda data: TensorVal(DType.DT_INT64, shape, data=data)
    )
)
_BINDINGS = st.fixed_dictionaries({"n": _ATTR_VALUES, "m": _ATTR_VALUES, "x": _TENSORS})


def _residual(expr, bound, keep):
    """The residual's repr (which tells Lit(1) from Lit(True)), None when dropped."""
    try:
        return repr(_substitute_bound(expr, bound, keep))
    except _EvalFail:
        return None


@given(
    expr=_fold_exprs(),
    keep=st.sampled_from(["n", "m", "x"]),
    names=st.sets(st.sampled_from(["n", "m", "x"])),
    a=_BINDINGS,
    b=_BINDINGS,
)
@settings(max_examples=400, deadline=None)
def test_fold_key_fixes_the_residual(expr, keep, names, a, b):
    """Equal fold keys give the same residual, so the memo may share its hints."""
    names = names - {keep}
    folds = _fold_atoms(expr, names, keep)
    bound_a = {k: v for k, v in a.items() if k in names}
    bound_b = {k: v for k, v in b.items() if k in names}
    key_a = _fold_key((folds,), bound_a)
    assert (_DEAD in key_a) == (_residual(expr, bound_a, keep) is None)
    if key_a == _fold_key((folds,), bound_b):
        assert _residual(expr, bound_a, keep) == _residual(expr, bound_b, keep)


# -- repair --


def test_repair_reaches_fixpoint_at_threshold_rate(corpus, manifest):
    thresholds = manifest["thresholds"]
    rng = random.Random(thresholds["repair_seed"])
    attempts = repaired = 0
    for spec in corpus.registry.testable:
        gen = GuidedGenerator(corpus, spec.name)
        validation, pins = gen.active_sets(gen.data.vectors[0])
        exprs = [c.expr for c in validation if not c.is_unliftable] + pins
        if not exprs:
            continue
        for _ in range(20):
            binding = generate_random(spec, rng)
            attempts += 1
            if gen.repair(rng, binding, exprs):
                assert all(evaluate(e, binding) for e in exprs)
                repaired += 1
    rate = repaired / attempts
    assert rate >= thresholds["repair_fixpoint_rate_min"], rate


def test_repair_trusts_settled_params_on_its_first_pass_only(corpus):
    gen = GuidedGenerator(corpus, "Bincount")
    exprs = [parse_constraint(t) for t in ("size(weights) == nbins", "nbins >= 1", "nbins <= 2")]
    binding = {
        "nbins": 3,
        "indices": TensorVal(DType.DT_INT64, (1,), data=[0]),
        "weights": TensorVal(DType.DT_FLOAT, (3,), data=[1.0] * 3),
    }
    # the first expr holds as `weights` was settled; re-solving nbins breaks it
    assert gen.repair(random.Random(3), binding, exprs, settled={"weights"})
    assert all(evaluate(e, binding) for e in exprs)


# -- random baseline --


def test_random_generation_is_pure_in_spec_and_seed(corpus):
    for spec in corpus.registry.testable:
        a = generate_random(spec, random.Random(21))
        b = generate_random(spec, random.Random(21))
        assert encode_binding(a) == encode_binding(b)


def test_tracers_patch_the_generator_the_campaign_calls():
    assert orchestrator.generate_random is generator.generate_random


def test_tracers_patch_the_constraint_functions_the_generator_calls():
    # the per-layer split counts calls through these names in `constraints`
    assert generator.params_of is constraints.params_of
    assert generator.evaluate is constraints.evaluate


def test_the_generator_evaluates_through_its_module_global(corpus, monkeypatch):
    calls = []

    def counting(expr, binding):
        calls.append(expr)
        return constraints.evaluate(expr, binding)

    monkeypatch.setattr(generator, "evaluate", counting)
    gen = GuidedGenerator(corpus, "Reshape")
    binding, vec_index = gen.generate(random.Random(3), 1)
    drawn = len(calls)
    assert drawn > 0  # solving tests candidates, and repair re-checks
    assert gen.make_violation(random.Random(3), binding, vec_index, 1) is not None
    assert len(calls) > drawn


# one param of each kind the random baseline draws
_RANDOM_KINDS = {
    "resource": ParamDecl("r", "input", DType.DT_RESOURCE, "resource", entity="Stack"),
    "int_attr": ParamDecl("i", "attr", DType.INT, "scalar"),
    "float_attr": ParamDecl("f", "attr", DType.FLOAT, "scalar"),
    "string_attr": ParamDecl("s", "attr", DType.STRING, "scalar"),
    "bool_attr": ParamDecl("b", "attr", DType.BOOL, "scalar"),
    "int_tensor": ParamDecl("ti", "input", DType.DT_INT64, "tensor"),
    "float_tensor": ParamDecl("tf", "input", DType.DT_FLOAT, "tensor"),
    "string_tensor": ParamDecl("ts", "input", DType.DT_STRING, "tensor"),
    "bool_tensor": ParamDecl("tb", "input", DType.DT_BOOL, "tensor"),
}


def _synthetic_spec(params) -> OpSpec:
    return OpSpec("Synthetic", ("raw_ops",), (), tuple(params), (), "SyntheticKernel")


@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(sorted(_RANDOM_KINDS)), min_size=1, max_size=4),
)
@example(seed=0, kinds=sorted(_RANDOM_KINDS))
@settings(max_examples=200, deadline=None)
def test_random_draw_matches_the_stdlib_reference(seed, kinds):
    """Same values and same rng consumption as randrange/randint/uniform."""
    params = [dataclasses.replace(_RANDOM_KINDS[k], name=f"{k}{i}") for i, k in enumerate(kinds)]
    spec = _synthetic_spec(params)
    fast, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert repr(encode_binding(generate_random(spec, fast))) == repr(
            encode_binding(reference_generate_random(spec, ref))
        )
        assert fast.getstate() == ref.getstate()


def _outcome(draw, spec, rng):
    try:
        return repr(encode_binding(draw(spec, rng)))
    except (ValueError, EngineError) as exc:
        return repr(exc)


def test_random_draw_fails_on_a_dtype_without_elements_like_the_reference():
    # ValueError once an element is drawn; an empty tensor fails in TensorVal
    spec = _synthetic_spec([ParamDecl("t", "input", DType.DT_RESOURCE, "tensor")])
    outcomes = set()
    for seed in range(40):
        fast, ref = random.Random(seed), random.Random(seed)
        got = _outcome(generate_random, spec, fast)
        assert got == _outcome(reference_generate_random, spec, ref)
        assert fast.getstate() == ref.getstate()
        outcomes.add(got.split("(")[0])
    assert outcomes == {"ValueError", "EngineError"}


@pytest.mark.parametrize("n", [1, 2, 4, 5, 9, 17, 37, 2**64])
def test_below_draws_like_randrange(n):
    for seed in range(5):
        fast, ref = random.Random(seed), random.Random(seed)
        assert [_below(fast.getrandbits, n) for _ in range(200)] == [ref.randrange(n) for _ in range(200)]
        assert fast.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 17])
def test_draw_picks_like_randrange(n):
    pool = [f"v{i}" for i in range(n)]
    for seed in range(5):
        fast, ref = random.Random(seed), random.Random(seed)
        want = [pool[ref.randrange(n)] if n > 1 else pool[0] for _ in range(200)]
        assert [_draw(fast, pool) for _ in range(200)] == want
        assert fast.getstate() == ref.getstate()


def _check_random_element(v, dtype):
    if dtype in (DType.DT_INT64, DType.INT):
        assert type(v) is int and INT64_MIN <= v <= INT64_MAX
    elif dtype in (DType.DT_FLOAT, DType.FLOAT):
        assert type(v) is float and -1e18 <= v <= 1e18
    elif dtype in (DType.DT_STRING, DType.STRING):
        assert type(v) is str and 0 <= len(v) <= 16 and set(v) <= set(RANDOM_STRING_CHARS)
    else:
        assert type(v) is bool


def test_random_draws_stay_in_documented_ranges(corpus):
    spec = corpus.spec_for("Bincount")
    rng = random.Random(23)
    for _ in range(300):
        binding = generate_random(spec, rng)
        for v in binding.values():
            if isinstance(v, TensorVal):
                assert 0 <= v.rank <= 4
                assert all(0 <= e <= 8 for e in v.shape)
            elif isinstance(v, ResourceRef):
                assert v.state in ("null", "fresh", "filled", "closed")
    params = [p for k, p in sorted(_RANDOM_KINDS.items()) if k != "resource"]
    spec = _synthetic_spec(params)
    for _ in range(300):
        binding = generate_random(spec, rng)
        for p in params:
            v = binding[p.name]
            if p.role == "attr":
                _check_random_element(v, p.dtype)
            else:
                assert 0 <= v.rank <= 4 and all(0 <= e <= 8 for e in v.shape)
                assert len(v.data) == v.size
                for e in v.data:
                    _check_random_element(e, p.dtype)
    strings = _random_strings(rng, 20_000)
    for v in strings:
        _check_random_element(v, DType.DT_STRING)
    counts = collections.Counter("".join(strings))
    assert sorted(counts) == sorted(RANDOM_STRING_CHARS)
    expected = sum(counts.values()) / len(RANDOM_STRING_CHARS)
    assert all(abs(c - expected) < 0.15 * expected for c in counts.values())


def test_char_table_keeps_six_byte_values_per_character():
    assert len(RANDOM_STRING_CHARS) == 37
    kept = bytes(range(256)).translate(_CHAR_TABLE, _CHAR_REJECTS).decode("ascii")
    assert kept == "".join(RANDOM_STRING_CHARS[b % 37] for b in range(222))
    assert collections.Counter(kept) == {c: 6 for c in RANDOM_STRING_CHARS}
    assert sorted(_CHAR_REJECTS) == list(range(222, 256))


def test_random_mostly_violates_inter_param_ops(corpus):
    # the imbalance that makes guided generation worth building
    spec = corpus.spec_for("Bincount")
    kern = corpus.kernel_for("Bincount")
    rng = random.Random(29)
    rejects = sum(
        1
        for _ in range(200)
        if execute(kern, generate_random(spec, rng), "eager", HandleTable()).is_reject
    )
    assert rejects >= 190


def test_tree_constraints_relate_at_most_two_params(corpus):
    # the pairwise sweep in the soundness harness leans on this
    for spec in corpus.registry.testable:
        tree = corpus.tree_for(spec.name)
        for c in tree.all_constraints():
            if not c.is_unliftable:
                assert len(params_of(c.expr)) <= 2, spec.name
