"""The compiled VM against a plain interpreter that shares no code with it.

`vm.execute` runs each kernel through Python source generated for it and
cached on the kernel. `_oracles.reference_execute` walks the IR one
instruction at a time over a dict env. Both must give the same verdict,
covered blocks, outputs in the same order, crash site, handle table,
binding mutations and EngineErrors, and both step caps must trip at the
same instruction. Where a value has no shape or no order, the VM raises an
EngineError and the reference the bare Python error, so those cases are
tested on their own.
"""

import copy
import io
import math
import random
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import reference_execute, reference_prepass
from opfuzz import orchestrator
from opfuzz.corpus import load_corpus
from opfuzz.generator import GuidedGenerator, generate_random
from opfuzz.kernel import vm
from opfuzz.kernel.ir import (
    Block,
    DType,
    EngineError,
    ExecOutcome,
    Instruction,
    KernelIR,
    ParamDecl,
    ResourceRef,
    TensorVal,
    ValidationReject,
)
from opfuzz.kernel.parser import parse_kernel

MODES = ("eager", "graph")


def _table(live):
    """A handle table holding one open, one filled and one closed entry per entity."""
    table = vm.HandleTable()
    for entity in sorted(live):
        table.create(entity)
        table.create(entity, payload=[2.0, 3.0])
        table.create(entity, closed=True)
    return table


def _table_state(table):
    return table._next, [(hid, e.entity, e.closed, e.payload) for hid, e in table.entries.items()]


def _attempt(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # EngineError and anything else must match too
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", repr(out.verdict), sorted(out.covered)) if out is not None else ("ok", None)


def assert_same(kernel, binding, live=()):
    """Both modes, each on its own copy of the binding and handle table, then
    the two modes in turn on one shared table, as a campaign runs them."""
    for modes in (("eager",), ("graph",), MODES):
        runs = []
        for execute in (vm.execute, reference_execute):
            b = copy.deepcopy(binding)
            table = _table(live)
            results = [_attempt(execute, kernel, b, mode, table) for mode in modes]
            runs.append((results, _table_state(table), repr(b)))
        assert runs[0] == runs[1], (kernel.kernel_id, modes, binding)
    assert _attempt(vm.shape_infer_prepass, kernel, copy.deepcopy(binding)) == _attempt(
        reference_prepass, kernel, copy.deepcopy(binding)
    )


def _with_live_refs(binding, pick):
    """Point some resource refs at the pre-filled table: ids 1-3 are open,
    filled and closed handles of the first entity, 99 was never created."""
    out = dict(binding)
    for name, v in binding.items():
        if isinstance(v, ResourceRef) and pick.random() < 0.5:
            out[name] = ResourceRef(v.entity, "live", pick.choice((1, 2, 3, 99)))
    return out


# -- corpus kernels under guided, random and probe bindings --


_GENERATORS: dict = {}


def _generator(corpus, op):
    if op not in _GENERATORS:
        _GENERATORS[op] = GuidedGenerator(corpus, op)
    return _GENERATORS[op]


def _binding(corpus, op, arm, seed):
    rng = random.Random(seed)
    if arm == "random":
        return generate_random(corpus.spec_for(op), rng)
    gen = _generator(corpus, op)
    iteration = rng.randrange(1, 50)
    binding, vec_index = gen.generate(rng, iteration)
    if arm == "probe":
        probe = gen.make_violation(rng, binding, vec_index, iteration)
        if probe is not None:
            binding = probe[0]
    return binding


def _entities(binding):
    return {v.entity for v in binding.values() if isinstance(v, ResourceRef)}


def test_corpus_sweep_matches_reference(corpus):
    for spec in corpus.registry.testable:
        kernel = corpus.kernel_for(spec.name)
        for arm in ("guided", "random", "probe"):
            for seed in range(12):
                binding = _binding(corpus, spec.name, arm, seed)
                assert_same(kernel, binding, _entities(binding))


@given(data=st.data(), arm=st.sampled_from(("guided", "random", "probe")), seed=st.integers(0, 2**32))
@settings(max_examples=250, deadline=None)
def test_corpus_bindings_match_reference(corpus, data, arm, seed):
    op = data.draw(st.sampled_from(sorted(s.name for s in corpus.registry.testable)))
    binding = _binding(corpus, op, arm, seed)
    binding = _with_live_refs(binding, random.Random(seed))
    assert_same(corpus.kernel_for(op), binding, _entities(binding))


# -- hand-written kernels for what the corpus never runs --

LOGIC_FLOAT = """
kernel LogicFloat {
  input t : tensor<f32>;
  attr p : bool;
  attr q : bool;
  attr a : float;
  attr b : float;
  output y : tensor<f32>;
  output z : tensor<f32>;
  both = p and q;
  either = p or not q;
  if both or not either {
    require a < b, "a must be below b";
  } else {
    require not (a == b), "a must differ from b";
  }
  s = a + b;
  d = a - b;
  m = a * b;
  emit z = t;
  r = a / b;
  k = a % b;
  t[0] = s + d + m + r + k;
  emit y = t;
  emit z = t;
}
"""

LOOP = """
kernel Loop {
  input t : tensor<i64>;
  attr n : int;
  attr k : int;
  output y : tensor<i64>;
  require rank(t) >= 1, "t must not be a scalar";
  require n * k < 4000, "n * k too large";
  for i in 0..n {
    v = t[i];
    t[i] = v * 3 + i - n / (k + 1) + n % (k - 1);
  }
  d = dim(t, k);
  require d >= 0, "extent must be non-negative";
  require size(t) > 2, "t must hold three elements";
  emit y = t;
}
"""

floats = st.floats(allow_nan=False, width=32) | st.sampled_from((0.0, -0.0, 1.0, -2.5))
big_ints = st.integers(-5, 12) | st.sampled_from((2**62, -(2**63), 2**63 - 1))


@given(
    p=st.booleans(),
    q=st.booleans(),
    a=floats,
    b=floats,
    n=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_logic_and_float_arithmetic_match_reference(p, q, a, b, n):
    kernel = parse_kernel(LOGIC_FLOAT)
    t = TensorVal(DType.DT_FLOAT, (n,), data=[0.5] * n)
    assert_same(kernel, {"t": t, "p": p, "q": q, "a": a, "b": b})


@given(
    shape=st.lists(st.integers(-1, 4), max_size=3),
    n=st.integers(-5, 12),
    k=big_ints,
    lazy=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_loop_dim_and_int_arithmetic_match_reference(shape, n, k, lazy):
    kernel = parse_kernel(LOOP)
    if lazy or min(shape, default=0) < 0:
        t = TensorVal(DType.DT_INT64, shape, fill=7)
    else:
        t = TensorVal(DType.DT_INT64, shape, data=list(range(math.prod(shape))))
    assert_same(kernel, {"t": t, "n": n, "k": k})


def _resource_kernel(verbs):
    lines = [
        "kernel Res {",
        "  input h : resource<Stack>;",
        "  input e : tensor<f32>;",
        "  output y : tensor<f32>;",
        "  fresh = call New(Stack);",
    ]
    for i, verb in enumerate(verbs):
        target = "fresh" if verb.endswith("*") else "h"
        verb = verb.rstrip("*")
        args = f"Stack, {target}, e" if verb == "Push" else f"Stack, {target}"
        lines.append(f"  r{i} = call {verb}({args});")
        lines.append(f"  emit y = r{i};")
    lines.append("}")
    return parse_kernel("\n".join(lines))


VERBS = ("Push", "Pop", "Close", "Find", "Remove", "Push*", "Pop*", "Close*")


@given(
    verbs=st.lists(st.sampled_from(VERBS), min_size=1, max_size=5),
    state=st.sampled_from(("fresh", "filled", "closed", "null", "live")),
    live_id=st.sampled_from((1, 2, 3, 99)),
)
@settings(max_examples=300, deadline=None)
def test_resource_verbs_match_reference(verbs, state, live_id):
    kernel = _resource_kernel(verbs)
    h = ResourceRef("Stack", state, live_id if state == "live" else None)
    e = TensorVal(DType.DT_FLOAT, (1,), data=[4.0])
    assert_same(kernel, {"h": h, "e": e}, {"Stack"})


def _ir_kernel(second_const: bool = True):
    """IR the parser does not emit: `index`, a const slot written twice and
    read in between, a call whose entity differs from its handle's, and an
    unknown opcode."""
    t = ParamDecl("t", "input", DType.DT_INT64, "tensor")
    h = ParamDecl("h", "input", DType.DT_RESOURCE, "resource", entity="Stack")
    sel = ParamDecl("sel", "attr", DType.INT, "scalar")
    entry = [
        Instruction("get_input", 0, (0,)),
        Instruction("get_input", 1, (1,)),
        Instruction("get_attr", 2, ("sel",)),
        Instruction("const", 3, (1,)),
        Instruction("index", 4, (0, (3,))),
        Instruction("const", 3 if second_const else 9, (2,)),
        Instruction("index", 10, (0, (3,))),
        Instruction("const", 5, (0,)),
        Instruction("cmp", 6, ("==", 2, 5)),
        Instruction("cmp", 7, ("<", 2, 5)),
    ]
    blocks = [
        Block(0, entry, ("br", 7, 1, 2, "if")),
        Block(1, [Instruction("frobnicate", 8, ())], ("ret",)),
        Block(2, [], ("br", 6, 3, 4, "if")),
        Block(3, [Instruction("res_call", 8, ("Pop", "Lookup", (1,)))], ("ret",)),
        Block(4, [Instruction("emit", None, ("y", 4)), Instruction("emit", None, ("z", 10))], ("ret",)),
    ]
    return KernelIR("Hand", [t, h, sel], [("y", DType.DT_INT64), ("z", DType.DT_INT64)], blocks, [])


@given(
    extent=st.integers(0, 4),
    sel=st.integers(-1, 1),
    second_const=st.booleans(),
    state=st.sampled_from(("fresh", "null")),
)
@settings(max_examples=100, deadline=None)
def test_ir_only_opcodes_match_reference(extent, sel, second_const, state):
    binding = {
        "t": TensorVal(DType.DT_INT64, (extent,), fill=1),
        "h": ResourceRef("Stack", state),
        "sel": sel,
    }
    assert_same(_ir_kernel(second_const), binding, {"Stack"})


_ATTR_DTYPES = {bool: DType.BOOL, int: DType.INT, float: DType.FLOAT}
operands = st.booleans() | st.integers(-3, 3) | st.sampled_from((2**62, -(2**63))) | st.sampled_from((0.0, -1.5, 2.0))


@given(op=st.sampled_from(("+", "-", "*", "/", "%", "^")), a=operands, b=operands)
@settings(max_examples=300, deadline=None)
def test_bin_operand_types_match_reference(op, a, b):
    # bools, mixed int/float and unknown ops must reach the same EngineError
    params = [ParamDecl(n, "attr", _ATTR_DTYPES[type(v)], "scalar") for n, v in (("a", a), ("b", b))]
    instrs = [
        Instruction("get_attr", 0, ("a",)),
        Instruction("get_attr", 1, ("b",)),
        Instruction("bin", 2, (op, 0, 1)),
        Instruction("emit", None, ("y", 2)),
    ]
    kernel = KernelIR("Bin", params, [("y", DType.DT_INT64)], [Block(0, instrs, ("ret",))], [])
    assert_same(kernel, {"a": a, "b": b})


def _shapeless_kernel():
    """IR whose shape queries read values without a shape: an int attr as
    the tensor of `rank`, `size` and `dim`, and a float attr as an axis.
    The rank of the int decides a branch after a require on the int."""
    params = [
        ParamDecl("a", "attr", DType.INT, "scalar"),
        ParamDecl("f", "attr", DType.FLOAT, "scalar"),
        ParamDecl("t", "input", DType.DT_INT64, "tensor"),
    ]
    entry = [
        Instruction("get_attr", 0, ("a",)),
        Instruction("get_attr", 1, ("f",)),
        Instruction("get_input", 2, (0,)),
        Instruction("rank", 3, (0,)),
        Instruction("size", 4, (0,)),
        Instruction("dim", 5, (0, 0)),
        Instruction("dim", 6, (2, 1)),
        Instruction("const", 7, (0,)),
        Instruction("cmp", 8, (">=", 0, 7)),
    ]
    blocks = [
        Block(0, entry, ("br", 8, 1, 2, "require")),
        Block(1, [Instruction("cmp", 9, ("==", 3, 7))], ("br", 9, 3, 3, "if")),
        Block(2, [], ("require_fail", "a must not be negative")),
        Block(3, [Instruction("emit", None, ("y", 6))], ("ret",)),
    ]
    return KernelIR("Shapeless", params, [("y", DType.DT_INT64)], blocks, [])


@pytest.mark.parametrize("a", [-1, 0, 2])
@pytest.mark.parametrize("f", [-1.0, 0.0, 1.0, math.nan])
def test_shape_queries_over_values_without_shape_are_unknown(a, f):
    # the eager run raises here (no `rank` on an int, no float index into
    # a shape), and the prepass writes unknown, as the reference does
    kernel = _shapeless_kernel()
    binding = {"a": a, "f": f, "t": TensorVal(DType.DT_INT64, (2, 3), fill=0)}
    want = _attempt(reference_prepass, kernel, binding)
    assert _attempt(vm.shape_infer_prepass, kernel, binding) == want
    if a >= 0:
        assert want == ("ok", None)  # the branch on an unknown rank ends the walk
        return
    assert want == ("ok", repr(ValidationReject("a must not be negative", 2)), [("Shapeless", 0), ("Shapeless", 2)])
    # graph mode rejects before the eager run starts
    graph = [_attempt(execute, kernel, dict(binding), "graph", vm.HandleTable()) for execute in (vm.execute, reference_execute)]
    assert graph[0] == graph[1] == want


def _bad_read_kernel(op, args):
    """One instruction over an int attr (value 0), a float attr (1), a str
    attr (2), a tensor (3) and the const 0 (4), its result emitted."""
    params = [
        ParamDecl("a", "attr", DType.INT, "scalar"),
        ParamDecl("f", "attr", DType.FLOAT, "scalar"),
        ParamDecl("s", "attr", DType.STRING, "scalar"),
        ParamDecl("t", "input", DType.DT_INT64, "tensor"),
    ]
    instrs = [
        Instruction("get_attr", 0, ("a",)),
        Instruction("get_attr", 1, ("f",)),
        Instruction("get_attr", 2, ("s",)),
        Instruction("get_input", 3, (0,)),
        Instruction("const", 4, (0,)),
        Instruction(op, 5, args),
        Instruction("emit", None, ("y", 5)),
    ]
    return KernelIR("Bad", params, [("y", DType.DT_INT64)], [Block(0, instrs, ("ret",))], [])


BAD_READS = {
    "rank of an int": ("rank", (0,)),
    "size of an int": ("size", (0,)),
    "dim of an int": ("dim", (0, 4)),
    "dim with a float axis": ("dim", (3, 1)),
    "an int ordered against a str": ("cmp", ("<", 0, 2)),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(BAD_READS))
def test_values_without_shape_or_order_raise_engine_error(case, mode):
    op, args = BAD_READS[case]
    kernel = _bad_read_kernel(op, args)
    binding = {"a": 0, "f": 1.0, "s": "x", "t": TensorVal(DType.DT_INT64, (2, 3), fill=0)}
    with pytest.raises(EngineError, match=rf"^Bad: {op} in block 0, instruction 5: (AttributeError|TypeError): "):
        vm.execute(kernel, binding, mode, vm.HandleTable())
    if op != "cmp":
        # a shape query the prepass cannot answer is unknown, as in the reference
        assert _attempt(vm.shape_infer_prepass, kernel, binding) == _attempt(reference_prepass, kernel, binding) == ("ok", None)


@pytest.mark.parametrize("mode", MODES)
def test_rank_of_an_int_past_the_prepass_raises_engine_error(mode):
    # a = 0 passes the require and the prepass ends at the branch on an
    # unknown rank, so the eager run reads `rank` off the int
    binding = {"a": 0, "f": 1.0, "t": TensorVal(DType.DT_INT64, (2, 3), fill=0)}
    with pytest.raises(EngineError, match=r"^Shapeless: rank in block 0, instruction 3: AttributeError: "):
        vm.execute(_shapeless_kernel(), binding, mode)


def test_generated_source_is_stable_and_holds_no_corpus_text(corpus):
    again = load_corpus()
    for spec in corpus.registry.testable:
        kernel, fresh = corpus.kernel_for(spec.name), again.kernel_for(spec.name)
        assert kernel is not fresh
        source = vm._program(kernel).source
        assert source == vm._program(fresh).source, spec.name
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert not [t.string for t in tokens if t.type == tokenize.STRING], spec.name
        words = {p.name for p in kernel.params} | {name for name, _ in kernel.outputs}
        words |= {p.entity for p in kernel.params if p.entity}
        words |= {i.args[1] for b in kernel.blocks for i in b.instrs if i.opcode == "res_call"}
        # attribute names (`.shape`, `.size`) are the VM's, not the corpus's
        names = {t.string for prev, t in zip(tokens, tokens[1:]) if t.type == tokenize.NAME and prev.string != "."}
        assert not words & names, spec.name
        messages = [b.terminator[1] for b in kernel.blocks if b.terminator[0] == "require_fail"]
        assert not [m for m in messages if m in source], spec.name


def _quoted_kernel(name):
    """A require on an int attr named `name`, whose message and output name
    hold `name` too."""
    instrs = [
        Instruction("get_attr", 0, (name,)),
        Instruction("const", 1, (0,)),
        Instruction("cmp", 2, (">", 0, 1)),
    ]
    blocks = [
        Block(0, instrs, ("br", 2, 1, 2, "require")),
        Block(1, [Instruction("emit", None, (name, 0))], ("ret",)),
        Block(2, [], ("require_fail", f"{name} must be positive")),
    ]
    return KernelIR("Quoted", [ParamDecl(name, "attr", DType.INT, "scalar")], [(name, DType.DT_INT64)], blocks, [])


@pytest.mark.parametrize("value", [-1, 0, 3, 1.5, None])
def test_quotes_backslashes_and_newlines_in_names_run_like_the_reference(value):
    name = 'q"\'\\\n"""x'
    binding = {} if value is None else {name: value}
    assert_same(_quoted_kernel(name), binding)


def test_value_read_but_never_written_fails_to_compile():
    kernel = _ir_kernel()
    kernel.blocks[4].instrs.append(Instruction("emit", None, ("y", 42)))
    with pytest.raises(EngineError, match="value 42 is read but never written"):
        vm.execute(kernel, {"t": TensorVal(DType.DT_INT64, (1,), fill=0), "h": ResourceRef("Stack", "null"), "sel": 0})


def test_unknown_opcode_raises_only_when_reached():
    kernel = _ir_kernel()
    base = {"t": TensorVal(DType.DT_INT64, (3,), fill=0), "h": ResourceRef("Stack", "null")}
    out = vm.execute(kernel, {**base, "sel": 1})
    assert out.verdict.outputs == {"y": 1, "z": 2}
    with pytest.raises(EngineError, match="unknown opcode 'frobnicate'"):
        vm.execute(kernel, {**base, "sel": -1})


# -- step caps --

CAPPED = """
kernel Capped {
  input t : tensor<i64>;
  attr n : int;
  output y : tensor<i64>;
  for i in 0..n {
    t[i] = i + 1;
  }
  require rank(t) == 2, "t must be a matrix";
  emit y = t;
}
"""


def _cap_case(monkeypatch, cap, prepass_cap=100_000):
    monkeypatch.setattr(vm, "_STEP_CAP", cap)
    monkeypatch.setattr(_oracles, "STEP_CAP", cap)
    monkeypatch.setattr(vm, "_PREPASS_STEP_CAP", prepass_cap)
    monkeypatch.setattr(_oracles, "PREPASS_STEP_CAP", prepass_cap)


@pytest.mark.parametrize("cap", range(1, 60))
def test_eager_step_cap_trips_at_the_same_instruction(monkeypatch, cap):
    # eight stores fit in t, the ninth crashes OOB; low caps stop the loop
    # first, high ones let the crash through, and in between the cap falls
    # inside the block holding the crash
    _cap_case(monkeypatch, cap)
    kernel = parse_kernel(CAPPED)
    results = []
    for execute in (vm.execute, reference_execute):
        t = TensorVal(DType.DT_INT64, (8,), data=[0] * 8)
        results.append((_attempt(execute, kernel, {"t": t, "n": 20}, "eager", vm.HandleTable()), t.data))
    assert results[0] == results[1]


# CAPPED runs 6 entry instructions, then 1 header and 4 body instructions
# per turn (the store is body index 2), then 1 header and 3 require ones
def _steps_to_store(turn):
    return 6 + 5 * (turn - 1) + 1 + 2


def test_eager_step_cap_raises_and_spares_an_earlier_crash(monkeypatch):
    kernel = parse_kernel(CAPPED)
    _cap_case(monkeypatch, _steps_to_store(4))
    t = TensorVal(DType.DT_INT64, (8,), data=[0] * 8)
    with pytest.raises(EngineError, match="Capped: step cap exceeded"):
        vm.execute(kernel, {"t": t, "n": 20})
    assert t.data == [1, 2, 3, 0, 0, 0, 0, 0]  # the fourth store was the capped instruction
    # the ninth store crashes OOB; a cap just after it leaves the crash standing
    _cap_case(monkeypatch, _steps_to_store(9) + 1)
    out = vm.execute(kernel, {"t": TensorVal(DType.DT_INT64, (8,), data=[0] * 8), "n": 20})
    assert out.is_crash and out.verdict.kind == "OOB" and (out.verdict.block, out.verdict.instr_index) == (2, 2)


PREPASS_STEPS = 6 + 9 * 5 + 1 + 3  # CAPPED's whole prepass walk at n = 9


@pytest.mark.parametrize("cap", [1, 5, 6, 7, 30, PREPASS_STEPS - 1, PREPASS_STEPS, PREPASS_STEPS + 1, 100])
def test_prepass_step_cap_gives_up_at_the_same_instruction(monkeypatch, cap):
    _cap_case(monkeypatch, 10_000_000, prepass_cap=cap)
    kernel = parse_kernel(CAPPED)
    binding = {"t": TensorVal(DType.DT_INT64, (8,), fill=0), "n": 9}
    compiled = vm.shape_infer_prepass(kernel, binding)
    assert _attempt(lambda: compiled) == _attempt(reference_prepass, kernel, binding)
    if cap < PREPASS_STEPS:
        assert compiled is None
    else:
        assert compiled.verdict == ValidationReject("t must be a matrix", 4)
    # past the prepass, eager runs and crashes at the ninth store
    graph = [_attempt(execute, kernel, copy.deepcopy(binding), "graph", vm.HandleTable()) for execute in (vm.execute, reference_execute)]
    assert graph[0] == graph[1]


@pytest.mark.parametrize("cap", range(1, 13))
def test_prepass_step_cap_stops_before_the_capped_instruction(monkeypatch, cap):
    # entry block has 10 instructions and block 1 an unknown opcode: a cap of
    # 10 gives up before reaching it, a cap of 11 raises
    _cap_case(monkeypatch, 10_000_000, prepass_cap=cap)
    kernel = _ir_kernel()
    binding = {"t": TensorVal(DType.DT_INT64, (3,), fill=0), "h": ResourceRef("Stack", "null"), "sel": -1}
    compiled = _attempt(vm.shape_infer_prepass, kernel, binding)
    assert compiled == _attempt(reference_prepass, kernel, binding)
    assert compiled[0] == ("ok" if cap <= 10 else "raised")


# -- the tracer's lookup sites --


def test_orchestrator_executes_through_the_vm_function():
    assert orchestrator.execute is vm.execute


def test_graph_execute_looks_up_the_prepass_by_module_global(monkeypatch):
    calls = []
    real = vm.shape_infer_prepass

    def spy(kernel, binding):
        calls.append(kernel.kernel_id)
        return real(kernel, binding)

    monkeypatch.setattr(vm, "shape_infer_prepass", spy)
    kernel = parse_kernel(CAPPED)
    binding = {"t": TensorVal(DType.DT_INT64, (2,), fill=0), "n": 1}
    out = vm.execute(kernel, binding, "graph")
    assert calls == ["Capped"] and isinstance(out, ExecOutcome)
    vm.execute(kernel, binding, "eager")
    assert calls == ["Capped"]
