"""Kernel source lowering: block structure, regions, and value definitions;
the missing-token message all four grammars share."""

import pytest

from opfuzz.constraints import ConstraintError, parse_constraint
from opfuzz.corpus import CorpusError, parse_test_script
from opfuzz.kernel.ir import LoopRegion, RequireRegion
from opfuzz.kernel.parser import KernelParseError, def_map, parse_kernel
from opfuzz.registry import DescriptorError, parse_opspecs


def test_block_counts_match_manifest(corpus, manifest):
    for kid, want in manifest["kernel_blocks"].items():
        assert len(corpus.kernels[kid].blocks) == want, kid


def test_every_block_has_wellformed_terminator(corpus):
    for kern in corpus.kernels.values():
        bids = {b.bid for b in kern.blocks}
        for block in kern.blocks:
            term = block.terminator
            assert term is not None, (kern.kernel_id, block.bid)
            if term[0] == "br":
                assert term[2] in bids and term[3] in bids
            elif term[0] == "jmp":
                assert term[1] in bids
            else:
                assert term[0] in ("require_fail", "ret")


def test_require_fail_blocks_are_empty(corpus):
    for kern in corpus.kernels.values():
        for block in kern.blocks:
            if block.terminator[0] == "require_fail":
                assert not block.instrs, (kern.kernel_id, block.bid)


def test_def_map_is_first_definition_and_total(corpus):
    for kern in corpus.kernels.values():
        defs = def_map(kern)
        seen = set()
        for block in kern.blocks:
            for inst in block.instrs:
                if inst.dst is None or inst.meta.get("loop_latch"):
                    continue
                if inst.dst not in seen:
                    assert defs[inst.dst] is inst
                    seen.add(inst.dst)
        assert set(defs) == seen


SMALL = """
kernel SmallKernel {
  input x : tensor<i64>;
  attr n : int;
  output y : tensor<i64>;

  require rank(x) == 1, "x must be a vector";
  for i in 0..size(x) {
    require x[i] >= 0, "negative element";
  }
  if n > 0 {
    emit y = x;
  }
  emit y = x;
}
"""


def test_region_skeleton_shapes():
    kern = parse_kernel(SMALL)
    kinds = [type(r).__name__ for r in kern.regions]
    assert kinds == ["RequireRegion", "LoopRegion", "IfRegion"]
    req = kern.regions[0]
    assert isinstance(req, RequireRegion)
    assert req.message == "x must be a vector"
    loop = kern.regions[1]
    assert isinstance(loop, LoopRegion)
    assert len(loop.body_regions) == 1
    assert isinstance(loop.body_regions[0], RequireRegion)


def test_loop_lowering_has_latch_redefinition():
    kern = parse_kernel(SMALL)
    latches = [
        inst
        for block in kern.blocks
        for inst in block.instrs
        if inst.meta.get("loop_latch")
    ]
    assert latches, "loop increment should be marked as a latch redefinition"
    loop = kern.regions[1]
    assert any(inst.dst == loop.var_id for inst in latches)


def test_params_and_outputs_lowered():
    kern = parse_kernel(SMALL)
    assert [p.name for p in kern.inputs] == ["x"]
    assert [p.name for p in kern.attrs] == ["n"]
    assert [name for name, _ in kern.outputs] == ["y"]


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("kernel K { input x : tensor<i9>; }", "i9"),
        ("kernel K { require y > 0, \"m\"; }", "y"),
        ("kernel K { input x : tensor<i64> }", ";"),
        ("kernel K { input x : tensor<i64>; emit }", "expected 'ident', got '}'"),
        ("kernel K { input x : tensor<i64>; x = 1; }", "x"),
        ('kernel K { require 1 > 0, "m; }', "unterminated string"),
        ("kernel K { ~ }", "unexpected character '~'"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(KernelParseError, match=fragment):
        parse_kernel(source)


@pytest.mark.parametrize(
    "parse,text,error,message",
    [
        (parse_kernel, "kernel K {\n  input x : tensor<i64>;\n  emit }", KernelParseError, "3:8: expected 'ident', got '}'"),
        (parse_opspecs, 'op {\n  : "A" }', DescriptorError, "expected 'ident', got ':' at line 2, col 3"),
        (parse_test_script, 'test "T" {\n  seq A B }', CorpusError, "test script line 2: expected ';', got '}'"),
        (parse_constraint, "ndim() == 1", ConstraintError, "expected 'ident', got ')'"),
    ],
)
def test_every_grammar_reports_a_missing_token_alike(parse, text, error, message):
    with pytest.raises(error) as info:
        parse(text)
    assert str(info.value) == message


def test_error_carries_position():
    try:
        parse_kernel("kernel K {\n  require y > 0, \"m\";\n}")
    except KernelParseError as e:
        assert e.args and "y" in str(e)
        assert e.line == 2 and e.col == 11
    else:
        pytest.fail("expected a parse error")


def test_float_literal_and_unary_minus_lower_to_constants():
    kern = parse_kernel(
        """
kernel FloatKernel {
  input x : tensor<f32>;
  output y : tensor<f32>;
  t = -x[0] * 2.5;
  require t <= -1.25, "small";
  emit y = x;
}
"""
    )
    consts = [inst.args[0] for b in kern.blocks for inst in b.instrs if inst.opcode == "const"]
    assert 2.5 in consts and -1.25 not in consts
    assert any(c == 0.0 and isinstance(c, float) for c in consts)
    negations = [inst for b in kern.blocks for inst in b.instrs if inst.opcode == "bin" and inst.args[0] == "-"]
    assert len(negations) == 2


# -- precedence and associativity --


def _expr_shape(expr: str):
    """The tree `t = expr;` lowers to, read back off its instructions: an
    attr by name, a constant by value, an operator as (op, *operands)."""
    kern = parse_kernel(
        "kernel K { attr a : int; attr b : int; attr c : int;"
        f" attr x : bool; attr y : bool; attr z : bool; t = {expr}; }}"
    )
    defs = def_map(kern)

    def shape(vid):
        inst = defs[vid]
        if inst.opcode in ("get_attr", "const"):
            return inst.args[0]
        return (inst.args[0], *(shape(v) for v in inst.args[1:] if v is not None))

    return shape(kern.blocks[0].instrs[-1].dst)


@pytest.mark.parametrize(
    "expr,want",
    [
        ("a - b - c", ("-", ("-", "a", "b"), "c")),
        ("a + b * c", ("+", "a", ("*", "b", "c"))),
        ("a * b + c", ("+", ("*", "a", "b"), "c")),
        ("a / b % c", ("%", ("/", "a", "b"), "c")),
        ("a - (b - c)", ("-", "a", ("-", "b", "c"))),
        ("-a * b", ("*", ("-", 0, "a"), "b")),
        ("a + b < c * a", ("<", ("+", "a", "b"), ("*", "c", "a"))),
        ("x or y and z", ("or", "x", ("and", "y", "z"))),
        ("x and y or z", ("or", ("and", "x", "y"), "z")),
        ("x or y or z", ("or", ("or", "x", "y"), "z")),
        ("not x and y", ("and", ("not", "x"), "y")),
        ("a < b or x", ("or", ("<", "a", "b"), "x")),
    ],
)
def test_kernel_expression_precedence(expr, want):
    assert _expr_shape(expr) == want


@pytest.mark.parametrize("expr", ["a == b == c", "a < b < c"])
def test_kernel_comparisons_do_not_chain(expr):
    with pytest.raises(KernelParseError, match=r"expected ';', got '[=<]+'"):
        _expr_shape(expr)
