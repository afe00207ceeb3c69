"""Kernel interpreter: sanitizers, binding checks, modes, seeded witnesses."""

import pytest

from opfuzz.corpus import decode_binding
from opfuzz.kernel.ir import (
    Crash,
    DType,
    EngineError,
    ResourceRef,
    Success,
    TensorVal,
    ValidationReject,
)
from opfuzz.kernel.parser import parse_kernel
from opfuzz.kernel.vm import (
    HandleTable,
    check_binding,
    execute,
    shape_infer_prepass,
    trunc_div,
    trunc_mod,
)

from _oracles import enumerate_bindings


def run(source, binding, mode="eager", handles=None):
    return execute(parse_kernel(source), binding, mode, handles or HandleTable())


def tensor(values, dtype=DType.DT_INT64):
    return TensorVal(dtype, (len(values),), data=list(values))


# -- sanitizers, one synthetic kernel each --


def test_oob_load_crashes():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  v = x[3];
  emit y = x;
}
"""
    out = run(src, {"x": tensor([1, 2])})
    assert isinstance(out.verdict, Crash) and out.verdict.kind == "OOB"


def test_empty_load_is_npe():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  v = x[0];
  emit y = x;
}
"""
    out = run(src, {"x": tensor([])})
    assert isinstance(out.verdict, Crash) and out.verdict.kind == "NPE"


def test_integer_division_by_zero_is_fpe():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  v = x[0] / x[1];
  emit y = x;
}
"""
    out = run(src, {"x": tensor([1, 0])})
    assert isinstance(out.verdict, Crash) and out.verdict.kind == "FPE"


def test_int64_overflow_is_iof():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  v = x[0] * x[0];
  emit y = x;
}
"""
    out = run(src, {"x": tensor([2**62])})
    assert isinstance(out.verdict, Crash) and out.verdict.kind == "IOF"


@pytest.mark.parametrize("mode", ["eager", "graph"])
def test_float_remainder_of_inf_rejects(mode):
    src = """
kernel K {
  input x : tensor<f32>;
  output y : tensor<f32>;
  require x[0] % 2.0 == 0.0, "even";
  emit y = x;
}
"""
    out = run(src, {"x": tensor([float("inf")], DType.DT_FLOAT)}, mode)
    assert isinstance(out.verdict, ValidationReject) and out.verdict.message == "even"


def test_closed_handle_use_is_uaf():
    src = """
kernel K {
  input h : resource<Stack>;
  output y : tensor<f32>;
  v = call Pop(Stack, h);
  emit y = v;
}
"""
    out = run(src, {"h": ResourceRef("Stack", "closed")})
    assert isinstance(out.verdict, Crash) and out.verdict.kind == "UAF"


def test_crash_records_kernel_and_block():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  v = x[3];
  emit y = x;
}
"""
    out = run(src, {"x": tensor([1])})
    assert out.verdict.kernel_id == "K"
    assert (out.verdict.kernel_id, out.verdict.block) in out.covered


# -- validation rejects --

GUARDED = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  require rank(x) == 1, "x must be a vector";
  emit y = x;
}
"""


def test_require_rejects_with_message():
    out = run(GUARDED, {"x": TensorVal(DType.DT_INT64, (), data=[5])})
    assert isinstance(out.verdict, ValidationReject)
    assert out.verdict.message == "x must be a vector"


def test_require_passes_to_success():
    out = run(GUARDED, {"x": tensor([5])})
    assert isinstance(out.verdict, Success)
    assert "y" in out.verdict.outputs


def test_coverage_includes_visited_blocks_only():
    kern = parse_kernel(GUARDED)
    ok = execute(kern, {"x": tensor([5])}, "eager", HandleTable())
    bad = execute(kern, {"x": TensorVal(DType.DT_INT64, (), data=[5])}, "eager", HandleTable())
    all_bids = {("K", b.bid) for b in kern.blocks}
    assert ok.covered <= all_bids and bad.covered <= all_bids
    assert ok.covered != bad.covered


# -- binding checks --


def test_missing_parameter_raises():
    with pytest.raises(EngineError, match="missing parameter"):
        run(GUARDED, {})


def test_wrong_dtype_rejects_not_crashes():
    out = run(GUARDED, {"x": TensorVal(DType.DT_FLOAT, (1,), data=[1.0])})
    assert isinstance(out.verdict, ValidationReject)
    assert "expected DT_INT64" in out.verdict.message


def test_wrong_entity_rejects():
    src = """
kernel K {
  input h : resource<Stack>;
  output y : tensor<f32>;
  v = call Pop(Stack, h);
  emit y = v;
}
"""
    out = run(src, {"h": ResourceRef("Lookup", "fresh")})
    assert isinstance(out.verdict, ValidationReject)
    assert "Stack" in out.verdict.message


def test_check_binding_accepts_valid(corpus):
    kern = corpus.kernel_for("MatrixDet")
    binding = {"m": TensorVal(DType.DT_FLOAT, (2, 2), fill=1.0)}
    assert check_binding(kern, binding) is None


# -- integer semantics --


@pytest.mark.parametrize(
    "a,b,q,r",
    [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
        (1, 3, 0, 1),
        (-1, 3, 0, -1),
    ],
)
def test_truncating_division(a, b, q, r):
    assert trunc_div(a, b) == q
    assert trunc_mod(a, b) == r
    # invariant that defines the pair
    assert trunc_div(a, b) * b + trunc_mod(a, b) == a


# -- dtypes and extents --


def test_every_dtype_keeps_its_is_tensor_on_every_read():
    tensors = {DType.DT_INT64, DType.DT_FLOAT, DType.DT_STRING, DType.DT_BOOL}
    for _ in range(2):  # the first read fills the cache, the second reads it
        assert {d: d.is_tensor for d in DType} == {d: d in tensors for d in DType}


def test_a_trusted_tensor_equals_the_checked_one():
    for shape, data, fill in (((2, 3), list(range(6)), None), ((), [7], None), ((0, 4), [], None), ((100, 100), None, 5)):
        checked = TensorVal(DType.DT_INT64, shape, data=data, fill=fill)
        trusted = TensorVal.trusted(DType.DT_INT64, shape, checked.size, data, fill)
        assert (trusted.shape, trusted.size, trusted.data, trusted.fill, trusted.overrides) == (
            checked.shape, checked.size, checked.data, checked.fill, checked.overrides
        )


def test_dense_tensor_rejects_negative_extent():
    with pytest.raises(EngineError):
        TensorVal(DType.DT_INT64, (-1,), data=[])


def test_lazy_tensor_allows_negative_extent_and_traps_on_access():
    t = TensorVal(DType.DT_INT64, (-2,), fill=0)
    assert t.size <= 0
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  v = x[0];
  emit y = x;
}
"""
    out = run(src, {"x": t})
    assert isinstance(out.verdict, Crash) and out.verdict.kind == "NPE"


# -- graph mode --


def test_prepass_catches_shape_reject_early():
    kern = parse_kernel(GUARDED)
    bad = {"x": TensorVal(DType.DT_INT64, (2, 2), fill=0)}
    early = shape_infer_prepass(kern, bad)
    assert early is not None and isinstance(early.verdict, ValidationReject)
    assert early.verdict.message == "x must be a vector"


def test_prepass_is_silent_on_element_requires():
    src = """
kernel K {
  input x : tensor<i64>;
  output y : tensor<i64>;
  require x[0] > 0, "first element must be positive";
  emit y = x;
}
"""
    kern = parse_kernel(src)
    assert shape_infer_prepass(kern, {"x": tensor([-5])}) is None
    out = execute(kern, {"x": tensor([-5])}, "graph", HandleTable())
    assert isinstance(out.verdict, ValidationReject)


def test_modes_agree_on_verdict_for_sampled_corpus_bindings(corpus):
    # prepass may re-route coverage but never the verdict class/message
    for op in ("MatrixDet", "Reshape", "Bincount", "Scale"):
        kern = corpus.kernel_for(op)
        for i, binding in enumerate(enumerate_bindings(kern)):
            if i % 7:  # thin the sweep, keep the variety
                continue
            eager = execute(kern, binding, "eager", HandleTable())
            graph = execute(kern, binding, "graph", HandleTable())
            assert type(eager.verdict) is type(graph.verdict), (op, binding)
            if isinstance(eager.verdict, ValidationReject):
                assert eager.verdict.message == graph.verdict.message


# -- seeded witnesses --


def test_all_manifest_witnesses_crash_as_recorded(corpus, manifest):
    for bug in manifest["bugs"]:
        kern = corpus.kernels[bug["kernel"]]
        binding = decode_binding(bug["witness"])
        handles = HandleTable()
        out = execute(kern, binding, "eager", handles)
        assert isinstance(out.verdict, Crash), bug["op"]
        assert out.verdict.kind == bug["kind"], bug["op"]
        assert out.verdict.block == bug["block"], bug["op"]
