"""Corpus loading, cross-validation, fixtures, and binding serialization."""

import json

import pytest

from opfuzz.corpus import (
    CorpusError,
    decode_binding,
    decode_value,
    encode_binding,
    encode_value,
    load_corpus,
    parse_test_script,
    provision_fixtures,
)
from opfuzz.kernel.ir import DType, ResourceRef, TensorVal

MINI_OPS = """
op {
  name: "Mini"
  module: "raw_ops"
  kernel: "MiniKernel"
  input_arg { name: "x" type: DT_INT64 }
  output_arg { name: "y" type: DT_INT64 }
}
"""

MINI_KRN = """
kernel MiniKernel {
  input x : tensor<i64>;
  output y : tensor<i64>;
  require rank(x) == 1, "vector";
  emit y = x;
}
"""

MINI_MANIFEST = {
    "census": {},
    "modes": ["eager"],
    "kernel_blocks": {"MiniKernel": 3},
    "bugs": [],
    "thresholds": {},
}


def write_corpus(root, ops=MINI_OPS, krn=MINI_KRN, manifest=MINI_MANIFEST, test=None):
    (root / "ops").mkdir()
    (root / "kernels").mkdir()
    (root / "ops" / "mini.ops").write_text(ops)
    (root / "kernels" / "mini.krn").write_text(krn)
    (root / "manifest.json").write_text(json.dumps(manifest))
    if test is not None:
        (root / "tests").mkdir()
        (root / "tests" / "mini.test").write_text(test)
    return root


def test_bundled_corpus_census(corpus):
    assert len(corpus.kernels) == 22
    assert len(corpus.trees) == 22
    assert len(corpus.fixtures) == 1
    assert len(corpus.sequences) == 2
    assert corpus.modes == ["eager", "graph"]
    assert len(corpus.registry.testable) == 22


def test_minimal_corpus_loads(tmp_path):
    c = load_corpus(write_corpus(tmp_path))
    assert c.spec_for("Mini").kernel_id == "MiniKernel"
    assert c.kernel_for("Mini").kernel_id == "MiniKernel"
    assert len(c.tree_for("Mini").constraints) == 1


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda s: s.replace("DT_INT64", "DT_FLOAT", 1), "DT_FLOAT"),
        (lambda s: s.replace('name: "x"', 'name: "z"', 1), "input names"),
        (lambda s: s.replace('kernel: "MiniKernel"', 'kernel: "GhostKernel"'), "missing kernel"),
        (lambda s: s.replace('name: "y"', 'name: "out"'), "outputs"),
    ],
)
def test_descriptor_kernel_mismatches_are_fatal(tmp_path, mutate, fragment):
    with pytest.raises(CorpusError, match=fragment):
        load_corpus(write_corpus(tmp_path, ops=mutate(MINI_OPS)))


def test_attr_type_mismatch_is_fatal(tmp_path):
    ops = MINI_OPS.replace(
        'input_arg { name: "x" type: DT_INT64 }',
        'input_arg { name: "x" type: DT_INT64 }\n  attr { name: "n" type: "int" }',
    )
    krn = MINI_KRN.replace(
        "input x : tensor<i64>;",
        "input x : tensor<i64>;\n  attr n : float;",
    )
    with pytest.raises(CorpusError, match="attr type"):
        load_corpus(write_corpus(tmp_path, ops=ops, krn=krn))


def test_resource_entity_mismatch_is_fatal(tmp_path):
    ops = MINI_OPS.replace(
        'input_arg { name: "x" type: DT_INT64 }',
        'input_arg { name: "h" type: DT_RESOURCE entity: "Stack" }',
    )
    krn = MINI_KRN.replace(
        "input x : tensor<i64>;",
        "input h : resource<Lookup>;",
    ).replace('require rank(x) == 1, "vector";\n  emit y = x;', "v = call Pop(Lookup, h);\n  emit y = v;")
    with pytest.raises(CorpusError, match="entity"):
        load_corpus(write_corpus(tmp_path, ops=ops, krn=krn))


def test_missing_manifest_key_is_fatal(tmp_path):
    broken = {k: v for k, v in MINI_MANIFEST.items() if k != "thresholds"}
    with pytest.raises(CorpusError, match="thresholds"):
        load_corpus(write_corpus(tmp_path, manifest=broken))


@pytest.mark.parametrize(
    "text,what", [("{bad", "is not JSON"), ("3", "is not a JSON object")], ids=["not-json", "not-an-object"]
)
def test_malformed_manifest_is_fatal(tmp_path, text, what):
    root = write_corpus(tmp_path)
    (root / "manifest.json").write_text(text)
    with pytest.raises(CorpusError, match=f"manifest.json {what}"):
        load_corpus(root)


def test_sequence_with_unknown_op_is_fatal(tmp_path):
    test = 'test "T" { seq Mini Ghost; }\n'
    with pytest.raises(CorpusError, match="Ghost"):
        load_corpus(write_corpus(tmp_path, test=test))


def test_sequence_across_entity_groups_is_fatal(tmp_path):
    other = MINI_OPS.replace('name: "Mini"', 'name: "Other"')
    test = 'test "T" { seq Mini Other; }\n'
    with pytest.raises(CorpusError, match="spans entity groups"):
        load_corpus(write_corpus(tmp_path, ops=MINI_OPS + other, test=test))


def test_fixture_for_unknown_op_is_fatal(tmp_path):
    test = 'test "T" { fixture file "f" bytes 4 fill 0x00; }\n'
    # fixture binds to the enclosing test name, which is not an operator
    with pytest.raises(CorpusError, match="unknown operator"):
        load_corpus(write_corpus(tmp_path, test=test))


# -- test script grammar --


def test_script_parses_fixture_and_sequence():
    fixtures, sequences = parse_test_script(
        'test "Mini" {\n  fixture file "blob" bytes 16 fill 0xAB;\n  seq  A B C;\n}\n'
    )
    assert len(fixtures) == 1 and fixtures[0].label == "blob"
    assert fixtures[0].size == 16 and fixtures[0].fill == 0xAB
    assert len(sequences) == 1 and sequences[0].ops == ("A", "B", "C")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('test "T" { seq OnlyOne; }', "two operators"),
        ('test "T" { fixture file "f" bytes 4 fill 999; }', "out of range"),
        ('test "T" { dance; }', "unknown statement"),
        ('test "T" { seq A B', "expected"),
        ('test "a', "line 1: unterminated string"),
    ],
)
def test_script_errors(text, fragment):
    with pytest.raises(CorpusError, match=fragment):
        parse_test_script(text)


# -- fixture provisioning --


def test_provisioning_is_byte_identical_and_idempotent(corpus, tmp_path):
    paths = provision_fixtures(corpus, tmp_path)
    (decl,) = corpus.fixtures.values()
    blob = paths[decl.label].read_bytes()
    assert blob == bytes([decl.fill]) * decl.size
    before = paths[decl.label].stat().st_mtime_ns
    again = provision_fixtures(corpus, tmp_path)
    assert again[decl.label].read_bytes() == blob
    assert again[decl.label].stat().st_mtime_ns == before


# -- serialization round trips --


@pytest.mark.parametrize(
    "value",
    [
        TensorVal(DType.DT_INT64, (2, 2), data=[1, -2, 3, 4]),
        TensorVal(DType.DT_FLOAT, (3,), fill=0.5),
        TensorVal(DType.DT_STRING, (), data=["solo"]),
        TensorVal(DType.DT_BOOL, (2,), data=[True, False]),
        ResourceRef("Stack", "fresh"),
        7,
        -1.5,
        "label",
        True,
    ],
)
def test_value_round_trip(value):
    wire = json.loads(json.dumps(encode_value(value)))
    back = decode_value(wire)
    if isinstance(value, TensorVal):
        assert back == value
    elif isinstance(value, ResourceRef):
        assert (back.entity, back.state) == (value.entity, value.state)
    else:
        assert back == value and type(back) is type(value)


def test_lazy_tensor_with_overrides_round_trips():
    t = TensorVal(DType.DT_INT64, (100,), fill=7)
    t.flat_set(3, -9)
    t.flat_set(42, 0)
    wire = json.loads(json.dumps(encode_value(t)))
    back = decode_value(wire)
    assert back.fill == 7 and back.overrides == {3: -9, 42: 0}
    assert back == t


def test_negative_extent_round_trips():
    t = TensorVal(DType.DT_INT64, (-3,), fill=1)
    back = decode_value(json.loads(json.dumps(encode_value(t))))
    assert back.shape == (-3,) and back.size <= 0


def test_binding_round_trip_is_order_insensitive():
    binding = {
        "b": TensorVal(DType.DT_FLOAT, (1,), data=[2.0]),
        "a": 4,
    }
    wire = encode_binding(binding)
    assert list(wire) == ["a", "b"]  # sorted for stable reports
    back = decode_binding(json.loads(json.dumps(wire)))
    assert back["a"] == 4 and back["b"] == binding["b"]


def test_all_witnesses_round_trip_byte_stable(manifest):
    for bug in manifest["bugs"]:
        wire = bug["witness"]
        again = encode_binding(decode_binding(wire))
        assert json.dumps(again, sort_keys=True) == json.dumps(wire, sort_keys=True), bug["op"]
