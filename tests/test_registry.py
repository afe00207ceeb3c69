"""Descriptor parsing, call-path placement, and operator deduplication."""

import pytest

from opfuzz.registry import (
    DescriptorError,
    build_module_tree,
    build_registry,
    dedup_operators,
    parse_opspecs,
)

from _oracles import best_declared_path, declared_paths_by_op


def test_census_matches_manifest(corpus, manifest):
    census = manifest["census"]
    reg = corpus.registry
    assert len(reg.specs) == census["descriptors"]
    bound = [s for s in reg.specs if s.kernel_id is not None]
    assert len(bound) == census["kernel_bound"]
    assert len(reg.groups) == census["dedup_groups"]
    assert len(reg.testable) == census["testable"]
    assert len(corpus.kernels) == census["kernels"]
    frontend_only = [s for s in reg.specs if s.kernel_id is None]
    assert len(frontend_only) == census["frontend_only"]
    skipped = [g for g in reg.groups if not g.testable]
    assert len(skipped) == census["skipped"]


def test_every_placement_is_shortest_declared_path(corpus):
    declared = declared_paths_by_op(corpus.registry.specs)
    for name, paths in declared.items():
        stored = corpus.registry.tree.path(name)
        assert stored == best_declared_path(paths), name
        # brute re-check: nothing declared beats the stored path
        for cand in paths:
            assert (len(stored), stored) <= (len(cand), tuple(cand)), name


def test_kernel_groups_match_manifest(corpus, manifest):
    assert corpus.registry.kernel_groups == manifest["kernel_groups"]


def test_extremum_pair_shares_one_kernel_group(corpus):
    groups = corpus.registry.kernel_groups
    assert groups["ArgKernel"] == ["ArgMax", "ArgMin"]


def test_module_tree_contains_all_path_prefixes(corpus):
    tree = corpus.registry.tree
    for name in declared_paths_by_op(corpus.registry.specs):
        path = tree.path(name)
        for k in range(1, len(path) + 1):
            assert path[:k] in tree.nodes
            if k > 1:
                assert (path[: k - 1], path[:k]) in tree.edges


DUPLICATE = """
op {
  name: "Twin"
  module: "raw_ops"
  kernel: "TwinKernel"
  input_arg { name: "x" type: DT_INT64 }
  output_arg { name: "y" type: DT_INT64 }
}
op {
  name: "Twin"
  module: "compat.v1"
  kernel: "TwinKernel"
  input_arg { name: "x" type: DT_INT64 }
  output_arg { name: "y" type: DT_INT64 }
}
"""


def test_identical_redeclarations_collapse_to_one_group():
    groups = dedup_operators(parse_opspecs(DUPLICATE))
    assert len(groups) == 1
    assert len(groups[0].members) == 2
    # representative sits at the shorter module path
    assert groups[0].representative.module_path == ("raw_ops",)


def test_conflicting_redeclaration_is_rejected():
    conflict = DUPLICATE.replace('name: "x"', 'name: "z"', 1)
    with pytest.raises(DescriptorError, match="reused"):
        dedup_operators(parse_opspecs(conflict))


def test_corpus_contains_one_true_duplicate_pair(corpus):
    sizes = sorted(len(g.members) for g in corpus.registry.groups)
    assert sizes.count(2) == 1
    assert set(sizes) == {1, 2}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('op { module: "m" }', "name"),
        ('op { name: "A" module: "m" input_arg { name: "x" type: DT_NOPE } }', "DT_NOPE"),
        (
            'op { name: "A" module: "m" input_arg { name: "x" type: DT_INT64 entity: "Stack" } }',
            "entity",
        ),
        (
            'op { name: "A" module: "m" input_arg { name: "x" type: DT_INT64 file: true } }',
            "file",
        ),
        (
            'op { name: "A" module: "m" input_arg { name: "h" type: DT_RESOURCE } }',
            "entity",
        ),
        ('op { name: "A }', "unterminated string at line 1, col 12"),
        ('op {\n  ~ }', "unexpected character '~' at line 2, col 3"),
    ],
)
def test_descriptor_parse_errors(text, fragment):
    with pytest.raises(DescriptorError, match=fragment):
        parse_opspecs(text)


def test_skip_marker_excludes_from_testable(corpus):
    skipped = [g for g in corpus.registry.groups if not g.testable]
    assert len(skipped) == 1
    assert all(g.name != skipped[0].name for g in corpus.registry.groups if g.testable)
    assert skipped[0].name not in {s.name for s in corpus.registry.testable}


def test_build_module_tree_prefers_alias_when_shorter():
    text = """
op {
  name: "Deep"
  module: "a.b.c"
  alias: "z"
  kernel: "K"
  input_arg { name: "x" type: DT_INT64 }
}
"""
    specs = parse_opspecs(text)
    tree = build_module_tree(specs)
    assert tree.path("Deep") == ("z",)


def test_build_registry_shape(corpus):
    reg = build_registry(corpus.registry.specs)
    assert {g.name for g in reg.groups} == {g.name for g in corpus.registry.groups}
    assert reg.by_name["ArgMax"].kernel_id == "ArgKernel"
    assert reg.by_name is reg.by_name
    # each member's dotted name resolves to its group too
    assert reg.by_name["raw_ops.ArgMax"] is reg.by_name["ArgMax"]
    assert reg.by_name["compat.v1.Reshape"] is reg.by_name["raw_ops.Reshape"] is reg.by_name["Reshape"]
