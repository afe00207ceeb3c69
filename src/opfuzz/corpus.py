"""Bundled operator corpus: descriptors, kernels, test scripts, goldens.

The loader parses everything, extracts constraint trees, and
cross-validates kernels against descriptors so a campaign never
discovers a mismatch at iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .constraints import ConstraintError, ConstraintTree, parse_tree
from .extractor import extract_constraints
from .kernel.ir import DType, KernelIR, ResourceRef, TensorVal
from .kernel.parser import KernelParseError, Tokens, parse_kernel, token_pattern
from .registry import DescriptorError, OpSpec, Registry, build_registry, cluster_entities, parse_opspecs


class CorpusError(Exception):
    pass


@dataclass(frozen=True)
class FixtureDecl:
    op: str
    label: str
    size: int
    fill: int


@dataclass(frozen=True)
class SequenceDecl:
    name: str
    ops: tuple


@dataclass
class Corpus:
    root: Path
    registry: Registry
    kernels: dict
    trees: dict
    fixtures: dict
    sequences: tuple
    manifest: dict

    def spec_for(self, op: str) -> OpSpec:
        group = self.registry.by_name.get(op)
        if group is None:
            raise CorpusError(f"unknown operator {op!r}")
        return group.representative

    def kernel_for(self, op: str) -> KernelIR:
        return self.kernels[self.spec_for(op).kernel_id]

    def tree_for(self, op: str) -> ConstraintTree:
        return self.trees[self.spec_for(op).kernel_id]

    def sequence_for(self, op: str) -> SequenceDecl | None:
        for seq in self.sequences:
            if op in seq.ops:
                return seq
        return None

    def fixture_for(self, op: str) -> FixtureDecl | None:
        return self.fixtures.get(op)

    @property
    def modes(self) -> list:
        return list(self.manifest["modes"])

    @property
    def dependency_count(self) -> int:
        wired = 0
        for seq in self.sequences:
            for op in seq.ops:
                spec = self.spec_for(op)
                wired += sum(1 for p in spec.params if p.container == "resource")
        return len(self.fixtures) + len(self.sequences) + wired

    def golden_tree(self, op: str) -> ConstraintTree | None:
        path = self.root / "golden" / f"{op}.ctree"
        if not path.exists():
            return None
        try:
            return parse_tree(path.read_text(), self.spec_for(op).kernel_id)
        except ConstraintError as e:
            raise CorpusError(f"golden/{path.name}: {e}") from None


# -- test script parsing --


_TOKENS = token_pattern(
    r'(?P<str>"[^"]*")|(?P<int>0[xX][0-9a-fA-F]*|\d+)|(?P<ident>[A-Za-z_]\w*)|(?P<punct>[{};])'
)
_CONVERT = {"str": lambda s: s[1:-1], "int": lambda s: int(s, 16 if s[1:2] in ("x", "X") else 10)}


def _script_error(message: str, line: int, col: int) -> CorpusError:
    return CorpusError(f"test script line {line}: {message}")


def parse_test_script(text: str):
    """Returns (fixtures, sequences) declared by one script."""
    toks = Tokens(text, _TOKENS, _CONVERT, _script_error)
    fixtures = []
    sequences = []
    while not toks.at("eof"):
        toks.expect("ident", "test")
        test_name = toks.expect("str")
        toks.expect("punct", "{")
        while not toks.at("punct", "}"):
            stmt = toks.next()
            if stmt[:2] == ("ident", "fixture"):
                toks.expect("ident", "file")
                label = toks.expect("str")
                toks.expect("ident", "bytes")
                size = toks.expect("int")
                toks.expect("ident", "fill")
                fill = toks.expect("int")
                toks.expect("punct", ";")
                if not 0 <= fill <= 255:
                    toks.fail("fill byte out of range", stmt)
                fixtures.append(FixtureDecl(test_name, label, size, fill))
            elif stmt[:2] == ("ident", "seq"):
                ops = []
                while toks.at("ident"):
                    ops.append(toks.next()[1])
                toks.expect("punct", ";")
                if len(ops) < 2:
                    toks.fail("sequence needs at least two operators", stmt)
                sequences.append(SequenceDecl(test_name, tuple(ops)))
            else:
                toks.fail(f"unknown statement {stmt[1]!r}", stmt)
        toks.next()
    return fixtures, sequences


# -- cross-validation --


def _check_params(spec: OpSpec, kernel: KernelIR, src: str):
    spec_inputs = list(spec.inputs)
    kern_inputs = list(kernel.inputs)
    if [p.name for p in spec_inputs] != [p.name for p in kern_inputs]:
        raise CorpusError(
            f"{src}: {spec.name} input names {[p.name for p in spec_inputs]}"
            f" do not match kernel {kernel.kernel_id} {[p.name for p in kern_inputs]}"
        )
    for sp, kp in zip(spec_inputs, kern_inputs):
        # a file-path param is a string tensor as far as the kernel knows
        want_container = "tensor" if sp.container == "file-path" else sp.container
        if kp.container != want_container or sp.dtype != kp.dtype:
            raise CorpusError(
                f"{src}: {spec.name}.{sp.name} is {sp.container}/{sp.dtype.name}"
                f" but kernel declares {kp.container}/{kp.dtype.name}"
            )
        if sp.container == "resource" and sp.entity != kp.entity:
            raise CorpusError(f"{src}: {spec.name}.{sp.name} entity {sp.entity!r} != kernel {kp.entity!r}")
    spec_attrs = list(spec.attrs)
    kern_attrs = list(kernel.attrs)
    if [p.name for p in spec_attrs] != [p.name for p in kern_attrs]:
        raise CorpusError(
            f"{src}: {spec.name} attr names {[p.name for p in spec_attrs]}"
            f" do not match kernel {kernel.kernel_id} {[p.name for p in kern_attrs]}"
        )
    for sp, kp in zip(spec_attrs, kern_attrs):
        if sp.dtype != kp.dtype:
            raise CorpusError(
                f"{src}: {spec.name}.{sp.name} attr type {sp.dtype.name}"
                f" != kernel {kp.dtype.name}"
            )
    spec_outs = {o.name for o in spec.outputs}
    kern_outs = {name for name, _ in kernel.outputs}
    if spec_outs != kern_outs:
        raise CorpusError(f"{src}: {spec.name} outputs {sorted(spec_outs)} != kernel outputs {sorted(kern_outs)}")


def default_corpus_root() -> Path:
    return Path(resources.files(__package__)) / "corpus_data"


def load_corpus(root: Path | str | None = None) -> Corpus:
    root = Path(root) if root is not None else default_corpus_root()
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")

    specs = []
    spec_sources = {}
    for f in sorted((root / "ops").glob("*.ops")):
        try:
            parsed = parse_opspecs(f.read_text())
        except DescriptorError as e:
            raise CorpusError(f"{f.name}: {e}") from e
        for s in parsed:
            specs.append(s)
            spec_sources[s.name] = f.name

    kernels = {}
    for f in sorted((root / "kernels").glob("*.krn")):
        try:
            k = parse_kernel(f.read_text())
        except KernelParseError as e:
            raise CorpusError(f"{f.name}: {e}") from e
        if k.kernel_id in kernels:
            raise CorpusError(f"{f.name}: duplicate kernel {k.kernel_id}")
        kernels[k.kernel_id] = k

    for s in specs:
        if s.kernel_id is not None and s.kernel_id not in kernels:
            raise CorpusError(f"{spec_sources[s.name]}: {s.name} references missing kernel {s.kernel_id!r}")
        if s.kernel_id is not None:
            _check_params(s, kernels[s.kernel_id], spec_sources[s.name])

    registry = build_registry(specs)
    trees = {kid: extract_constraints(k) for kid, k in kernels.items()}

    fixtures = {}
    sequences = []
    tests_dir = root / "tests"
    if tests_dir.is_dir():
        for f in sorted(tests_dir.glob("*.test")):
            fx, seqs = parse_test_script(f.read_text())
            for decl in fx:
                if decl.op in fixtures:
                    raise CorpusError(f"{f.name}: duplicate fixture for {decl.op}")
                fixtures[decl.op] = decl
            sequences.extend(seqs)

    names = {s.name for s in specs}
    entity_of = {op: e for e, ops in cluster_entities([g.name for g in registry.groups]).items() for op in ops}
    for seq in sequences:
        for op in seq.ops:
            if op not in names:
                raise CorpusError(f"sequence {seq.name!r} references unknown operator {op!r}")
        entities = {entity_of.get(op, op) for op in seq.ops}
        if len(entities) > 1:
            raise CorpusError(f"sequence {seq.name!r} spans entity groups {sorted(entities)}")
    for op in fixtures:
        if op not in names:
            raise CorpusError(f"fixture declared for unknown operator {op!r}")

    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorpusError(f"missing {manifest_path.name} under {root}")
    import json

    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:
        raise CorpusError(f"manifest.json is not JSON ({e})") from None
    if not isinstance(manifest, dict):
        raise CorpusError("manifest.json is not a JSON object")
    for key in ("census", "modes", "kernel_blocks", "bugs", "thresholds"):
        if key not in manifest:
            raise CorpusError(f"manifest.json lacks required key {key!r}")

    return Corpus(root, registry, kernels, trees, fixtures, tuple(sequences), manifest)


def provision_fixtures(corpus: Corpus, workdir: Path | str) -> dict:
    """Materialize fixture files; re-provisioning is byte-identical."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for decl in corpus.fixtures.values():
        path = workdir / decl.label
        content = bytes([decl.fill]) * decl.size
        if not (path.exists() and path.read_bytes() == content):
            path.write_bytes(content)
        paths[decl.label] = path
    return paths


# -- binding serialization --


def encode_value(v):
    if isinstance(v, TensorVal):
        out = {"dtype": v.dtype.name, "shape": list(v.shape)}
        if v.data is not None:
            out["data"] = list(v.data)
        else:
            out["fill"] = v.fill
            if v.overrides:
                out["overrides"] = {str(k): val for k, val in sorted(v.overrides.items())}
        return out
    if isinstance(v, ResourceRef):
        return {"entity": v.entity, "state": v.state}
    return v


def decode_value(obj):
    if isinstance(obj, dict):
        if "entity" in obj:
            return ResourceRef(obj["entity"], obj["state"])
        if "dtype" in obj:
            t = TensorVal(DType[obj["dtype"]], tuple(obj["shape"]), data=obj.get("data"), fill=obj.get("fill"))
            for k, val in obj.get("overrides", {}).items():
                t.overrides[int(k)] = val
            return t
        raise CorpusError(f"undecodable value object with keys {sorted(obj)}")
    return obj


def encode_binding(binding: dict) -> dict:
    return {name: encode_value(v) for name, v in sorted(binding.items())}


def decode_binding(obj: dict) -> dict:
    return {name: decode_value(v) for name, v in obj.items()}
