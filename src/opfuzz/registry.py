"""Operator descriptor registry.

Parses `.ops` descriptor files into OpSpec records, places every operator in
a module tree keeping the shortest declared call path, collapses operators
that share a (name, parameter signature, kernel) into one testable group,
partitions operators by backend kernel for input reuse, and clusters
operator names by the entity noun they act on.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property

from .kernel.ir import DType, ParamDecl
from .kernel.parser import ATTR_TYPES, Tokens, token_pattern

log = logging.getLogger(__name__)

# descriptor `type:` tags for input_arg / output_arg; quoted attr tags are
# the kernel language's attr types
TENSOR_TAGS = {d.name: d for d in DType if d.name.startswith("DT_")}


class DescriptorError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = f" at line {line}, col {col}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class OutputDecl:
    name: str
    dtype: DType
    entity: str | None = None


@dataclass(frozen=True)
class OpSpec:
    """Frontend-visible operator signature from one descriptor block."""

    name: str
    module_path: tuple[str, ...]
    aliases: tuple[tuple[str, ...], ...]
    params: tuple[ParamDecl, ...]
    outputs: tuple[OutputDecl, ...]
    kernel_id: str | None
    skip: bool = False

    @property
    def dotted(self) -> str:
        return ".".join(self.module_path + (self.name,))

    @property
    def inputs(self) -> tuple[ParamDecl, ...]:
        return tuple(p for p in self.params if p.role == "input")

    @property
    def attrs(self) -> tuple[ParamDecl, ...]:
        return tuple(p for p in self.params if p.role == "attr")

    def signature(self) -> tuple:
        return tuple((p.name, p.role, p.dtype, p.container, p.entity) for p in self.params)


_TOKENS = token_pattern(r'(?P<str>"[^"\n]*")|(?P<ident>[A-Za-z_]\w*)|(?P<punct>[{}:])')
_CONVERT = {"str": lambda s: s[1:-1]}


class _Parser(Tokens):
    def __init__(self, text: str):
        super().__init__(text, _TOKENS, _CONVERT, DescriptorError)

    def field_str(self):
        self.expect("punct", ":")
        return self.expect("str")

    def field_bool(self):
        self.expect("punct", ":")
        t = self.peek()
        if self.expect("ident") not in ("true", "false"):
            self.fail("expected true or false", t)
        return t[1] == "true"

    def parse(self) -> list[OpSpec]:
        specs = []
        while not self.at("eof"):
            op_tok = self.peek()
            self.expect("ident", "op")
            specs.append(self.parse_op(op_tok))
        return specs

    def parse_op(self, op_tok) -> OpSpec:
        self.expect("punct", "{")
        name = None
        module = None
        aliases = []
        kernel = None
        skip = False
        params: list[ParamDecl] = []
        outputs: list[OutputDecl] = []
        while not self.at("punct", "}"):
            f = self.peek()
            key = self.expect("ident")
            if key == "name":
                name = self.field_str()
            elif key == "module":
                module = tuple(self.field_str().split("."))
            elif key == "alias":
                aliases.append(tuple(self.field_str().split(".")))
            elif key == "kernel":
                kernel = self.field_str()
            elif key == "skip":
                skip = self.field_bool()
            elif key == "input_arg":
                params.append(self.parse_arg(f, role="input"))
            elif key == "attr":
                params.append(self.parse_arg(f, role="attr"))
            elif key == "output_arg":
                outputs.append(self.parse_output(f))
            else:
                self.fail(f"unknown field {key!r}", f)
        self.next()
        if name is None:
            self.fail("op block missing name", op_tok)
        if module is None:
            self.fail(f"op {name!r} missing module", op_tok)
        seen = set()
        for p in params:
            if p.name in seen:
                self.fail(f"op {name!r}: duplicate param name {p.name!r}", op_tok)
            seen.add(p.name)
        return OpSpec(name, module, tuple(aliases), tuple(params), tuple(outputs), kernel, skip)

    def parse_arg_fields(self, role: str):
        self.expect("punct", "{")
        name = None
        dtype_tok = None
        entity = None
        is_file = False
        while not self.at("punct", "}"):
            f = self.peek()
            key = self.expect("ident")
            if key == "name":
                name = self.field_str()
            elif key == "type":
                self.expect("punct", ":")
                dtype_tok = self.peek()
                self.expect("str" if role == "attr" else "ident")
            elif key == "entity":
                entity = self.field_str()
            elif key == "file":
                is_file = self.field_bool()
            else:
                self.fail(f"unknown arg field {key!r}", f)
        if name is None or dtype_tok is None:
            self.fail("arg block needs name and type")
        self.next()
        return name, dtype_tok, entity, is_file

    def parse_arg(self, f, role: str) -> ParamDecl:
        name, dtype_tok, entity, is_file = self.parse_arg_fields(role)
        if role == "attr":
            if dtype_tok[1] not in ATTR_TYPES:
                self.fail(f"unknown attr type {dtype_tok[1]!r}", dtype_tok)
            if entity is not None or is_file:
                self.fail("attrs are plain scalars", dtype_tok)
            return ParamDecl(name, "attr", ATTR_TYPES[dtype_tok[1]], "scalar")
        if dtype_tok[1] not in TENSOR_TAGS:
            self.fail(f"unknown dtype tag {dtype_tok[1]!r}", dtype_tok)
        dtype = TENSOR_TAGS[dtype_tok[1]]
        if dtype is DType.DT_RESOURCE:
            if entity is None:
                self.fail(f"resource input {name!r} needs an entity kind", dtype_tok)
            return ParamDecl(name, "input", dtype, "resource", entity=entity)
        if entity is not None:
            self.fail(f"entity is only valid on resource inputs, not {name!r}", dtype_tok)
        if is_file:
            if dtype is not DType.DT_STRING:
                self.fail(f"file-path input {name!r} must be DT_STRING", dtype_tok)
            return ParamDecl(name, "input", dtype, "file-path", is_file=True)
        return ParamDecl(name, "input", dtype, "tensor")

    def parse_output(self, f) -> OutputDecl:
        name, dtype_tok, entity, is_file = self.parse_arg_fields("output")
        if dtype_tok[1] not in TENSOR_TAGS:
            self.fail(f"unknown dtype tag {dtype_tok[1]!r}", dtype_tok)
        dtype = TENSOR_TAGS[dtype_tok[1]]
        if dtype is DType.DT_RESOURCE and entity is None:
            self.fail(f"resource output {name!r} needs an entity kind", dtype_tok)
        if dtype is not DType.DT_RESOURCE and entity is not None:
            self.fail(f"entity is only valid on resource outputs, not {name!r}", dtype_tok)
        return OutputDecl(name, dtype, entity)


def parse_opspecs(text: str) -> list[OpSpec]:
    """One OpSpec per `op { }` block, declaration order preserved."""
    return _Parser(text).parse()


@dataclass
class ModuleTree:
    """One node per module path prefix; each operator placed once."""

    nodes: set
    edges: set
    op_placement: dict

    def path(self, op_name: str) -> tuple[str, ...]:
        return self.op_placement[op_name]


def build_module_tree(specs: list[OpSpec]) -> ModuleTree:
    """Place each operator at its shortest declared path, ties lexicographic."""
    nodes = set()
    edges = set()
    candidates: dict[str, list] = {}
    for spec in specs:
        for path in (spec.module_path, *spec.aliases):
            for k in range(1, len(path) + 1):
                nodes.add(path[:k])
                if k > 1:
                    edges.add((path[: k - 1], path[:k]))
            candidates.setdefault(spec.name, []).append(path)
    placement = {name: min(paths, key=lambda p: (len(p), p)) for name, paths in candidates.items()}
    return ModuleTree(nodes, edges, placement)


@dataclass(frozen=True)
class OpGroup:
    """Operators indistinguishable at the call boundary, collapsed to one."""

    name: str
    members: tuple[str, ...]
    representative: OpSpec
    testable: bool

    @property
    def kernel_id(self) -> str | None:
        return self.representative.kernel_id


def dedup_operators(specs: list[OpSpec]) -> list[OpGroup]:
    """Collapse operators with identical (name, param signature, kernel)."""
    buckets: dict[tuple, list[OpSpec]] = {}
    order: list[tuple] = []
    for spec in specs:
        key = (spec.name, spec.signature(), spec.kernel_id)
        if key not in buckets:
            order.append(key)
        buckets.setdefault(key, []).append(spec)
    groups = []
    seen_names = {}
    for key in order:
        members = buckets[key]
        rep = min(members, key=lambda s: (len(s.module_path), s.module_path))
        name = rep.name
        if name in seen_names:
            raise DescriptorError(
                f"operator name {name!r} reused with a different signature or kernel"
            )
        seen_names[name] = True
        groups.append(
            OpGroup(
                name=name,
                members=tuple(s.dotted for s in members),
                representative=rep,
                testable=not rep.skip,
            )
        )
    return groups


VERB_LEXICON = frozenset(
    {
        "Close",
        "Create",
        "Dequeue",
        "Enqueue",
        "Find",
        "Get",
        "Load",
        "New",
        "Open",
        "Pop",
        "Push",
        "Read",
        "Remove",
        "Reserve",
        "Restore",
        "Save",
        "Set",
        "Split",
        "Write",
    }
)

_CAMEL = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def camel_tokens(name: str) -> list:
    return _CAMEL.findall(name)


def cluster_entities(names) -> dict:
    """Group operator names by shared entity noun.

    A token is a verb if it sits in the lexicon or appears in a
    non-leading position in at least two distinct names; the entity is
    the concatenation of the remaining tokens.
    """
    toks = {n: camel_tokens(n) for n in names}
    nonleading: dict[str, set] = {}
    for n, ts in toks.items():
        for t in ts[1:]:
            nonleading.setdefault(t, set()).add(n)
    verbs = set(VERB_LEXICON) | {t for t, owners in nonleading.items() if len(owners) >= 2}

    groups: dict[str, list] = {}
    for n in names:
        entity = "".join(t for t in toks[n] if t not in verbs) or n
        groups.setdefault(entity, []).append(n)
    return groups


@dataclass
class Registry:
    """Loaded operator universe: tree, dedup groups, and kernel partition."""

    specs: list[OpSpec]
    tree: ModuleTree
    groups: list[OpGroup]

    @cached_property
    def kernel_groups(self) -> dict[str, list[str]]:
        """Sorted operator names by backend kernel; built on first use."""
        out: dict[str, list[str]] = {}
        for g in self.groups:
            out.setdefault(g.kernel_id, []).append(g.name)
        return {k: sorted(names) for k, names in out.items()}

    @cached_property
    def by_name(self) -> dict[str, OpGroup]:
        """Groups by name and by each member's dotted name, as `list-ops`
        prints it; built on first use: `groups` is fixed once built."""
        return {name: g for g in self.groups for name in (*g.members, g.name)}

    @property
    def testable(self) -> list[OpSpec]:
        reps = [g.representative for g in self.groups if g.testable]
        return sorted(reps, key=lambda s: s.name)


def build_registry(specs: list[OpSpec]) -> Registry:
    for spec in specs:
        if spec.kernel_id is None:
            log.warning("operator %s is frontend-only (no kernel); excluded from campaigns", spec.dotted)
    tree = build_module_tree(specs)
    bound = [s for s in specs if s.kernel_id is not None]
    return Registry(specs, tree, dedup_operators(bound))
