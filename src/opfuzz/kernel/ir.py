"""Core IR and runtime value types for the micro-kernel engine.

A kernel is lowered into a flat list of basic blocks.  Values live in a
per-execution environment indexed by integer value ids; blocks reference
values by id.  Besides the flat CFG, lowering also records a structured
region skeleton (requires / ifs / loops) that the constraint extractor
walks to recover tree structure without re-discovering it from the CFG.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property


class DType(enum.Enum):
    """Closed set of parameter types: scalar attrs and tensor/resource elements."""

    BOOL = "BOOL"
    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    DT_INT64 = "DT_INT64"
    DT_FLOAT = "DT_FLOAT"
    DT_STRING = "DT_STRING"
    DT_BOOL = "DT_BOOL"
    DT_RESOURCE = "DT_RESOURCE"

    @cached_property
    def is_tensor(self) -> bool:
        return self.name.startswith("DT_") and self is not DType.DT_RESOURCE

    @cached_property
    def element(self) -> DType:
        """The element dtype whose values an attr of this dtype takes; a tensor dtype's own."""
        return _ELEMENTS.get(self, self)


_ELEMENTS = {DType.INT: DType.DT_INT64, DType.FLOAT: DType.DT_FLOAT, DType.STRING: DType.DT_STRING, DType.BOOL: DType.DT_BOOL}

# the Python type a scalar attr of each dtype must have
ATTR_PYTYPES = {DType.INT: int, DType.FLOAT: float, DType.STRING: str, DType.BOOL: bool}

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# tensors above this element count are stored as (fill, logical size)
EAGER_ELEMENT_CAP = 2**20


class EngineError(Exception):
    """Programming/usage error inside the engine (not a fuzzing verdict)."""


@dataclass(frozen=True)
class ParamDecl:
    name: str
    role: str  # "input" | "attr"
    dtype: DType
    container: str  # "scalar" | "tensor" | "resource" | "file-path"
    entity: str | None = None  # resource entity kind
    is_file: bool = False


def _product(extents):
    n = 1
    for e in extents:
        n *= e
    return n


class TensorVal:
    """Row-major tensor.  Large tensors are lazy: a fill value plus sparse
    overrides, materialized per element on access."""

    __slots__ = ("dtype", "shape", "data", "fill", "overrides", "_size")

    def __init__(self, dtype: DType, shape, data=None, fill=None):
        if not dtype.is_tensor:
            raise EngineError(f"not a tensor dtype: {dtype}")
        self.dtype = dtype
        self.shape = tuple(int(e) for e in shape)
        self._size = size = _product(self.shape)
        if data is not None:
            # dense buffers need well-formed shapes; malformed (negative)
            # extents are only expressible lazily and get trapped by
            # requires or sanitizers downstream
            if any(e < 0 for e in self.shape):
                raise EngineError(f"negative extent in dense shape {self.shape}")
            if size > EAGER_ELEMENT_CAP:
                raise EngineError(f"eager data for {size} elements exceeds cap")
            data = list(data)
            if len(data) != size:
                raise EngineError(f"shape {self.shape} wants {size} elements, got {len(data)}")
            self.data = data
            self.fill = None
        else:
            if fill is None:
                fill = _default_fill(dtype)
            self.data = None
            self.fill = fill
        self.overrides: dict[int, object] = {}

    @classmethod
    def trusted(cls, dtype: DType, shape: tuple, size: int, data: list | None, fill=None) -> TensorVal:
        """A tensor without `__init__`'s checks, for a caller that has made
        them: `dtype` is a tensor dtype, `shape` a tuple of non-negative ints
        whose product is `size`, and `data` a fresh list of `size` elements,
        at most `EAGER_ELEMENT_CAP`, or None beside a `fill`."""
        t = cls.__new__(cls)
        t.dtype, t.shape, t._size, t.data, t.fill, t.overrides = dtype, shape, size, data, fill, {}
        return t

    @property
    def size(self) -> int:
        return self._size

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_lazy(self) -> bool:
        return self.data is None

    def flat_get(self, idx: int):
        if self.data is not None:
            return self.data[idx]
        return self.overrides.get(idx, self.fill)

    def flat_set(self, idx: int, value) -> None:
        if self.data is not None:
            self.data[idx] = value
        else:
            self.overrides[idx] = value

    def __eq__(self, other):
        if not isinstance(other, TensorVal):
            return NotImplemented
        if (self.dtype, self.shape) != (other.dtype, other.shape):
            return False
        if self.size > EAGER_ELEMENT_CAP:
            return (self.fill, self.overrides) == (other.fill, other.overrides)
        return all(self.flat_get(i) == other.flat_get(i) for i in range(self.size))

    def __repr__(self):
        if self.is_lazy:
            return f"TensorVal({self.dtype.name}, {list(self.shape)}, fill={self.fill!r})"
        return f"TensorVal({self.dtype.name}, {list(self.shape)}, {self.data!r})"


def _default_fill(dtype: DType):
    return {"DT_INT64": 0, "DT_FLOAT": 0.0, "DT_STRING": "", "DT_BOOL": False}[dtype.name]


@dataclass(frozen=True)
class ResourceRef:
    """Binding-level reference to a shared entity handle.

    state: "null" (never created), "fresh" (new, empty), "filled" (holds one
    element), "closed", or "live" (an id into the campaign handle table).
    """

    entity: str
    state: str
    handle_id: int | None = None


@dataclass
class Instruction:
    opcode: str
    dst: int | None
    args: tuple
    meta: dict = field(default_factory=dict)

    def __repr__(self):
        return f"<{self.opcode} dst={self.dst} args={self.args}>"


def reads(instr: Instruction) -> tuple | None:
    """The value ids an instruction reads, in operand order; None for an
    opcode the IR does not define."""
    op, args = instr.opcode, instr.args
    if op in ("bin", "cmp"):
        return args[1:]
    if op == "logic":
        return tuple(a for a in args[1:] if a is not None)
    if op in ("rank", "size"):
        return args[:1]
    if op == "dim":
        return args[:2]
    if op in ("tload", "index"):
        return (args[0], *args[1])
    if op == "tstore":
        return (args[0], *args[1], args[2])
    if op == "emit":
        return args[1:2]
    if op == "res_call":
        return tuple(args[2])
    if op in ("const", "get_input", "get_attr"):
        return ()
    return None


@dataclass
class Block:
    bid: int
    instrs: list[Instruction] = field(default_factory=list)
    # terminator: ("br", cond_id, then_bid, else_bid, tag)
    #           | ("jmp", bid) | ("require_fail", msg) | ("ret",)
    terminator: tuple | None = None


# -- structured region skeleton (built during lowering) ----------------------
# A region keeps what the extractor reads: a require its condition, the block
# whose branch it is and its message; an if its guard, its block and the
# regions of each arm; a loop its counter, its bounds and its body's regions.


@dataclass
class RequireRegion:
    cond_id: int
    block: int  # block holding the branch
    message: str


@dataclass
class IfRegion:
    guard_id: int
    block: int
    then_regions: list = field(default_factory=list)
    else_regions: list = field(default_factory=list)


@dataclass
class LoopRegion:
    var_id: int
    lo_id: int
    hi_id: int
    body_regions: list = field(default_factory=list)


@dataclass
class KernelIR:
    kernel_id: str
    params: list[ParamDecl]
    outputs: list[tuple[str, DType]]
    blocks: list[Block]
    regions: list  # top-level region sequence
    entry: int = 0
    # the VM's lowered program, built on the first execute
    compiled: object = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def inputs(self) -> list[ParamDecl]:
        return [p for p in self.params if p.role == "input"]

    @cached_property
    def attrs(self) -> list[ParamDecl]:
        return [p for p in self.params if p.role == "attr"]


# -- execution outcomes -------------------------------------------------------

CRASH_KINDS = ("OOB", "NPE", "FPE", "IOF", "UAF")


@dataclass
class Success:
    outputs: dict


@dataclass
class ValidationReject:
    message: str
    block: int


@dataclass
class Crash:
    kind: str
    kernel_id: str
    block: int
    instr_index: int

    def __post_init__(self):
        if self.kind not in CRASH_KINDS:
            raise EngineError(f"unknown crash kind {self.kind}")


@dataclass
class ExecOutcome:
    verdict: Success | ValidationReject | Crash
    covered: frozenset  # of (kernel_id, block_id)

    @property
    def is_reject(self) -> bool:
        return isinstance(self.verdict, ValidationReject)

    @property
    def is_crash(self) -> bool:
        return isinstance(self.verdict, Crash)

    @property
    def is_success(self) -> bool:
        return isinstance(self.verdict, Success)
