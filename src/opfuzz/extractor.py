"""Kernel-side constraint extraction.

Pipeline: seed taint at parameter fetches, propagate to a fixpoint, mark
tainted conditional branches with a failure-block successor as sinks, then
walk the kernel's structured regions once, lifting each sink-bearing
require into frontend-parameter expressions where the walk reaches it and
appending them to the constraint tree node it belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import (
    Arith,
    AttrRef,
    Cmp,
    Constraint,
    ConstraintTree,
    Dim,
    Forall,
    Lit,
    LogicalNode,
    NEGATE_CMP,
    Ndim,
    Size,
    Unliftable,
    Val,
    Var,
    _fold,
    normal_form,
)
from .kernel.ir import IfRegion, KernelIR, LoopRegion, RequireRegion, reads
from .kernel.parser import def_map
from .kernel.vm import _CMP


class ExtractionError(Exception):
    pass


# -- taint analysis --


def seed_sources(kernel: KernelIR) -> dict:
    """Initial taint: each parameter-fetch result carries its param name."""
    attrs = {p.name for p in kernel.attrs}
    seeds: dict[int, frozenset] = {}
    for block in kernel.blocks:
        for inst in block.instrs:
            if inst.opcode == "get_input":
                seeds[inst.dst] = frozenset({kernel.inputs[inst.args[0]].name})
            elif inst.opcode == "get_attr":
                name = inst.args[0]
                if name not in attrs:
                    raise ExtractionError(f"{kernel.kernel_id}: get_attr names undeclared attr {name!r}")
                seeds[inst.dst] = frozenset({name})
    return seeds


def propagate_taint(kernel: KernelIR) -> dict:
    """Flow-insensitive forward fixpoint over every instruction.

    tstore taints the stored-into tensor value, so stores feed back into
    later loads from the same value id; iteration continues until stable.
    """
    taint: dict[int, set] = {vid: set(names) for vid, names in seed_sources(kernel).items()}

    def get(vid) -> set:
        return taint.get(vid, set())

    changed = True
    while changed:
        changed = False
        for block in kernel.blocks:
            for inst in block.instrs:
                operands = reads(inst)
                if operands is None:
                    raise ExtractionError(f"{kernel.kernel_id}: unknown opcode {inst.opcode!r}")
                dst = inst.dst
                if inst.opcode == "tstore":
                    dst, operands = operands[0], operands[1:]  # the store taints its tensor
                if dst is None:
                    continue
                flowed = set()
                for a in operands:
                    flowed |= get(a)
                cur = taint.setdefault(dst, set())
                if not flowed <= cur:
                    cur |= flowed
                    changed = True
    return {vid: frozenset(names) for vid, names in taint.items()}


@dataclass(frozen=True)
class SinkSite:
    block: int
    pass_on_true: bool
    params: frozenset


def _reaches_fail(kernel: KernelIR, bid: int) -> bool:
    """Failure reachability through straight-line jumps only."""
    blocks = {b.bid: b for b in kernel.blocks}
    seen = set()
    while bid not in seen:
        seen.add(bid)
        b = blocks[bid]
        if b.terminator[0] == "require_fail":
            return True
        if b.terminator[0] == "jmp" and not b.instrs:
            bid = b.terminator[1]
            continue
        return False
    return False


def find_sinks(kernel: KernelIR, taint: dict | None = None) -> list:
    """Tainted conditional branches with a failure-reaching successor."""
    if taint is None:
        taint = propagate_taint(kernel)
    sinks = []
    for block in kernel.blocks:
        term = block.terminator
        if term[0] != "br":
            continue
        _, cond, then_bid, else_bid, _ = term
        params = taint.get(cond, frozenset())
        if not params:
            continue
        then_fails = _reaches_fail(kernel, then_bid)
        else_fails = _reaches_fail(kernel, else_bid)
        if not (then_fails or else_fails):
            continue
        sinks.append(SinkSite(block.bid, not then_fails, frozenset(params)))
    return sinks


# -- lifting --


class _Unliftable(Exception):
    def __init__(self, note: str):
        super().__init__(note)
        self.note = note


def _negated(exprs: list, note: str) -> list:
    """The negation of a one-comparison conjunction; a longer one has none
    in the grammar, so it is unliftable with `note`."""
    if len(exprs) != 1:
        raise _Unliftable(note)
    (c,) = exprs
    return [Cmp(NEGATE_CMP[c.op], c.left, c.right)]


class _Lifter:
    def __init__(self, kernel: KernelIR):
        self.kernel = kernel
        self.defs = def_map(kernel)

    def param_of_tensor(self, vid: int) -> str:
        inst = self.defs.get(vid)
        if inst is not None and inst.opcode == "get_input":
            return self.kernel.inputs[inst.args[0]].name
        raise _Unliftable("shape query on a tensor temporary")

    def value(self, vid: int, qvars: dict):
        if vid in qvars:
            return qvars[vid]
        inst = self.defs.get(vid)
        if inst is None:
            raise _Unliftable(f"value {vid} has no definition")
        op = inst.opcode
        if op == "const":
            return Lit(inst.args[0])
        if op == "get_attr":
            return AttrRef(inst.args[0])
        if op == "get_input":
            raise _Unliftable("bare tensor value in a predicate")
        if op == "rank":
            return Ndim(self.param_of_tensor(inst.args[0]))
        if op == "size":
            return Size(self.param_of_tensor(inst.args[0]))
        if op == "dim":
            axis = _fold(self.value(inst.args[1], qvars))
            if not isinstance(axis, Lit) or not isinstance(axis.value, int):
                raise _Unliftable("non-constant dim axis")
            return Dim(self.param_of_tensor(inst.args[0]), axis.value)
        if op == "tload":
            base, idxs = inst.args
            return Val(self.param_of_tensor(base), tuple(self.value(i, qvars) for i in idxs))
        if op == "bin":
            if inst.meta.get("loop_var") or inst.meta.get("loop_latch"):
                raise _Unliftable("loop variable escapes its loop")
            bop, a, b = inst.args
            return Arith(bop, self.value(a, qvars), self.value(b, qvars))
        raise _Unliftable(f"opcode {op} outside the lifted grammar")

    def predicate(self, vid: int, qvars: dict) -> list:
        """Boolean value id -> conjunction of comparison expressions."""
        inst = self.defs.get(vid)
        if inst is None:
            raise _Unliftable(f"predicate {vid} has no definition")
        if inst.opcode == "cmp":
            cop, a, b = inst.args
            return [Cmp(cop, self.value(a, qvars), self.value(b, qvars))]
        if inst.opcode == "logic":
            lop, a, b = inst.args
            if lop == "and":
                return self.predicate(a, qvars) + self.predicate(b, qvars)
            if lop == "not":
                return _negated(self.predicate(a, qvars), "negation of a non-comparison")
            raise _Unliftable("disjunction in a predicate")
        if inst.opcode == "const" and isinstance(inst.args[0], bool):
            return [Cmp("==", Lit(1), Lit(1 if inst.args[0] else 0))]
        raise _Unliftable(f"opcode {inst.opcode} is not a predicate")


def _finalize(expr):
    """Fold constants; None means the constraint folded to a tautology."""
    folded = _fold(expr)
    if isinstance(folded, Cmp) and isinstance(folded.left, Lit) and isinstance(folded.right, Lit):
        a, b = folded.left.value, folded.right.value
        try:
            truth = _CMP[folded.op](a, b)
        except TypeError:
            return folded
        if truth:
            return None
    if isinstance(folded, Forall):
        body = _finalize(folded.body)
        if body is None:
            return None
        return Forall(folded.var, folded.lo, folded.hi, body)
    return folded


def extract_constraints(kernel: KernelIR) -> ConstraintTree:
    """Taint, sinks, then one walk over the region skeleton that lifts each
    tainted require where it stands."""
    by_block = {s.block: s for s in find_sinks(kernel)}
    lifter = _Lifter(kernel)
    tree = ConstraintTree(kernel.kernel_id)

    def lift_require(region: RequireRegion, loop: LoopRegion | None) -> list | None:
        """The require's constraints; None if it holds no sink."""
        site = by_block.get(region.block)
        if site is None:
            tree.skipped_untainted += 1
            return None
        try:
            if loop is None:
                exprs = lifter.predicate(region.cond_id, {})
            else:
                lo = lifter.value(loop.lo_id, {})
                hi = lifter.value(loop.hi_id, {})
                exprs = lifter.predicate(region.cond_id, {loop.var_id: Var("i")})
            if not site.pass_on_true:
                exprs = _negated(exprs, "negation of a conjunction")
        except _Unliftable as e:
            return [Constraint(Unliftable(e.note), region.block, region.message)]
        if loop is not None:
            exprs = [Forall("i", lo, hi, b) for b in exprs]
        finals = (_finalize(e) for e in exprs)
        return [Constraint(f, region.block, region.message) for f in finals if f is not None]

    def lift_guard(region: IfRegion, negate: bool) -> Constraint:
        try:
            exprs = lifter.predicate(region.guard_id, {})
            if negate:
                exprs = _negated(exprs, "negation of a conjunction")
            if len(exprs) != 1:
                raise _Unliftable("conjunction guard")
            return Constraint(_fold(exprs[0]), region.block, "")
        except _Unliftable as e:
            return Constraint(Unliftable(e.note), region.block, "")

    def walk(regions, node) -> bool:
        """Lift `regions` into `node`; whether they hold a tainted require.
        Sink-bearing if arms become branches, all-require loop bodies
        quantified constraints, and loops mixing requires with nested
        control flow are skipped whole."""
        seen = set()
        tainted = False
        for region in regions:
            if isinstance(region, IfRegion):
                for negate, arm in ((False, region.then_regions), (True, region.else_regions)):
                    branch = LogicalNode(None)
                    if walk(arm, branch):
                        branch.guard = lift_guard(region, negate)
                        node.branches.append(branch)
                        tainted = True
                continue
            if isinstance(region, RequireRegion):
                requires, loop = [region], None
            elif isinstance(region, LoopRegion):
                if not all(isinstance(r, RequireRegion) for r in region.body_regions):
                    tree.skipped_mixed_loops += 1
                    continue
                requires, loop = region.body_regions, region
            else:
                raise ExtractionError(f"unknown region type {type(region).__name__}")
            for r in requires:
                lifted = lift_require(r, loop)
                if lifted is None:
                    continue
                tainted = True
                for c in lifted:
                    key = normal_form(c.expr) if not c.is_unliftable else repr(c.expr)
                    if key not in seen:
                        seen.add(key)
                        node.constraints.append(c)
        return tainted

    walk(kernel.regions, tree)
    return tree
