"""Campaign orchestration: scheduling, execution, findings, reports.

A campaign walks the testable operators in name order, generates inputs
per the chosen strategy, executes them across the configured engine
modes, wires resource handles through declared sequences, probes the
rejection machinery with single-constraint violations every tenth
iteration, and writes a deterministic JSON report.
"""

from __future__ import annotations

import json
import time
import zlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from .constraints import classify_constraints, params_of, render
from .corpus import Corpus, encode_binding
from .generator import GuidedGenerator, generate_random
from .kernel.ir import ATTR_PYTYPES, ResourceRef, TensorVal
from .kernel.vm import HandleTable, execute

PROBE_EVERY = 10
CHECKPOINT_BASES = (1, 10, 100, 1000)

class CampaignConfigError(Exception):
    pass


@dataclass
class CampaignConfig:
    seed: int = 42
    iterations: int = 1000
    modes: tuple = ("eager",)
    strategy: str = "guided"
    budget_secs: float = 0.0
    ops: tuple | None = None
    corpus: str | None = None

    def as_json(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "modes": list(self.modes),
            "strategy": self.strategy,
            "budget_secs": self.budget_secs,
            "ops": list(self.ops) if self.ops else None,
            "corpus": self.corpus,
        }


def parse_config(text: str) -> CampaignConfig:
    """key = value lines; # starts a comment."""
    cfg = CampaignConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CampaignConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "seed":
                cfg.seed = int(value)
            elif key == "iterations":
                cfg.iterations = int(value)
                if cfg.iterations < 1:
                    raise ValueError("iterations must be >= 1")
            elif key == "modes":
                modes = tuple(m.strip() for m in value.split(",") if m.strip())
                for m in modes:
                    if m not in ("eager", "graph"):
                        raise ValueError(f"unknown mode {m!r}")
                if not modes:
                    raise ValueError("modes must not be empty")
                cfg.modes = modes
            elif key == "strategy":
                if value not in ("guided", "random", "both"):
                    raise ValueError(f"unknown strategy {value!r}")
                cfg.strategy = value
            elif key == "budget_secs":
                cfg.budget_secs = float(value)
            elif key == "ops":
                cfg.ops = tuple(o.strip() for o in value.split(",") if o.strip())
            elif key == "corpus":
                cfg.corpus = value
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as e:
            raise CampaignConfigError(f"line {lineno}: {e}") from e
    return cfg


def op_seed(seed: int, op: str) -> int:
    return (seed ^ zlib.crc32(op.encode("utf-8"))) & 0xFFFFFFFF


# -- causality --


def _int_tensor_elements(binding: dict):
    for v in binding.values():
        if isinstance(v, TensorVal) and v.dtype.name == "DT_INT64":
            if v.data is not None:
                yield from v.data
            else:
                yield v.fill
                yield from v.overrides.values()


def _all_numeric_values(binding: dict):
    for v in binding.values():
        if isinstance(v, TensorVal):
            if v.dtype.name in ("DT_INT64", "DT_FLOAT"):
                if v.data is not None:
                    yield from v.data
                else:
                    yield v.fill
                    yield from v.overrides.values()
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield v


def classify_causality(binding: dict, spec, kind: str) -> str:
    """First matching rule wins; rules ordered most shape-specific first."""
    tensors = [v for v in binding.values() if isinstance(v, TensorVal)]
    if any(t.rank == 0 or any(e == 0 for e in t.shape) for t in tensors):
        return "SHAPE_ZERO_DIM"
    if any(isinstance(e, int) and 2**20 <= e <= 2**31 for e in _int_tensor_elements(binding)):
        return "SHAPE_BIG_INDEX"
    if kind == "FPE" and any(v == 0 for v in _all_numeric_values(binding)):
        return "VALUE_ZERO"
    int_values = [v for v in _all_numeric_values(binding) if isinstance(v, int)]
    if any(abs(v) > 2**31 for v in int_values):
        return "VALUE_BIG_INT"
    if any(v < 0 for v in int_values):
        return "VALUE_NEGATIVE"
    for p in spec.params:
        v = binding.get(p.name)
        if isinstance(v, TensorVal) and v.dtype != p.dtype:
            return "TYPE_MISMATCH"
        if p.role == "attr" and v is not None and not isinstance(v, TensorVal):
            want = ATTR_PYTYPES.get(p.dtype)
            if want is not None and type(v) is not want:
                return "TYPE_MISMATCH"
    return "OTHER"


# -- per-arm operator state --


@dataclass
class _OpStats:
    executions: int = 0
    successes: int = 0
    rejects: int = 0
    crashes: int = 0
    reused_inputs: int = 0
    probes_issued: int = 0
    probes_rejected: int = 0
    probes_crashed: int = 0
    probes_passed: int = 0
    own_blocks: set = field(default_factory=set)

    def as_json(self, total_blocks: int, inter_param: int, logical: int) -> dict:
        valid = self.executions - self.rejects
        rate = valid / self.executions if self.executions else 0.0
        return {
            "executions": self.executions,
            "successes": self.successes,
            "rejects": self.rejects,
            "crashes": self.crashes,
            "valid_rate": round(rate, 6),
            "coverage_blocks": len(self.own_blocks),
            "total_blocks": total_blocks,
            "reused_inputs": self.reused_inputs,
            "inter_param_constraints": inter_param,
            "logical_constraints": logical,
            "probes": {
                "issued": self.probes_issued,
                "rejected": self.probes_rejected,
                "crashed": self.probes_crashed,
                "passed": self.probes_passed,
            },
        }


class _Campaign:
    def __init__(self, corpus: Corpus, config: CampaignConfig):
        self.corpus = corpus
        self.config = config
        self.started = time.monotonic()
        self.truncated = False
        self.findings = []
        self.finding_keys = {"guided": set(), "random": set()}
        self.first_cover: dict = {}
        self.folded: dict = {}  # covered set -> the stats it was last noted for, reset with first_cover
        self.first_success: dict = {}  # kernel_id -> encoded binding
        self.generators: dict = {}
        self.parts: dict = {}  # op -> (spec, kernel, resource param names, whether its modes share a walk)
        self.scaffolds: dict = {}  # op -> its predecessors as (generator, kernel, resource param names)

    def out_of_budget(self) -> bool:
        b = self.config.budget_secs
        return b > 0 and (time.monotonic() - self.started) > b

    def generator_for(self, op: str) -> GuidedGenerator:
        g = self.generators.get(op)
        if g is None:
            g = GuidedGenerator(self.corpus, op)
            self.generators[op] = g
        return g

    def op_parts(self, op: str) -> tuple:
        """(spec, kernel, names of the resource params, whether its modes
        share one eager walk), looked up once. They share it when the walk
        is a pure function of the binding: the op takes no resource, no
        sequence runs before it, and its kernel stores into no tensor."""
        parts = self.parts.get(op)
        if parts is None:
            spec, kernel = self.corpus.spec_for(op), self.corpus.kernel_for(op)
            resources = tuple(p.name for p in spec.params if p.container == "resource")
            seq = self.corpus.sequence_for(op)
            shared = not resources and (seq is None or seq.ops.index(op) == 0)
            shared = shared and all(i.opcode != "tstore" for b in kernel.blocks for i in b.instrs)
            parts = self.parts[op] = (spec, kernel, resources, shared)
        return parts

    # execution plumbing

    def _run_scaffold(self, op: str, mode: str, rng, handles: HandleTable, iteration: int) -> dict:
        """Run sequence predecessors, returning live handles by entity.
        Scaffold coverage counts toward the timeline but not executions."""
        steps = self.scaffolds.get(op)
        if steps is None:
            seq = self.corpus.sequence_for(op)
            earlier = seq.ops[: seq.ops.index(op)] if seq is not None else ()
            steps = self.scaffolds[op] = [(self.generator_for(e), *self.op_parts(e)[1:3]) for e in earlier]
        live: dict = {}
        for gen, kernel, resources in steps:
            binding, _ = gen.generate(rng, 1)
            self._wire_handles(binding, live, resources)
            out = execute(kernel, binding, mode, handles)
            self._note_coverage(out.covered, iteration, None)
            if out.is_success:
                for v in out.verdict.outputs.values():
                    if isinstance(v, ResourceRef) and v.state == "live":
                        live[v.entity] = v
        return live

    @staticmethod
    def _wire_handles(binding: dict, live: dict, resources: tuple):
        for name in resources:
            v = binding.get(name)
            if isinstance(v, ResourceRef) and v.state == "live":
                minted = live.get(v.entity)
                if minted is not None:
                    binding[name] = minted

    def _note_coverage(self, covered, iteration: int, stats_kernel=None, stats: _OpStats | None = None):
        # the VM returns one frozenset per coverage mask: one noted before for
        # these stats in this arm has nothing left to add (`self` marks none)
        if self.folded.get(covered, self) is stats:
            return
        self.folded[covered] = stats
        for key in covered:
            if key not in self.first_cover:
                self.first_cover[key] = iteration
            if stats is not None and stats_kernel is not None and key[0] == stats_kernel:
                stats.own_blocks.add(key[1])

    def _execute(self, op: str, binding: dict, iteration: int, rng, stats: _OpStats, arm: str, counted=True, probe_of=None):
        """One binding across all configured modes. Modes that share a walk
        run it at most once; each still makes its own check and prepass."""
        spec, kernel, resources, shared = self.op_parts(op)
        walk = [] if shared else None
        encoded = None
        outcomes = []
        for mode in self.config.modes:
            if shared:
                out = execute(kernel, binding, mode, None, walk)
            else:
                handles = HandleTable()
                live = self._run_scaffold(op, mode, rng, handles, iteration)
                wired = binding  # `execute` reads its binding and never writes it
                if resources:
                    wired = dict(binding)
                    self._wire_handles(wired, live, resources)
                out = execute(kernel, wired, mode, handles)
            outcomes.append(out)
            self._note_coverage(out.covered, iteration, kernel.kernel_id, stats)
            if counted:
                stats.executions += 1
                if out.is_reject:
                    stats.rejects += 1
                elif out.is_crash:
                    stats.crashes += 1
                else:
                    stats.successes += 1
            if out.is_crash:
                v = out.verdict
                key = (v.kind, v.kernel_id, v.block)
                if key not in self.finding_keys[arm]:
                    self.finding_keys[arm].add(key)
                    if encoded is None:
                        encoded = encode_binding(binding)
                    finding = {
                        "arm": arm,
                        "op": op,
                        "kernel": v.kernel_id,
                        "kind": v.kind,
                        "block": v.block,
                        "iteration": iteration,
                        "mode": mode,
                        "causality": classify_causality(binding, spec, v.kind),
                        "input": encoded,
                    }
                    if probe_of is not None:
                        finding["probe_of"] = probe_of
                    self.findings.append(finding)
            if out.is_success and kernel.kernel_id not in self.first_success:
                self.first_success[kernel.kernel_id] = dict(binding)
        return outcomes

    # arms

    def run_guided_op(self, op: str) -> _OpStats:
        stats = _OpStats()
        gen = self.generator_for(op)
        kernel = self.corpus.kernel_for(op)
        rng = random.Random(op_seed(self.config.seed, op))

        replay = self.first_success.get(kernel.kernel_id)
        if replay is not None:
            stats.reused_inputs += 1
            self._execute(op, replay, 1, rng, stats, "guided", counted=False)

        probe_counter = 0
        for i in range(1, self.config.iterations + 1):
            if self.out_of_budget():
                self.truncated = True
                break
            binding, vec = gen.generate(rng, i)
            if i % PROBE_EVERY == 0:
                probed = gen.make_violation(rng, binding, vec, probe_counter)
                probe_counter += 1
                if probed is not None:
                    mutated, violated = probed
                    stats.probes_issued += 1
                    outcomes = self._execute(
                        op, mutated, i, rng, stats, "guided", probe_of=render(violated.expr)
                    )
                    for out in outcomes:
                        if out.is_reject:
                            stats.probes_rejected += 1
                        elif out.is_crash:
                            stats.probes_crashed += 1
                        else:
                            stats.probes_passed += 1
                    continue
            self._execute(op, binding, i, rng, stats, "guided")
        return stats

    def run_random_op(self, op: str) -> _OpStats:
        stats = _OpStats()
        spec = self.corpus.spec_for(op)
        rng = random.Random(op_seed(self.config.seed, op))
        for i in range(1, self.config.iterations + 1):
            if self.out_of_budget():
                self.truncated = True
                break
            binding = generate_random(spec, rng)
            self._execute(op, binding, i, rng, stats, "random")
        return stats


def _tree_metrics(corpus: Corpus, op: str) -> tuple:
    tree = corpus.tree_for(op)
    spec = corpus.spec_for(op)
    names = {p.name for p in spec.params}
    inter = sum(1 for c in tree.all_constraints() if not c.is_unliftable and len(params_of(c.expr) & names) >= 2)
    return inter, len(tree.all_guards())


def checkpoints_for(iterations: int) -> list:
    points = {c for c in CHECKPOINT_BASES if c <= iterations}
    points.add(iterations)
    return sorted(points)


def run_campaign(corpus: Corpus, config: CampaignConfig) -> dict:
    ops = [s.name for s in corpus.registry.testable]
    if config.ops is not None:
        groups = corpus.registry.by_name
        unknown = [o for o in config.ops if o not in groups or groups[o].name not in ops]
        if unknown:
            raise CampaignConfigError(f"unknown or untestable ops: {unknown}")
        wanted = {groups[o].name for o in config.ops}
        ops = [o for o in ops if o in wanted]

    campaign = _Campaign(corpus, config)
    arms = ("guided", "random") if config.strategy == "both" else (config.strategy,)

    operators: dict = {}
    timelines: dict = {}
    for arm in arms:
        campaign.first_cover, campaign.folded = {}, {}
        per_op: dict = {}
        for op in ops:
            stats = campaign.run_guided_op(op) if arm == "guided" else campaign.run_random_op(op)
            inter, logical = _tree_metrics(corpus, op)
            total = len(corpus.kernel_for(op).blocks)
            per_op[op] = stats.as_json(total, inter, logical)
        points = checkpoints_for(config.iterations)
        timelines[arm] = [sum(1 for it in campaign.first_cover.values() if it <= c) for c in points]
        for op in ops:
            operators.setdefault(op, {})[arm] = per_op[op]

    stats_trees = {corpus.spec_for(op).kernel_id: corpus.tree_for(op) for op in ops}
    stats_kernels = {corpus.spec_for(op).kernel_id: corpus.kernel_for(op) for op in ops}
    cstats = classify_constraints(stats_trees, stats_kernels, list(config.modes), corpus.dependency_count)

    timeline = {"checkpoints": checkpoints_for(config.iterations)}
    for arm in arms:
        timeline["blocks" if arm == arms[0] else f"{arm}_blocks"] = timelines[arm]

    report = {
        "config": {**config.as_json(), "truncated": campaign.truncated},
        "operators": operators,
        "timeline": timeline,
        "constraint_stats": cstats.as_json(),
        "findings": campaign.findings,
    }
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path: Path | str):
    Path(path).write_text(render_report(report))


# -- report inspection and comparison --


def summarize_report(report: dict) -> str:
    cfg = report["config"]
    lines = [
        f"strategy={cfg['strategy']} seed={cfg['seed']} iterations={cfg['iterations']}"
        f" modes={','.join(cfg['modes'])} truncated={cfg['truncated']}"
    ]
    for op, arms in sorted(report["operators"].items()):
        for arm, s in sorted(arms.items()):
            lines.append(
                f"{op:22s} {arm:7s} exec={s['executions']:6d} valid_rate={s['valid_rate']:8.6f}"
                f" coverage={s['coverage_blocks']}/{s['total_blocks']} crashes={s['crashes']}"
            )
    tl = report["timeline"]
    lines.append("timeline checkpoints: " + ", ".join(str(c) for c in tl["checkpoints"]))
    for key in sorted(k for k in tl if k != "checkpoints"):
        lines.append(f"timeline {key}: " + ", ".join(str(v) for v in tl[key]))
    by_label: dict = {}
    for f in report["findings"]:
        by_label[f["causality"]] = by_label.get(f["causality"], 0) + 1
    lines.append(f"findings: {len(report['findings'])} " + json.dumps(by_label, sort_keys=True))
    return "\n".join(lines) + "\n"


def compare_reports(guided: dict, random_report: dict) -> tuple:
    """Returns (exit_code, lines).  1 = reports not comparable, 4 = guided
    fails to dominate, 0 = dominance holds."""
    lines = []
    g_cfg, r_cfg = guided["config"], random_report["config"]
    if g_cfg["truncated"] or r_cfg["truncated"]:
        return 1, ["reports truncated by budget; not comparable"]
    for key in ("seed", "iterations", "modes"):
        if g_cfg[key] != r_cfg[key]:
            return 1, [f"config mismatch on {key}: {g_cfg[key]} vs {r_cfg[key]}"]

    def arm(report, name):
        out = {}
        for op, arms in report["operators"].items():
            if name not in arms:
                return None
            out[op] = arms[name]
        return out

    g_ops = arm(guided, "guided")
    r_ops = arm(random_report, "random")
    if g_ops is None or r_ops is None:
        return 1, ["reports lack the required guided/random arms"]
    if set(g_ops) != set(r_ops):
        return 1, [f"operator sets differ: {sorted(set(g_ops) ^ set(r_ops))}"]

    violations = 0
    for op in sorted(g_ops):
        g, r = g_ops[op], r_ops[op]
        if g["inter_param_constraints"] >= 1:
            ok = g["valid_rate"] > r["valid_rate"]
            lines.append(
                f"{'PASS' if ok else 'FAIL'} valid-rate {op}: guided {g['valid_rate']:.6f}"
                f" {'>' if ok else '<='} random {r['valid_rate']:.6f} (inter-param)"
            )
            violations += 0 if ok else 1
        strict = g["logical_constraints"] >= 1
        if strict:
            ok = g["coverage_blocks"] > r["coverage_blocks"]
            rel = ">"
        else:
            ok = g["coverage_blocks"] >= r["coverage_blocks"]
            rel = ">="
        lines.append(
            f"{'PASS' if ok else 'FAIL'} coverage {op}: guided {g['coverage_blocks']}"
            f" {rel} random {r['coverage_blocks']}"
        )
        violations += 0 if ok else 1

    g_tl, r_tl = guided["timeline"], random_report["timeline"]
    if g_tl["checkpoints"] != r_tl["checkpoints"]:
        return 1, ["timeline checkpoints differ"]
    # a `both` report keeps its guided timeline under "blocks"
    g_blocks = g_tl["blocks"]
    r_blocks = r_tl.get("random_blocks", r_tl.get("blocks"))
    for c, gv, rv in zip(g_tl["checkpoints"], g_blocks, r_blocks):
        ok = gv >= rv
        lines.append(f"{'PASS' if ok else 'FAIL'} timeline@{c}: guided {gv} >= random {rv}")
        violations += 0 if ok else 1

    return (4 if violations else 0), lines
