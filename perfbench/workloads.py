"""The benchmark's workloads, their output checks and their trace sites.

Each workload loads the corpus several times (the set-up time), then runs
rounds of work until its time budget is spent and reports medians over the
timed units (a load, a campaign, a replay pass), in seconds scaled to the
reference machine speed (see clock.py). With tracing on it runs one plain
round and one traced round instead, and reports the traced round split by
layer in plain wall seconds.

- guided-campaign, random-campaign: a round is one `run_campaign` over every
  testable operator in both modes at each of two seeds derived from the
  run's seed. Two campaigns average out part of the seed-to-seed variation
  in the findings and coverage counts.
- replay-check: bindings are drawn once per operator, untimed; a round runs
  every binding through eager and graph execution and the constraint tree.

The program is only driven through its public entry points; the benchmark
imports `opfuzz` from the checkout's `src/`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from opfuzz import constraints, generator, orchestrator
from opfuzz import corpus as corpus_mod
from opfuzz.corpus import encode_binding
from opfuzz.generator import GuidedGenerator, generate_random
from opfuzz.kernel import vm
from opfuzz.kernel.ir import Crash, Success
from opfuzz.orchestrator import CampaignConfig, compare_reports, render_report

from clock import Clock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = Path(__file__).resolve().parent / ".state"

WORKLOADS = ("guided-campaign", "random-campaign", "replay-check")
MODES = ("eager", "graph")
# The corpus's frozen comparison budget (manifest thresholds.compare_iterations):
# the length at which guided is claimed to dominate random. At 50 iterations
# the guided arm's few violation probes miss reject blocks that random hits.
ITERATIONS = 300  # per operator and campaign
SEEDS_PER_ROUND = 2  # campaigns per round, each at its own derived seed
REPLAY_PER_OP = 400  # bindings per operator, half guided and half random
SETUP_LOADS = 15
MARK_EVERY = 1000  # replay cases per timed segment, about 40 ms

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "execs_per_s": "1/s",
    "valid_execs_per_s": "1/s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "coverage_blocks": "count",
    "findings": "count",
}

SETUP_LAYERS = (
    "corpus.load_corpus",
    "registry.parse_opspecs",
    "kernel.parser.parse_kernel",
    "extractor.extract_constraints",
)

PER_LAYER = {
    **{f"{name}.s": "s" for name in SETUP_LAYERS},
    "generator.generate.calls": "count",
    "generator.generate.self_s": "s",
    "generator.generate.p50_us": "us",
    "generator.generate.p99_us": "us",
    "generator.repair.self_s": "s",
    "generator.repair.ok_ratio": "ratio",
    "generator.make_violation.self_s": "s",
    "generator.make_violation.found_ratio": "ratio",
    "generator.generate_random.calls": "count",
    "generator.generate_random.self_s": "s",
    **{
        f"kernel.vm.execute.{mode}.{stat}": unit
        for mode in MODES
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("p50_us", "us"), ("p99_us", "us"))
    },
    "kernel.vm.shape_infer_prepass.self_s": "s",
    "kernel.vm.shape_infer_prepass.early_reject_ratio": "ratio",
    "kernel.vm.verdicts.reject": "count",
    "kernel.vm.verdicts.crash": "count",
    "kernel.vm.verdicts.success": "count",
    "constraints.evaluate.calls": "count",
    "constraints.evaluate.self_s": "s",
    "constraints.evaluate_tree.calls": "count",
    "constraints.evaluate_tree.self_s": "s",
    "constraints.params_of.calls": "count",
    "orchestrator.run_campaign.self_s": "s",
    "orchestrator.uncounted_execs": "count",
    "traced_wall_s": "s",
    "tracing_overhead_s": "s",
}


@dataclass
class Run:
    """One benchmark run's outcome. Any entry in `errors` makes it incorrect."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)

    def fail(self, what: str):
        self.failed += 1
        self.errors.append(what)

    @property
    def correct(self) -> bool:
        return not self.errors


# -- trace sites: where each module looks the traced name up --


def _verdict(out) -> str:
    return "reject" if out.is_reject else "crash" if out.is_crash else "success"


def _found(result) -> bool:
    return result is not None


def install_setup_sites(tracer: Tracer):
    tracer.patch(corpus_mod, "load_corpus", "corpus.load_corpus")
    tracer.patch(corpus_mod, "parse_opspecs", "registry.parse_opspecs")
    tracer.patch(corpus_mod, "parse_kernel", "kernel.parser.parse_kernel")
    tracer.patch(corpus_mod, "extract_constraints", "extractor.extract_constraints")


def install_run_sites(tracer: Tracer):
    by_mode = {m: tracer.layer(f"kernel.vm.execute.{m}", durations=True) for m in MODES}

    def execute_layer(args, kwargs):
        return by_mode[args[2] if len(args) > 2 else kwargs.get("mode", "eager")]

    tracer.patch(orchestrator, "run_campaign", "orchestrator.run_campaign")
    tracer.patch(orchestrator, "execute", execute_layer, outcome=_verdict)
    tracer.patch(vm, "execute", execute_layer, outcome=_verdict)  # replay's lookup
    tracer.patch(orchestrator, "generate_random", "generator.generate_random")
    tracer.patch(GuidedGenerator, "generate", "generator.generate", durations=True)
    tracer.patch(GuidedGenerator, "repair", "generator.repair", outcome=bool)
    tracer.patch(GuidedGenerator, "make_violation", "generator.make_violation", outcome=_found)
    tracer.patch(generator, "evaluate", "constraints.evaluate")
    tracer.patch(constraints, "evaluate", "constraints.evaluate")  # evaluate_tree's lookup
    tracer.patch(constraints, "evaluate_tree", "constraints.evaluate_tree")
    tracer.patch(generator, "params_of", "constraints.params_of", count_only=True)
    tracer.patch(vm, "shape_infer_prepass", "kernel.vm.shape_infer_prepass", outcome=_found)


def layer_metrics(tracer: Tracer, setup_layers: dict, traced_wall: float, plain_wall: float, counted_execs: int) -> dict:
    lay = tracer.layer
    gen, rand = lay("generator.generate"), lay("generator.generate_random")
    repair, probe = lay("generator.repair"), lay("generator.make_violation")
    prepass = lay("kernel.vm.shape_infer_prepass")
    ev, tree = lay("constraints.evaluate"), lay("constraints.evaluate_tree")
    execs = [lay(f"kernel.vm.execute.{m}") for m in MODES]
    values = {f"{name}.s": statistics.median(setup_layers[name]) for name in SETUP_LAYERS}
    values.update(
        {
            "generator.generate.calls": gen.calls,
            "generator.generate.self_s": gen.self_s,
            "generator.generate.p50_us": gen.percentile_us(0.5),
            "generator.generate.p99_us": gen.percentile_us(0.99),
            "generator.repair.self_s": repair.self_s,
            "generator.repair.ok_ratio": repair.share(True),
            "generator.make_violation.self_s": probe.self_s,
            "generator.make_violation.found_ratio": probe.share(True),
            "generator.generate_random.calls": rand.calls,
            "generator.generate_random.self_s": rand.self_s,
            "kernel.vm.shape_infer_prepass.self_s": prepass.self_s,
            "kernel.vm.shape_infer_prepass.early_reject_ratio": prepass.share(True),
            "constraints.evaluate.calls": ev.calls,
            "constraints.evaluate.self_s": ev.self_s,
            "constraints.evaluate_tree.calls": tree.calls,
            "constraints.evaluate_tree.self_s": tree.self_s,
            "constraints.params_of.calls": lay("constraints.params_of").calls,
            "orchestrator.run_campaign.self_s": lay("orchestrator.run_campaign").self_s,
            "orchestrator.uncounted_execs": sum(e.calls for e in execs) - counted_execs,
            "traced_wall_s": traced_wall,
            "tracing_overhead_s": traced_wall - plain_wall,
        }
    )
    for mode, e in zip(MODES, execs):
        values[f"kernel.vm.execute.{mode}.calls"] = e.calls
        values[f"kernel.vm.execute.{mode}.self_s"] = e.self_s
        values[f"kernel.vm.execute.{mode}.p50_us"] = e.percentile_us(0.5)
        values[f"kernel.vm.execute.{mode}.p99_us"] = e.percentile_us(0.99)
    for verdict in ("reject", "crash", "success"):
        values[f"kernel.vm.verdicts.{verdict}"] = sum(e.outcomes.get(verdict, 0) for e in execs)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


# -- set-up, rounds and the record of earlier runs --


def measure_setup(run: Run, loads: int, trace: bool):
    """Load the corpus `loads` times; return the corpus and, per set-up
    layer, its seconds in each traced load."""
    clock = Clock()
    layers = {name: [] for name in SETUP_LAYERS}
    for _ in range(loads):
        with Tracer() as tracer:
            if trace:
                install_setup_sites(tracer)
            corpus = clock.measure(corpus_mod.load_corpus)
        if trace:
            for name in SETUP_LAYERS:
                layers[name].append(tracer.layer(name).total_s)
    run.metrics["setup_s"] = (statistics.median(clock.scaled), "s")
    run.notes.append(f"setup loads={loads} wall_median_s={statistics.median(clock.raw)}")
    return corpus, layers


def another_round(done: int, clock: Clock, units: int, deadline: float, trace: bool) -> bool:
    """A traced run makes one plain round. Otherwise at least two, so every
    output is produced twice, then more while they fit the time budget."""
    if trace:
        return done < 1
    return done < 2 or time.perf_counter() + units * statistics.median(clock.raw) <= deadline


def timing_note(clock: Clock) -> str:
    return (
        f"units={len(clock.raw)} wall_median_s={statistics.median(clock.raw)}"
        f" scaled_median_s={statistics.median(clock.scaled)}"
        f" reference_min_s={min(clock.references)} reference_median_s={statistics.median(clock.references)}"
        f" scaled_s={[round(x, 4) for x in clock.scaled]}"
    )


def source_digest() -> str:
    """sha256 over the program's source tree, so records of earlier runs are
    only compared with runs of the same program."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "opfuzz"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(pkg).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Records:
    """Outputs of earlier runs in this checkout, keyed by what determines them."""

    def __init__(self, state_dir: Path):
        self.dir = Path(state_dir) / source_digest()[:16]

    def read(self, key: str) -> str | None:
        path = self.dir / key
        return path.read_text() if path.is_file() else None

    def check(self, run: Run, key: str, text: str):
        """Error unless `text` equals the record under `key`; record it if new."""
        earlier = self.read(key)
        if earlier is None:
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp = self.dir / f".{key}.{os.getpid()}"
            tmp.write_text(text)
            os.replace(tmp, self.dir / key)
        elif earlier != text:
            run.errors.append(f"{key}: output differs from an earlier run at the same seed")


# -- campaigns --


def campaign_seeds(seed: int, n: int) -> list:
    return [seed * 1000 + k for k in range(n)]


def _campaign(run: Run, corpus, cfg: CampaignConfig):
    """The report, or None if the campaign raised."""
    run.attempted += 1
    try:
        return orchestrator.run_campaign(corpus, cfg)
    except Exception:
        run.fail(f"campaign seed={cfg.seed} raised:\n{traceback.format_exc()}")
        return None


@contextmanager
def marks_per_operator(clock: Clock):
    """Cut each timed campaign into one segment per operator: `run_campaign`
    looks up `op_seed` once as it starts each operator."""
    original = orchestrator.op_seed

    def op_seed(*args):
        clock.mark()
        return original(*args)

    orchestrator.op_seed = op_seed
    try:
        yield
    finally:
        orchestrator.op_seed = original


def _check_round(run: Run, configs: list, reports: list, digests: dict):
    for cfg, report in zip(configs, reports):
        if report is None:
            continue
        if report["config"]["truncated"]:
            run.fail(f"campaign seed={cfg.seed} came back truncated")
        want = cfg.iterations * len(cfg.modes)
        for op, arms in report["operators"].items():
            got = arms[cfg.strategy]["executions"]
            if got != want:
                run.errors.append(f"seed={cfg.seed} {op}: {got} executions, expected {want}")
        digest = hashlib.sha256(render_report(report).encode()).hexdigest()
        if digests.setdefault(cfg.seed, digest) != digest:
            run.errors.append(f"seed={cfg.seed}: report sha256 differs between rounds of one run")


def _check_records(run: Run, records: Records, configs: list, reports: list):
    """Same seed, same report as any earlier run; and guided dominates random
    wherever both arms have run at a seed and length."""
    for cfg, report in zip(configs, reports):
        if report is None:
            continue
        stem = f"{cfg.iterations}-{cfg.seed}.json"
        records.check(run, f"{cfg.strategy}-{stem}", render_report(report))
        other = "random" if cfg.strategy == "guided" else "guided"
        other_text = records.read(f"{other}-{stem}")
        if other_text is None:
            continue
        pair = {cfg.strategy: report, other: json.loads(other_text)}
        code, lines = compare_reports(pair["guided"], pair["random"])
        if code != 0:
            failing = [line for line in lines if not line.startswith("PASS")]
            run.errors.append(f"seed={cfg.seed}: compare_reports returned {code}: {failing}")


def campaign_workload(
    strategy: str,
    seed: int,
    seconds: float,
    trace: bool,
    iterations: int = ITERATIONS,
    seeds_per_round: int = SEEDS_PER_ROUND,
    setup_loads: int = SETUP_LOADS,
    state_dir: Path = STATE_DIR,
) -> Run:
    run = Run()
    corpus, setup_layers = measure_setup(run, setup_loads, trace)
    configs = [
        CampaignConfig(seed=s, iterations=iterations, modes=MODES, strategy=strategy)
        for s in campaign_seeds(seed, seeds_per_round)
    ]
    clock = Clock()
    digests: dict = {}
    rounds = []
    deadline = time.perf_counter() + seconds
    with marks_per_operator(clock):
        while another_round(len(rounds), clock, len(configs), deadline, trace):
            rounds.append([clock.measure(lambda cfg=cfg: _campaign(run, corpus, cfg)) for cfg in configs])
            _check_round(run, configs, rounds[-1], digests)
    if trace:
        plain_wall = sum(clock.raw)
        with Tracer() as tracer:
            install_run_sites(tracer)
            reports = [clock.measure(lambda cfg=cfg: _campaign(run, corpus, cfg)) for cfg in configs]
        traced_wall = sum(clock.raw) - plain_wall
        _check_round(run, configs, reports, digests)

    _check_records(run, Records(state_dir), configs, rounds[0])
    for cfg in configs:
        run.notes.append(f"report seed={cfg.seed} iterations={iterations} sha256={digests.get(cfg.seed)}")

    done = [r for r in rounds[0] if r is not None]
    if not done:
        return run
    arms = [arms[strategy] for r in done for arms in r["operators"].values()]
    executions = sum(a["executions"] for a in arms)
    if trace:
        run.metrics = layer_metrics(tracer, setup_layers, traced_wall, plain_wall, executions)
        return run
    per_campaign = 1 / len(done)
    wall = statistics.median(clock.scaled)
    rejects = sum(a["rejects"] for a in arms)
    run.metrics.update(
        {
            "wall_s": (wall, "s"),
            "execs_per_s": (executions * per_campaign / wall, "1/s"),
            "valid_execs_per_s": ((executions - rejects) * per_campaign / wall, "1/s"),
            "checks_per_s": (len(done[0]["operators"]) * iterations / wall, "1/s"),
            "coverage_blocks": (sum(a["coverage_blocks"] for a in arms) * per_campaign, "count"),
            "findings": (sum(len(r["findings"]) for r in done) * per_campaign, "count"),
        }
    )
    run.notes.append(f"campaigns {timing_note(clock)}")
    return run


# -- replay --


@dataclass(frozen=True)
class Case:
    op: str
    kernel: object
    tree: object
    binding: dict


def draw_replay_cases(corpus, seed: int, per_op: int) -> list:
    """Half guided and half random bindings per operator, drawn from the seed."""
    cases = []
    for spec in corpus.registry.testable:
        op = spec.name
        rng = random.Random(f"{seed}:{op}")
        gen = GuidedGenerator(corpus, op)
        kernel, tree = corpus.kernel_for(op), corpus.tree_for(op)
        bindings = [gen.generate(rng, i)[0] for i in range(1, per_op // 2 + 1)]
        bindings += [generate_random(spec, rng) for _ in range(per_op - per_op // 2)]
        cases += [Case(op, kernel, tree, b) for b in bindings]
    return cases


def inputs_digest(cases: list) -> str:
    h = hashlib.sha256()
    for c in cases:
        h.update(json.dumps([c.op, encode_binding(c.binding)], sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _replay_pass(run: Run, cases: list, mark=None) -> list:
    """Every case through eager, graph and the tree; None where one raised
    (the first such traceback goes to the run's errors). Calls `mark`
    between every MARK_EVERY cases."""
    outcomes = []
    raised = False
    for i, c in enumerate(cases):
        if mark is not None and i and i % MARK_EVERY == 0:
            mark()
        try:
            eager = vm.execute(c.kernel, c.binding, "eager")
            graph = vm.execute(c.kernel, c.binding, "graph")
            holds = constraints.evaluate_tree(c.tree, c.binding)
        except Exception:
            if not raised:
                run.errors.append(f"replay {c.op} raised:\n{traceback.format_exc()}")
            raised = True
            outcomes.append(None)
            continue
        outcomes.append((eager, graph, holds))
    return outcomes


@dataclass
class ReplayTally:
    disagree_tree: int = 0  # tree verdict vs eager reject
    disagree_mode: int = 0  # eager vs graph verdict class
    raised: int = 0
    valid_execs: int = 0
    findings: set = field(default_factory=set)
    covered: dict = field(default_factory=dict)  # op -> own-kernel blocks
    digest: str = ""

    @property
    def failed(self) -> int:
        return self.raised + self.disagree_tree + self.disagree_mode


def _verdict_key(v) -> list:
    if isinstance(v, Success):
        return ["success", encode_binding(v.outputs)]
    if isinstance(v, Crash):
        return ["crash", v.kind, v.kernel_id, v.block, v.instr_index]
    return ["reject", v.message, v.block]


def tally_replay(cases: list, outcomes: list) -> ReplayTally:
    t = ReplayTally()
    h = hashlib.sha256()
    for c, out in zip(cases, outcomes):
        if out is None:
            t.raised += 1
            h.update(b"raised\n")
            continue
        eager, graph, holds = out
        t.disagree_tree += holds == eager.is_reject
        t.disagree_mode += type(eager.verdict) is not type(graph.verdict)
        blocks = t.covered.setdefault(c.op, set())
        for o in (eager, graph):
            t.valid_execs += not o.is_reject
            blocks.update(b for k, b in o.covered if k == c.kernel.kernel_id)
            if o.is_crash:
                t.findings.add((o.verdict.kind, o.verdict.kernel_id, o.verdict.block))
        key = [_verdict_key(eager.verdict), _verdict_key(graph.verdict), holds]
        h.update(json.dumps(key, sort_keys=True).encode() + b"\n")
    t.digest = h.hexdigest()
    return t


def replay_workload(
    seed: int,
    seconds: float,
    trace: bool,
    per_op: int = REPLAY_PER_OP,
    setup_loads: int = SETUP_LOADS,
    state_dir: Path = STATE_DIR,
) -> Run:
    run = Run()
    corpus, setup_layers = measure_setup(run, setup_loads, trace)
    cases = draw_replay_cases(corpus, seed, per_op)
    clock = Clock()
    tallies = []
    deadline = time.perf_counter() + seconds
    while another_round(len(tallies), clock, 1, deadline, trace):
        tallies.append(tally_replay(cases, clock.measure(lambda: _replay_pass(run, cases, clock.mark))))
    if trace:
        plain_wall = sum(clock.raw)
        with Tracer() as tracer:
            install_run_sites(tracer)
            tallies.append(tally_replay(cases, clock.measure(lambda: _replay_pass(run, cases))))
        traced_wall = sum(clock.raw) - plain_wall

    first = tallies[0]
    run.attempted = len(cases) * len(tallies)
    run.failed = sum(t.failed for t in tallies)
    if run.failed:
        run.errors.append(f"{run.failed} replay checks raised or disagreed")
    if any(t.digest != first.digest for t in tallies):
        run.errors.append("replay verdicts differ between rounds of one run")
    digest = inputs_digest(cases)
    Records(state_dir).check(run, f"replay-{per_op}-{seed}.json", json.dumps([digest, first.digest]))
    run.notes.append(f"replay inputs={len(cases)} inputs_sha256={digest} verdicts_sha256={first.digest}")
    run.notes.append(f"disagreements tree_vs_eager={first.disagree_tree} eager_vs_graph={first.disagree_mode}")

    if trace:
        run.metrics = layer_metrics(tracer, setup_layers, traced_wall, plain_wall, 0)
        return run
    wall = statistics.median(clock.scaled)
    run.metrics.update(
        {
            "wall_s": (wall, "s"),
            "execs_per_s": (len(MODES) * len(cases) / wall, "1/s"),
            "valid_execs_per_s": (first.valid_execs / wall, "1/s"),
            "checks_per_s": (len(cases) / wall, "1/s"),
            "coverage_blocks": (sum(len(b) for b in first.covered.values()), "count"),
            "findings": (len(first.findings), "count"),
        }
    )
    run.notes.append(f"passes {timing_note(clock)}")
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool, **sizes) -> Run:
    if name == "replay-check":
        return replay_workload(seed, seconds, trace, **sizes)
    return campaign_workload(name.split("-")[0], seed, seconds, trace, **sizes)
