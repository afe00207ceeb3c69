"""Campaign orchestration: config, causality, reports, dominance comparison."""

import copy
import json
import random

import pytest

from opfuzz.corpus import decode_binding
from opfuzz.generator import GuidedGenerator, generate_random
from opfuzz.kernel.ir import DType, ParamDecl, ResourceRef, TensorVal
from opfuzz import orchestrator
from opfuzz.kernel import vm
from opfuzz.kernel.vm import HandleTable, execute
from opfuzz.orchestrator import (
    CampaignConfig,
    CampaignConfigError,
    checkpoints_for,
    classify_causality,
    compare_reports,
    op_seed,
    parse_config,
    render_report,
    run_campaign,
    summarize_report,
    write_report,
    _Campaign,
    _OpStats,
)

from _oracles import per_mode_execute


class FakeSpec:
    def __init__(self, params=()):
        self.params = list(params)


# -- config --


def test_config_defaults():
    cfg = parse_config("")
    assert cfg.seed == 42
    assert cfg.iterations == 1000
    assert cfg.modes == ("eager",)
    assert cfg.strategy == "guided"
    assert cfg.ops is None


def test_config_full_parse():
    cfg = parse_config(
        """
# campaign settings
seed = 7
iterations = 50   # small but honest
modes = eager, graph
strategy = both
ops = MatrixDet, Identity
budget_secs = 2.5
"""
    )
    assert cfg.seed == 7 and cfg.iterations == 50
    assert cfg.modes == ("eager", "graph")
    assert cfg.strategy == "both"
    assert cfg.ops == ("MatrixDet", "Identity")
    assert cfg.budget_secs == 2.5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("iterations = 0", "iterations"),
        ("modes = warp", "warp"),
        ("strategy = clever", "clever"),
        ("seed = seven", "line 1"),
        ("just words", "key = value"),
        ("tempo = 9", "unknown key"),
    ],
)
def test_config_errors(text, fragment):
    with pytest.raises(CampaignConfigError, match=fragment):
        parse_config(text)


def test_config_round_trips_through_json():
    cfg = CampaignConfig(seed=3, iterations=20, modes=("eager",), strategy="random")
    as_json = cfg.as_json()
    assert as_json["seed"] == 3 and as_json["strategy"] == "random"


def test_op_seed_spreads_and_is_stable():
    seeds = {op_seed(42, op) for op in ("ArgMax", "ArgMin", "LARM", "Stack")}
    assert len(seeds) == 4
    assert op_seed(42, "LARM") == op_seed(42, "LARM")
    assert 0 <= op_seed(42, "LARM") <= 0xFFFFFFFF


def test_checkpoints():
    assert checkpoints_for(1000) == [1, 10, 100, 1000]
    assert checkpoints_for(300) == [1, 10, 100, 300]
    assert checkpoints_for(40) == [1, 10, 40]
    assert checkpoints_for(1) == [1]


# -- causality labels --


def itensor(values, shape=None):
    return TensorVal(DType.DT_INT64, shape or (len(values),), data=list(values))


@pytest.mark.parametrize(
    "binding,kind,want",
    [
        ({"x": TensorVal(DType.DT_INT64, (0,), fill=0)}, "OOB", "SHAPE_ZERO_DIM"),
        ({"x": TensorVal(DType.DT_INT64, (), data=[1])}, "OOB", "SHAPE_ZERO_DIM"),
        ({"x": itensor([2**20 + 5, 1])}, "OOB", "SHAPE_BIG_INDEX"),
        ({"x": itensor([1]), "n": 0}, "FPE", "VALUE_ZERO"),
        ({"x": itensor([1]), "n": 2**32}, "IOF", "VALUE_BIG_INT"),
        ({"x": itensor([1]), "n": -4}, "OOB", "VALUE_NEGATIVE"),
        ({"x": itensor([1]), "n": 1}, "UAF", "OTHER"),
    ],
)
def test_causality_rules(binding, kind, want):
    spec = FakeSpec([ParamDecl("x", "input", DType.DT_INT64, "tensor")])
    assert classify_causality(binding, spec, kind) == want


def test_causality_type_mismatch_beats_other():
    spec = FakeSpec(
        [
            ParamDecl("x", "input", DType.DT_INT64, "tensor"),
            ParamDecl("n", "attr", DType.INT, "scalar"),
        ]
    )
    binding = {"x": TensorVal(DType.DT_FLOAT, (1,), data=[1.0]), "n": 1}
    assert classify_causality(binding, spec, "OOB") == "TYPE_MISMATCH"
    assert classify_causality({"x": itensor([1]), "n": "one"}, spec, "OOB") == "TYPE_MISMATCH"


def test_causality_rule_order_shape_first():
    # zero-dim wins even when a zero value is present on an FPE
    spec = FakeSpec([ParamDecl("x", "input", DType.DT_INT64, "tensor")])
    binding = {"x": TensorVal(DType.DT_INT64, (0,), fill=0)}
    assert classify_causality(binding, spec, "FPE") == "SHAPE_ZERO_DIM"


def test_manifest_witness_labels_reproduce(corpus, manifest):
    for bug in manifest["bugs"]:
        spec = corpus.spec_for(bug["op"])
        binding = decode_binding(bug["witness"])
        assert classify_causality(binding, spec, bug["kind"]) == bug["causality"], bug["op"]


def test_big_index_band_is_exclusive():
    spec = FakeSpec([ParamDecl("x", "input", DType.DT_INT64, "tensor")])
    inside = {"x": itensor([2**20])}
    above = {"x": itensor([2**31 + 1])}
    assert classify_causality(inside, spec, "OOB") == "SHAPE_BIG_INDEX"
    assert classify_causality(above, spec, "OOB") == "VALUE_BIG_INT"


# -- campaigns --


@pytest.fixture(scope="module")
def small_guided(corpus):
    cfg = CampaignConfig(
        seed=42,
        iterations=60,
        modes=("eager",),
        strategy="guided",
        ops=("MatrixDet", "Bincount", "StackPop"),
    )
    return run_campaign(corpus, cfg)


def test_report_shape(small_guided):
    assert set(small_guided) == {"config", "constraint_stats", "findings", "operators", "timeline"}
    assert sorted(small_guided["operators"]) == ["Bincount", "MatrixDet", "StackPop"]
    for op, arms in small_guided["operators"].items():
        stats = arms["guided"]
        assert stats["executions"] == 60
        assert stats["successes"] + stats["rejects"] + stats["crashes"] == 60
        assert 0.0 <= stats["valid_rate"] <= 1.0
        assert stats["coverage_blocks"] <= stats["total_blocks"]


def test_probe_accounting(small_guided):
    stats = small_guided["operators"]["MatrixDet"]["guided"]
    assert stats["probes"]["issued"] == 6
    assert (
        stats["probes"]["rejected"] + stats["probes"]["crashed"] + stats["probes"]["passed"]
        == stats["probes"]["issued"]
    )
    assert stats["probes"]["rejected"] == 6  # probes precede every crash site here


def test_timeline_is_monotonic(small_guided):
    tl = small_guided["timeline"]
    assert tl["checkpoints"] == [1, 10, 60]
    assert tl["blocks"] == sorted(tl["blocks"])


def test_findings_unique_per_site(small_guided):
    sites = [(f["arm"], f["kind"], f["kernel"], f["block"]) for f in small_guided["findings"]]
    assert len(sites) == len(set(sites))


def test_scaffolded_pop_still_finds_the_lifetime_bug(small_guided, manifest):
    bug = next(b for b in manifest["bugs"] if b["op"] == "StackPop")
    found = [
        f
        for f in small_guided["findings"]
        if f["op"] == "StackPop" and f["kind"] == bug["kind"] and f["block"] == bug["block"]
    ]
    assert found and found[0]["causality"] == bug["causality"]


def test_campaign_is_deterministic(corpus, small_guided):
    cfg = CampaignConfig(
        seed=42,
        iterations=60,
        modes=("eager",),
        strategy="guided",
        ops=("MatrixDet", "Bincount", "StackPop"),
    )
    again = run_campaign(corpus, cfg)
    assert render_report(again) == render_report(small_guided)


def test_execute_leaves_its_binding_as_it_was(corpus):
    """A binding with no resource params reaches `execute` uncopied."""
    for spec in corpus.registry.testable:
        gen, kernel = GuidedGenerator(corpus, spec.name), corpus.kernel_for(spec.name)
        rng = random.Random(4)
        for i in range(1, 11):
            binding = gen.generate(rng, i)[0] if i % 2 else generate_random(spec, rng)
            before = list(binding.items())
            for mode in ("eager", "graph"):
                execute(kernel, binding, mode, HandleTable())
            assert len(binding) == len(before) and all(binding[k] is v for k, v in before), spec.name


def _steps_to_walk(kernel, binding) -> str:
    """Which step of a graph run ends it: the check, the prepass or the walk."""
    if vm.check_binding(kernel, binding) is not None:
        return "check"
    return "walk" if vm.shape_infer_prepass(kernel, binding) is None else "prepass"


@pytest.mark.parametrize("modes", [("eager", "graph"), ("graph", "eager")])
def test_modes_sharing_a_walk_match_a_full_run_per_mode(corpus, modes):
    """Every state-free op over guided, random and ill-typed bindings: the
    same verdicts and covered sets as one `execute` per mode, and one walk
    object exactly when the graph run gets past its check and prepass."""
    campaign = _Campaign(corpus, CampaignConfig(modes=modes))
    ends, shared_ops = set(), []
    for spec in corpus.registry.testable:
        _, kernel, _, shared = campaign.op_parts(spec.name)
        if not shared:
            continue
        shared_ops.append(spec.name)
        gen, rng = GuidedGenerator(corpus, spec.name), random.Random(op_seed(11, spec.name))
        for i in range(1, 31):
            binding = gen.generate(rng, i)[0] if i % 2 else generate_random(spec, rng)
            if i % 5 == 0:
                binding[spec.params[0].name] = ResourceRef("Nope", "null")  # no param takes one
            got = campaign._execute(spec.name, binding, i, rng, _OpStats(), "guided")
            want = per_mode_execute(kernel, binding, modes)
            assert [(o.verdict, o.covered) for o in got] == [(o.verdict, o.covered) for o in want], spec.name
            end = _steps_to_walk(kernel, binding)
            ends.add(end)
            assert (got[0] is got[1]) == (end == "walk"), (spec.name, end)
    assert len(shared_ops) == 17
    assert ends == {"check", "prepass", "walk"}


def test_an_op_with_state_runs_a_full_execute_per_mode(corpus, monkeypatch):
    """StackPush takes a handle and runs after a scaffold: each mode gets
    its own table and walk; Bincount's two calls pass one walk list."""
    calls = []

    def recorder(kernel, binding, mode, handles=None, walk=None):
        calls.append((kernel.kernel_id, mode, handles, walk))
        return execute(kernel, binding, mode, handles, walk)

    monkeypatch.setattr(orchestrator, "execute", recorder)
    campaign = _Campaign(corpus, CampaignConfig(modes=("eager", "graph")))
    for op in ("StackPush", "Bincount"):
        gen, rng = GuidedGenerator(corpus, op), random.Random(3)
        calls.clear()
        campaign._execute(op, gen.generate(rng, 1)[0], 1, rng, _OpStats(), "guided")
        own = [c for c in calls if c[0] == corpus.kernel_for(op).kernel_id]
        assert [c[1] for c in own] == ["eager", "graph"]
        (_, _, eager_table, eager_walk), (_, _, graph_table, graph_walk) = own
        if op == "StackPush":
            assert len(calls) > 2  # the scaffold ran too
            assert eager_walk is graph_walk is None
            assert isinstance(eager_table, HandleTable) and isinstance(graph_table, HandleTable)
            assert eager_table is not graph_table
        else:
            assert calls == own
            assert eager_table is graph_table is None
            assert isinstance(eager_walk, list) and eager_walk is graph_walk


def test_unknown_op_is_a_config_error(corpus):
    cfg = CampaignConfig(ops=("Ghost",), iterations=1)
    with pytest.raises(CampaignConfigError, match="Ghost"):
        run_campaign(corpus, cfg)


def test_budget_truncates_and_marks_report(corpus):
    cfg = CampaignConfig(iterations=500, budget_secs=1e-9, ops=("MatrixDet", "Identity"))
    report = run_campaign(corpus, cfg)
    assert report["config"]["truncated"] is True
    code, lines = compare_reports(report, report)
    assert code == 1 and "truncated" in lines[0]


def test_write_report_is_canonical_json(tmp_path, small_guided):
    path = tmp_path / "r.json"
    write_report(small_guided, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == small_guided
    assert text == json.dumps(small_guided, indent=2, sort_keys=True) + "\n"


def test_summary_mentions_config_and_findings(small_guided):
    text = summarize_report(small_guided)
    assert "seed" in text and "42" in text
    assert "MatrixDet" in text


# -- comparison --


@pytest.fixture(scope="module")
def compare_pair(corpus):
    base = dict(seed=11, iterations=40, modes=("eager",), ops=("Bincount", "MatrixDet"))
    guided = run_campaign(corpus, CampaignConfig(strategy="guided", **base))
    rand = run_campaign(corpus, CampaignConfig(strategy="random", **base))
    return guided, rand


def test_compare_passes_on_real_pair(compare_pair):
    code, lines = compare_reports(*compare_pair)
    assert code == 0, "\n".join(lines)
    assert all(line.startswith("PASS") for line in lines)


def test_compare_reads_the_random_arm_of_a_both_report(corpus, compare_pair):
    guided, _ = compare_pair
    cfg = guided["config"]
    keys = dict(seed=cfg["seed"], iterations=cfg["iterations"], modes=tuple(cfg["modes"]), ops=tuple(cfg["ops"]))
    both = run_campaign(corpus, CampaignConfig(strategy="both", **keys))
    tl = both["timeline"]
    assert tl["blocks"] != tl["random_blocks"]  # the arms differ, so a misread shows
    code, lines = compare_reports(guided, both)
    assert code == 0, "\n".join(lines)
    timeline = [line for line in lines if "timeline@" in line]
    assert [int(line.rsplit(" ", 1)[1]) for line in timeline] == tl["random_blocks"]


def test_compare_rejects_seed_mismatch(compare_pair):
    guided, rand = compare_pair
    doctored = copy.deepcopy(rand)
    doctored["config"]["seed"] = 12
    code, lines = compare_reports(guided, doctored)
    assert code == 1 and "seed" in lines[0]


def test_compare_rejects_missing_arm(compare_pair):
    guided, _ = compare_pair
    code, lines = compare_reports(guided, guided)
    assert code == 1 and "arms" in lines[0]


def test_compare_rejects_operator_set_mismatch(compare_pair):
    guided, rand = compare_pair
    doctored = copy.deepcopy(rand)
    doctored["operators"]["Ghost"] = doctored["operators"]["MatrixDet"]
    code, lines = compare_reports(guided, doctored)
    assert code == 1 and "Ghost" in lines[0]


def test_compare_flags_dominance_violation(compare_pair):
    guided, rand = compare_pair
    doctored = copy.deepcopy(rand)
    for arms in doctored["operators"].values():
        arms["random"]["coverage_blocks"] = 10_000
    code, lines = compare_reports(guided, doctored)
    assert code == 4
    assert any(line.startswith("FAIL coverage") for line in lines)


def test_compare_valid_rate_tie_fails_strict(compare_pair):
    guided, rand = compare_pair
    doctored = copy.deepcopy(rand)
    g = guided["operators"]["Bincount"]["guided"]["valid_rate"]
    doctored["operators"]["Bincount"]["random"]["valid_rate"] = g
    code, lines = compare_reports(guided, doctored)
    assert code == 4
    assert any("FAIL valid-rate Bincount" in line for line in lines)


def test_guided_reject_rate_stays_under_frozen_ceiling(corpus, manifest):
    # the hardest op to satisfy; the ceiling guards the guided contract that
    # most draws respect the tree
    cfg = CampaignConfig(seed=42, iterations=300, modes=("eager",), ops=("BTCBFS",), strategy="guided")
    stats = run_campaign(corpus, cfg)["operators"]["BTCBFS"]["guided"]
    rate = stats["rejects"] / stats["executions"]
    assert rate <= manifest["thresholds"]["btcbfs_guided_reject_rate_max"]
