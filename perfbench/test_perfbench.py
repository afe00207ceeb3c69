"""The benchmark's own tests: `python3 -m pytest perfbench` from the repository root.

Runs use tiny sizes; only the guided-vs-random comparison runs at the
benchmark's real campaign length, because dominance is claimed only there.
"""

import functools
import json
import re
import time
import types
from pathlib import Path

import pytest

import run as bench_run
import workloads
from clock import REF_S, Clock
from tracer import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = {"campaign": dict(iterations=10, seeds_per_round=1, setup_loads=2), "replay": dict(per_op=6, setup_loads=2)}


def tiny(workload: str, state_dir, seed=3, trace=False):
    sizes = TINY["replay" if workload == "replay-check" else "campaign"]
    return workloads.run_workload(workload, seed, 0, trace, state_dir=state_dir, **sizes)


def sites():
    """Every attribute the tracer patches, with the object there now."""
    from opfuzz import constraints, corpus, generator, orchestrator
    from opfuzz.generator import GuidedGenerator
    from opfuzz.kernel import vm

    owners = {
        corpus: ("load_corpus", "parse_opspecs", "parse_kernel", "extract_constraints"),
        orchestrator: ("run_campaign", "execute", "generate_random", "op_seed"),
        GuidedGenerator: ("generate", "repair", "make_violation"),
        generator: ("evaluate", "params_of"),
        constraints: ("evaluate", "evaluate_tree"),
        vm: ("execute", "shape_infer_prepass"),
    }
    return {(owner.__name__, attr): vars(owner)[attr] for owner, names in owners.items() for attr in names}


def test_benchmark_json_lists_the_printed_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_names_match_and_have_units(workload, trace, tmp_path, monkeypatch, capsys):
    sizes = TINY["replay" if workload == "replay-check" else "campaign"]
    monkeypatch.setattr(workloads, "run_workload", functools.partial(workloads.run_workload, state_dir=tmp_path, **sizes))
    args = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert bench_run.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(m["unit"])
        assert f"{name} {m['value']} {m['unit']}" in lines


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_passes_its_output_checks(workload, tmp_path):
    run = tiny(workload, tmp_path)
    assert run.errors == []
    assert run.correct and run.failed == 0 and run.attempted >= 1
    again = tiny(workload, tmp_path)
    assert again.correct, again.errors
    digests = [n for n in run.notes if "sha256" in n]
    assert digests and digests == [n for n in again.notes if "sha256" in n]


def test_a_differing_earlier_record_fails_the_run(tmp_path):
    assert tiny("guided-campaign", tmp_path).correct
    (record,) = [p for p in tmp_path.rglob("guided-*.json")]
    record.write_text(record.read_text().replace('"executions"', '"executions_"', 1))
    run = tiny("guided-campaign", tmp_path)
    assert not run.correct
    assert any("differs from an earlier run" in e for e in run.errors)


def test_guided_and_random_at_the_same_seed_are_compared(tmp_path):
    for workload in ("guided-campaign", "random-campaign"):
        run = workloads.run_workload(workload, 11, 0, False, seeds_per_round=1, setup_loads=1, state_dir=tmp_path)
        assert run.correct, run.errors
    guided = next(tmp_path.rglob("guided-*.json"))
    guided.write_text(guided.read_text().replace('"coverage_blocks": ', '"coverage_blocks": -', 1))
    run = workloads.run_workload("random-campaign", 11, 0, False, seeds_per_round=1, setup_loads=1, state_dir=tmp_path)
    assert any("compare_reports returned 4" in e for e in run.errors)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_wrapper_is_left_installed(workload, trace, tmp_path):
    before = sites()
    run = tiny(workload, tmp_path, trace=trace)
    assert run.correct, run.errors
    after = sites()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_sum_to_at_most_traced_wall(workload, tmp_path):
    metrics = {name: value for name, (value, _) in tiny(workload, tmp_path, trace=True).metrics.items()}
    spans = [n for n in metrics if n.endswith(".self_s")]
    assert len(spans) >= 10
    assert 0 < sum(metrics[n] for n in spans) <= metrics["traced_wall_s"]
    if workload == "replay-check":
        assert metrics["generator.generate.calls"] == 0 and metrics["generator.generate.self_s"] == 0
        assert metrics["orchestrator.uncounted_execs"] == metrics["kernel.vm.execute.eager.calls"] * 2


def test_self_time_excludes_nested_spans():
    ticks = iter(range(4))
    owner = types.SimpleNamespace(inner=lambda: None)
    original = owner.inner
    with Tracer(clock=lambda: next(ticks)) as t:
        t.patch(owner, "inner", "inner", outcome=lambda r: r is None)
        t.wrap(lambda: owner.inner(), "outer")()
    # clock reads: outer 0, inner 1 and 2, outer 3
    assert (t.layer("outer").total_s, t.layer("outer").self_s) == (3, 2)
    assert (t.layer("inner").calls, t.layer("inner").self_s, t.layer("inner").share(True)) == (1, 1, 1.0)
    assert owner.inner is original


def test_clock_scales_segments_and_leaves_out_the_reference():
    def slow_reference():
        time.sleep(0.02)
        return 2 * REF_S

    clock = Clock(reference=slow_reference)
    assert clock.measure(lambda: (clock.mark(), clock.mark(), 7)[2]) == 7
    (raw,), (scaled,) = clock.raw, clock.scaled
    assert raw < 0.02  # three near-empty segments; the references between them took 60 ms
    assert scaled == pytest.approx(raw / 2)
