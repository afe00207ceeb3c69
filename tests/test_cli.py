"""End-to-end checks for the command-line interface.

Everything runs through cli.main(argv) so exit codes and stream routing are
exercised exactly as the console script sees them; one subprocess test proves
the entry point itself is wired.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from opfuzz import cli
from opfuzz.constraints import parse_tree, serialize_tree

BUNDLED = Path(cli.__file__).parent / "corpus_data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- list-ops


def test_list_ops_footer_matches_census(capsys, manifest):
    code, out, _ = run_cli(capsys, "list-ops")
    assert code == 0
    census = manifest["census"]
    footer = (
        f"{census['descriptors']} descriptors, {census['dedup_groups']} groups after dedup,"
        f" {census['testable']} testable, 1 frontend-only"
    )
    assert footer in out


def test_list_ops_shows_kernel_sharing_and_skips(capsys):
    code, out, _ = run_cli(capsys, "list-ops")
    assert code == 0
    arg_lines = [l for l in out.splitlines() if "kernel=ArgKernel" in l]
    # ArgMax and ArgMin print as one dedup group each but share the kernel
    assert len(arg_lines) == 2
    assert any("[skipped]" in l for l in out.splitlines())
    assert any("[frontend-only]" in l for l in out.splitlines())


# ----------------------------------------------------------------- extract


def test_extract_one_op_round_trips(capsys, corpus):
    code, out, _ = run_cli(capsys, "extract", "MatrixDet")
    assert code == 0
    header, _, body = out.partition("\n")
    assert header == "# MatrixDet (kernel MatrixDetKernel)"
    assert serialize_tree(parse_tree(body)) == serialize_tree(corpus.tree_for("MatrixDet"))


def test_extract_defaults_to_every_testable_op(capsys, corpus):
    code, out, _ = run_cli(capsys, "extract")
    assert code == 0
    headers = [l for l in out.splitlines() if l.startswith("# ") and " (kernel " in l]
    assert len(headers) == len(corpus.registry.testable)


def test_extract_unknown_op_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "extract", "Ghost")
    assert code == 2
    assert "unknown operator" in err


def test_golden_check_passes_on_bundled_corpus(capsys, corpus):
    code, out, _ = run_cli(capsys, "extract", "--golden-check")
    assert code == 0
    ok = [l for l in out.splitlines() if l.startswith("OK   ")]
    assert len(ok) == len(corpus.registry.testable)
    assert "FAIL" not in out


def test_golden_check_flags_a_doctored_golden(capsys, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(BUNDLED, root)
    golden = root / "golden" / "MatrixDet.ctree"
    golden.write_text(golden.read_text().replace("== 2", "== 3"))
    code, out, err = run_cli(capsys, "--corpus", str(root), "extract", "--golden-check")
    assert code == 3
    assert "FAIL MatrixDet" in out
    assert "MatrixDet: extracted tree differs from golden" in err
    # untouched ops still report OK
    assert "OK   Bincount" in out


def test_golden_check_flags_an_int_too_large_for_a_float(capsys, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(BUNDLED, root)
    golden = root / "golden" / "MatrixDet.ctree"
    golden.write_text(golden.read_text().replace("== 2", "== " + "1" * 400 + " * 1.5"))
    code, out, err = run_cli(capsys, "--corpus", str(root), "extract", "--golden-check")
    assert code == 3
    assert "FAIL MatrixDet" in out
    assert "MatrixDet: extracted tree differs from golden" in err


def test_golden_check_names_a_malformed_golden_line(capsys, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(BUNDLED, root)
    golden = root / "golden" / "ArgMax.ctree"
    lines = golden.read_text().splitlines()
    golden.write_text("\n".join(lines + ["ndim(x) == == 1"]) + "\n")
    code, _, err = run_cli(capsys, "--corpus", str(root), "extract", "--golden-check")
    assert code == 2
    assert err == f"error: golden/ArgMax.ctree: line {len(lines) + 1}: unexpected token '==' in constraint text\n"


# --------------------------------------------------------------- templates


def test_templates_prints_json_for_the_op(capsys):
    code, out, _ = run_cli(capsys, "templates", "StackPop")
    assert code == 0
    doc = json.loads(out)
    assert doc["control"]["op"] == "StackPop"
    assert doc["control"]["sequence"] is not None
    assert doc["data"]["op"] == "StackPop"


def test_templates_unknown_op(capsys):
    code, _, err = run_cli(capsys, "templates", "Ghost")
    assert code == 2
    assert "unknown operator" in err


def test_listed_names_feed_back_to_templates_and_extract(capsys):
    _, out, _ = run_cli(capsys, "list-ops")
    rows = [line.split() for line in out.splitlines() if "[testable]" in line]
    assert len(rows) == 22
    for row in rows:
        dotted, bare = row[0], row[0].rpartition(".")[2]
        code, by_dotted, err = run_cli(capsys, "templates", dotted)
        assert (code, err) == (0, ""), dotted
        assert by_dotted == run_cli(capsys, "templates", bare)[1], dotted
        assert json.loads(by_dotted)["control"]["op"] == bare
    # every member a group lists names it too
    assert run_cli(capsys, "extract", "compat.v1.Reshape") == run_cli(capsys, "extract", "Reshape")


# -------------------------------------------------------------------- fuzz


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "fuzz.cfg"
    path.write_text(
        "# smoke campaign\n"
        "seed = 7\n"
        "iterations = 20\n"
        "modes = eager\n"
        "strategy = guided\n"
        "ops = Bincount, MatrixDet\n"
    )
    return path


def test_fuzz_writes_report_file(capsys, tmp_path, config_file):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "fuzz", "--config", str(config_file), "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert f"report written to {out_path}" in err
    report = json.loads(out_path.read_text())
    assert report["config"]["seed"] == 7
    assert report["config"]["iterations"] == 20
    assert set(report["operators"]) == {"Bincount", "MatrixDet"}


def test_fuzz_stdout_when_no_out_flag(capsys, config_file):
    code, out, _ = run_cli(capsys, "fuzz", "--config", str(config_file))
    assert code == 0
    assert json.loads(out)["config"]["strategy"] == "guided"


def test_fuzz_truncated_budget_exits_1(capsys, tmp_path, config_file):
    config_file.write_text(config_file.read_text() + "budget_secs = 0.000000001\n")
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "fuzz", "--config", str(config_file), "--out", str(out_path))
    assert code == 1
    assert json.loads(out_path.read_text())["config"]["truncated"] is True


def test_fuzz_missing_config_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fuzz", "--config", str(tmp_path / "nope.cfg"))
    assert code == 1
    assert "error:" in err


def test_fuzz_bad_config_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp = 9\n")
    code, _, err = run_cli(capsys, "fuzz", "--config", str(bad))
    assert code == 2
    assert "unknown key" in err


def test_fuzz_unknown_op_in_config(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("iterations = 5\nops = Ghost\n")
    code, _, err = run_cli(capsys, "fuzz", "--config", str(bad))
    assert code == 2


def test_fuzz_config_takes_the_dotted_names_list_ops_prints(capsys, tmp_path):
    path = tmp_path / "dotted.cfg"
    path.write_text("iterations = 5\nops = raw_ops.ArgMax\n")
    code, out, _ = run_cli(capsys, "fuzz", "--config", str(path))
    assert code == 0
    assert set(json.loads(out)["operators"]) == {"ArgMax"}
    # a listed name that is not testable stays a usage error
    path.write_text("iterations = 5\nops = raw_ops.Abort\n")
    code, _, err = run_cli(capsys, "fuzz", "--config", str(path))
    assert code == 2 and "raw_ops.Abort" in err


# ------------------------------------------------------------------ report


def test_report_summarizes_a_written_report(capsys, tmp_path, config_file):
    out_path = tmp_path / "report.json"
    run_cli(capsys, "fuzz", "--config", str(config_file), "--out", str(out_path))
    code, out, _ = run_cli(capsys, "report", str(out_path))
    assert code == 0
    assert "seed" in out and "7" in out
    assert "MatrixDet" in out


def test_report_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "gone.json"))
    assert code == 1
    assert "error:" in err


def test_report_on_a_file_that_is_not_a_report(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, out, err = run_cli(capsys, "report", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not a report (missing key 'config')\n"


# ----------------------------------------------------------------- compare


@pytest.fixture(scope="module")
def report_pair(tmp_path_factory):
    tmpdir = tmp_path_factory.mktemp("pair")
    paths = {}
    for strategy in ("guided", "random"):
        cfg = tmpdir / f"{strategy}.cfg"
        cfg.write_text(
            "seed = 11\niterations = 40\nmodes = eager\n"
            f"strategy = {strategy}\nops = Bincount, MatrixDet\n"
        )
        out = tmpdir / f"{strategy}.json"
        assert cli.main(["fuzz", "--config", str(cfg), "--out", str(out)]) == 0
        paths[strategy] = out
    return paths


def test_compare_real_pair_passes(capsys, report_pair):
    code, out, _ = run_cli(
        capsys, "compare", "--guided", str(report_pair["guided"]), "--random", str(report_pair["random"])
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(l.startswith("PASS") for l in lines)


def test_compare_dominance_violation_exits_4(capsys, tmp_path, report_pair):
    doc = json.loads(report_pair["random"].read_text())
    for op in doc["operators"].values():
        op["random"]["coverage_blocks"] = 10_000
    doctored = tmp_path / "inflated.json"
    doctored.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "compare", "--guided", str(report_pair["guided"]), "--random", str(doctored)
    )
    assert code == 4
    assert any(l.startswith("FAIL coverage") for l in out.splitlines())


def test_compare_mismatched_configs_exit_1(capsys, tmp_path, report_pair):
    doc = json.loads(report_pair["random"].read_text())
    doc["config"]["seed"] = 999
    doctored = tmp_path / "reseeded.json"
    doctored.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "compare", "--guided", str(report_pair["guided"]), "--random", str(doctored)
    )
    assert code == 1
    assert "seed" in out


def test_compare_names_the_file_that_is_not_a_report(capsys, tmp_path, report_pair):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, _, err = run_cli(capsys, "compare", "--guided", str(empty), "--random", str(empty))
    assert code == 1
    assert err == f"error: {empty}: not a report (missing key 'config')\n"
    # a key missing deep inside the second report names that report
    doc = json.loads(report_pair["random"].read_text())
    del doc["timeline"]["checkpoints"]
    doctored = tmp_path / "no_checkpoints.json"
    doctored.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "compare", "--guided", str(report_pair["guided"]), "--random", str(doctored))
    assert code == 1
    assert err == f"error: {doctored}: not a report (missing key 'checkpoints')\n"


def test_compare_missing_file(capsys, tmp_path, report_pair):
    code, _, err = run_cli(
        capsys, "compare", "--guided", str(report_pair["guided"]), "--random", str(tmp_path / "gone.json")
    )
    assert code == 1


# ------------------------------------------------------------ corpus flag


def test_corpus_flag_rejects_a_broken_corpus(capsys, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(BUNDLED, root)
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["thresholds"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run_cli(capsys, "--corpus", str(root), "list-ops")
    assert code == 2
    assert "error:" in err


def test_console_script_is_wired():
    # the subprocess imports the same package as this test, installed or not
    root = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "opfuzz.cli", "list-ops"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "descriptors" in proc.stdout
