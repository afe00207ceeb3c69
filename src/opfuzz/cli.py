"""Command-line interface.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error,
3 golden mismatch, 4 comparison violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constraints import serialize_tree, tree_equal
from .corpus import CorpusError, load_corpus
from .generator import describe_templates
from .orchestrator import (
    CampaignConfigError,
    compare_reports,
    parse_config,
    render_report,
    run_campaign,
    summarize_report,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opfuzz", description="Constraint-guided operator fuzzing toolchain")
    parser.add_argument("--corpus", help="corpus directory (defaults to the bundled corpus)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-ops", help="show collected operators, modules, and kernel groups")

    p = sub.add_parser("extract", help="print extracted constraint trees")
    p.add_argument("ops", nargs="*", help="operator names (default: all testable)")
    p.add_argument("--golden-check", action="store_true", help="compare against bundled golden trees")

    p = sub.add_parser("templates", help="print control and data templates for one operator")
    p.add_argument("op")

    p = sub.add_parser("fuzz", help="run a campaign")
    p.add_argument("--config", required=True, help="campaign config file (key = value lines)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("report", help="summarize a campaign report")
    p.add_argument("path")

    p = sub.add_parser("compare", help="check guided dominance over random")
    p.add_argument("--guided", required=True)
    p.add_argument("--random", required=True)

    return parser


class _NotAReport(Exception):
    pass


class _ReportObject(dict):
    """A JSON object read from the report file `path`: a key it lacks is an
    error that names the file."""

    def __init__(self, obj: dict, path: str):
        super().__init__(obj)
        self.path = path

    def __missing__(self, key):
        raise _NotAReport(f"{self.path}: not a report (missing key {key!r})")


def _read_report(path: str) -> dict:
    """The report at `path`, summarised once to read it through and the numbers
    `compare_reports` orders checked, so that a file that is not a report fails here."""
    try:
        report = json.loads(Path(path).read_text(), object_hook=lambda obj: _ReportObject(obj, path))
        if not isinstance(report, dict):
            raise TypeError("top level is not a JSON object")
        summarize_report(report)
        entries = [s for arms in report["operators"].values() for s in arms.values()]
        ordered = [(k, s[k]) for s in entries for k in ("inter_param_constraints", "logical_constraints", "coverage_blocks")]
        for key, v in ordered + [(f"timeline {k}", v) for k, values in report["timeline"].items() for v in values]:
            if type(v) not in (int, float):
                raise TypeError(f"{key} holds {v!r}, not a number")
    except (ValueError, TypeError, AttributeError) as e:
        raise _NotAReport(f"{path}: not a report ({e})") from None
    return report


def _cmd_list_ops(corpus) -> int:
    reg = corpus.registry
    testable = {g.name for g in reg.groups if g.testable}
    for group in sorted(reg.groups, key=lambda g: g.name):
        rep = group.representative
        tag = "testable" if group.name in testable else "skipped"
        members = ", ".join(group.members)
        print(f"{rep.dotted:40s} kernel={group.kernel_id:22s} [{tag}] members: {members}")
    frontend_only = [s for s in reg.specs if s.kernel_id is None]
    for s in frontend_only:
        print(f"{s.dotted:40s} kernel={'-':22s} [frontend-only]")
    print(
        f"\n{len(reg.specs)} descriptors, {len(reg.groups)} groups after dedup,"
        f" {len([g for g in reg.groups if g.testable])} testable, {len(frontend_only)} frontend-only"
    )
    return 0


def _cmd_extract(corpus, ops, golden_check: bool) -> int:
    names = [corpus.spec_for(op).name for op in ops] or [s.name for s in corpus.registry.testable]
    failures = []
    for op in names:
        tree = corpus.tree_for(op)
        if golden_check:
            want = corpus.golden_tree(op)
            if want is None:
                failures.append(f"{op}: no golden tree")
                continue
            if tree_equal(tree, want):
                print(f"OK   {op}")
            else:
                failures.append(f"{op}: extracted tree differs from golden")
                print(f"FAIL {op}")
        else:
            print(f"# {op} (kernel {corpus.spec_for(op).kernel_id})")
            text = serialize_tree(tree)
            print(text if text else "# (no constraints)")
    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            report = _read_report(args.path)
            sys.stdout.write(summarize_report(report))
            return 0
        if args.command == "compare":
            guided, rand = _read_report(args.guided), _read_report(args.random)
            code, lines = compare_reports(guided, rand)
            for line in lines:
                print(line)
            return code

        if args.command == "fuzz":
            config = parse_config(Path(args.config).read_text())
            corpus = load_corpus(args.corpus or config.corpus)
            report = run_campaign(corpus, config)
            text = render_report(report)
            if args.out:
                Path(args.out).write_text(text)
                print(f"report written to {args.out}", file=sys.stderr)
            else:
                sys.stdout.write(text)
            return 1 if report["config"]["truncated"] else 0

        corpus = load_corpus(args.corpus)
        if args.command == "list-ops":
            return _cmd_list_ops(corpus)
        if args.command == "extract":
            return _cmd_extract(corpus, args.ops, args.golden_check)
        if args.command == "templates":
            print(json.dumps(describe_templates(corpus, corpus.spec_for(args.op).name), indent=2, sort_keys=True))
            return 0
    except (CorpusError, CampaignConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, _NotAReport) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
