"""Benchmark entry point: one workload at one seed, one JSON result line.

    python3 perfbench/run.py --workload guided-campaign --seed 1 --seconds 20 --trace 0

Run from a checkout's root; the program is imported from its `src/`. The
last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`, with
the end-to-end metrics under `--trace 0` and the per-layer split under
`--trace 1`. The lines before it give every metric with its unit, the
report and input digests, and the machine. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    if not (SRC / "opfuzz" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'opfuzz'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="time budget of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the registry warns about its frontend-only operator on every load
    logging.getLogger("opfuzz").setLevel(logging.ERROR)
    run = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        run.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine nproc={os.cpu_count()} python={platform.python_version()} {platform.machine()}")
    for line in run.notes:
        print(line)
    for line in run.errors:
        print(f"CHECK FAILED: {line}")
    for name, (value, unit) in run.metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
