"""Seeded benchmark of fuzzchain.

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 20 --trace 0

Runs one workload from the checkout's ``src/`` and prints, as the last line
of stdout, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Detail (error rate, per-class latencies, check_s) goes to
stderr.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("eval-mix", "closure-large", "symbolic", "cli")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "fuzzchain" / "__init__.py").is_file():
        print(f"perfbench: no fuzzchain sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fuzzchain

    if Path(fuzzchain.__file__).resolve().parent != SRC / "fuzzchain":
        print(f"perfbench: fuzzchain came from {fuzzchain.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness

    harness.report(
        {
            "environment": f"Python {platform.python_version()}, nproc {os.cpu_count()}",
            "run": f"workload={args.workload} seed={args.seed} trace={args.trace}",
        }
    )
    if args.trace:
        result = harness.measure_traced(args.workload, args.seed, ROOT, SRC)
    else:
        result = harness.measure(args.workload, args.seed, args.seconds, ROOT, SRC)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
