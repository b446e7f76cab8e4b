#!/usr/bin/env python3
"""The serving benchmark: wall ms per operation and virtual latency.

Drives ``Session.serve()`` in one process and one thread over three
seeded workloads (``workloads.py``), checks every answer, and reports
end-to-end metrics (``--trace 0``) or per-layer metrics from a traced
run (``--trace 1``); see ``harness.py``.  Run from the repository root:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all    # every workload, untraced and traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value
and unit).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1


def run_all(names, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    status = 0
    for name in names:
        for trace in ("0", "1"):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
            status = status or child.returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run it from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default="read-hot")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(WORKLOADS, args.seed, args.seconds)
    from harness import run_workload

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(run.lines))
    print(json.dumps(run.result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
