"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload desk_battery --seed 0 --seconds 30 --trace 0

Run from the root of a starbeam source tree; the program is imported from
its ``src`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics). A full record with
the environment, the quality metrics and any failures is written to
``bench/out/``. The exit code is 1 when any output check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import harness
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "starbeam", "__init__.py")):
        print(f"error: no starbeam sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    harness.cap_blas_threads()
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    print("\n".join(harness.report_lines(result)))
    print(f"  record: {record}")
    print(harness.final_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
