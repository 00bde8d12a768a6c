#!/usr/bin/env python3
"""Run every verification suite over a grid of algebra shapes and sizes.

Prints one row per (shape, n, check) and a final tally. Useful as a broader
regression sweep than the default CLI invocation, e.g.

    python scripts/run_verification_suites.py --trials 100 --seed 7
"""

import argparse
import sys
import time

from cstar_schur import AlgebraShape, GenConfig
from cstar_schur.verify import counts_as_failure, run_suites

GRID = [
    ("1", 6),
    ("1,1", 4),
    ("1,1,1,1", 3),
    ("2", 2),
    ("2,1", 2),
    ("3", 2),
    ("2,2", 2),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--d", type=int, default=2)
    args = ap.parse_args()

    t0 = time.perf_counter()
    total = failures = 0
    for shape_text, n in GRID:
        shape = AlgebraShape.parse(shape_text)
        cfg = GenConfig(seed=args.seed, shape=shape, n=n)
        reports = run_suites("all", cfg, trials=args.trials, d=args.d)
        for r in reports:
            total += 1
            status = "skip" if "skipped" in r.details else (
                "probe" if r.details.get("probe") else (
                    "pass" if not counts_as_failure(r) else "FAIL"
                )
            )
            if status == "FAIL":
                failures += 1
            print(
                f"{shape_text:10s} n={n}  {r.check_id:32s} {status:5s}"
                f" worst_margin={r.worst_margin:+.2e}"
            )
    print(
        f"\n{total} checks over {len(GRID)} configurations,"
        f" {failures} failures, {time.perf_counter() - t0:.1f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
