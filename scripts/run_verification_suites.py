#!/usr/bin/env python3
"""Run every verification suite over a grid of algebra shapes and sizes.

Runs the CLI's ``verify --suite all`` at each (shape, n) of ``GRID`` and exits
with the largest of their exit codes. A broader regression sweep than the
default CLI invocation, e.g.

    python scripts/run_verification_suites.py --trials 100 --seed 7
"""

import argparse
import sys

from cstar_schur import cli

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

    codes = []
    for shape, n in GRID:
        print(f"== shape {shape}, n={n}")
        codes.append(cli.main([
            "verify", "--suite", "all", "--shape", shape, "--n", str(n),
            "--seed", str(args.seed), "--trials", str(args.trials), "--d", str(args.d),
        ]))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
