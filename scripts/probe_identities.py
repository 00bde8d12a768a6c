#!/usr/bin/env python3
"""Probe the boundaries of the entrywise-product bounds.

Three experiments at desk scale:

1. the diagonal-outer bound M o M >= (1/n) (diag M)(diag M)* on *complex*
   commutative instances — the proof needs entries fixed by the involution,
   and complex instances do violate it; measure how often;
2. the same bound on real instances — always holds; record the worst margin;
3. zeroth-Schur-power conventions: how often does a positive-coefficient
   series applied with the identity convention vs the all-units convention
   disagree about positivity? (Never, for positive inputs — both shifts are
   positive — but the margins differ; record both.)

Experiments 1 and 2 are the checks ``diag_outer_bound_complex_probe`` and
``diag_outer_bound`` of ``run_suite("corollaries", ...)`` over the shape
(1, 1); experiment 3 is ``check_preserver(..., report_both=True)``.
"""

import argparse
import sys

from cstar_schur import (
    AlgebraShape,
    GenConfig,
    SeriesSpec,
    check_preserver,
    random_element,
    random_positive_matrix,
    run_suite,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--n", type=int, default=4)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error("--trials must be >= 1")

    shape = AlgebraShape((1, 1))

    cfg = GenConfig(seed=args.seed, shape=shape, n=args.n)
    reports = {r.check_id: r for r in run_suite("corollaries", cfg, trials=args.trials)}
    for style, check_id in (
        ("complex", "diag_outer_bound_complex_probe"),
        ("real_commutative", "diag_outer_bound"),
    ):
        rep = reports[check_id]
        print(
            f"diag bound, style={style:16s}: {rep.failures}/{args.trials} violations,"
            f" worst margin {rep.worst_margin:+.3e}"
        )

    cfg = GenConfig(seed=args.seed + 1, shape=shape, n=args.n)
    margins_id, margins_ones = [], []
    for t in range(args.trials):
        sub = cfg.derive(t)
        g = random_element(sub.derive(1))
        a0 = g * g.adjoint()
        _, M = random_positive_matrix(sub.derive(0))
        rep = check_preserver(SeriesSpec((a0, a0, a0)), M, report_both=True)
        margins_id.append(rep.worst_margin)
        margins_ones.append(rep.details["ones_convention"]["margin"])
    print(
        f"series conventions: worst margin identity {min(margins_id):+.3e},"
        f" all-units {min(margins_ones):+.3e} (both stay positive on positive input)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
