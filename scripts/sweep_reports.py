#!/usr/bin/env python3
"""Hash the suite reports of 840 configurations, one line each, for diffing.

A change that must not move any report, errors included, is checked by
running this on the old checkout and on the new one, on the same machine, and
comparing the two files:

    python3 scripts/sweep_reports.py OUT
    diff OLD_OUT NEW_OUT

Each configuration is one ``run_suites("all", ...)`` call in this
interpreter, importing the package from this checkout's ``src/``, with BLAS
pinned to one thread. The sweep covers the 7 shapes of
``run_verification_suites.py``, n from 1 to 3, entry scales 1, 0.37, 2.5,
1e-100 and 1e200, both styles, d 1 and 3, and both ``entrywise_constant``
values, each at seed 2024 with 5 trials. A line holds the configuration and either the sha256 of the canonical
JSON of its reports or the class and message of the error it raised. At entry
scale 1e200 every configuration raises in the first suite, so ``--suite NAME``
sweeps one suite alone, to reach the errors of the later ones.
"""

import argparse
import hashlib
import itertools
import os
import sys
import warnings
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
from cstar_schur import AlgebraShape, GenConfig  # noqa: E402
from cstar_schur.cli import _canonical_json  # noqa: E402
from cstar_schur.generate import STYLES  # noqa: E402
from cstar_schur.verify import run_suites  # noqa: E402
from run_verification_suites import GRID  # noqa: E402

SIZES = (1, 2, 3)
SCALES = (1.0, 0.37, 2.5, 1e-100, 1e200)
DS = (1, 3)
CONSTANTS = (False, True)
SEED = 2024
TRIALS = 5


def sweep_result(suite: str, shape: str, n: int, scale: float, style: str, d: int,
                 constant: bool) -> tuple[str, bool]:
    """The result of one configuration, a hash or an error, and whether it raised."""
    try:
        cfg = GenConfig(seed=SEED, shape=AlgebraShape.parse(shape), n=n,
                        entry_scale=scale, style=style)
        reports = run_suites(suite, cfg, trials=TRIALS, d=d, entrywise_constant=constant)
    except Exception as exc:  # every error is a result to compare
        return f"{type(exc).__name__}: {exc}", True
    text = _canonical_json({"reports": [r.to_json() for r in reports]})
    return hashlib.sha256(text.encode()).hexdigest(), False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="file the lines are written to")
    ap.add_argument("--suite", default="all")
    args = ap.parse_args()
    # numpy's overflow warnings at the extreme scales would only clutter stderr
    warnings.simplefilter("ignore", RuntimeWarning)
    shapes = [shape for shape, _ in GRID]
    lines, raised = [], 0
    for shape, n, scale, style, d, constant in itertools.product(
        shapes, SIZES, SCALES, STYLES, DS, CONSTANTS
    ):
        result, error = sweep_result(args.suite, shape, n, scale, style, d, constant)
        raised += error
        lines.append(
            f"shape={shape} n={n} scale={scale!r} style={style} d={d}"
            f" constant={int(constant)}  {result}"
        )
    args.out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} configurations, {raised} raised, written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
