#!/usr/bin/env python3
"""Hash the suite or search reports of many configurations, one line each, for diffing.

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

``--search`` sweeps the searches instead: ``counterexample_search`` with and
without ``stop_on_first``, ``find_nonassociativity`` and ``find_trig_breakdown``,
one line each, at seed 2024 with 250 random trials (``--trials N`` sets
another count), over the shapes (2,), (2, 1), (3,) and (2, 2), n 1, 2, 3 and
8, entry scales 1, 0.37, 1e-100, 1.2e154 and 1e200, and both styles. A chunk
holds 14 to 2 048 trials there, so the searches at n = 3 and 8, and over (3,)
at n = 2, that run their trials span two chunks or more; at n = 8 over (2,) a
chunk is 32 trials of 16 x 16 flattened blocks, the shape of the
``search_miss`` benchmark's stacks. The 250 trials fit in one window of the
searches' stream hashing (``verify._WINDOW_TRIALS``, 1 024 trials), so
``--search --trials 2500`` is a sweep whose searches cross windows.
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
from cstar_schur.suites import find_nonassociativity, find_trig_breakdown  # noqa: E402
from cstar_schur.verify import counterexample_search, run_suites  # noqa: E402
from run_verification_suites import GRID  # noqa: E402

SIZES = (1, 2, 3)
SCALES = (1.0, 0.37, 2.5, 1e-100, 1e200)
DS = (1, 3)
CONSTANTS = (False, True)
SEED = 2024
TRIALS = 5

SEARCH_SHAPES = ("2", "2,1", "3", "2,2")
SEARCH_SIZES = (1, 2, 3, 8)
SEARCH_SCALES = (1.0, 0.37, 1e-100, 1.2e154, 1e200)
SEARCH_TRIALS = 250
SEARCHES = {
    "counterexample": counterexample_search,
    "counterexample_stop": lambda cfg, trials: counterexample_search(
        cfg, trials, stop_on_first=True
    ),
    "nonassociativity": find_nonassociativity,
    "trig_breakdown": find_trig_breakdown,
}


def _result(run) -> tuple[str, bool]:
    """The sha256 of the canonical JSON of the reports ``run()`` returns, or the
    error it raised, and whether it raised."""
    try:
        reports = run()
    except Exception as exc:  # every error is a result to compare
        return f"{type(exc).__name__}: {exc}", True
    text = _canonical_json({"reports": [r.to_json() for r in reports]})
    return hashlib.sha256(text.encode()).hexdigest(), False


def _config(shape: str, n: int, scale: float, style: str) -> GenConfig:
    return GenConfig(seed=SEED, shape=AlgebraShape.parse(shape), n=n, entry_scale=scale,
                     style=style)


def suite_lines(suite: str):
    """(line, raised) of every configuration of the suite sweep."""
    shapes = [shape for shape, _ in GRID]
    for shape, n, scale, style, d, constant in itertools.product(
        shapes, SIZES, SCALES, STYLES, DS, CONSTANTS
    ):
        result, error = _result(lambda: run_suites(
            suite, _config(shape, n, scale, style), trials=TRIALS, d=d, entrywise_constant=constant
        ))
        yield (
            f"shape={shape} n={n} scale={scale!r} style={style} d={d}"
            f" constant={int(constant)}  {result}"
        ), error


def search_lines(trials: int):
    """(line, raised) of every configuration and search of the search sweep."""
    for shape, n, scale, style, (name, search) in itertools.product(
        SEARCH_SHAPES, SEARCH_SIZES, SEARCH_SCALES, STYLES, SEARCHES.items()
    ):
        result, error = _result(lambda: [search(_config(shape, n, scale, style), trials)])
        yield f"search={name} shape={shape} n={n} scale={scale!r} style={style}  {result}", error


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="file the lines are written to")
    ap.add_argument("--suite", default="all")
    ap.add_argument("--search", action="store_true", help="sweep the searches instead")
    ap.add_argument("--trials", type=int, default=SEARCH_TRIALS,
                    help="random trials of each search (default: %(default)s)")
    args = ap.parse_args()
    # numpy's overflow warnings at the extreme scales would only clutter stderr
    warnings.simplefilter("ignore", RuntimeWarning)
    lines, raised = [], 0
    for line, error in search_lines(args.trials) if args.search else suite_lines(args.suite):
        raised += error
        lines.append(line)
    args.out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} configurations, {raised} raised, written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
