#!/usr/bin/env python3
"""Write the 20 canonical golden reports and print one sha256 per file.

A refactor that must not change any report is checked by running this once
on the old checkout and once on the new one, on the same machine, and
comparing the printed hashes (or the files):

    python3 scripts/golden_reports.py OUT_DIR

Each report is one CLI run, ``python -m cstar_schur CMD --json OUT_DIR/NAME``,
in a fresh interpreter importing the package from this checkout's ``src/``,
with BLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``). The runs cover
``verify --suite all`` over the grid of ``run_verification_suites.py`` at 10
and 100 trials, three searches (a sweep with many random hits, a large size
with only the deterministic hit, and ``--stop-on-first``), ``novak
--random``, and one verify run at ``--threads 1`` and ``--threads 4``. The
exit code is 1 when any run exits non-zero.

A change that may move the last bits of margins, but no verdict, is checked
against reports written earlier into REF_DIR by the old checkout:

    python3 scripts/golden_reports.py OUT_DIR --against REF_DIR

For each file this prints "identical", or the largest |delta worst_margin|
of each check id whose margin moved. The exit code is also 1 when any
report's (check_id, trials, failures, skipped, witness is None) differs.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GRID = [
    ("1", 6),
    ("1,1", 4),
    ("1,1,1,1", 3),
    ("2", 2),
    ("2,1", 2),
    ("3", 2),
    ("2,2", 2),
]


def golden_commands() -> dict[str, list[str]]:
    """File name -> CLI arguments (without ``--json``) of every golden report."""
    runs = {}
    for shape, n in GRID:
        for trials in (10, 100):
            runs[f"verify_s{shape}_n{n}_t{trials}.json"] = [
                "verify", "--suite", "all", "--seed", "2024", "--shape", shape,
                "--n", str(n), "--trials", str(trials),
            ]
    runs["search_n2_3.json"] = [
        "search", "--shape", "2", "--n", "2", "--n-max", "3", "--trials", "1000"
    ]
    runs["search_n8.json"] = ["search", "--shape", "2", "--n", "8", "--trials", "2000"]
    runs["search_stop.json"] = [
        "search", "--shape", "2,1", "--n", "2", "--trials", "300", "--stop-on-first"
    ]
    runs["novak_random.json"] = [
        "novak", "--random", "--n", "4", "--d", "3", "--trials", "20"
    ]
    for threads in (1, 4):
        runs[f"verify_11_n3_th{threads}.json"] = [
            "verify", "--suite", "all", "--shape", "1,1", "--n", "3", "--trials", "15",
            "--threads", str(threads),
        ]
    return runs


def _verdicts(payload: dict) -> list[tuple]:
    return [
        (r["check_id"], r["trials"], r["failures"], "skipped" in r["details"],
         r["witness"] is None)
        for r in payload["reports"]
    ]


def _margin_moves(new: dict, ref: dict) -> dict[str, float]:
    """Largest |delta worst_margin| per check id, for the check ids whose margin moved."""
    moves: dict[str, float] = {}
    for a, b in zip(new["reports"], ref["reports"]):
        x, y = a["worst_margin"], b["worst_margin"]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        delta = abs(x - y)
        prev = moves.get(a["check_id"], 0.0)
        moves[a["check_id"]] = delta if math.isnan(delta) else max(prev, delta)
    return moves


def compare(out_dir: Path, ref_dir: Path, names) -> int:
    """Print how each fresh report differs from its reference; the number of
    files whose verdicts differ or that are missing on either side."""
    changed = 0
    for name in names:
        new_path, ref_path = out_dir / name, ref_dir / name
        if not (new_path.exists() and ref_path.exists()):
            changed += 1
            print(f"missing    {name}")
            continue
        new_bytes, ref_bytes = new_path.read_bytes(), ref_path.read_bytes()
        if new_bytes == ref_bytes:
            print(f"identical  {name}")
            continue
        new, ref = json.loads(new_bytes), json.loads(ref_bytes)
        same = _verdicts(new) == _verdicts(ref)
        changed += not same
        print(f"{'differs' if same else 'VERDICTS':10s} {name}")
        for check_id, delta in sorted(_margin_moves(new, ref).items()):
            print(f"    {check_id:32s} max |delta worst_margin| = {delta:.3e}")
    return changed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path, help="directory the reports are written to")
    ap.add_argument(
        "--against",
        metavar="REF_DIR",
        type=Path,
        default=None,
        help="compare the fresh reports with those in REF_DIR",
    )
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    failed = 0
    for name, argv in sorted(golden_commands().items()):
        path = args.out_dir / name
        proc = subprocess.run(
            [sys.executable, "-m", "cstar_schur", *argv, "--json", str(path)],
            env=env, stdout=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            failed += 1
            print(f"exit {proc.returncode}: {' '.join(argv)}", file=sys.stderr)
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"
        print(f"{digest}  {name}")
    if args.against is not None:
        failed += compare(args.out_dir, args.against, sorted(golden_commands()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
