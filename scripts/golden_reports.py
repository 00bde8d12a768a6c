#!/usr/bin/env python3
"""Write the 24 canonical golden reports and print one sha256 per file.

A refactor that must not change any report is checked by running this once
on the old checkout and once on the new one, on the same machine, and
comparing the printed hashes (or the files):

    python3 scripts/golden_reports.py OUT_DIR

Each report is one CLI run, ``python -m cstar_schur CMD --json OUT_DIR/NAME``,
in a fresh interpreter importing the package from this checkout's ``src/``,
with BLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``). The runs cover
``verify --suite all`` over the grid of ``run_verification_suites.py`` at 10
and 100 trials, five searches (a sweep with many random hits, a large size
with only the deterministic hit, ``--stop-on-first``, and random trials over
the multi-block shape (2, 1) at a non-unit entry scale in both styles),
``verify --suite novak`` at ``--d 3``, two verify runs at a non-unit entry
scale (one with ``--d 3``, one in the ``real_commutative`` style with
``--entrywise-constant``), and one verify run at ``--threads 1`` and
``--threads 4``. The exit code is 1 when any run exits non-zero.

A change that may move the last bits of margins, but no verdict, is checked
against reports written earlier into REF_DIR by the old checkout:

    python3 scripts/golden_reports.py OUT_DIR --against REF_DIR

For each file this prints "identical", or the largest |delta worst_margin|
of each check id whose margin moved. The exit code is also 1 when any
report's (check_id, trials, failures, skipped, witness is None) differs, or,
for a search, its ``details.violation_trials``, ``details.found_trial`` or the
trials of its kept ``details.violations``: a search whose violating trials
swap at an equal count, whose first hit moves, or whose most negative
witnesses reorder, has moved a verdict.

The committed manifest ``tests/golden_manifest.json``, which
``tests/test_goldens.py`` checks the reports against, is rewritten from the
fresh reports with

    python3 scripts/golden_reports.py OUT_DIR --write-manifest tests/golden_manifest.json

For each golden it holds the argv, the sha256 of the report's bytes and its
fingerprint (``fingerprint``): the verdicts above, a search's per-n counts,
and each report's tolerance and worst margin. It also holds the environment
key the bytes were written under (``environment_key``).
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

# the grid is the one of run_verification_suites.py, which imports the package
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
from run_verification_suites import GRID  # noqa: E402


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
    for style in ("complex", "real_commutative"):
        runs[f"search_s2,1_{style}.json"] = [
            "search", "--shape", "2,1", "--n", "3", "--trials", "300",
            "--entry-scale", "0.37", "--style", style,
        ]
    runs["verify_novak_n4_d3_t20.json"] = [
        "verify", "--suite", "novak", "--n", "4", "--d", "3", "--trials", "20"
    ]
    # the non-unit scale, --d, the real style and --entrywise-constant in verify
    runs["verify_s2,1_n3_scale2.5_d3.json"] = [
        "verify", "--suite", "all", "--shape", "2,1", "--n", "3", "--trials", "20",
        "--entry-scale", "2.5", "--d", "3",
    ]
    runs["verify_s1,1,1_n3_scale0.37_real.json"] = [
        "verify", "--suite", "all", "--shape", "1,1,1", "--n", "3", "--trials", "20",
        "--entry-scale", "0.37", "--style", "real_commutative", "--entrywise-constant",
    ]
    for threads in (1, 4):
        runs[f"verify_11_n3_th{threads}.json"] = [
            "verify", "--suite", "all", "--shape", "1,1", "--n", "3", "--trials", "15",
            "--threads", str(threads),
        ]
    return runs


def _kept_trials(details: dict) -> list[int] | None:
    """The trials of the violations a search report keeps, in order."""
    if not details.get("search"):
        return None
    return [v["trial"] for v in details.get("violations", [])]


def _verdicts(payload: dict) -> list[tuple]:
    return [
        (r["check_id"], r["trials"], r["failures"], "skipped" in r["details"],
         r["witness"] is None, r["details"].get("violation_trials"),
         r["details"].get("found_trial"), _kept_trials(r["details"]))
        for r in payload["reports"]
    ]


def environment_key() -> dict:
    """What a report's last bits depend on besides the code: the numpy
    version, the BLAS library numpy names, and the machine."""
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "machine": platform.machine(),
    }


def fingerprint(payload: dict) -> dict:
    """What the manifest keeps of a report besides its bytes: its verdicts
    (``_verdicts``), a search's (n, trials, violations, random_violations) per
    n, and each report's tolerance and worst margin, as JSON values."""
    return json.loads(json.dumps({
        "verdicts": _verdicts(payload),
        "per_n": [
            [p["n"], p["trials"], p["violations"], p["random_violations"]]
            for p in payload.get("per_n", [])
        ],
        "tolerances": [r["tol"] for r in payload["reports"]],
        "worst_margins": [r["worst_margin"] for r in payload["reports"]],
    }))


def write_manifest(out_dir: Path, path: Path) -> None:
    """Write the manifest of the reports in ``out_dir`` to ``path``."""
    goldens = {}
    for name, argv in sorted(golden_commands().items()):
        data = (out_dir / name).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        goldens[name] = {"argv": argv, "sha256": digest, **fingerprint(json.loads(data))}
    # one line per golden, so that a diff of the file names the goldens that moved
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in goldens.items())
    env = json.dumps(environment_key())
    path.write_text(f'{{\n "environment": {env},\n "goldens": {{\n{lines}\n }}\n}}\n')


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
    ap.add_argument(
        "--write-manifest",
        metavar="PATH",
        type=Path,
        default=None,
        help="write the manifest of the fresh reports to PATH (tests/golden_manifest.json)",
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
    if args.write_manifest is not None and not failed:
        write_manifest(args.out_dir, args.write_manifest)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
