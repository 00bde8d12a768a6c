"""The benchmark's workloads and the verdict check applied to their reports.

Each workload is a fixed list of ``cstar_schur`` CLI commands. The verdict
of a command is its exit code plus a fingerprint of its JSON report that
leaves out margins and bytes, so last-bit drift in the numerics still passes.
At the reference seed the fingerprints must equal the ones captured at the
seed commit (``reference.json``); at any other seed the invariants below must
hold instead.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 2024

# Copied from scripts/run_verification_suites.py so that the workload stays
# fixed if that script's grid changes.
GRID = [
    ("1", 6),
    ("1,1", 4),
    ("1,1,1,1", 3),
    ("2", 2),
    ("2,1", 2),
    ("3", 2),
    ("2,2", 2),
]

# Fixed here rather than read from cstar_schur.verify, so that the metric
# names and the verdict check do not move with the program.
SUITES = ("schur", "lowerbound", "corollaries", "novak", "trig", "preserver", "module")
VIOLATION_THRESHOLD = 1e-6

# Trials per check (verify) or per size (search), sized so that one pass takes
# about a second on a 2-core x86 box and a run holds several passes.
TRIALS = {"suite_grid": 10, "search_hits": 1000, "search_miss": 2000}


def commands(workload: str, seed: int, out_dir: Path) -> list[list[str]]:
    """CLI argument lists for one pass; command i writes ``out_dir/cmd<i>.json``."""
    common = ["--seed", str(seed), "--threads", "1", "--trials", str(TRIALS[workload])]
    if workload == "suite_grid":
        argvs = [
            ["verify", "--suite", "all", "--shape", shape, "--n", str(n)]
            for shape, n in GRID
        ]
    elif workload == "search_hits":
        argvs = [["search", "--shape", "2", "--n", "2", "--n-max", "3"]]
    elif workload == "search_miss":
        argvs = [["search", "--shape", "2", "--n", "8"]]
    else:
        raise KeyError(workload)
    return [
        argv + common + ["--json", str(out_dir / f"cmd{i}.json")]
        for i, argv in enumerate(argvs)
    ]


def trials_of(payload: dict) -> int:
    if payload["command"] == "search":
        return sum(entry["trials"] for entry in payload["per_n"])
    return sum(r["trials"] for r in payload["reports"])


def fingerprint(exit_code: int, payload: dict | None) -> list:
    """Exit code plus the verdict-bearing counts of one command's report."""
    if payload is None:
        return [exit_code, None]
    if payload["command"] == "search":
        body = [
            [e["n"], e["trials"], e["violations"], e["random_violations"]]
            for e in payload["per_n"]
        ]
    else:
        body = [
            [
                r["check_id"],
                r["trials"],
                r["failures"],
                "skipped" in r["details"],
                bool(r["details"].get("probe")),
            ]
            for r in payload["reports"]
        ] + [payload["failures"]]
    return [exit_code, body]


def invariant_errors(workload: str, exit_code: int, payload: dict | None) -> list[str]:
    """Seed-independent requirements on one command's outcome."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if payload is None:
        return ["no JSON report"]
    errors = []
    if payload["command"] == "verify":
        if payload["failures"] != 0:
            errors.append(f"{payload['failures']} counted failures")
        return errors
    expected = TRIALS[workload] + 1
    for entry, report in zip(payload["per_n"], payload["reports"]):
        n = entry["n"]
        if entry["trials"] != expected:
            errors.append(f"n={n}: {entry['trials']} trials, expected {expected}")
        if not entry["min_margin"] < -VIOLATION_THRESHOLD:
            errors.append(f"n={n}: min_margin {entry['min_margin']} not below threshold")
        if not any(v["trial"] == 0 for v in report["details"]["violations"]):
            errors.append(f"n={n}: trial-0 witness not found")
    if len(payload["per_n"]) != len(payload["reports"]):
        errors.append("per_n and reports disagree in length")
    return errors


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def verdict_errors(
    workload: str, seed: int, index: int, exit_code: int, payload: dict | None,
    reference: dict | None,
) -> list[str]:
    """Why command ``index`` of a pass is wrong; empty when its verdict holds."""
    errors = invariant_errors(workload, exit_code, payload)
    if seed == REFERENCE_SEED and reference is not None:
        expected = reference[workload]
        if expected["trials"] != TRIALS[workload]:
            errors.append("reference was captured at another trial count")
        elif fingerprint(exit_code, payload) != expected["fingerprints"][index]:
            errors.append("fingerprint differs from the reference")
    return errors
