"""Capture the verdict reference and the baseline numbers of the benchmark.

    python3 perfbench/capture.py reference
    python3 perfbench/capture.py baseline [--out perfbench/baseline.json]

``reference`` runs one untraced pass of every workload at the reference seed
and stores each command's verdict fingerprint in ``reference.json``; run it
only on a commit whose verdicts are trusted. ``baseline`` runs ``run.py``
ten times per workload, each with another seed, and stores the median
and quartiles of every end-to-end metric and their spread (interquartile
range over median), plus one traced run per workload. It prints each spread
next to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import spans
import workloads

SEEDS = [workloads.REFERENCE_SEED, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def capture_reference() -> None:
    data = {}
    for workload in workloads.TRIALS:
        p = run.run_pass(workload, workloads.REFERENCE_SEED, False, None)
        errors = [e for errs in p["errors"] for e in errs]
        if errors:
            raise SystemExit(f"{workload}: refusing to store a failing reference: {errors}")
        data[workload] = {"trials": workloads.TRIALS[workload], "fingerprints": p["fingerprints"]}
    workloads.REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def suite_shares(spans_path) -> dict:
    """Shares of traced suite time, to set beside the ROADMAP's cProfile notes."""
    data = json.loads(spans_path.read_text())
    names = data["names"]
    rows = data["spans"]
    durations = [end - start for _, start, end, _, _ in rows]
    own = spans.self_times([r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])

    def enclosing(i, prefix):
        while i >= 0 and not names[rows[i][0]].startswith(prefix):
            i = rows[i][3]
        return names[rows[i][0]] if i >= 0 else None

    def in_novak_trig(i, name_prefix):
        return names[rows[i][0]].startswith(name_prefix) and enclosing(
            i, "verify.suite."
        ) in novak_trig

    suites = sum(d for (k, *_), d in zip(rows, durations) if names[k].startswith("verify.suite."))
    norm = sum(t for (k, *_), t in zip(rows, own) if names[k] == "algebra.spectral_norm")
    novak_trig = ("verify.suite.novak", "verify.suite.trig")
    nt_time = sum(d for (k, *_), d in zip(rows, durations) if names[k] in novak_trig)
    # calculus calls not nested in another calculus call, with their children
    calc = sum(
        d for i, d in enumerate(durations)
        if in_novak_trig(i, "calculus.")
        and not names[rows[rows[i][3]][0]].startswith("calculus.")
    )
    exp_self = sum(t for i, t in enumerate(own) if in_novak_trig(i, "calculus.elem_exp"))
    norm_in_calc = sum(
        t for i, t in enumerate(own)
        if in_novak_trig(i, "algebra.spectral_norm")
        and enclosing(i, "calculus.") is not None
    )
    return {
        "spectral_norm_self_of_suites": norm / suites,
        "novak_trig_of_suites": nt_time / suites,
        "calculus_inclusive_of_novak_trig": calc / nt_time,
        "elem_exp_self_of_novak_trig": exp_self / nt_time,
        "spectral_norm_under_calculus_of_novak_trig": norm_in_calc / nt_time,
    }


def capture_baseline(out_path: str) -> None:
    spec = json.loads(run.SPEC_PATH.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            result = _bench(workload, seed, spec["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "values": vals}
            print(f"{workload:12s} {name:13s} median {med:.6g} spread {stats[name]['spread']:.4f}"
                  f" (bound {bounds[name]})", flush=True)
        traced = _bench(workload, workloads.REFERENCE_SEED, spec["run_seconds"], 1)
        summary[workload] = {"seeds": SEEDS, "end_to_end": stats,
                             "traced": {k: v["value"] for k, v in traced["metrics"].items()}}
        if workload == "suite_grid":
            summary[workload]["traced_shares"] = suite_shares(run.OUT / "spans-suite_grid.json")
    record = {"meta": run.metadata(workloads.REFERENCE_SEED), "run_seconds": spec["run_seconds"],
              "trials": workloads.TRIALS, "workloads": summary}
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("what", choices=("reference", "baseline"))
    ap.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = ap.parse_args()
    if args.what == "reference":
        capture_reference()
    else:
        capture_baseline(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
