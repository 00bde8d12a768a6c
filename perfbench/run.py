"""Benchmark of the cstar-schur CLI: three fixed workloads, verdicts checked.

    python3 perfbench/run.py --workload suite_grid --seed 2024 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). A run repeats passes of the workload for ``--seconds``; each pass
is a fresh interpreter (``worker.py``) that imports ``cstar_schur.cli`` and
then runs the workload's command list through ``cstar_schur.cli.main``.
Every report is checked (see ``workloads.py``) and each metric is the median
over the run's passes. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` passes alternate between untraced and traced, and the
per-layer metrics of the traced passes are printed, plus the tracing
overhead. The last line of stdout is one JSON object: ``correct``,
``attempted`` and ``failed`` (commands) and ``metrics``. Run records go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

# The workloads run --threads 1 in one process, so BLAS gets one thread too.
# With OpenBLAS's default threading on a 2-core box, suite_grid burns about
# twice its wall time in CPU (spin-waiting helper threads on tiny matrices)
# and its wall time swings by +-25% with load from other processes.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_PASSES = 3
# A run must end within 180 s; no pass is started after this many seconds.
HARD_STOP_S = 120.0
PASS_TIMEOUT_S = 150.0


def worker_env() -> dict:
    return {**os.environ, **WORKER_ENV}


def run_pass(workload: str, seed: int, trace: bool, reference: dict | None) -> dict:
    """Run one pass in a fresh interpreter and check every command's report."""
    OUT.mkdir(exist_ok=True)
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        argv = [sys.executable, str(WORKER), workload, str(seed), "1" if trace else "0", str(pass_dir)]
        spawned = time.monotonic()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S, env=worker_env())
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        result = json.loads((pass_dir / "result.json").read_text())
        result["setup_s"] = result.pop("ready") - spawned
        report_bytes = trials = 0
        errors = []
        fingerprints = []
        for i, code in enumerate(result["exit_codes"]):
            path = pass_dir / f"cmd{i}.json"
            payload = None
            if path.exists():
                report_bytes += path.stat().st_size
                payload = json.loads(path.read_text())
                trials += workloads.trials_of(payload)
            fingerprints.append(workloads.fingerprint(code, payload))
            errors.append(workloads.verdict_errors(workload, seed, i, code, payload, reference))
        result.update(report_bytes=report_bytes, trials=trials, errors=errors,
                      fingerprints=fingerprints)
        if trace:
            OUT.joinpath(f"spans-{workload}.json").write_bytes(
                (pass_dir / "spans.json").read_bytes()
            )
        return result
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # numpy.linalg (eigvalsh, norm) and scipy.linalg (expm) each link their own
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "num_threads_env": {
            k: v for k, v in sorted(worker_env().items()) if k.endswith("_NUM_THREADS")
        },
        "threads": 1,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, reference) -> dict:
    # one untimed import so that byte-compiling the package is not set-up time
    subprocess.run([sys.executable, "-c", "import cstar_schur.cli"], check=True,
                   env={**worker_env(), "PYTHONPATH": str(ROOT / "src")})
    passes = []
    start = time.monotonic()
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        if time.monotonic() - start > HARD_STOP_S:
            break
        passes.append(run_pass(workload, seed, trace and len(passes) % 2 == 1, reference))
    return {"passes": passes, "measured_s": time.monotonic() - start}


def to_reference(p: dict) -> float:
    """Factor that turns this pass's measured seconds into reference seconds."""
    return calibrate.REF_S / statistics.fmean(p["cal_s"])


def end_to_end(passes) -> dict:
    return {
        "setup_s": median(p["setup_s"] * to_reference(p) for p in passes),
        "wall_s": median(p["wall_s"] * to_reference(p) for p in passes),
        "trials_per_s": median(p["trials"] / (p["wall_s"] * to_reference(p)) for p in passes),
        "report_bytes": statistics.median_low(p["report_bytes"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes, units: dict) -> dict:
    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]

    def value(p, name):
        v = p["layers"][name]
        return v * to_reference(p) if units[name] == "s" else v

    out = {name: median(value(p, name) for p in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = median(p["wall_s"] * to_reference(p) for p in traced) - median(
        p["wall_s"] * to_reference(p) for p in plain
    )
    return out


def raw_summary(passes) -> str:
    return (
        f"measured medians: setup {median(p['setup_s'] for p in passes):.4f} s,"
        f" wall {median(p['wall_s'] for p in passes):.4f} s,"
        f" calibration kernel {median(statistics.fmean(p['cal_s']) for p in passes):.4f} s"
        f" (reference {calibrate.REF_S} s)"
    )


def tally(passes) -> tuple[int, int]:
    """Commands attempted and commands whose verdict check found an error."""
    attempted = sum(len(p["errors"]) for p in passes)
    failed = sum(1 for p in passes for errs in p["errors"] if errs)
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TRIALS))
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cstar_schur" / "cli.py").is_file():
        print(f"error: no cstar_schur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    reference = workloads.load_reference() if args.seed == workloads.REFERENCE_SEED else None

    meta = metadata(args.seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    passes = run["passes"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values = per_layer(passes, units) if args.trace else end_to_end(passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = tally(passes)
    for k, p in enumerate(passes):
        for i, errs in enumerate(p["errors"]):
            for e in errs:
                print(f"pass {k} command {i}: {e}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} {raw_summary(passes)}")
    print(f"{args.workload} error_rate {failed / attempted:.6g} ({failed}/{attempted} commands)"
          f" over {len(passes)} passes in {run['measured_s']:.1f} s")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "meta": meta,
              "metrics": metrics, "error_rate": failed / attempted, **run}
    OUT.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
