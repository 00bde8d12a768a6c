"""One pass of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. The first thing it does
is import ``cstar_schur.cli`` and note the monotonic clock, so the parent can
take set-up time as the span from starting this process to that point.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <out_dir>
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cstar_schur.cli  # noqa: E402  (the import whose cost is set-up time)

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def main() -> int:
    workload, seed, trace, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
    argvs = workloads.commands(workload, seed, out_dir)
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    codes = []
    cal_before = calibrate.kernel_seconds()
    if trace:
        tracer.install()
    try:
        t0 = time.perf_counter()
        with redirect_stdout(_Discard()):
            for i, argv in enumerate(argvs):
                rec.command = i
                codes.append(cstar_schur.cli.main(argv))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    cal_after = calibrate.kernel_seconds()
    result = {
        "ready": READY,
        "wall_s": wall,
        "cal_s": [cal_before, cal_after],
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["layers"] = spans.layer_metrics(rec, workloads.SUITES)
        rec.dump(out_dir / "spans.json")
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
