"""A fixed CPU-speed probe, run beside every pass to put times in reference seconds.

On the shared 2-core box where the benchmark was built, the speed of the
whole machine drifts by up to 1.8x over seconds to minutes (other tenants).
Raw medians of ten 35 s runs spread by 43 % on ``suite_grid``. ``setup_s``,
``wall_s`` and this kernel all slow down together. So each pass times this
kernel just before and just after the workload. It reports every time as
``measured * REF_S / kernel time``, that is, in seconds at the speed where the
kernel takes ``REF_S``. Raw seconds stay in the run record.

The kernel uses what the program spends its time on: small LAPACK calls
through numpy, Python-level loops and ``json.dumps``. It uses no
``cstar_schur`` code, so changes to the program cannot move it. Changing the
kernel or ``REF_S`` changes every reported time; re-measure the baseline
after such a change.
"""

import json
import time

import numpy as np

# A round number near the kernel's time on the reference box (2-core Intel
# Xeon, Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31, one BLAS
# thread) in its fast phases; in slow phases the kernel took up to 0.18 s.
REF_S = 0.1

_ROUNDS = 2000


def _inputs():
    rng = np.random.default_rng(20240101)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    doc = {f"k{i}": [float(x) for x in rng.standard_normal(8)] for i in range(20)}
    return a + a.conj().T, rng.standard_normal((3, 3)), doc


_HERM, _MAT, _DOC = _inputs()


def kernel_seconds() -> float:
    """Wall time of one fixed round of the kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        acc += np.linalg.eigvalsh(_HERM)[0]
        acc += np.linalg.norm(_MAT, 2)
        acc += sum(j * 0.5 for j in range(40))
        if i % 10 == 0:
            acc += len(json.dumps(_DOC, sort_keys=True, indent=2))
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed
