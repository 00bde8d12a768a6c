"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import cstar_schur.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cstar_schur import AlgebraShape, GenConfig  # noqa: E402
from cstar_schur.generate import random_positive_matrix  # noqa: E402


def _recorder(rows, counts=None):
    rec = spans.Recorder()
    for name, start, end, parent in rows:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
        rec.commands.append(0)
    rec.counts.update(counts or {})
    return rec


def test_self_times_subtract_merged_clipped_children():
    rows = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("c", 6.0, 8.0, 0),  # overlaps b: the union [5, 8] counts once
        ("d", 9.5, 11.0, 0),  # overhangs the parent: only [9.5, 10] counts
    ]
    rec = _recorder(rows)
    own = spans.self_times(rec.starts, rec.ends, rec.parents)
    assert own == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_layer_metrics_aggregate_nested_spans():
    rows = [
        ("cli.main", 0.0, 10.0, -1),
        ("verify.run_suites", 1.0, 9.0, 0),
        ("verify.suite.schur", 1.0, 6.0, 1),
        ("generate.random_positive_matrix", 1.0, 3.0, 2),
        ("generate.random_matrix", 1.5, 2.5, 3),
        ("amatrix.psd_check", 3.0, 5.0, 2),
        ("algebra.spectral_norm", 3.0, 3.5, 5),
        ("algebra.spectral_norm", 3.5, 4.0, 5),
        ("verify.suite.novak", 6.0, 8.0, 1),
        ("calculus.elem_cos", 6.0, 8.0, 8),
        ("calculus.elem_exp", 6.0, 7.0, 9),
        ("cli.emit_json", 9.0, 9.5, 0),
    ]
    counts = {"eigensolves": 2, "trials": 40, "violations": 4, "json_bytes": 123}
    out = spans.layer_metrics(_recorder(rows, counts), workloads.SUITES)
    assert out["generate.calls"] == 2
    assert out["generate.self_s"] == pytest.approx(2.0)
    assert out["amatrix.psd_check.self_s"] == pytest.approx(1.0)
    assert out["algebra.spectral_norm.calls"] == 2
    assert out["algebra.spectral_norm.self_s"] == pytest.approx(1.0)
    assert out["calculus.elem_exp.self_s"] == pytest.approx(1.0)
    assert out["calculus.elem_cos.calls"] == 1
    assert out["calculus.elem_sin.calls"] == 0
    assert out["verify.suite.schur.s"] == pytest.approx(5.0)
    assert out["verify.suite.novak.s"] == pytest.approx(2.0)
    assert out["verify.suite.trig.s"] == 0
    # run_suites [1, 9] minus suites [1, 8] = 1; schur 5 - 2 - 2 = 1; novak 2 - 2 = 0
    assert out["verify.self_s"] == pytest.approx(2.0)
    assert out["verify.violation_ratio"] == pytest.approx(0.1)
    assert out["cli.emit_json.self_s"] == pytest.approx(0.5)
    assert out["cli.json_bytes"] == 123
    spec = json.loads(run.SPEC_PATH.read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(out) | {"trace.overhead_s"} == declared


@pytest.fixture(scope="module")
def verify_payload(tmp_path_factory):
    dest = tmp_path_factory.mktemp("report") / "verify.json"
    argv = ["verify", "--suite", "schur", "--shape", "1,1", "--n", "2", "--trials", "3",
            "--json", str(dest)]
    assert cstar_schur.cli.main(argv) == 0
    return json.loads(dest.read_text())


def _one_pass_errors(payload, reference):
    errs = workloads.verdict_errors(
        "suite_grid", workloads.REFERENCE_SEED, 0, 0, payload, reference
    )
    return [errs]


def test_bumped_failures_field_raises_error_rate(verify_payload):
    reference = {
        "suite_grid": {
            "trials": workloads.TRIALS["suite_grid"],
            "fingerprints": [workloads.fingerprint(0, verify_payload)],
        }
    }
    clean = {"errors": _one_pass_errors(verify_payload, reference)}
    assert run.tally([clean]) == (1, 0)

    bumped = json.loads(json.dumps(verify_payload))
    bumped["reports"][0]["failures"] += 1
    perturbed = {"errors": _one_pass_errors(bumped, reference)}
    assert run.tally([clean, perturbed]) == (2, 1)

    # off the reference seed only the invariants apply; a counted failure breaks them
    bumped["failures"] += 1
    assert workloads.verdict_errors("suite_grid", 7, 0, 1, bumped, None)


def _snapshot():
    snap = {}
    for mod in spans.package_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("cstar_schur"):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def _lookup(key):
    owner = sys.modules[key[0]]
    if len(key) == 3:
        return vars(getattr(owner, key[1]))[key[2]]
    return vars(owner)[key[1]]


def test_install_then_uninstall_restores_every_attribute():
    before = _snapshot()
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        for modname in ("cstar_schur.algebra", "cstar_schur.amatrix",
                        "cstar_schur.calculus", "cstar_schur.verify"):
            key = (modname, "_spectral_norm")
            assert _lookup(key) is not before[key]
        cfg = GenConfig(seed=3, shape=AlgebraShape((2,)), n=2)
        _, M = random_positive_matrix(cfg)
        sys.modules["cstar_schur.verify"].psd_check(M)
        M.to_json()
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert "amatrix.psd_check" in rec.names
    assert "algebra.spectral_norm" in rec.names
    assert "amatrix.to_json" in rec.names
    psd = rec.names.index("amatrix.psd_check")
    assert rec.parents[rec.names.index("algebra.spectral_norm", psd)] == psd
    assert rec.counts["eigensolves"] == 1
