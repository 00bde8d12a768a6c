"""Command-line contract: exit codes, JSON reports, determinism, witnesses."""

import json

import numpy as np
import pytest

from cstar_schur import NumericalError
from cstar_schur.cli import main


def run(argv):
    return main(argv)


# -- verify ---------------------------------------------------------------------


def test_verify_commutative_all_passes(capsys):
    code = run(
        ["verify", "--suite", "all", "--shape", "1,1", "--n", "3",
         "--trials", "15", "--seed", "42"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "0 failed" in out


def test_verify_lowerbound_skips_chain_on_noncommutative(capsys):
    code = run(
        ["verify", "--suite", "lowerbound", "--shape", "2,1", "--n", "4",
         "--trials", "20", "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[SKIP]" in out and "schur_chain_bound" in out


def test_verify_json_bitwise_identical_across_threads(tmp_path):
    base = ["verify", "--suite", "all", "--shape", "1,1", "--n", "3",
            "--trials", "20", "--seed", "11"]
    p1, p8 = tmp_path / "t1.json", tmp_path / "t8.json"
    assert run(base + ["--json", str(p1)]) == 0
    assert run(base + ["--threads", "8", "--json", str(p8)]) == 0
    assert p1.read_bytes() == p8.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["passed"] is True
    assert "threads" not in payload["config"]
    assert all("elapsed" not in r for r in payload["reports"])


def test_verify_exit_one_on_failure(monkeypatch):
    import cstar_schur.cli as cli
    from cstar_schur.verify import CheckReport

    failing = CheckReport("stub", 1, 1, -1.0, 1e-9, None, {}, 0.0)
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: [failing])
    assert run(["verify", "--suite", "schur", "--trials", "1"]) == 1


def test_verify_exit_three_on_numerical_error(monkeypatch):
    import cstar_schur.cli as cli

    def boom(*a, **k):
        raise NumericalError("eigensolver failed on block 0", block=0)

    monkeypatch.setattr(cli, "run_suites", boom)
    assert run(["verify", "--suite", "schur", "--trials", "1"]) == 3


@pytest.mark.parametrize("scale", ["1e200", "1e160"])
def test_svd_breakdown_exits_three_without_traceback(scale, capsys):
    # entries this large overflow the flattened blocks, and the SVD behind
    # every norm stops converging
    assert run(["verify", "--suite", "schur", "--trials", "3", "--entry-scale", scale]) == 3
    err = capsys.readouterr().err
    assert "numerical error: SVD did not converge" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--shape", "2", "--trials", "2", "--tol", "nan"],
        ["verify", "--suite", "trig", "--trials", "2", "--tol", "-1"],
        ["verify", "--suite", "trig", "--trials", "2", "--tol", "nan"],
        ["verify", "--suite", "schur", "--trials", "2", "--tol", "nan"],
        ["verify", "--suite", "module", "--trials", "2", "--tol", "inf"],
        ["verify", "--suite", "module", "--trials", "2", "--tol", "0"],
        ["novak", "--random", "--trials", "2", "--tol", "nan"],
        ["demo", "--tol=-inf"],
    ],
)
def test_tolerance_must_be_finite_and_positive(argv, capsys):
    assert run(argv) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["nan", "inf", "-1e-9", "0"])
def test_env_tolerance_must_be_finite_and_positive(raw, monkeypatch, capsys):
    monkeypatch.setenv("CSTAR_SCHUR_TOL", raw)
    assert run(["verify", "--suite", "module", "--trials", "1"]) == 2
    assert "CSTAR_SCHUR_TOL must be finite and positive" in capsys.readouterr().err


def test_env_tolerance_override(monkeypatch, capsys):
    monkeypatch.setenv("CSTAR_SCHUR_TOL", "nonsense")
    assert run(["verify", "--suite", "module", "--trials", "1"]) == 2
    assert "CSTAR_SCHUR_TOL" in capsys.readouterr().err
    monkeypatch.setenv("CSTAR_SCHUR_TOL", "1e-7")
    assert run(["verify", "--suite", "module", "--trials", "2"]) == 0


# -- search ---------------------------------------------------------------------


def test_search_commutative_shape_is_usage_error(capsys):
    assert run(["search", "--shape", "1,1", "--trials", "2"]) == 2
    assert "noncommutative" in capsys.readouterr().err


def test_search_reports_violations_and_writes_witnesses(tmp_path, capsys):
    wdir = tmp_path / "wit"
    out = tmp_path / "report.json"
    code = run(
        ["search", "--shape", "2", "--n", "1", "--trials", "30", "--seed", "1",
         "--witness-dir", str(wdir), "--json", str(out)]
    )
    assert code == 0  # findings live in the report, not the exit code
    payload = json.loads(out.read_text())
    per_n = payload["per_n"][0]
    assert per_n["violations"] >= 1
    assert len(per_n["witness_files"]) == per_n["violations"]
    first = json.loads((wdir / f"witness_shape2_n1_seed1_trial0.json").read_text())
    assert first["deterministic_witness"] is True
    assert first["min_eigenvalue"] == pytest.approx(
        (1.01 - np.sqrt(2.0002)) / 2.0, abs=1e-12
    )


def test_search_sweep_has_per_size_stats(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(
        ["search", "--shape", "2", "--n", "1", "--n-max", "3",
         "--trials", "40", "--seed", "6", "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [e["n"] for e in payload["per_n"]] == [1, 2, 3]
    assert all(e["trials"] == 41 for e in payload["per_n"])


def test_search_stop_on_first(capsys):
    code = run(
        ["search", "--shape", "2", "--n", "1", "--trials", "500",
         "--seed", "5", "--stop-on-first"]
    )
    assert code == 0
    assert "1/1 violations" in capsys.readouterr().out


def test_witness_reverifies_via_from_witness(tmp_path, capsys):
    wdir = tmp_path / "wit"
    run(
        ["search", "--shape", "2", "--n", "1", "--trials", "5", "--seed", "1",
         "--stop-on-first", "--witness-dir", str(wdir)]
    )
    witness = next(wdir.glob("*.json"))
    capsys.readouterr()
    code = run(["verify", "--from-witness", str(witness)])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness reproduced" in out
    assert "bitwise-identically: True" in out


def test_from_witness_rejects_fabricated_instance(tmp_path, capsys):
    # a positive product cannot reproduce a violation: exit 1
    from cstar_schur import identity_matrix, AlgebraShape

    I = identity_matrix(AlgebraShape((2,)), 2)
    path = tmp_path / "fake.json"
    path.write_text(json.dumps({"m": I.to_json(), "n": I.to_json()}))
    assert run(["verify", "--from-witness", str(path)]) == 1
    assert "NOT reproduced" in capsys.readouterr().out


def test_from_witness_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["verify", "--from-witness", str(path)]) == 2


# -- novak ------------------------------------------------------------------------


def test_novak_points_closed_form(tmp_path, capsys):
    pts = {
        "algebra": {"blocks": [1]},
        "points": [
            [{"blocks": [[[[0.0, 0.0]]]]}],
            [{"blocks": [[[[np.pi, 0.0]]]]}],
        ],
    }
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(pts))
    out = tmp_path / "novak.json"
    code = run(["novak", "--points", str(f), "--json", str(out)])
    assert code == 0
    assert "min eigenvalue" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["psd"]["is_positive"] is True
    # the emitted Novak matrix is [[.5, -.5], [-.5, .5]]
    entries = payload["novak_matrix"]["entries"]
    assert entries[0][0]["blocks"][0][0][0] == [0.5, 0.0]
    assert entries[0][1]["blocks"][0][0][0] == [-0.5, 0.0]


def test_novak_points_short_form(tmp_path, capsys):
    # bare block list, plain numbers as multiples of the unit
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0], [np.pi]]}))
    assert run(["novak", "--points", str(f)]) == 0
    assert "min eigenvalue" in capsys.readouterr().out


def test_verify_suite_novak_with_points(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0], [np.pi]]}))
    code = run(
        ["verify", "--suite", "novak", "--shape", "1", "--n", "2", "--d", "1",
         "--points", str(f)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "novak_conjecture" in out
    assert "min eigenvalue of the shifted matrix +" in out


def test_points_file_structural_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"points": [[0.0]]}))
    assert run(["novak", "--points", str(missing)]) == 2
    assert "malformed points file" in capsys.readouterr().err

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"algebra": [1], "points": []}))
    assert run(["novak", "--points", str(empty)]) == 2


def test_verify_points_flag_conflicts(tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0]]}))
    assert run(["verify", "--suite", "schur", "--points", str(f)]) == 2
    assert run(["verify", "--points", str(f), "--from-witness", str(f)]) == 2


def test_novak_random_mode(capsys):
    code = run(
        ["novak", "--shape", "1,1", "--n", "3", "--d", "2", "--trials", "10",
         "--seed", "2", "--random"]
    )
    assert code == 0
    assert "novak_conjecture" in capsys.readouterr().out


def test_novak_rejects_non_selfadjoint_points(tmp_path, capsys):
    pts = {
        "algebra": {"blocks": [1]},
        "points": [[{"blocks": [[[[0.0, 1.0]]]]}], [{"blocks": [[[[1.0, 0.0]]]]}]],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(pts))
    assert run(["novak", "--points", str(f)]) == 2
    err = capsys.readouterr().err
    assert "self-adjoint" in err and "index=0" in err


def test_novak_points_and_random_conflict(tmp_path):
    f = tmp_path / "pts.json"
    f.write_text("{}")
    assert run(["novak", "--points", str(f), "--random"]) == 2


# -- demo -------------------------------------------------------------------------


def test_demo_runs_clean(capsys):
    assert run(["demo"]) == 0
    out = capsys.readouterr().out
    assert "-0.202142" in out  # the deterministic violation
    assert "0 failed" in out


# -- threads ----------------------------------------------------------------------


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_usage_error(threads, tmp_path, capsys):
    assert run(["verify", "--suite", "module", "--trials", "2", "--threads", threads]) == 2
    assert run(["search", "--shape", "2", "--trials", "2", "--threads", threads]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    # no trial loop runs here: every check is skipped, or explicit points replace the trials
    assert run(["verify", "--suite", "preserver", "--shape", "2", "--threads", threads]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0], [np.pi]]}))
    assert run(["novak", "--points", str(f), "--threads", threads]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err


def test_zero_trials_are_not_reported_as_passed(capsys):
    assert run(["verify", "--suite", "module", "--trials", "0"]) == 0
    assert "2 checks: 0 passed, 0 failed, 2 skipped" in capsys.readouterr().out
