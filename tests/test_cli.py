"""Command-line contract: exit codes, JSON reports, determinism, witnesses."""

import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    GenConfig,
    NumericalError,
    StructureError,
    counterexample_search,
    identity_matrix,
    random_commuting_family,
)
from cstar_schur.cli import MIN_TOL, _canonical_json, build_parser, main
from cstar_schur.generate import STYLES
from cstar_schur.suites import CHECKS
from cstar_schur.verify import SUITES, search_witness
from test_verify import GRID, _reference_search


def run(argv):
    return main(argv)


def test_every_golden_command_parses():
    # a flag that a golden report runs with cannot be removed unnoticed
    script = Path(__file__).resolve().parents[1] / "scripts" / "golden_reports.py"
    commands = runpy.run_path(str(script))["golden_commands"]()
    assert len(commands) == 24
    parser = build_parser()
    for name, argv in commands.items():
        args = parser.parse_args([*argv, "--json", name])
        assert args.command == argv[0]


# -- verify ---------------------------------------------------------------------


def test_verify_commutative_all_passes(capsys):
    code = run(
        ["verify", "--suite", "all", "--shape", "1,1", "--n", "3",
         "--trials", "15", "--seed", "42"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "0 failed" in out


def test_exp_cap_exits_two_with_its_message(capsys):
    # the one RangeError: a norm above calculus's exp cap, here of the Novak points
    code = run(["verify", "--suite", "novak", "--shape", "1", "--n", "2", "--trials", "3",
                "--entry-scale", "1e200"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exceeds the exp cap 50" in captured.err
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_entry_scale_is_usage_error(scale, capsys):
    assert run(["verify", "--suite", "schur", "--trials", "3", "--entry-scale", scale]) == 2
    err = capsys.readouterr().err
    assert "entry_scale must be finite and positive" in err


def test_nan_bound_matrices_count_as_failures(tmp_path):
    # at this scale some bound matrices carry a NaN in a later block; each is a
    # failure (126 when a NaN after a finite block was dropped, 152 now)
    out = tmp_path / "r.json"
    argv = ["verify", "--shape", "1,1", "--n", "1", "--entry-scale", "1.2e154",
            "--suite", "lowerbound", "--trials", "200", "--seed", "1", "--json", str(out)]
    with np.errstate(all="ignore"):
        assert run(argv) == 1
    failures = {r["check_id"]: r["failures"] for r in json.loads(out.read_text())["reports"]}
    assert failures["gram_row_sum_bound"] == 152


# (suite, shape, entry scale, exit code): first three runs whose trace-form or
# axioms margins are NaN, so those checks fail and carry a witness only if
# their witness rules fail on NaN; then an underflow run of each suite, and an
# overflow run of each suite but novak, whose exponential cap exits 2 at every
# scale from 1e2 on, at the largest of 1e30, 1e60, 1e76 and 1e200 that writes a
# report
_OUT_OF_RANGE_RUNS = [
    ("schur", "1", "1e60", 1), ("module", "1", "1e150", 1), ("module", "1,1", "1e200", 1),
    ("lowerbound", "1", "1e76", 0), ("corollaries", "1", "1e76", 0), ("trig", "1", "1e200", 0),
    ("preserver", "1", "1e30", 0),
    *((suite, "1", "1e-160", None) for suite in SUITES),
]


def _witness_rule_holds(suite, shape, n, scale, tmp_path) -> int:
    """Run ``verify`` at 4 trials and check each margin check's witness: present
    exactly when the check fails, naming its trial and that trial's seed.
    Return the exit code."""
    out = tmp_path / "r.json"
    argv = ["verify", "--suite", suite, "--shape", shape, "--n", str(n), "--trials", "4",
            "--entry-scale", scale, "--json", str(out)]
    got = run(argv)
    payload = json.loads(out.read_text())
    margin_checks = [r for r in payload["reports"] if not r["details"].get("search")]
    assert margin_checks
    checks = {check.check_id: check for check in CHECKS}
    for r in margin_checks:
        witness = r["witness"]
        assert (r["failures"] > 0) == (witness is not None), r["check_id"]
        if witness is not None:
            # the witness names the stream its trial was drawn from
            base = checks[r["check_id"]].base(GenConfig.from_json(payload["config"]))
            assert witness["seed"] == base.derive(witness["trial"]).seed, r["check_id"]
    return got


@pytest.mark.parametrize("suite, shape, scale, code", _OUT_OF_RANGE_RUNS)
def test_a_check_fails_exactly_when_it_carries_a_witness(suite, shape, scale, code, tmp_path):
    got = _witness_rule_holds(suite, shape, 2, scale, tmp_path)
    assert code is None or got == code


# (suite, shape, n, entry scale): runs that exit 1 on a failing check whose
# trials carry no seed of their own: the commuting-spectral check over (2,),
# and on 1 x 1 overflowing matrices the chain bound (first at trial 1), the
# diagonal bound and the preserver (first at trial 2)
@pytest.mark.parametrize("suite, shape, n, scale", [
    ("schur", "2", 2, "1e30"), ("lowerbound", "1", 1, "1e76"), ("corollaries", "1", 1, "1e100"),
    ("preserver", "1", 1, "1e60"),
])
def test_a_failing_check_names_its_trials_stream(suite, shape, n, scale, tmp_path):
    assert _witness_rule_holds(suite, shape, n, scale, tmp_path) == 1


@pytest.mark.parametrize("scale", ["1e200", "1e160"])
def test_svd_breakdown_exits_three_without_traceback(scale, capsys):
    # entries this large overflow the flattened blocks, which are refused
    # before they reach a solver
    assert run(["verify", "--suite", "schur", "--trials", "3", "--entry-scale", scale]) == 3
    err = capsys.readouterr().err
    assert "numerical error: non-finite entries on block 0" in err
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
        ["verify", "--suite", "novak", "--trials", "2", "--tol", "nan"],
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


def test_parser_is_built_once_and_the_env_tolerance_read_per_call(monkeypatch, capsys, tmp_path):
    build_parser.cache_clear()
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "module", "--trials", "1", "--json", str(out)]
    for raw in ("1e-7", "1e-8"):
        monkeypatch.setenv("CSTAR_SCHUR_TOL", raw)
        assert run(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["tol"] == float(raw)
        # a check without a fixed tolerance takes the run's
        assert payload["reports"][0]["tol"] == float(raw)
    monkeypatch.setenv("CSTAR_SCHUR_TOL", "nonsense")
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CSTAR_SCHUR_TOL") and err.count("\n") == 1, err
    assert build_parser.cache_info().misses == 1


def test_env_tolerance_override(monkeypatch, capsys):
    monkeypatch.setenv("CSTAR_SCHUR_TOL", "nonsense")
    assert run(["verify", "--suite", "module", "--trials", "1"]) == 2
    assert "CSTAR_SCHUR_TOL" in capsys.readouterr().err
    monkeypatch.setenv("CSTAR_SCHUR_TOL", "1e-7")
    assert run(["verify", "--suite", "module", "--trials", "2"]) == 0


def _floor_message(source: str, tol: str) -> str:
    return f"error: {source} must be at least {MIN_TOL!r} (64 float epsilons), got {tol}\n"


@pytest.mark.parametrize("command", ["verify", "demo", "search", "novak"])
@pytest.mark.parametrize("tol", ["1e-100", "5e-324", repr(MIN_TOL / 2)])
def test_tolerance_below_the_floor_names_its_flag(command, tol, tmp_path, capsys):
    # below roundoff a Gram draw fails the oracle: verify ended on "M is not
    # positive" and demo printed three sections first; the flag is named instead
    points = tmp_path / "pts.json"
    points.write_text(json.dumps({"algebra": [1], "points": [[0.0], [np.pi]]}))
    argv = {
        "verify": ["verify", "--trials", "3"],
        "demo": ["demo"],
        "search": ["search", "--shape", "2", "--trials", "3"],
        "novak": ["novak", "--points", str(points)],
    }[command]
    assert run([*argv, "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", _floor_message("--tol", repr(float(tol))))


def test_env_tolerance_below_the_floor_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("CSTAR_SCHUR_TOL", "1e-100")
    # read before the flags, as any invalid value of the variable is
    for argv in (["verify", "--trials", "1"], ["verify", "--trials", "1", "--tol", "1e-9"]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", _floor_message("CSTAR_SCHUR_TOL", "1e-100"))


def test_suite_grid_passes_at_the_tolerance_floor(monkeypatch, capsys):
    # every requirement and every check holds at the floor, here and at 100
    # trials with seeds 2024 and 7
    monkeypatch.setenv("CSTAR_SCHUR_TOL", repr(MIN_TOL))
    for shape, n in GRID:
        argv = ["verify", "--suite", "all", "--shape", shape, "--n", str(n), "--trials", "10"]
        assert run(argv) == 0
    assert MIN_TOL == 64 * np.finfo(float).eps


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


def test_witness_files_match_stdlib_encoding(tmp_path):
    # the CLI writes each violation dict with its own encoder; the stdlib is the spec
    wdir = tmp_path / "wit"
    out = tmp_path / "report.json"
    argv = ["search", "--shape", "2", "--n", "2", "--trials", "30", "--seed", "3"]
    assert run(argv + ["--witness-dir", str(wdir), "--json", str(out)]) == 0
    cfg = GenConfig(seed=3, shape=AlgebraShape((2,)), n=2)
    details = counterexample_search(cfg, trials=30).details
    trials = details["violation_trials"]
    assert len(trials) > 1

    def path(t):
        return wdir / f"witness_shape2_n2_seed3_trial{t}.json"

    assert sorted(wdir.iterdir()) == sorted(map(path, trials))
    for t in trials:
        w = search_witness(cfg, t)
        assert path(t).read_text() == json.dumps(w, sort_keys=True, indent=2) + "\n"
    # each kept stub is the file of its trial cut to the stub's keys
    for w in details["violations"]:
        stored = json.loads(path(w["trial"]).read_text())
        assert {key: stored[key] for key in w} == w
    text = out.read_text()
    witness = json.loads(text)["reports"][0]["witness"]
    assert path(trials[0]).read_text() == json.dumps(witness, sort_keys=True, indent=2) + "\n"
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_sweep_witness_files_match_per_trial_reference(tmp_path):
    # every violating trial of every size gets a file: the record of the trial
    # evaluated on its own, in the stdlib encoding
    wdir = tmp_path / "wit"
    argv = ["search", "--shape", "2", "--n", "2", "--n-max", "3", "--trials", "60",
            "--seed", "3", "--witness-dir", str(wdir)]
    assert run(argv) == 0
    expected = {}
    for n in (2, 3):
        sub = GenConfig(seed=3, shape=AlgebraShape((2,)), n=n).derive(n)
        for ref in _reference_search(sub, 60)[1]:
            expected[f"witness_shape2_n{n}_seed3_trial{ref['trial']}.json"] = ref
    assert sorted(p.name for p in wdir.iterdir()) == sorted(expected)
    for name, ref in expected.items():
        assert (wdir / name).read_text() == json.dumps(ref, sort_keys=True, indent=2) + "\n"


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


def test_search_reruns_one_size_of_a_sweep_from_its_seed(tmp_path):
    # a sweep draws each n from its own derived seed, which per_n records
    sweep, alone = tmp_path / "sweep.json", tmp_path / "alone.json"
    argv = ["search", "--shape", "2", "--n", "2", "--trials", "300"]
    assert run(argv + ["--n-max", "3", "--json", str(sweep)]) == 0
    swept = json.loads(sweep.read_text())
    seed = swept["per_n"][0]["seed"]
    assert seed == GenConfig(seed=2024, shape=AlgebraShape((2,)), n=2).derive(2).seed
    assert run(argv + ["--seed", str(seed), "--json", str(alone)]) == 0
    rerun = json.loads(alone.read_text())
    assert rerun["per_n"][0]["seed"] == seed
    for key in ("violations", "random_violations"):
        assert rerun["per_n"][0][key] == swept["per_n"][0][key]
    trials = [p["reports"][0]["details"]["violation_trials"] for p in (rerun, swept)]
    assert trials[0] == trials[1]


def test_search_n_max_below_n_is_usage_error(capsys):
    assert run(["search", "--shape", "2", "--n", "3", "--n-max", "2"]) == 2
    assert "--n-max must be >= --n" in capsys.readouterr().err


def test_hit_search_that_finds_nothing_prints_a_miss(capsys):
    # at entry scale 1e-100 the associator underflows far below the hit threshold
    argv = ["verify", "--suite", "schur", "--shape", "2", "--n", "2", "--trials", "2",
            "--entry-scale", "1e-100"]
    assert run(argv) == 1
    out = capsys.readouterr().out
    miss = next(line for line in out.splitlines() if "schur_nonassociativity" in line)
    assert miss.startswith("[MISS]  schur_nonassociativity")
    assert "trials=2 best=3.037e-300" in miss


def test_search_stop_on_first(capsys):
    code = run(
        ["search", "--shape", "2", "--n", "1", "--trials", "500",
         "--seed", "5", "--stop-on-first"]
    )
    assert code == 0
    assert "1/1 violations" in capsys.readouterr().out


# Values that a search's numeric flags and CSTAR_SCHUR_TOL take, the valid
# ones repeated so that most runs reach the search; the sizes keep n * k <= 16
# and the trials <= 20, so no run allocates more than a few MB.
_SEARCH_TOLS = ["1e-9"] * 6 + ["1e-6", "1e-300", "nan", "0", "-1", "inf", "junk", ""]
_SEARCH_SCALES = ["1", "0.37", "1e-300", "1e200"] * 4 + ["0", "-1", "nan", "inf", "x"]
_SEARCH_SHAPES = ["2", "2,1", "3", "2,2"] * 5 + ["1", "1,1", "0", "", "a", "2,", "-2", "4,4"]


@st.composite
def _search_argv(draw, witness_dir):
    """A ``search`` command line and a CSTAR_SCHUR_TOL value (None: unset)."""
    shape = draw(st.sampled_from(_SEARCH_SHAPES))
    k = max((int(b) for b in shape.split(",") if b.lstrip("-").isdigit()), default=1)
    top = 16 // max(k, 1)
    n = draw(st.integers(1, top) | st.integers(-1, top))
    argv = [
        "search", "--shape", shape, "--n", str(n),
        "--trials", str(draw(st.integers(0, 20) | st.integers(-1, 20))),
        "--entry-scale", draw(st.sampled_from(_SEARCH_SCALES)),
    ]
    if draw(st.booleans()):
        argv += ["--n-max", str(draw(st.integers(n - 1, max(n - 1, top))))]
    if draw(st.booleans()):
        argv.append("--stop-on-first")
    if draw(st.booleans()):
        argv += ["--witness-dir", str(witness_dir)]
    tol = draw(st.none() | st.sampled_from(_SEARCH_TOLS))
    if tol is not None:
        argv += ["--tol", tol]
    return argv, draw(st.none() | st.sampled_from(_SEARCH_TOLS))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_search_exits_with_a_documented_code_and_no_traceback(data, tmp_path):
    with tempfile.TemporaryDirectory(dir=tmp_path) as run_dir:
        argv, env_tol = data.draw(_search_argv(Path(run_dir) / "witnesses"))
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            if env_tol is None:
                mp.delenv("CSTAR_SCHUR_TOL", raising=False)
            else:
                mp.setenv("CSTAR_SCHUR_TOL", env_tol)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a malformed flag
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, env_tol, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, env_tol)


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


@pytest.mark.parametrize("size", [True, "1", 1.7, 1.0])
def test_from_witness_takes_only_an_integer_size(size, tmp_path, capsys):
    # int() took each of these as the size 1, and the witness reproduced
    wdir = tmp_path / "wit"
    argv = ["search", "--shape", "2", "--n", "1", "--trials", "0", "--witness-dir", str(wdir)]
    assert run(argv) == 0
    path = next(wdir.glob("*.json"))
    assert run(["verify", "--from-witness", str(path)]) == 0
    data = json.loads(path.read_text())
    data["m"]["n"] = data["n"]["n"] = size
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", "--from-witness", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed witness file") and "must be an integer" in err


def test_from_witness_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["verify", "--from-witness", str(path)]) == 2


def _jordan_witness_file(tmp_path) -> Path:
    wdir = tmp_path / "wit"
    argv = ["search", "--shape", "2", "--n", "1", "--trials", "0", "--witness-dir", str(wdir)]
    assert run(argv) == 0
    return next(wdir.glob("*.json"))


@pytest.mark.parametrize(
    "unread",
    [
        ["--n", "5000", "--shape", "2"],
        ["--shape", "x"],
        ["--trials", "-1"],
        ["--threads", "0"],
        ["--d", "0"],
        ["--entry-scale", "nan"],
    ],
)
def test_from_witness_ignores_the_flags_it_does_not_read(unread, tmp_path, capsys):
    # the size check took --n 5000 --shape 2 past the limit and exited 2,
    # although the witness sets its own size
    path = _jordan_witness_file(tmp_path)
    assert run(["verify", "--from-witness", str(path), *unread]) == 0
    assert "witness reproduced" in capsys.readouterr().out


def test_from_witness_still_checks_the_flags_it_reads(tmp_path, capsys):
    path = _jordan_witness_file(tmp_path)
    assert run(["verify", "--from-witness", str(path), "--tol", "nan"]) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err
    out = tmp_path / "missing" / "r.json"
    assert run(["verify", "--from-witness", str(path), "--json", str(out)]) == 2


def test_from_witness_writes_its_verdict_to_json(tmp_path):
    # --json was ignored: the command exited 0 and wrote nothing
    path, out = _jordan_witness_file(tmp_path), tmp_path / "r.json"
    assert run(["verify", "--from-witness", str(path), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["command"], payload["failures"], payload["passed"]) == ("verify", 0, True)
    assert payload["config"] == {
        "seed": None, "shape": [2], "n": 1, "entry_scale": None, "style": None,
        "trials": 1, "d": None, "tol": 1e-9,
    }
    (report,) = payload["reports"]
    assert (report["check_id"], report["trials"], report["failures"]) == ("witness_reproduced", 1, 0)
    # the margin and eigenvalue the search recorded in the witness, bit for bit
    stored = json.loads(path.read_text())
    assert report["worst_margin"] == stored["margin"] < 0
    assert report["details"]["min_eigenvalue"] == stored["min_eigenvalue"]
    assert report["details"]["inputs_positive"] and report["details"]["product_bitwise"]
    # a fabricated instance does not reproduce: the file and the exit code agree
    I = identity_matrix(AlgebraShape((2,)), 2)
    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps({"m": I.to_json(), "n": I.to_json()}))
    assert run(["verify", "--from-witness", str(fake), "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert (payload["failures"], payload["passed"], payload["config"]["n"]) == (1, False, 2)
    assert payload["reports"][0]["failures"] == 1


_UNIT = identity_matrix(AlgebraShape((2,)), 1).to_json()


@pytest.mark.parametrize(
    "data",
    [
        5,
        {"m": 1, "n": 2},
        {"m": {**_UNIT, "entries": []}, "n": {}},
        {"m": _UNIT, "n": {}},
        {"m": _UNIT, "n": {**_UNIT, "n": {}}},
        {"m": _UNIT, "n": {**_UNIT, "algebra": {"blocks": "x"}}},
        {"m": _UNIT, "n": {**_UNIT, "entries": [[{"blocks": [[[1.0]]]}]]}},
        {"m": _UNIT, "n": {**_UNIT, "entries": [[{"blocks": [[["a", 1.0]]]}]]}},
        {"m": _UNIT, "n": {**_UNIT, "algebra": {"blocks": "2"}}},
        {"m": _UNIT, "n": {**_UNIT, "algebra": {"blocks": [2.0]}}},
        {"m": _UNIT, "n": {**_UNIT, "entries": [[{"blocks": [[[[True, False], [0, 0]],
                                                               [[0, 0], [1, 0]]]]}]]}},
    ],
)
def test_from_witness_malformed_structure(data, tmp_path, capsys):
    # valid JSON of the wrong structure is a usage error, not a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["verify", "--from-witness", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_points_file_structural_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"points": [[0.0]]}))
    assert run(["novak", "--points", str(missing)]) == 2
    assert "malformed points file" in capsys.readouterr().err

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"algebra": [1], "points": []}))
    assert run(["novak", "--points", str(empty)]) == 2


def test_novak_points_json_holds_the_matrix_and_its_verdict(tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0], [np.pi]]}))
    out = tmp_path / "novak.json"
    assert run(["novak", "--points", str(f), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "command", "config", "reports", "failures", "passed", "novak_matrix", "psd"
    }
    assert payload["command"] == "novak" and "suite" not in payload["config"]


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


@pytest.mark.parametrize(
    "points",
    [
        {"algebra": "21", "points": [[0.0], [1.0]]},
        {"algebra": [2.7], "points": [[0.0], [1.0]]},
        {"algebra": {"blocks": "3"}, "points": [[0.0], [1.0]]},
        {"algebra": [True], "points": [[0.0], [1.0]]},
        {"algebra": [1], "points": [[True], [False]]},
        {"algebra": [1], "points": [[{"blocks": [[[[True, False]]]]}], [0.0]]},
    ],
    ids=["str_list", "float_block", "str_blocks", "bool_block", "bool_cells", "bool_entry"],
)
def test_points_take_integer_blocks_and_real_numbers_only(points, tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(points))
    assert run(["novak", "--points", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_novak_points_config_records_the_points_run(tmp_path):
    entry = {"blocks": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]]}
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [2], "points": [[entry, 0.0]] * 3}))
    out = tmp_path / "novak.json"
    assert run(["novak", "--points", str(f), "--json", str(out)]) == 0
    # the file sets the size; nothing is drawn, so seed, scale and style are
    # null, as in a --from-witness report
    assert json.loads(out.read_text())["config"] == {
        "seed": None, "shape": [2], "n": 3, "entry_scale": None, "style": None,
        "trials": 1, "d": 2, "tol": 1e-9,
    }


def test_novak_help_lists_a_required_points_file_and_the_flags_it_reads(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["novak", "--help"])
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text))
    assert flags == {"--help", "--points", "--tol", "--threads", "--json"}
    # a required flag is not bracketed in the usage line
    assert " --points FILE " in help_text and "[--points" not in help_text


@pytest.mark.parametrize(
    "flags",
    [[], ["--random"], ["--points", "{f}", "--random"], ["--points", "{f}", "--n", "3"],
     ["--points", "{f}", "--seed", "-5"], ["--points", "{f}", "--trials", "-1"]],
    ids=["no_points", "random", "points_random", "points_n", "points_seed", "points_trials"],
)
def test_novak_without_a_points_file_or_with_a_draw_flag_is_usage_error(flags, tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0], [np.pi]]}))
    with pytest.raises(SystemExit) as exit_info:
        run(["novak", *(flag.format(f=f) for flag in flags)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: cstar-schur")
    assert "error: " in captured.err and "Traceback" not in captured.err


def test_novak_still_checks_the_flags_it_reads(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0], [np.pi]]}))
    assert run(["novak", "--points", str(f), "--tol", "nan"]) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err
    assert run(["novak", "--points", str(f), "--json", str(tmp_path / "missing" / "r.json")]) == 2


def test_report_config_reads_back_into_the_runs_config(tmp_path):
    out = tmp_path / "r.json"
    flags = ["--shape", "2,1", "--n", "3", "--seed", "9", "--entry-scale", "0.5"]
    cfg = GenConfig(seed=9, shape=AlgebraShape((2, 1)), n=3, entry_scale=0.5)
    real = ["--style", "real_commutative"]
    for argv, want in [
        (["verify", "--suite", "module", "--trials", "2", *flags], cfg),
        (["verify", "--suite", "module", "--trials", "2", *real, *flags],
         replace(cfg, style="real_commutative")),
        (["search", "--trials", "2", *flags], cfg),
    ]:
        assert run([*argv, "--json", str(out)]) == 0
        assert GenConfig.from_json(json.loads(out.read_text())["config"]) == want


# -- demo -------------------------------------------------------------------------


def test_demo_runs_clean(capsys):
    assert run(["demo"]) == 0
    out = capsys.readouterr().out
    assert "-0.202142" in out  # the deterministic violation
    assert "0 failed" in out


# -- any flag values ------------------------------------------------------------

# the lines verify prints: one per check, then the summary
_CHECK_LINE = re.compile(
    r"(\[PASS\] |\[FAIL\] |\[probe\]) \S+ +trials=\d+ failures=\d+ worst_margin=\S+ \(\d+\.\d\ds\)"
    r"|\[SKIP\]  \S+ +\S.*"
    r"|\[FOUND\] \S+ +trial=\S+ magnitude=\S+ \(\d+\.\d\ds\)"
    r"|\[MISS\]  \S+ +trials=\d+ best=\S+ \(\d+\.\d\ds\)"
    r"|\d+ checks: \d+ passed, \d+ failed, \d+ skipped, \d+ probe \(\d+\.\d\ds\)"
)
_EDGE_FLOATS = ["nan", "inf", "0", "-1", "1e-100", "1e200"]
# n k <= 8 and at most 3 trials, so that a run that starts stays small
_VERIFY_FLAGS = {
    "--suite": st.sampled_from(["all", *SUITES]),
    "--shape": st.sampled_from(["1", "2", "1,1", "2,1", "1,1,1,1", "0", "-1", "x", "2,,1", ""]),
    "--n": st.sampled_from(["1", "2", "3", "0", "-1"]),
    "--d": st.sampled_from(["1", "2", "3", "0", "-1"]),
    "--entry-scale": st.sampled_from(["1", "0.37", "2.5", *_EDGE_FLOATS]),
    "--style": st.sampled_from([*STYLES, "real"]),
    "--tol": st.sampled_from(["1e-9", "1e-6", *_EDGE_FLOATS]),
    "--threads": st.sampled_from(["1", "4", "0", "-1"]),
}


def _run_captured(argv, env_tol):
    """main(argv) with CSTAR_SCHUR_TOL set to ``env_tol`` (unset for None):
    the exit code, an argparse exit included, and the captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if env_tol is None:
            patch.delenv("CSTAR_SCHUR_TOL", raising=False)
        else:
            patch.setenv("CSTAR_SCHUR_TOL", env_tol)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    flags=st.fixed_dictionaries({}, optional=_VERIFY_FLAGS),
    trials=st.sampled_from(["0", "1", "3", "-1"]),
    entrywise_constant=st.booleans(),
    env_tol=st.none() | st.sampled_from(["1e-9", "x", *_EDGE_FLOATS]),
)
def test_verify_with_any_flag_values_exits_documented_and_prints_only_its_lines(
    flags, trials, entrywise_constant, env_tol
):
    argv = ["verify", f"--trials={trials}", *(f"{k}={v}" for k, v in flags.items())]
    if entrywise_constant:
        argv.append("--entrywise-constant")
    code, out, err = _run_captured(argv, env_tol)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    for line in out.splitlines():
        assert _CHECK_LINE.fullmatch(line), (argv, line)


@pytest.mark.parametrize("tol", [None, "1e-9", "1e-100", "1e200", "nan", "0", "-1"])
@pytest.mark.parametrize("seed", ["0", "-5", str(2**70)])
def test_demo_with_edge_seed_and_tol_exits_documented(seed, tol):
    argv = ["demo", f"--seed={seed}", *([] if tol is None else [f"--tol={tol}"])]
    code, out, err = _run_captured(argv, None)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    # an error ends the tour with one line on stderr, whatever it printed before
    if code in (2, 3):
        assert err.startswith(("error: ", "numerical error: ")) and err.count("\n") == 1, argv


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "trig"],
        ["verify", "--suite", "preserver", "--shape", "2"],
        ["verify", "--suite", "novak"],
        ["search", "--shape", "2"],
    ],
)
def test_negative_trials_is_usage_error(argv, capsys):
    assert run(argv + ["--trials", "-1"]) == 2
    assert "trials must be >= 0, got -1" in capsys.readouterr().err


def test_zero_trials_are_not_reported_as_passed(capsys):
    assert run(["verify", "--suite", "module", "--trials", "0"]) == 0
    assert "2 checks: 0 passed, 0 failed, 2 skipped" in capsys.readouterr().out


# -- canonical JSON -----------------------------------------------------------------

_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308, 1e16]
)
_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", "\n\t\x00\x7f", "\u00e9\u2028", "\ud800", "\U0001f600"]
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
    | _FLOATS | _STRINGS
)
_NON_STR_KEYS = (st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, children, max_size=4)
        # non-str keys take the stdlib fallback; one key type per dict, so they sort
        | st.one_of(*(st.dictionaries(k, children, max_size=3) for k in _NON_STR_KEYS))
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
@example({"a": [{1: [2.0, {"b": None}], 2: []}, {}], "": ()})
@example([[[float("nan"), -0.0], [float("inf"), float("-inf")]]])
def test_canonical_json_is_stdlib_encoding(value):
    assert _canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


# -- input files and sizes ----------------------------------------------------------


def _witness_data(tmp_path):
    wdir = tmp_path / "wit"
    assert run(
        ["search", "--shape", "2", "--n", "2", "--trials", "0", "--witness-dir", str(wdir)]
    ) == 0
    return json.loads(next(wdir.glob("*.json")).read_text())


def _with_entry(matrix, value):
    bad = json.loads(json.dumps(matrix))
    bad["entries"][0][1]["blocks"][0][0][1] = [value, 0.0]
    return bad


_NAN_2X2 = {"blocks": [[[[1.0, 0.0], [float("nan"), 0.0]], [[float("nan"), 0.0], [1.0, 0.0]]]]}
_ZERO_2X2 = {"blocks": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}


@pytest.mark.parametrize(
    "points",
    [
        {"algebra": [2], "points": [[_NAN_2X2], [_ZERO_2X2]]},
        {"algebra": [1], "points": [[0.0], [float("inf")]]},
        {"algebra": [1], "points": [[float("-inf")], [0.0]]},
        {"algebra": [1], "points": [[0.0], [float("nan")]]},
        {"algebra": [1], "points": [[0.0], [10**400]]},
    ],
    ids=["nan_in_2x2", "inf_cell", "minus_inf_cell", "nan_cell", "huge_int_cell"],
)
def test_non_finite_points_are_usage_errors(points, tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(points))
    assert run(["novak", "--points", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "finite numbers" in err or "too large to convert" in err


@pytest.mark.parametrize("key", ["m", "n", "product"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_witness_entries_are_usage_errors(key, value, tmp_path, capsys):
    data = _witness_data(tmp_path)
    data[key] = _with_entry(data[key], value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", "--from-witness", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed witness file") and "finite" in err


@pytest.mark.parametrize("product", [5, "x", [], {"n": 1}])
def test_witness_product_must_be_a_matrix(product, tmp_path, capsys):
    data = _witness_data(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**data, "product": product}))
    capsys.readouterr()
    assert run(["verify", "--from-witness", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed witness file")
    # without a stored product the bitwise comparison is skipped
    del data["product"]
    path.write_text(json.dumps(data))
    assert run(["verify", "--from-witness", str(path)]) == 0
    assert "bitwise-identically: True" in capsys.readouterr().out


_INPUT_COMMANDS = {"witness": ["verify", "--from-witness"], "points": ["novak", "--points"]}


@pytest.mark.parametrize("kind", sorted(_INPUT_COMMANDS))
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe[1]", b"[" * 100_000 + b"]" * 100_000, b"[" + b"1" * 5000 + b"]"],
    ids=["utf16_bom", "nested_1e5", "int_past_digit_limit"],
)
def test_unreadable_input_files_are_usage_errors(kind, content, tmp_path, capsys):
    # json.loads raised UnicodeDecodeError, RecursionError and the int digit
    # limit's ValueError past the handler: a traceback with exit 1
    path = tmp_path / "in.json"
    path.write_bytes(content)
    assert run([*_INPUT_COMMANDS[kind], str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {kind} file ") and err.count("\n") == 1


@cache
def _input_file(kind: str) -> bytes:
    """A witness file of a search (n = 2 over M_2), or a points file of three
    commuting self-adjoint points over M_2 that ``novak --points`` accepts."""
    if kind == "points":
        cfg = GenConfig(seed=5, shape=AlgebraShape((2,)))
        family = random_commuting_family(cfg, 2, selfadjoint=True, norm_cap=np.pi)
        cells = [[x.to_json()] for x in family] + [[0.5]]
        return json.dumps({"algebra": [2], "points": cells}).encode()
    with tempfile.TemporaryDirectory() as wdir, contextlib.redirect_stdout(io.StringIO()):
        argv = ["search", "--shape", "2", "--n", "2", "--trials", "0", "--witness-dir", wdir]
        assert main(argv) == 0
        return next(Path(wdir).glob("*.json")).read_bytes()


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_MUTATIONS = ["truncate", "byte", "encode", "nest", "non_finite", "top_level"]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` after one or two of: a cut at a random offset, one byte set to
    any value, a re-encoding, nesting up to 10^5 deep, a number made
    non-finite, and a top-level value of the wrong type."""
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2)):
        if kind == "truncate":
            data = data[: draw(st.integers(0, max(len(data) - 1, 0)))]
        elif kind == "byte" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
        elif kind == "encode":
            try:
                text = data.decode()
            except UnicodeDecodeError:
                text = data.decode("latin-1")
            # a non-ASCII key, so that latin-1 differs from UTF-8
            if text.startswith("{"):
                text = '{"note": "Schur \u00e9", ' + text[1:]
            codec = draw(st.sampled_from(["utf-16", "utf-16-le", "utf-32", "latin-1", "utf-8-sig"]))
            data = text.encode(codec, errors="replace")
        elif kind == "nest":
            depth = draw(st.integers(1, 2000) | st.sampled_from([10**4, 10**5]))
            left, right = draw(st.sampled_from([(b"[", b"]"), (b'{"a": ', b"}")]))
            data = left * depth + data + right * depth
        elif kind == "non_finite":
            numbers = list(_NUMBER.finditer(data))
            if numbers:
                m = numbers[draw(st.integers(0, len(numbers) - 1))]
                token = draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1e999"]))
                data = data[: m.start()] + token + data[m.end() :]
        elif kind == "top_level":
            value = draw(st.sampled_from([[], 5, -1.5, "x", None, True, {}]))
            data = json.dumps(value).encode()
    return data


@pytest.mark.parametrize("kind", sorted(_INPUT_COMMANDS))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_input_files_exit_with_a_documented_code_and_no_traceback(kind, data, tmp_path, monkeypatch):
    monkeypatch.delenv("CSTAR_SCHUR_TOL", raising=False)
    content = data.draw(_mutated(_input_file(kind)))
    with tempfile.TemporaryDirectory(dir=tmp_path) as run_dir:
        path = Path(run_dir) / "in.json"
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*_INPUT_COMMANDS[kind], str(path)])
    assert code in (0, 1, 2, 3), (content[:200], err.getvalue())
    assert "Traceback" not in err.getvalue(), content[:200]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--shape", "2", "--n", "100000", "--trials", "0", "--suite", "schur"],
        ["search", "--shape", "2", "--n", "100000", "--trials", "0"],
        ["search", "--shape", "2", "--n", "1000000000", "--trials", "0"],
        ["search", "--shape", "2", "--n", "2", "--n-max", "100000", "--trials", "0"],
        ["verify", "--suite", "novak", "--shape", "1,1", "--n", "100000", "--trials", "0"],
    ],
)
def test_size_above_the_limit_is_usage_error(argv, capsys):
    assert run(argv) == 2
    assert "exceeds the limit 8192" in capsys.readouterr().err


def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys):
    taken = tmp_path / "file"
    taken.write_text("")
    for argv in (
        ["search", "--shape", "2", "--n", "2", "--trials", "5", "--witness-dir", str(taken)],
        ["verify", "--suite", "module", "--trials", "2",
         "--json", str(tmp_path / "missing" / "x.json")],
        ["verify", "--suite", "module", "--trials", "2", "--json", str(tmp_path)],
        ["verify", "--suite", "novak", "--trials", "2", "--json", str(taken / "x.json")],
    ):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
        # found before the run: no check ran and no summary was printed
        assert out == "", out
    assert taken.read_text() == ""


def test_size_limit_is_on_n_times_the_largest_block():
    import argparse

    from cstar_schur.cli import MAX_FLAT_SIZE, _validate_size

    def args(shape, n, n_max=None):
        return argparse.Namespace(shape=shape, n=n, n_max=n_max)

    _validate_size(args("2,1", MAX_FLAT_SIZE // 2))
    _validate_size(args("1", 2, MAX_FLAT_SIZE))
    for bad in (args("2,1", MAX_FLAT_SIZE // 2 + 1), args("1", 2, MAX_FLAT_SIZE + 1)):
        with pytest.raises(StructureError):
            _validate_size(bad)


def test_point_limit_is_on_n_times_d():
    import argparse

    from cstar_schur.cli import MAX_POINTS, _validate_points, _validate_size

    _validate_points(MAX_POINTS)
    with pytest.raises(StructureError, match=f"{MAX_POINTS + 1} points per instance"):
        _validate_points(MAX_POINTS + 1)

    def args(n, d, suite="novak"):
        return argparse.Namespace(shape="2", n=n, d=d, suite=suite)

    for ok in (args(2, MAX_POINTS // 2), args(1, MAX_POINTS),
               args(2, MAX_POINTS, suite="schur")):
        _validate_size(ok)
    for bad in (args(2, MAX_POINTS // 2 + 1), args(MAX_POINTS, 2, suite="all")):
        with pytest.raises(StructureError):
            _validate_size(bad)


@pytest.mark.parametrize("command", [["verify", "--suite", "novak"], ["verify", "--suite", "all"]])
def test_too_many_points_is_usage_error(command, capsys):
    # rejected before the (n d)^2 / 2 commuting pairs are formed
    argv = [*command, "--shape", "2", "--n", "2", "--trials", "2", "--d", "100000"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "200000 points per instance (n * d) exceed the limit" in captured.err


def test_points_file_over_the_point_limit_is_usage_error(tmp_path, capsys):
    from cstar_schur.cli import MAX_POINTS

    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"algebra": [1], "points": [[0.0] * (MAX_POINTS + 1)]}))
    assert run(["novak", "--points", str(f)]) == 2
    assert "points per instance (n * d) exceed the limit" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "1"])
@pytest.mark.parametrize("suite", ["all", "schur"])
@pytest.mark.parametrize("shape", ["1,1", "2"])
def test_nonpositive_d_is_usage_error(shape, suite, trials, capsys):
    argv = ["verify", "--suite", suite, "--shape", shape, "--n", "2", "--trials", trials]
    for d in ("0", "-3"):
        assert run(argv + ["--d", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any check runs
        assert captured.err == f"error: --d must be >= 1, got {d}\n"


def test_novak_nonpositive_d_is_usage_error(capsys):
    assert run(["verify", "--suite", "novak", "--n", "2", "--d", "0", "--trials", "1"]) == 2
    assert "--d must be >= 1" in capsys.readouterr().err


def _cli(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "cstar_schur", *argv], env=env, capture_output=True, text=True
    )


def test_overflow_leaks_no_numpy_warnings():
    # entries near sqrt(max float) overflow in the Gram products; the verdicts
    # count the non-finite results, and stderr stays free of numpy's warnings
    done = _cli("verify", "--shape", "1,1", "--n", "1", "--entry-scale", "1.2e154",
                "--suite", "lowerbound", "--trials", "200", "--seed", "1")
    assert done.returncode == 1
    assert "RuntimeWarning" not in done.stderr and done.stderr == ""
    row = next(line for line in done.stdout.splitlines() if "gram_row_sum_bound" in line)
    assert "failures=152" in row
    done = _cli("search", "--shape", "2", "--n", "2", "--entry-scale", "1.2e154",
                "--trials", "50", "--seed", "1")
    assert done.returncode == 3
    assert done.stderr == "numerical error: non-finite entries on block 0\n"


def test_overflow_writes_no_lapack_lines_to_stdout():
    # infinities in a 3x3 flattened block used to reach the SVD, whose LAPACK
    # scaling printed " ** On entry to DLASCL ..." on stdout, 16 lines here
    done = _cli("verify", "--suite", "corollaries", "--shape", "1", "--n", "3",
                "--trials", "3", "--entry-scale", "1e200")
    assert done.returncode == 3
    assert "DLASCL" not in done.stdout and done.stdout == ""
    assert done.stderr == "numerical error: non-finite entries on block 0\n"


def test_search_oracle_takes_no_svd_at_n8(monkeypatch, capsys):
    # every product at n = 8 is exactly Hermitian, so its scale comes from
    # the spectrum the verdict solves anyway
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert run(["search", "--shape", "2", "--n", "8", "--trials", "200"]) == 0
    assert "n=8: 1/201 violations" in capsys.readouterr().out
    assert calls == []


# -- startup ----------------------------------------------------------------------

_NO_SCIPY_RUNS = """
import sys
from cstar_schur.cli import main

small = ["--n", "2", "--trials", "3", "--seed", "5"]
runs = [["verify", "--suite", "all", "--shape", s] + small for s in ("1", "2", "2,1")]
runs += [
    ["search", "--shape", "2", "--n", "8", "--trials", "40"],
    ["verify", "--suite", "novak", "--n", "3", "--d", "2", "--trials", "3"],
    ["novak", "--points", sys.argv[1]],
    ["novak", "--points", sys.argv[2]],
]
for argv in runs:
    assert main(argv) in (0, 1), argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def _points_2x2(off_diagonal: float) -> dict:
    """Two points over M_2, the first with ``off_diagonal`` below its diagonal
    and 0 above: self-adjoint within tolerance, exactly so only at 0."""
    x = {"blocks": [[[[0.5, 0.0], [off_diagonal, 0.0]], [[0.0, 0.0], [-0.3, 0.0]]]]}
    return {"algebra": [2], "points": [[x], [0.7]]}


def test_cli_runs_never_import_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # the second point file is self-adjoint only within tolerance, so its
    # run takes the exponential formula
    points = [tmp_path / "exact.json", tmp_path / "inexact.json"]
    for path, off_diagonal in zip(points, (0.0, 1e-12)):
        path.write_text(json.dumps(_points_2x2(off_diagonal)))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUNS, *map(str, points)], env=env, capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_novak_points_within_tolerance_of_self_adjoint_agree_with_their_exact_twin(tmp_path):
    # the inexact point takes calculus._trig_stack's exponential route, and
    # with it calculus._expm; the verdicts agree all the same
    payloads = []
    for off_diagonal in (1e-12, 0.0):
        f, out = tmp_path / "pts.json", tmp_path / "novak.json"
        f.write_text(json.dumps(_points_2x2(off_diagonal)))
        assert run(["novak", "--points", str(f), "--json", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    (inexact,), (exact,) = (p["reports"] for p in payloads)
    assert (inexact["failures"], exact["failures"]) == (0, 0)
    assert inexact["worst_margin"] == pytest.approx(exact["worst_margin"], rel=0, abs=1e-12)
    assert exact["worst_margin"] == pytest.approx(0.002504172577142347, rel=0, abs=1e-15)


@pytest.mark.parametrize("shape, n", GRID)
def test_overflowing_suite_grid_exits_three(shape, n, capsys):
    # the first numerical error in trial order ends the run, as before stacking
    argv = ["verify", "--suite", "all", "--shape", shape, "--n", str(n), "--trials", "10",
            "--entry-scale", "1e200"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and "Traceback" not in err
