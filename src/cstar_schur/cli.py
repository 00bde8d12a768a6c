"""Command-line front end.

Four commands:

* ``verify``  -- run named verification suites over a configurable algebra;
* ``search``  -- randomized hunt for Schur-positivity violations over a
  noncommutative algebra, optionally sweeping matrix sizes;
* ``novak``   -- the cosine-matrix positivity pipeline on random or supplied
  point arrays;
* ``demo``    -- a short deterministic tour of the main phenomena.

Exit codes: 0 success, 1 verification failure (or a witness that fails to
reproduce), 2 usage or structural error, 3 numerical breakdown inside a
solver. JSON reports are canonical: keys sorted, no timing data, so reruns
with the same seed are byte-identical regardless of --threads. Trials run
sequentially in one thread; --threads is accepted and must be >= 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .algebra import AlgebraShape, Element, scalar_element
from .amatrix import AMatrix, psd_check, schur_product
from .errors import DomainError, NumericalError, RangeError, StructureError
from .generate import GenConfig, STYLES
from .verify import (
    CheckReport,
    DEFAULT_TOL,
    SUITES,
    VIOLATION_THRESHOLD,
    counterexample_search,
    counts_as_failure,
    find_trig_breakdown,
    jordan_witness,
    novak_check,
    run_suites,
    validate_threads,
)

_TOL_ENV = "CSTAR_SCHUR_TOL"


def _validate_tol(tol: float, source: str) -> None:
    # NaN fails every comparison, so a bare "tol <= 0" would let it through
    if not (math.isfinite(tol) and tol > 0):
        raise StructureError(f"{source} must be finite and positive, got {tol!r}")


def _env_tol() -> float:
    raw = os.environ.get(_TOL_ENV)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise StructureError(f"{_TOL_ENV} must be a float, got {raw!r}")
    _validate_tol(tol, _TOL_ENV)
    return tol


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_json(payload: dict, dest: str) -> None:
    text = _canonical_json(payload)
    if dest == "-":
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text)


def _config_payload(cfg: GenConfig, **extra) -> dict:
    # thread count deliberately left out: it must not affect the report
    data = {
        "shape": list(cfg.shape.blocks),
        "n": cfg.n,
        "seed": cfg.seed,
        "style": cfg.style,
        "entry_scale": cfg.entry_scale,
    }
    data.update(extra)
    return data


def _print_report(report: CheckReport) -> None:
    details = report.details
    name = f"{report.check_id:32s}"
    if "skipped" in details:
        print(f"[SKIP]  {name} {details['skipped']}")
        return
    if details.get("search") and details.get("expect_hit"):
        if report.witness is not None:
            print(
                f"[FOUND] {name} trial={details.get('found_trial')}"
                f" magnitude={-report.worst_margin:.3e} ({report.elapsed:.2f}s)"
            )
        else:
            print(
                f"[MISS]  {name} trials={report.trials}"
                f" best={-report.worst_margin:.3e} ({report.elapsed:.2f}s)"
            )
        return
    tag = "[probe]" if details.get("probe") else (
        "[PASS] " if report.passed else "[FAIL] "
    )
    print(
        f"{tag} {name} trials={report.trials} failures={report.failures}"
        f" worst_margin={report.worst_margin:+.3e} ({report.elapsed:.2f}s)"
    )


def _summarize(reports: list[CheckReport]) -> int:
    failures = sum(1 for r in reports if counts_as_failure(r))
    skipped = sum(1 for r in reports if "skipped" in r.details)
    probes = sum(1 for r in reports if r.details.get("probe"))
    passed = len(reports) - failures - skipped - probes
    elapsed = sum(r.elapsed for r in reports)
    print(
        f"{len(reports)} checks: {passed} passed, {failures} failed,"
        f" {skipped} skipped, {probes} probe ({elapsed:.2f}s)"
    )
    return failures


def _build_config(args) -> GenConfig:
    shape = AlgebraShape.parse(args.shape)
    return GenConfig(
        seed=args.seed,
        shape=shape,
        n=args.n,
        entry_scale=args.entry_scale,
        style=args.style,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.from_witness is not None:
        if args.points is not None:
            raise StructureError("--from-witness and --points are mutually exclusive")
        return _reverify_witness(args.from_witness, args.tol)
    points = None
    if args.points is not None:
        selected = SUITES if args.suite == "all" else (args.suite,)
        if "novak" not in selected:
            raise StructureError("--points applies to the novak suite only")
        points = _load_points(args.points)
    cfg = _build_config(args)
    reports = run_suites(
        args.suite,
        cfg,
        trials=args.trials,
        d=args.d,
        tol=args.tol,
        threads=args.threads,
        entrywise_constant=args.entrywise_constant,
        points=points,
    )
    for r in reports:
        _print_report(r)
        if points is not None and "min_eigenvalue" in r.details:
            _print_novak_line(r)
    failures = _summarize(reports)
    if args.json:
        payload = {
            "command": "verify",
            "config": _config_payload(
                cfg, suite=args.suite, trials=args.trials, d=args.d, tol=args.tol
            ),
            "reports": [r.to_json() for r in reports],
            "failures": failures,
            "passed": failures == 0,
        }
        _emit_json(payload, args.json)
    return 0 if failures == 0 else 1


def _reverify_witness(path: str, tol: float) -> int:
    """Recompute the product of a stored violation and confirm it still violates."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StructureError(f"cannot read witness file {path}: {exc}")
    if "m" not in data or "n" not in data:
        raise StructureError("witness file must contain instance matrices 'm' and 'n'")
    M = AMatrix.from_json(data["m"])
    N = AMatrix.from_json(data["n"])
    product = schur_product(M, N)
    rep_m = psd_check(M, tol)
    rep_n = psd_check(N, tol)
    rep = psd_check(product, tol)
    stored = data.get("product")
    bitwise = stored is None or product.to_json() == stored
    violation = rep.margin < -VIOLATION_THRESHOLD
    reproduced = rep_m.is_positive and rep_n.is_positive and violation and bitwise
    print(f"inputs positive: {rep_m.is_positive and rep_n.is_positive}")
    print(f"product recomputed bitwise-identically: {bitwise}")
    print(
        f"product min eigenvalue: {rep.min_eigenvalue}"
        f" (margin {rep.margin:+.3e}, threshold {-VIOLATION_THRESHOLD:+.0e})"
    )
    print("witness reproduced" if reproduced else "witness NOT reproduced")
    return 0 if reproduced else 1


def cmd_search(args) -> int:
    cfg = _build_config(args)
    if cfg.shape.is_commutative:
        raise DomainError(
            "the search needs a noncommutative algebra shape, e.g. --shape 2"
        )
    sizes = [args.n]
    if args.n_max is not None:
        if args.n_max < args.n:
            raise StructureError("--n-max must be >= --n")
        sizes = list(range(args.n, args.n_max + 1))

    sweeps = []
    reports = []
    for n in sizes:
        sub = replace(cfg, n=n) if len(sizes) == 1 else replace(cfg, n=n).derive(n)
        rep = counterexample_search(
            sub,
            trials=args.trials,
            tol=args.tol,
            stop_on_first=args.stop_on_first,
            threads=args.threads,
        )
        reports.append(rep)
        d = rep.details
        rate = d["random_violations"] / max(1, d["random_trials"])
        print(
            f"n={n}: {len(d['violations'])}/{d['trials_attempted']} violations"
            f" ({d['random_violations']} random, rate {rate:.3f}),"
            f" min margin {rep.worst_margin:+.3e} ({rep.elapsed:.2f}s)"
        )
        entry = {
            "n": n,
            "trials": d["trials_attempted"],
            "violations": len(d["violations"]),
            "random_violations": d["random_violations"],
            "min_margin": rep.worst_margin,
        }
        if args.witness_dir:
            out = Path(args.witness_dir)
            out.mkdir(parents=True, exist_ok=True)
            shape_tag = "-".join(str(k) for k in cfg.shape.blocks)
            paths = []
            for w in d["violations"]:
                name = f"witness_shape{shape_tag}_n{n}_seed{cfg.seed}_trial{w['trial']}.json"
                (out / name).write_text(_canonical_json(w))
                paths.append(str(out / name))
            entry["witness_files"] = paths
        sweeps.append(entry)

    total_hits = sum(s["violations"] for s in sweeps)
    print(
        f"total: {total_hits} violations across {sum(s['trials'] for s in sweeps)} trials"
    )
    if args.json:
        payload = {
            "command": "search",
            "config": _config_payload(
                cfg, trials=args.trials, tol=args.tol, n_max=args.n_max
            ),
            "per_n": sweeps,
            "reports": [r.to_json() for r in reports],
        }
        _emit_json(payload, args.json)
    return 0


def _print_novak_line(report: CheckReport) -> None:
    d = report.details
    print(
        f"n={d['n']} d={d['d']}: min eigenvalue of the shifted matrix"
        f" {d['min_eigenvalue']:+.3e}; diagonal residual {d['diag_residual']:.2e}"
    )


def _load_points(path: str) -> list[list[Element]]:
    """Parse an n x d point array from JSON.

    ``algebra`` is a block-size list (or a full shape object); each cell is
    either a plain number, meaning that multiple of the unit, or a full
    element in ``Element.to_json`` form.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StructureError(f"cannot read points file {path}: {exc}")
    try:
        algebra = data["algebra"]
        blocks = algebra["blocks"] if isinstance(algebra, dict) else algebra
        shape = AlgebraShape(tuple(int(k) for k in blocks))
        points = [
            [
                scalar_element(shape, float(cell))
                if isinstance(cell, (int, float))
                else Element.from_json(shape, cell)
                for cell in row
            ]
            for row in data["points"]
        ]
    except StructureError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StructureError(
            f"malformed points file {path}"
            ' (expected {"algebra": [blocks...], "points": [[entry, ...], ...]}):'
            f" {exc}"
        )
    if not points:
        raise StructureError(f"points file {path} contains no points")
    return points


def cmd_novak(args) -> int:
    cfg = _build_config(args)
    if args.points is not None and args.random:
        raise StructureError("--points and --random are mutually exclusive")
    novak_payload = None
    if args.points is not None:
        points = _load_points(args.points)
        novak, report = novak_check(points, args.tol)
        _print_report(report)
        _print_novak_line(report)
        reports = [report]
        novak_payload = {
            "novak_matrix": novak.to_json(),
            "psd": psd_check(novak, args.tol).to_json(),
        }
    else:
        reports = run_suites(
            ("novak",),
            cfg,
            trials=args.trials,
            d=args.d,
            tol=args.tol,
            threads=args.threads,
        )
        for r in reports:
            _print_report(r)
    failures = _summarize(reports)
    if args.json:
        payload = {
            "command": "novak",
            "config": _config_payload(
                cfg, trials=args.trials, d=args.d, tol=args.tol
            ),
            "reports": [r.to_json() for r in reports],
            "failures": failures,
            "passed": failures == 0,
        }
        if novak_payload is not None:
            payload.update(novak_payload)
        _emit_json(payload, args.json)
    return 0 if failures == 0 else 1


def cmd_demo(args) -> int:
    tol = args.tol
    print("== symmetrized Schur product can break positivity ==")
    shape = AlgebraShape((2,))
    M, N = jordan_witness(shape, n=1)
    rep = psd_check(schur_product(M, N), tol)
    print(
        "M = [diag(1, 0.01)], N = [all-units] in M_2(C):"
        f" product min eigenvalue {rep.min_eigenvalue:+.6f} -> not positive\n"
    )

    print("== the commutative cosine pipeline at the classical extremal point ==")
    comm = AlgebraShape((1,))
    pts = [[Element(comm, [[[0.0]]])], [Element(comm, [[[np.pi]]])]]
    novak, report = novak_check(pts, tol)
    print(
        "x = (0, pi), n = 2: shifted matrix min eigenvalue"
        f" {report.details['min_eigenvalue']:+.3e} (conjectured bound is tight)\n"
    )

    print("== addition formulas need commuting arguments ==")
    cfg = GenConfig(seed=args.seed, shape=shape, n=1)
    rep = find_trig_breakdown(cfg, trials=0)
    gap = rep.witness["cos_addition_residual"] if rep.witness else 0.0
    print(
        "sigma_x, sigma_z: cos-addition residual"
        f" {gap:.6f} (threshold {rep.tol:g})\n"
    )

    print("== randomized verification over C^4, n = 3 ==")
    cfg = GenConfig(seed=args.seed, shape=AlgebraShape((1, 1, 1, 1)), n=3)
    reports = run_suites("all", cfg, trials=25, d=2, tol=tol)
    for r in reports:
        _print_report(r)
    failures = _summarize(reports)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, default_tol: float) -> None:
    p.add_argument("--shape", default="1,1", help="algebra block sizes, e.g. '2,1'")
    p.add_argument("--n", type=int, default=2, help="matrix size over the algebra")
    p.add_argument("--trials", type=int, default=200, help="random trials per check")
    p.add_argument("--seed", type=int, default=2024, help="base seed")
    p.add_argument(
        "--tol",
        type=float,
        default=default_tol,
        help=f"relative tolerance (env {_TOL_ENV} overrides the default)",
    )
    p.add_argument(
        "--entry-scale", type=float, default=1.0, help="scale of random entries"
    )
    p.add_argument(
        "--style",
        choices=STYLES,
        default="complex",
        help="entry distribution for random draws",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility, must be >= 1; trials run sequentially",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a canonical JSON report to PATH ('-' for stdout)",
    )


def build_parser(default_tol: float | None = None) -> argparse.ArgumentParser:
    if default_tol is None:
        default_tol = _env_tol()
    parser = argparse.ArgumentParser(
        prog="cstar-schur",
        description=(
            "verification toolkit for symmetrized Schur products of positive"
            " matrices over finite-dimensional C*-algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify, default_tol)
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=("all",) + SUITES,
        help="which suite to run",
    )
    p_verify.add_argument("--d", type=int, default=2, help="points per row (novak)")
    p_verify.add_argument(
        "--entrywise-constant",
        action="store_true",
        help="also report the all-units convention for zeroth Schur powers",
    )
    p_verify.add_argument(
        "--points",
        metavar="FILE",
        default=None,
        help="explicit points for the novak suite (JSON file)",
    )
    p_verify.add_argument(
        "--from-witness",
        metavar="FILE",
        default=None,
        help="re-verify a stored violation witness instead of running suites",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser(
        "search", help="randomized counterexample search (noncommutative shapes)"
    )
    _add_common(p_search, default_tol)
    p_search.add_argument(
        "--n-max",
        type=int,
        default=None,
        help="sweep matrix sizes n..n-max with per-size statistics",
    )
    p_search.add_argument(
        "--stop-on-first",
        action="store_true",
        help="stop at the first violation; the deterministic trial 0 always"
        " violates, so the search stops after it",
    )
    p_search.add_argument(
        "--witness-dir",
        metavar="DIR",
        default=None,
        help="write each violation to DIR as a JSON witness file",
    )
    p_search.set_defaults(func=cmd_search)

    p_novak = sub.add_parser("novak", help="cosine-matrix positivity pipeline")
    _add_common(p_novak, default_tol)
    p_novak.add_argument("--d", type=int, default=2, help="points per row")
    p_novak.add_argument(
        "--points",
        metavar="FILE",
        default=None,
        help="JSON file with explicit self-adjoint points (single run)",
    )
    p_novak.add_argument(
        "--random",
        action="store_true",
        help="draw random point arrays (the default when --points is absent)",
    )
    p_novak.set_defaults(func=cmd_novak)

    p_demo = sub.add_parser("demo", help="deterministic tour of the phenomena")
    p_demo.add_argument("--seed", type=int, default=2024)
    p_demo.add_argument("--tol", type=float, default=default_tol)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if "threads" in vars(args):
            validate_threads(args.threads)
        _validate_tol(args.tol, "--tol")
        return args.func(args)
    except (StructureError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
