"""Command-line front end.

Four commands:

* ``verify``  -- run named verification suites over a configurable algebra;
* ``search``  -- randomized hunt for Schur-positivity violations over a
  noncommutative algebra, optionally sweeping matrix sizes;
* ``novak``   -- the cosine-matrix positivity pipeline on the point array of
  a file (``verify --suite novak`` draws random ones);
* ``demo``    -- a short deterministic tour of the main phenomena.

Exit codes: 0 success, 1 verification failure (or a witness that fails to
reproduce), 2 usage or structural error, 3 numerical breakdown inside a
solver. JSON reports are canonical: keys sorted, no timing data, so reruns
with the same seed are byte-identical regardless of --threads. Trials run
sequentially in one thread; --threads is accepted and must be >= 1.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace
from json.encoder import encode_basestring_ascii
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
    _CHUNK_ENTRIES,
    _report,
    _search_witnesses,
    counterexample_search,
    counts_as_failure,
    jordan_witness,
    run_suites,
    validate_threads,
    validate_trials,
)

_TOL_ENV = "CSTAR_SCHUR_TOL"

# One flattened block of an n x n matrix over M_k holds (n k)^2 complex
# entries of 16 bytes each; n k <= 8192 keeps it within 1 GiB.
MAX_FLAT_SIZE = 8192

# The n d points of a Novak instance make (n d)(n d - 1)/2 pairs, whose
# commutators are formed in one stacked call: about 350 bytes a pair for one
# trial (peak RSS 278 MB at 1200 points over M_2), so n d <= 2048 keeps one
# trial within 1 GiB. The other trials of a chunk take later calls when their
# pairs exceed suites._COMMUTATOR_PAIRS, so a chunk peaks near one trial
# (147 MB at 800 points over M_2, with 1 trial or 4).
MAX_POINTS = 2048


# The smallest tolerance, 64 float epsilons (about 1.4e-14). Below roundoff a
# matrix that is positive by construction, such as a Gram draw, fails the
# oracle, and the run would end on that requirement rather than on the flag;
# the suite grid passes every requirement and every check at this floor.
MIN_TOL = 64 * sys.float_info.epsilon


def _validate_tol(tol: float, source: str) -> None:
    # NaN fails every comparison, so a bare "tol <= 0" would let it through
    if not (math.isfinite(tol) and tol > 0):
        raise StructureError(f"{source} must be finite and positive, got {tol!r}")
    if tol < MIN_TOL:
        raise StructureError(
            f"{source} must be at least {MIN_TOL!r} (64 float epsilons), got {tol!r}"
        )


def _validate_size(args) -> None:
    """Reject a size whose largest flattened block exceeds ``MAX_FLAT_SIZE``
    before anything is drawn or allocated."""
    n = max(args.n, getattr(args, "n_max", None) or 0)
    k = max(AlgebraShape.parse(args.shape).blocks)
    if n * k > MAX_FLAT_SIZE:
        raise StructureError(
            f"n * (largest block size) = {n} * {k} exceeds the limit {MAX_FLAT_SIZE}"
        )
    if "d" in vars(args) and args.suite in ("all", "novak"):
        _validate_points(args.n * args.d)


def _validate_points(count: int) -> None:
    if count > MAX_POINTS:
        raise StructureError(f"{count} points per instance (n * d) exceed the limit {MAX_POINTS}")


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


# float.__repr__ spells the non-finite values differently from the json module
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(node, indent: str) -> str:
    """One node of ``json.dumps(node, sort_keys=True, indent=2)`` at ``indent``.

    The stdlib runs its generator-based pure-Python encoder whenever an indent
    is set. Joining strings per container took 6.8 ms against its 10.7 ms over
    the suite grid's seven 10-trial reports (214 KB, best of 30, CPython 3.11,
    Xeon). Each container's body is joined once and then wrapped in its brackets
    by a second join, so a large report is held at most twice over. Nodes this
    does not know, such as dicts with non-str keys, go to the stdlib, re-indented.
    """
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    if isinstance(node, float):
        text = float.__repr__(node)
        return _NONFINITE.get(text, text)
    inner = indent + "  "
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        body = f",\n{inner}".join([_encode(item, inner) for item in node])
        return body.join((f"[\n{inner}", f"\n{indent}]"))
    if isinstance(node, dict) and all(isinstance(key, str) for key in node):
        if not node:
            return "{}"
        body = f",\n{inner}".join([
            encode_basestring_ascii(key) + ": " + _encode(node[key], inner)
            for key in sorted(node)
        ])
        return body.join((f"{{\n{inner}", f"\n{indent}}}"))
    return json.dumps(node, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _canonical_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    return _encode(payload, "") + "\n"


def _write(path: Path, text: str, mkdir: bool = False) -> None:
    """Write ``text`` to ``path``, making its directory first with ``mkdir``;
    a path that cannot be written is a usage error, not a traceback."""
    try:
        if mkdir:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise StructureError(f"cannot write {path}: {exc.strerror or exc}")


def _emit_json(payload: dict, dest: str) -> None:
    text = _canonical_json(payload)
    if dest == "-":
        sys.stdout.write(text)
    else:
        _write(Path(dest), text)


def _config_payload(cfg: GenConfig, **extra) -> dict:
    # thread count deliberately left out: it must not affect the report
    return {**cfg.to_json(), **extra}


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


def _finish(args, cfg: GenConfig, reports: list[CheckReport], config: dict, **extra) -> int:
    """Print the summary of ``reports``, write them to ``--json`` with the run's
    config, updated by the ``config`` keys (``trials`` and ``d`` among them),
    and the ``extra`` top-level keys, and return the exit code."""
    failures = _summarize(reports)
    if args.json:
        payload = {
            "command": args.command,
            "config": _config_payload(cfg, tol=args.tol, **config),
            "reports": [r.to_json() for r in reports],
            "failures": failures,
            "passed": failures == 0,
            **extra,
        }
        _emit_json(payload, args.json)
    return 0 if failures == 0 else 1


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
        return _reverify_witness(args)
    cfg = _build_config(args)
    reports = run_suites(
        args.suite,
        cfg,
        trials=args.trials,
        d=args.d,
        tol=args.tol,
        entrywise_constant=args.entrywise_constant,
    )
    for r in reports:
        _print_report(r)
    return _finish(args, cfg, reports, {"trials": args.trials, "d": args.d, "suite": args.suite})


def _read_json(path: str, kind: str):
    """The JSON value in the input file ``path``, decoded as UTF-8 (RFC 8259).
    A file that cannot be read, decoded or parsed, holds an integer past
    Python's digit limit or nests past its recursion limit is a usage error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and json.JSONDecodeError
        raise StructureError(f"cannot read {kind} file {path}: {exc}")


# the config keys a run on a file's one instance leaves null: nothing is drawn
_UNDRAWN = {"seed": None, "entry_scale": None, "style": None}


def _reverify_witness(args) -> int:
    """Recompute the product of a stored violation and confirm it still
    violates: a one-check report that passes when the violation reproduces.
    The route reads only the file, ``--tol`` and ``--json``."""
    path, tol = args.from_witness, args.tol
    data = _read_json(path, "witness")
    try:
        M = AMatrix.from_json(data["m"])
        N = AMatrix.from_json(data["n"])
        stored = data.get("product")
        if stored is not None:
            AMatrix.from_json(stored)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(
            f"malformed witness file {path} (expected instance matrices 'm' and"
            f" 'n', and optionally 'product', in AMatrix.to_json form): {exc!r}"
        )
    t0 = time.perf_counter()
    product = schur_product(M, N)
    rep_m = psd_check(M, tol)
    rep_n = psd_check(N, tol)
    rep = psd_check(product, tol)
    inputs_positive = rep_m.is_positive and rep_n.is_positive
    bitwise = stored is None or product.to_json() == stored
    violation = rep.margin < -VIOLATION_THRESHOLD
    reproduced = inputs_positive and violation and bitwise
    print(f"inputs positive: {inputs_positive}")
    print(f"product recomputed bitwise-identically: {bitwise}")
    print(
        f"product min eigenvalue: {rep.min_eigenvalue}"
        f" (margin {rep.margin:+.3e}, threshold {-VIOLATION_THRESHOLD:+.0e})"
    )
    print("witness reproduced" if reproduced else "witness NOT reproduced")
    details = {
        "inputs_positive": inputs_positive,
        "product_bitwise": bitwise,
        "min_eigenvalue": rep.min_eigenvalue,
        "violation_threshold": VIOLATION_THRESHOLD,
    }
    report = _report(
        "witness_reproduced", 1, int(not reproduced), rep.margin, tol, None, details, t0
    )
    cfg = GenConfig(seed=0, shape=M.shape, n=M.n)
    return _finish(args, cfg, [report], {"trials": 1, "d": None, **_UNDRAWN})


# glibc's mallopt(3) parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# A search chunk's stacks are one to a few stacked blocks of about
# _CHUNK_ENTRIES complex entries each; requests below this many bytes come
# from the heap.
_HEAP_BLOCK_BYTES = 8 * _CHUNK_ENTRIES * np.dtype(np.complex128).itemsize


@functools.cache
def _set_heap_policy() -> None:
    """Serve a search chunk's stacks from the heap, once per process.

    A stack of ``_CHUNK_ENTRIES`` complex entries is exactly glibc's default
    mmap threshold (128 KiB), so each would be a fresh mapping, paid for in
    page faults, until the free of a larger mapped block happens to raise the
    dynamic thresholds (mallopt(3)). Fixing the mmap threshold above a chunk's
    stacks, and the trim threshold above that, lets them reuse freed heap
    memory whatever ran before. Where the C library has no ``mallopt``,
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_BLOCK_BYTES)


def cmd_search(args) -> int:
    cfg = _build_config(args)
    if cfg.shape.is_commutative:
        raise DomainError(
            "the search needs a noncommutative algebra shape, e.g. --shape 2"
        )
    _set_heap_policy()
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
        )
        reports.append(rep)
        d = rep.details
        rate = d["violation_rate"]
        low, high = rate["interval"]
        print(
            f"n={n}: {rep.failures}/{d['trials_attempted']} violations"
            f" ({d['random_violations']} random, rate {rate['rate']:.3f},"
            f" 95% CI [{low:.3f}, {high:.3f}]),"
            f" min margin {rep.worst_margin:+.3e} ({rep.elapsed:.2f}s)"
        )
        entry = {
            "n": n,
            "seed": sub.seed,
            "trials": d["trials_attempted"],
            "violations": rep.failures,
            "random_violations": d["random_violations"],
            "min_margin": rep.worst_margin,
        }
        if args.witness_dir:
            shape_tag = "-".join(str(k) for k in cfg.shape.blocks)
            paths = []
            for w in _search_witnesses(sub, d["violation_trials"], args.tol):
                name = f"witness_shape{shape_tag}_n{n}_seed{cfg.seed}_trial{w['trial']}.json"
                path = Path(args.witness_dir) / name
                _write(path, _canonical_json(w), mkdir=True)
                paths.append(str(path))
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


def _finite(cell) -> float:
    value = float(cell)
    # json reads true and false as bools, which float() takes as 1 and 0
    if isinstance(cell, bool) or not math.isfinite(value):
        raise StructureError(f"point entries must be finite numbers, got {cell!r}")
    return value


def _load_points(path: str) -> list[list[Element]]:
    """Parse an n x d point array from JSON.

    ``algebra`` is a block-size list (or a full shape object); each cell is
    either a plain number, meaning that multiple of the unit, or a full
    element in ``Element.to_json`` form. Every number must be finite.
    """
    data = _read_json(path, "points")
    try:
        algebra = data["algebra"]
        blocks = algebra["blocks"] if isinstance(algebra, dict) else algebra
        shape = AlgebraShape(blocks)
        points = [
            [
                scalar_element(shape, _finite(cell))
                if isinstance(cell, (int, float))
                else Element.from_json(shape, cell)
                for cell in row
            ]
            for row in data["points"]
        ]
    except StructureError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(
            f"malformed points file {path}"
            ' (expected {"algebra": [blocks...], "points": [[entry, ...], ...]}):'
            f" {exc}"
        )
    if not points:
        raise StructureError(f"points file {path} contains no points")
    _validate_points(sum(len(row) for row in points))
    return points


def cmd_novak(args) -> int:
    from .suites import novak_check

    points = _load_points(args.points)
    novak, report = novak_check(points, args.tol)
    _print_report(report)
    _print_novak_line(report)
    cfg = GenConfig(seed=0, shape=points[0][0].shape, n=len(points))
    config = {"trials": report.trials, "d": len(points[0]), **_UNDRAWN}
    return _finish(
        args, cfg, [report], config,
        novak_matrix=novak.to_json(), psd=psd_check(novak, args.tol).to_json(),
    )


def cmd_demo(args) -> int:
    from .suites import find_trig_breakdown, novak_check

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


def _add_common(p: argparse.ArgumentParser) -> None:
    """The flags of a run that draws its instances, and ``_add_output``'s."""
    p.add_argument("--shape", default="1,1", help="algebra block sizes, e.g. '2,1'")
    p.add_argument("--n", type=int, default=2, help="matrix size over the algebra")
    p.add_argument("--trials", type=int, default=200, help="random trials per check")
    p.add_argument("--seed", type=int, default=2024, help="base seed")
    p.add_argument(
        "--entry-scale", type=float, default=1.0, help="scale of random entries"
    )
    p.add_argument(
        "--style",
        choices=STYLES,
        default="complex",
        help="entry distribution for random draws",
    )
    _add_output(p)


def _add_output(p: argparse.ArgumentParser) -> None:
    """The flags of every run command: tolerance, threads and the report path."""
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"relative tolerance (env {_TOL_ENV} overrides the default)",
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process. It holds no
    environment: ``--tol`` defaults to None, which ``main`` replaces by the
    tolerance from ``CSTAR_SCHUR_TOL`` read at each call."""
    parser = argparse.ArgumentParser(
        prog="cstar-schur",
        description=(
            "verification toolkit for symmetrized Schur products of positive"
            " matrices over finite-dimensional C*-algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify)
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
        help="mark the preserver report with entrywise_constant_reported; "
        "the all-units convention for zeroth Schur powers is not evaluated",
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
    _add_common(p_search)
    p_search.add_argument(
        "--n-max",
        type=int,
        default=None,
        help="sweep matrix sizes n..n-max with per-size statistics; each size draws"
        " from its own seed, derived from --seed and n and recorded in per_n",
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

    p_novak = sub.add_parser(
        "novak", help="cosine-matrix positivity pipeline on an explicit point array"
    )
    p_novak.add_argument(
        "--points",
        metavar="FILE",
        required=True,
        help="JSON file with explicit self-adjoint points; it sets the shape, n and d",
    )
    _add_output(p_novak)
    p_novak.set_defaults(func=cmd_novak)

    p_demo = sub.add_parser("demo", help="deterministic tour of the phenomena")
    p_demo.add_argument("--seed", type=int, default=2024)
    p_demo.add_argument("--tol", type=float, default=None)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def _check_outputs(args) -> None:
    """Reject a ``--json`` or ``--witness-dir`` path that cannot be written
    before the run pays for it; ``_write`` still maps a failure that comes
    later (the directory removed meanwhile) to a usage error."""
    if getattr(args, "json", None) not in (None, "-"):
        path = Path(args.json)
        if not path.parent.is_dir():
            raise StructureError(f"cannot write {path}: {path.parent} is not a directory")
        if path.is_dir():
            raise StructureError(f"cannot write {path}: it is a directory")
    witness_dir = getattr(args, "witness_dir", None)
    if witness_dir is not None and Path(witness_dir).exists() and not Path(witness_dir).is_dir():
        raise StructureError(f"cannot write {witness_dir}: it is not a directory")


def main(argv=None) -> int:
    try:
        # read at each call, so a change between two calls in one process counts
        env_tol = _env_tol()
        args = build_parser().parse_args(argv)
        if args.tol is None:
            args.tol = env_tol
        _validate_tol(args.tol, "--tol")
        # a witness sets its own size, and its route reads no run flag
        if getattr(args, "from_witness", None) is None:
            if "threads" in vars(args):
                validate_threads(args.threads)
            if "d" in vars(args) and args.d < 1:
                raise StructureError(f"--d must be >= 1, got {args.d}")
            if "trials" in vars(args):
                validate_trials(args.trials)
            if "shape" in vars(args):
                _validate_size(args)
        _check_outputs(args)
        # overflow and NaN reach the verdicts, which count them as not
        # positive; numpy's warnings about them would only clutter stderr
        with np.errstate(all="ignore"):
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
