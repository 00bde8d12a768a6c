"""Verification checks, randomized searches, and the check table behind the suites.

Every check produces a ``CheckReport`` whose ``worst_margin`` is a relative
quantity: eigenvalue checks report min-eigenvalue / max(1, scale), residual
checks report -residual / max(1, scale), so "pass" uniformly means
``worst_margin >= -tol``. Reports are bitwise reproducible from
(check_id, seed, config); wall-clock time is carried separately and kept out
of canonical JSON so reruns with different thread counts serialize
identically.

Two kinds of checks appear:

* verification checks assert a theorem on generated instances and count
  violations as failures;
* searches hunt for phenomena expected to exist over noncommutative shapes
  (Schur-product positivity violations, non-associativity witnesses,
  breakdown of the cosine addition formula). A search that is expected to
  find a hit reports failures = 0 when it does.

The suites are one table, ``CHECKS``: ``run_suite(name, ...)`` reports the
entries of suite ``name`` in table order. A ``Check`` entry holds

* ``check_id``, ``suite``, and ``applies(cfg, opts)`` with ``skip``, the
  reason reported when it is false (without one the check is left out);
* the config its trials derive from: the substream named ``key`` (default:
  the check id), restyled to ``style`` (recorded in the details), with
  ``fallback`` fields replaced over commutative shapes (the hit searches move
  to the shape ``(2,)``);
* ``trial(sub, t, opts)``, which draws instance t from its substream ``sub``
  and returns ``(margin, witness)``, or ``(margin, witness, counts)`` with
  counts summed into the details;
* ``tol`` (fixed instead of the run's), ``details``, ``clamp`` (a trial with
  a witness counts at most -2 tol) and ``run``, which replaces the margin
  aggregation (the two hit searches, explicit Novak points).

To add a check, write its evaluator, a public ``check_*`` function that
validates its inputs and calls it, a trial that draws an instance and calls
one of the two, and an entry where its report belongs in the suite order.

Each check has one evaluator of one instance; its public ``check_*``
function validates the inputs and calls it. The trials of Schur positivity,
the row-sum bound and the complex diagonal probe call the evaluator without
the validation and its extra eigensolves; the other trials call the
``check_*`` function, validation included. ``_run_trials`` is the trial loop
of the margin checks, ``find_nonassociativity`` and ``find_trig_breakdown``:
one trial after another, or up to the first witness.

``counterexample_search`` evaluates its trials in stacked chunks instead:
each trial is drawn as before, then the Gram products, the symmetrized
products and the positivity oracle run once per chunk over a leading trial
axis (``_schur_stack``). The Schur-positivity evaluator of one pair is the
same call on a stack of one, so every trial gets the bits it would get
alone. All trials run in one thread; ``threads`` is only validated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraShape,
    Element,
    classify,
    commutator_norm,
    identity_element,
    zero_element,
)
from .amatrix import (
    AMatrix,
    PsdReport,
    cholesky_psd_check,
    diag_matrix,
    diag_vector,
    identity_matrix,
    mat_norm,
    ones_matrix,
    outer_product,
    psd_check,
    row_sums,
    schur_product,
    schur_quadratic_form_oracle,
    _gram_block,
    _psd_stack,
    _schur_block,
    _stacked,
)
from .calculus import SeriesSpec, elem_cos, elem_sin, schur_series_apply
from .errors import DomainError, StructureError
from .generate import (
    GenConfig,
    fnv1a64,
    random_commuting_family,
    random_commuting_spectral_pair,
    random_element,
    random_matrix,
    random_positive_matrix,
    random_selfadjoint_element,
    random_selfadjoint_points,
    random_unit_diagonal_positive,
    random_vector,
)
from .module_an import AVector, cauchy_schwarz_gap, inner_product, left_mul

# searches only count violations well clear of verification noise
VIOLATION_THRESHOLD = 1e-6
NONASSOC_THRESHOLD = 1e-6
BREAKDOWN_THRESHOLD = 1e-3

TRIG_TOL = 1e-10
ORACLE_TOL = 1e-10
UNIT_DIAG_TOL = 1e-8
COMMUTING_TOL = 1e-10
FAMILY_COMMUTING_TOL = 1e-12
UNITARY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
AXIOM_TOL = 1e-12

SUITES = (
    "schur",
    "lowerbound",
    "corollaries",
    "novak",
    "trig",
    "preserver",
    "module",
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: counts, the worst relative margin, a witness."""

    check_id: str
    trials: int
    failures: int
    worst_margin: float
    tol: float
    witness: dict | None
    details: dict
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self, include_elapsed: bool = False) -> dict:
        data = {
            "check_id": self.check_id,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "tol": self.tol,
            "witness": self.witness,
            "details": self.details,
        }
        if include_elapsed:
            data["elapsed"] = self.elapsed
        return data


def _report(check_id, trials, failures, worst, tol, witness, details, t0) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        trials=trials,
        failures=failures,
        worst_margin=float(worst),
        tol=tol,
        witness=witness,
        details=dict(details or {}),
        elapsed=time.perf_counter() - t0,
    )


def _single(check_id, margin, tol, witness, details, t0) -> CheckReport:
    """The report on one instance, which fails exactly when it has a witness."""
    failures = 0 if witness is None else 1
    return _report(check_id, 1, failures, margin, tol, witness, details, t0)


def _matrix_payload(**mats) -> dict:
    return {name: m.to_json() for name, m in mats.items()}


def _psd_witness(rep: PsdReport, **mats) -> dict | None:
    """The matrices and certificate of a failed positivity verdict, else None."""
    if rep.is_positive:
        return None
    return {**_matrix_payload(**mats), "psd": rep.to_json()}


def _seeded(witness: dict | None, seed: int) -> dict | None:
    return None if witness is None else {"seed": seed, **witness}


# ---------------------------------------------------------------------------
# single-instance checks
# ---------------------------------------------------------------------------


def _require_positive(M: AMatrix, tol: float, label: str) -> PsdReport:
    rep = psd_check(M, tol)
    if not rep.is_positive:
        raise DomainError(f"{label} is not positive", report=rep)
    return rep


def _schur_stack(m_blocks, n_blocks, tol: float):
    """Evaluator of Schur positivity on a stack of pairs (M_i, N_i), given by
    their blocks with the trial axis first: the blocks of every M_i o N_i and
    the oracle's verdicts on them."""
    product = tuple(_schur_block(a, b) for a, b in zip(m_blocks, n_blocks))
    return product, _psd_stack(product, tol)


def _schur_witness(shape, i, m_blocks, n_blocks, product, rep: PsdReport) -> dict:
    """The matrices and certificate of member i of a stack."""
    n = m_blocks[0].shape[-3]
    mats = {
        name: AMatrix._wrap(shape, n, tuple(b[i] for b in blocks))
        for name, blocks in (("m", m_blocks), ("n", n_blocks), ("product", product))
    }
    return {**_matrix_payload(**mats), "psd": rep.to_json()}


def _schur_positivity(M: AMatrix, N: AMatrix, tol: float) -> tuple[PsdReport, dict | None]:
    """The stacked evaluator on one pair: the report on M o N and, when it
    is not positive, its witness."""
    M._require_same(N)
    m_blocks, n_blocks = _stacked(M), _stacked(N)
    product, verdicts = _schur_stack(m_blocks, n_blocks, tol)
    rep = verdicts.report(0)
    if rep.is_positive:
        return rep, None
    return rep, _schur_witness(M.shape, 0, m_blocks, n_blocks, product, rep)


def check_schur_positivity(
    M: AMatrix, N: AMatrix, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Is M o N positive for positive M, N?

    Guaranteed over commutative shapes; over noncommutative shapes the
    outcome is evidence for or against the open positivity question, so the
    caller decides whether a failure is alarming.
    """
    t0 = time.perf_counter()
    _require_positive(M, tol, "M")
    _require_positive(N, tol, "N")
    rep, witness = _schur_positivity(M, N, tol)
    if witness is not None:
        witness["min_eigenvalue"] = rep.min_eigenvalue
    details = {"commutative": M.shape.is_commutative}
    return _single("schur_product_positive", rep.margin, tol, witness, details, t0)


def _row_sum_bound(A: AMatrix, tol: float) -> tuple[PsdReport, dict | None, bool]:
    """Evaluator of the row-sum bound: its report, witness, and whether A is positive."""
    M = A @ A.adjoint()
    bound = M - (1.0 / A.n) * outer_product(row_sums(A))
    rep = psd_check(bound, tol)
    input_positive = psd_check(A, tol).is_positive
    return rep, _psd_witness(rep, a=A), input_positive


def check_row_sum_bound(A: AMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """M = A A* dominates (1/n) y y* where y collects the row sums of A.

    Holds for arbitrary A over any shape; whether A itself was positive is
    recorded but not required (the bound never uses it).
    """
    t0 = time.perf_counter()
    rep, witness, input_positive = _row_sum_bound(A, tol)
    details = {"input_positive": input_positive}
    return _single("gram_row_sum_bound", rep.margin, tol, witness, details, t0)


def check_schur_chain(
    A: AMatrix, B: AMatrix, tol: float = DEFAULT_TOL
) -> CheckReport:
    """The commutative chain M o N >= C C* >= (1/n) y y*.

    Here M = A A*, N = B B*, C = A o B and y holds the row sums of C. Both
    difference certificates and the positivity of each chain member are
    checked (the full ordering, not only the differences).
    """
    t0 = time.perf_counter()
    if not A.shape.is_commutative:
        raise DomainError("the Schur chain bound needs a commutative algebra")
    A._require_same(B)
    n = A.n
    M = A @ A.adjoint()
    N = B @ B.adjoint()
    C = schur_product(A, B)
    y = row_sums(C)
    product = schur_product(M, N)
    gram = C @ C.adjoint()
    lower = (1.0 / n) * outer_product(y)
    reports = {
        "product_minus_gram": psd_check(product - gram, tol),
        "gram_minus_lower": psd_check(gram - lower, tol),
        "product": psd_check(product, tol),
        "gram": psd_check(gram, tol),
    }
    margin = min(r.margin for r in reports.values())
    witness = None
    if not all(r.is_positive for r in reports.values()):
        witness = {
            **_matrix_payload(a=A, b=B),
            "psd": {k: r.to_json() for k, r in reports.items()},
        }
    return _single("schur_chain_bound", margin, tol, witness, {}, t0)


def _diag_bound(M: AMatrix, tol: float) -> tuple[PsdReport, dict | None]:
    """Evaluator of the diagonal bound: the report on M o M - (1/n) d d*."""
    d = diag_vector(M)
    rep = psd_check(schur_product(M, M) - (1.0 / M.n) * outer_product(d), tol)
    return rep, _psd_witness(rep, m=M)


def check_diag_bound(M: AMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """M o M dominates (1/n) (diag M)(diag M)* for positive commutative M.

    The underlying argument needs entries with a = a*, so random suites feed
    this check real instances; complex instances genuinely violate it and are
    only ever probed.
    """
    t0 = time.perf_counter()
    if not M.shape.is_commutative:
        raise DomainError("the diagonal bound needs a commutative algebra")
    _require_positive(M, tol, "M")
    rep, witness = _diag_bound(M, tol)
    return _single("diag_outer_bound", rep.margin, tol, witness, {}, t0)


def _unit_diagonal_bound(M: AMatrix, tol: float) -> tuple[float, AMatrix, PsdReport]:
    """Evaluator of the unit-diagonal bound: the largest deviation of a diagonal
    entry from the unit, B = M o M - (1/n) E_n, and the report on B."""
    unit = identity_element(M.shape)
    diag_residual = max((M.entry(j, j) - unit).norm() for j in range(M.n))
    bound = schur_product(M, M) - (1.0 / M.n) * ones_matrix(M.shape, M.n)
    return diag_residual, bound, psd_check(bound, tol)


def check_unit_diagonal_bound(M: AMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """M o M >= (1/n) E_n for positive commutative M with unit diagonal."""
    t0 = time.perf_counter()
    if not M.shape.is_commutative:
        raise DomainError("the unit-diagonal bound needs a commutative algebra")
    _require_positive(M, tol, "M")
    diag_residual, _, rep = _unit_diagonal_bound(M, tol)
    if diag_residual > UNIT_DIAG_TOL:
        raise DomainError(
            "diagonal entries deviate from the unit", residual=diag_residual
        )
    witness = _psd_witness(rep, m=M)
    details = {"diag_residual": diag_residual}
    return _single("unit_diagonal_bound", rep.margin, tol, witness, details, t0)


def _require_commuting_selfadjoint(elems: list[Element]) -> None:
    for idx, e in enumerate(elems):
        rep = classify(e)
        if not rep.is_selfadjoint:
            raise DomainError(
                "element is not self-adjoint",
                index=idx,
                hermitian_defect=rep.hermitian_defect,
            )
    # commutative shapes commute exactly, so only self-adjointness is checked there
    if elems[0].shape.is_commutative:
        return
    scale = max(1.0, max(e.norm() for e in elems))
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            c = commutator_norm(elems[i], elems[j])
            if c > COMMUTING_TOL * scale:
                raise DomainError(
                    "elements do not commute", pair=(i, j), commutator=c
                )


def _cosine_matrix(z: list[Element]) -> AMatrix:
    """[cos(z_j - z_k)], filled from the upper triangle because cos is even."""
    n = len(z)
    entries = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            entries[j][k] = entries[k][j] = elem_cos(z[j] - z[k])
    return AMatrix.from_entries(entries)


def cosine_gram_check(
    z: list[Element], tol: float = DEFAULT_TOL, probe_seed: int = 0xC05
) -> CheckReport:
    """[cos(z_j - z_k)] is positive for commuting self-adjoint z.

    Cross-checked against the Gram decomposition: for probe vectors y the
    quadratic form <Ay, y> must equal S_c S_c* + S_s S_s* with
    S_c = sum_j cos(z_j) y_j and S_s = sum_j sin(z_j) y_j, within 1e-10.
    """
    t0 = time.perf_counter()
    z = list(z)
    if not z:
        raise StructureError("need at least one point")
    shape = z[0].shape
    _require_commuting_selfadjoint(z)
    n = len(z)
    cos_z = [elem_cos(p) for p in z]
    sin_z = [elem_sin(p) for p in z]
    A = _cosine_matrix(z)
    rep = psd_check(A, tol)

    # probe vectors: the all-units vector plus functions of the z_j, which
    # stay inside the commutative subalgebra the z generate
    rng = np.random.default_rng(probe_seed)
    alphas = rng.standard_normal(n)
    betas = rng.standard_normal(n)
    probes = [
        [identity_element(shape) for _ in range(n)],
        [
            elem_cos(float(alphas[j]) * z[j]) + elem_sin(float(betas[j]) * z[j])
            for j in range(n)
        ],
    ]
    worst_residual = 0.0
    for probe in probes:
        y = AVector.from_elements(probe)
        q = inner_product(A @ y, y)
        s_c = zero_element(shape)
        s_s = zero_element(shape)
        for j in range(n):
            s_c = s_c + cos_z[j] * probe[j]
            s_s = s_s + sin_z[j] * probe[j]
        gram = s_c * s_c.adjoint() + s_s * s_s.adjoint()
        residual = (q - gram).norm() / max(1.0, q.norm())
        worst_residual = max(worst_residual, residual)
    # the residual margin is rescaled so a single pass criterion
    # (margin >= -tol) enforces residual <= 1e-10
    margin = min(rep.margin, -worst_residual * (tol / ORACLE_TOL))
    witness = None
    if not (rep.is_positive and worst_residual <= ORACLE_TOL):
        witness = {
            "points": [p.to_json() for p in z],
            "psd": rep.to_json(),
            "gram_residual": worst_residual,
        }
    details = {"gram_residual": worst_residual}
    return _single("cosine_gram", margin, tol, witness, details, t0)


def novak_check(
    points: list[list[Element]], tol: float = DEFAULT_TOL
) -> tuple[AMatrix, CheckReport]:
    """Verify the Novak-type positivity through its full proof pipeline.

    For self-adjoint commuting points x_{j,l} (n rows, d columns) the
    pipeline builds the half-angle cosine matrices
    M_l = [cos((x_{j,l} - x_{k,l}) / 2)], their left-nested Schur product M,
    and verdicts: every M_l positive, M positive, diag(M) the units, and

        M o M - (1/n) E_n >= 0.

    The left-hand side is the Novak matrix [prod_l (1 + cos(x_j - x_k))/2]
    shifted by -1/n; it is returned together with the report.
    """
    t0 = time.perf_counter()
    rows = [list(r) for r in points]
    n = len(rows)
    if n < 1 or any(not r for r in rows):
        raise StructureError("points must form a nonempty n x d array")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise StructureError("point rows have unequal length")
    shape = rows[0][0].shape
    _require_commuting_selfadjoint([p for r in rows for p in r])

    step_margins = []
    M = None
    for l in range(d):
        M_l = _cosine_matrix([0.5 * rows[j][l] for j in range(n)])
        step_margins.append(psd_check(M_l, tol).margin)
        M = M_l if M is None else schur_product(M, M_l)

    rep_m = psd_check(M, tol)
    diag_residual, novak, rep_final = _unit_diagonal_bound(M, tol)
    margin = min([*step_margins, rep_m.margin, rep_final.margin])

    ok = (
        all(m >= -tol for m in step_margins)
        and rep_m.is_positive
        and diag_residual <= UNIT_DIAG_TOL
        and rep_final.is_positive
    )
    witness = None
    if not ok:
        witness = {
            "points": [[p.to_json() for p in r] for r in rows],
            "psd_final": rep_final.to_json(),
            "diag_residual": diag_residual,
        }
    details = {
        "n": n,
        "d": d,
        "cosine_step_margins": step_margins,
        "diag_residual": diag_residual,
        "min_eigenvalue": rep_final.min_eigenvalue,
    }
    return novak, _single("novak_conjecture", margin, tol, witness, details, t0)


def check_trig_identities(
    x: Element,
    y: Element,
    tol: float = TRIG_TOL,
    falsify: bool = False,
) -> CheckReport:
    """Seven residuals of the exponential-based trigonometry.

    Parity, adjoint compatibility, and the Pythagorean identity hold for all
    elements; the addition formulas need xy = yx and are skipped for
    noncommuting pairs unless ``falsify`` is set, in which case the check
    becomes a search for a breakdown beyond 1e-3 of the cosine addition
    formula.
    """
    t0 = time.perf_counter()
    if x.shape != y.shape:
        raise StructureError("algebra shapes differ")
    scale = max(1.0, x.norm(), y.norm())
    sx, cx = elem_sin(x), elem_cos(x)
    sy, cy = elem_sin(y), elem_cos(y)
    unit = identity_element(x.shape)
    residuals = {
        "sin_odd": (elem_sin(-x) + sx).norm(),
        "cos_even": (elem_cos(-x) - cx).norm(),
        "sin_adjoint": (sx.adjoint() - elem_sin(x.adjoint())).norm(),
        "cos_adjoint": (cx.adjoint() - elem_cos(x.adjoint())).norm(),
        "pythagorean": (sx * sx + cx * cx - unit).norm(),
    }
    commutator = commutator_norm(x, y)
    commuting = commutator <= COMMUTING_TOL * scale
    if commuting or falsify:
        residuals["sin_addition"] = (
            elem_sin(x + y) - (sx * cy + cx * sy)
        ).norm()
        residuals["cos_addition"] = (
            elem_cos(x + y) - (cx * cy - sx * sy)
        ).norm()
    details = {
        "residuals": residuals,
        "commutator": commutator,
        "addition_checked": commuting or falsify,
    }
    if falsify:
        gap = residuals.get("cos_addition", 0.0)
        hit = gap > BREAKDOWN_THRESHOLD
        witness = None
        if hit:
            witness = {
                "x": x.to_json(),
                "y": y.to_json(),
                "cos_addition_residual": gap,
            }
        details["search"] = True
        return _report(
            "trig_addition_breakdown",
            1,
            0 if hit else 1,
            -gap,
            BREAKDOWN_THRESHOLD,
            witness,
            details,
            t0,
        )
    # addition residuals are only present here for commuting pairs
    margin = -max(residuals.values()) / scale
    witness = None
    if not margin >= -tol:
        witness = {"x": x.to_json(), "y": y.to_json(), "residuals": residuals}
    return _single("trig_identities", margin, tol, witness, details, t0)


def check_preserver(
    series: SeriesSpec,
    M: AMatrix,
    tol: float = DEFAULT_TOL,
    report_both: bool = False,
) -> CheckReport:
    """Entrywise power series with positive coefficients preserve positivity.

    Commutative shapes only. The asserted verdict uses the identity-matrix
    convention for the zeroth Schur power; with ``report_both`` the
    all-units-matrix convention is evaluated as well and recorded.
    """
    t0 = time.perf_counter()
    if not M.shape.is_commutative:
        raise DomainError("the preserver check needs a commutative algebra")
    for q, a in enumerate(series.coefficients):
        rep = classify(a, tol)
        if not rep.is_positive:
            raise DomainError(
                "series coefficient is not positive",
                index=q,
                min_spectrum=rep.min_spectrum,
            )
    _require_positive(M, tol, "M")
    applied = schur_series_apply(series, M, constant="identity")
    rep = psd_check(applied, tol)
    details = {"degree": series.degree}
    if report_both:
        rep_ones = psd_check(
            schur_series_apply(series, M, constant="ones"), tol
        )
        details["ones_convention"] = {
            "is_positive": rep_ones.is_positive,
            "margin": rep_ones.margin,
        }
    witness = _psd_witness(rep, m=M)
    if witness is not None:
        witness["series"] = series.to_json()
    return _single("schur_series_preserver", rep.margin, tol, witness, details, t0)


def check_commuting_spectral_instance(
    cfg: GenConfig, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Schur products of positive matrices with commuting spectral data.

    Generates M = U diag(lam) U*, N = V diag(mu) V* whose unitary entries and
    eigenvalue elements all commute, verifies the construction (unitarity,
    reconstruction, commutation), and certifies that M, N, and M o N are
    positive. Over commutative shapes this reduces to plain Schur positivity.
    """
    t0 = time.perf_counter()
    data = random_commuting_spectral_pair(cfg)
    M, N, U, V = data["M"], data["N"], data["U"], data["V"]
    lam, mu = data["lam"], data["mu"]
    n = cfg.n
    ident = identity_matrix(cfg.shape, n)
    unitary_residual = max(
        mat_norm(U @ U.adjoint() - ident), mat_norm(V @ V.adjoint() - ident)
    )
    recon_residual = max(
        mat_norm(M - U @ diag_matrix(lam) @ U.adjoint()) / max(1.0, mat_norm(M)),
        mat_norm(N - V @ diag_matrix(mu) @ V.adjoint()) / max(1.0, mat_norm(N)),
    )
    sample = [U.entry(0, 0), V.entry(0, 0), lam[0], mu[0]]
    if n > 1:
        sample += [U.entry(0, 1), V.entry(n - 1, 0), lam[n - 1]]
    comm = max(
        commutator_norm(a, b)
        for i, a in enumerate(sample)
        for b in sample[i + 1 :]
    )
    reports = {
        "m": psd_check(M, tol),
        "n": psd_check(N, tol),
        "product": psd_check(schur_product(M, N), tol),
    }
    margin = min(r.margin for r in reports.values())
    hypothesis_ok = (
        unitary_residual <= UNITARY_TOL
        and recon_residual <= RECONSTRUCTION_TOL
        and comm <= FAMILY_COMMUTING_TOL * max(1.0, mat_norm(M), mat_norm(N))
    )
    residuals = {
        "unitary_residual": unitary_residual,
        "reconstruction_residual": recon_residual,
    }
    witness = None
    if not (hypothesis_ok and all(r.is_positive for r in reports.values())):
        witness = {
            **_matrix_payload(m=M, n=N),
            "psd": {k: r.to_json() for k, r in reports.items()},
            **residuals,
            "commutator": comm,
        }
    details = {**residuals, "max_commutator": comm}
    return _single("commuting_spectral_schur", margin, tol, witness, details, t0)


# ---------------------------------------------------------------------------
# the trial loop
# ---------------------------------------------------------------------------


def validate_threads(threads: int) -> None:
    """Reject a thread count below 1.

    The thread count is accepted for compatibility only: trials run one
    after another in the calling thread, so every valid value gives the
    same report.
    """
    if threads < 1:
        raise StructureError(f"threads must be >= 1, got {threads}")


def _run_trials(trial, count: int, stop_at_hit: bool = False) -> list:
    """Run trial(0) .. trial(count - 1) in order and return their outcomes.

    An outcome is ``(margin, witness, *extras)``; each witness gets the key
    ``trial``. With ``stop_at_hit`` the loop stops after the first trial
    with a witness.
    """
    outcomes = []
    for t in range(count):
        margin, witness, *extras = trial(t)
        if witness is not None:
            witness = {**witness, "trial": t}
        outcomes.append((margin, witness, *extras))
        if stop_at_hit and witness is not None:
            break
    return outcomes


def _worst(margins: list[float]) -> float:
    """The smallest margin; NaN if any margin is NaN, whatever its position."""
    if any(math.isnan(m) for m in margins):
        return math.nan
    return min(margins, default=0.0)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def _first_big_block(shape: AlgebraShape) -> int:
    b = next((i for i, k in enumerate(shape.blocks) if k >= 2), None)
    if b is None:
        raise DomainError("the witness needs a block of size >= 2")
    return b


def jordan_witness(shape: AlgebraShape, n: int = 1) -> tuple[AMatrix, AMatrix]:
    """The deterministic positivity violation: diagonal embeddings of
    M = diag(1, 0.01) and N = all-units, whose symmetrized product has an
    eigenvalue near -0.202."""
    b = _first_big_block(shape)
    m_blocks = [np.eye(k, dtype=np.complex128) for k in shape.blocks]
    n_blocks = [np.eye(k, dtype=np.complex128) for k in shape.blocks]
    m_blocks[b][1, 1] = 0.01
    n_blocks[b] = np.zeros((shape.blocks[b],) * 2, dtype=np.complex128)
    n_blocks[b][:2, :2] = 1.0
    m_elem = Element._wrap(shape, tuple(m_blocks))
    n_elem = Element._wrap(shape, tuple(n_blocks))
    unit = identity_element(shape)
    m_entries = [m_elem] + [unit] * (n - 1)
    n_entries = [n_elem] + [unit] * (n - 1)
    return (
        diag_matrix(AVector.from_elements(m_entries)),
        diag_matrix(AVector.from_elements(n_entries)),
    )


def _positive_pair(sub: GenConfig) -> tuple[AMatrix, AMatrix]:
    _, M = random_positive_matrix(sub.derive(0))
    _, N = random_positive_matrix(sub.derive(1))
    return M, N


# Trials per search chunk: chunk * (n * k_max)^2 stays near this many complex
# entries per stacked block, 32 trials at n = 8 and k_max = 2. The stacked
# LAPACK calls gain little from bigger chunks, and peak memory grows with them.
_CHUNK_ENTRIES = 8192


def _gram_stack(draws) -> tuple[np.ndarray, ...]:
    """The blocks of G G* for each draw G, stacked along a new first axis."""
    return tuple(_gram_block(np.stack(blocks)) for blocks in zip(*(g.blocks for g in draws)))


def _search_chunks(cfg: GenConfig, trials: int):
    """(first trial, M blocks, N blocks, seeds) of each chunk of the search:
    the deterministic witness alone, then trials 1..trials in stacks.

    Trial t draws G and H from ``cfg.derive(t).derive(0)`` and ``.derive(1)``
    exactly as ``_positive_pair`` does; only G G* and H H* are stacked.
    """
    M, N = jordan_witness(cfg.shape, cfg.n)
    yield 0, _stacked(M), _stacked(N), [cfg.seed]
    size = max(1, _CHUNK_ENTRIES // (cfg.n * max(cfg.shape.blocks)) ** 2)
    for first in range(1, trials + 1, size):
        subs = [cfg.derive(t) for t in range(first, min(first + size, trials + 1))]
        pairs = [(random_matrix(s.derive(0)), random_matrix(s.derive(1))) for s in subs]
        g_draws, h_draws = zip(*pairs)
        yield first, _gram_stack(g_draws), _gram_stack(h_draws), [s.seed for s in subs]


def counterexample_search(
    cfg: GenConfig,
    trials: int,
    tol: float = DEFAULT_TOL,
    stop_on_first: bool = False,
    threads: int = 1,
) -> CheckReport:
    """Hunt for positive M, N over a noncommutative shape with M o N not positive.

    Trial zero is the deterministic witness above; trials 1..trials draw
    Gram-positive pairs from per-trial substreams. Violations are counted
    once the relative margin drops below -1e-6, comfortably beyond
    verification noise, and each one is recorded with its seed, instance,
    and min-eigenvalue certificate. Trials are evaluated in stacked chunks
    (``_search_chunks``); ``threads`` is validated and otherwise unused.
    """
    t0 = time.perf_counter()
    if cfg.shape.is_commutative:
        raise DomainError(
            "Schur products stay positive over commutative shapes; "
            "the search needs a noncommutative one"
        )
    if trials < 0:
        raise StructureError("trials must be >= 0")
    validate_threads(threads)

    margins, violations = [], []
    for first, m_blocks, n_blocks, seeds in _search_chunks(cfg, trials):
        product, verdicts = _schur_stack(m_blocks, n_blocks, tol)
        chunk = verdicts.margins()
        hits = np.flatnonzero(chunk < -VIOLATION_THRESHOLD).tolist()
        if stop_on_first and hits:
            hits = hits[:1]
            chunk = chunk[: hits[0] + 1]
        margins.extend(chunk.tolist())
        for i in hits:
            rep = verdicts.report(i)
            witness = _schur_witness(cfg.shape, i, m_blocks, n_blocks, product, rep)
            witness.update(
                trial=first + i,
                seed=seeds[i],
                deterministic_witness=first + i == 0,
                min_eigenvalue=rep.min_eigenvalue,
                margin=rep.margin,
            )
            violations.append(witness)
        if stop_on_first and hits:
            break
    details = {
        "search": True,
        "random_trials": trials,
        "trials_attempted": len(margins),
        "violation_threshold": VIOLATION_THRESHOLD,
        "random_violations": sum(not w["deterministic_witness"] for w in violations),
        "violations": violations,
    }
    return _report(
        "schur_counterexample_search",
        len(margins),
        len(violations),
        _worst(margins),
        tol,
        violations[0] if violations else None,
        details,
        t0,
    )


def _hit_search(check_id, cfg, count, threshold, trial, t0) -> CheckReport:
    """Run trials up to the first witness; failures = 0 exactly when one is found."""
    outcomes = _run_trials(trial, count, stop_at_hit=True)
    witness = outcomes[-1][1] if outcomes else None
    return _report(
        check_id,
        len(outcomes),
        0 if witness is not None else 1,
        _worst([m for m, _ in outcomes]),
        threshold,
        witness,
        {
            "search": True,
            "expect_hit": True,
            "threshold": threshold,
            "found_trial": None if witness is None else witness["trial"],
            "shape": list(cfg.shape.blocks),
        },
        t0,
    )


def find_nonassociativity(
    cfg: GenConfig, trials: int, threshold: float = NONASSOC_THRESHOLD
) -> CheckReport:
    """Search for (A o B) o C != A o (B o C); expected to succeed quickly
    over noncommutative shapes. Reports failures = 0 exactly when a witness
    beyond the threshold was found."""
    t0 = time.perf_counter()
    if cfg.shape.is_commutative:
        raise DomainError("the Schur product is associative over commutative shapes")

    def trial(t: int):
        sub = cfg.derive(t)
        A = random_matrix(sub.derive(0))
        B = random_matrix(sub.derive(1))
        C = random_matrix(sub.derive(2))
        left = schur_product(schur_product(A, B), C)
        right = schur_product(A, schur_product(B, C))
        defect = mat_norm(left - right)
        witness = None
        if defect > threshold:
            witness = {"seed": sub.seed, "defect": defect, **_matrix_payload(a=A, b=B, c=C)}
        return -defect, witness

    return _hit_search("schur_nonassociativity", cfg, trials, threshold, trial, t0)


def pauli_pair(shape: AlgebraShape) -> tuple[Element, Element]:
    """sigma_x, sigma_z embedded in the first block of size >= 2."""
    b = _first_big_block(shape)
    xs = [np.zeros((k, k), dtype=np.complex128) for k in shape.blocks]
    zs = [np.zeros((k, k), dtype=np.complex128) for k in shape.blocks]
    xs[b][0, 1] = xs[b][1, 0] = 1.0
    zs[b][0, 0] = 1.0
    zs[b][1, 1] = -1.0
    return Element._wrap(shape, tuple(xs)), Element._wrap(shape, tuple(zs))


def find_trig_breakdown(cfg: GenConfig, trials: int) -> CheckReport:
    """Exhibit a noncommuting self-adjoint pair where the cosine addition
    formula fails by more than 1e-3. Trial zero is the Pauli pair."""
    t0 = time.perf_counter()
    if cfg.shape.is_commutative:
        raise DomainError("addition formulas hold over commutative shapes")

    def trial(t: int):
        if t == 0:
            x, y = pauli_pair(cfg.shape)
        else:
            sub = cfg.derive(t)
            x = random_selfadjoint_element(sub.derive(0), norm_cap=5.0)
            y = random_selfadjoint_element(sub.derive(1), norm_cap=5.0)
        rep = check_trig_identities(x, y, falsify=True)
        return rep.worst_margin, rep.witness

    return _hit_search(
        "trig_addition_breakdown", cfg, trials + 1, BREAKDOWN_THRESHOLD, trial, t0
    )


# ---------------------------------------------------------------------------
# suite trials: instance t of a check, drawn from its substream sub
# ---------------------------------------------------------------------------


def _outcome(report: CheckReport) -> tuple[float, dict | None]:
    return report.worst_margin, report.witness


def _trial_schur(sub, t, o):
    rep, witness = _schur_positivity(*_positive_pair(sub), o.tol)
    return rep.margin, _seeded(witness, sub.seed)


def _trial_spectral(sub, t, o):
    return _outcome(check_commuting_spectral_instance(sub, o.tol))


def _trial_trace_form(sub, t, o):
    M, N = _positive_pair(sub)
    x = random_vector(sub.derive(2))
    direct, trace_form = schur_quadratic_form_oracle(M, N, x)
    residual = (direct - trace_form).norm() / max(1.0, direct.norm())
    witness = None
    if residual > ORACLE_TOL:
        witness = {"seed": sub.seed, "residual": residual}
    return -residual, witness


def _trial_oracle(sub, t, o):
    kind = t % 3
    if kind == 0:
        _, inst = random_positive_matrix(sub)
    elif kind == 1:
        R = random_matrix(sub)
        inst = 0.5 * (R + R.adjoint())
    else:
        inst = outer_product(random_vector(sub))
    eig_rep = psd_check(inst, o.tol)
    chol_rep = cholesky_psd_check(inst, o.tol)
    agree = eig_rep.is_positive == chol_rep.is_positive
    witness = None
    if not agree:
        witness = {
            "seed": sub.seed,
            "kind": kind,
            "eig": eig_rep.to_json(),
            "cholesky": chol_rep.to_json(),
        }
    return (0.0 if agree else -1.0), witness


def _trial_row_sum(sub, t, o):
    # the bound never uses positivity of A, so alternate between positive
    # and general inputs and record the split
    A = random_positive_matrix(sub)[1] if t % 2 == 0 else random_matrix(sub)
    rep, witness, input_positive = _row_sum_bound(A, o.tol)
    return rep.margin, _seeded(witness, sub.seed), {"inputs_positive": input_positive}


def _trial_chain(sub, t, o):
    A = random_matrix(sub.derive(0))
    B = random_matrix(sub.derive(1))
    return _outcome(check_schur_chain(A, B, o.tol))


def _trial_diag(sub, t, o):
    _, M = random_positive_matrix(sub)
    return _outcome(check_diag_bound(M, o.tol))


def _trial_unit_diag(sub, t, o):
    M = random_unit_diagonal_positive(sub)
    return _outcome(check_unit_diagonal_bound(M, o.tol))


def _trial_diag_probe(sub, t, o):
    # complex entries break the a = a* step of the diagonal-bound argument;
    # record how often without asserting anything
    _, M = random_positive_matrix(sub)
    rep, witness = _diag_bound(M, o.tol)
    return rep.margin, _seeded(witness, sub.seed)


def _novak_points(sub: GenConfig, d: int) -> list[list[Element]]:
    if sub.shape.is_commutative:
        return random_selfadjoint_points(sub, d)
    cap = sub.entry_scale * np.pi
    flat = random_commuting_family(
        sub, sub.n * d, selfadjoint=True, norm_cap=cap
    )
    return [flat[j * d : (j + 1) * d] for j in range(sub.n)]


def _trial_novak(sub, t, o):
    _, report = novak_check(_novak_points(sub, o.d), o.tol)
    return _outcome(report)


def _trial_cosine_gram(sub, t, o):
    cap = sub.entry_scale * np.pi
    if sub.shape.is_commutative:
        z = [
            random_selfadjoint_element(sub.derive(j), norm_cap=cap)
            for j in range(sub.n)
        ]
    else:
        z = random_commuting_family(sub, sub.n, selfadjoint=True, norm_cap=cap)
    return _outcome(cosine_gram_check(z, o.tol, probe_seed=sub.seed))


def _trial_trig(sub, t, o):
    if sub.shape.is_commutative:
        x = random_selfadjoint_element(sub.derive(0), norm_cap=5.0)
        y = random_selfadjoint_element(sub.derive(1), norm_cap=5.0)
    else:
        x, y = random_commuting_family(sub, 2, selfadjoint=True, norm_cap=5.0)
    return _outcome(check_trig_identities(x, y, TRIG_TOL))


def _trial_preserver(sub, t, o):
    degree = int(sub.rng().integers(0, 5))
    coeffs = []
    for q in range(degree + 1):
        g = random_element(sub.derive(q + 1))
        coeffs.append(g * g.adjoint())
    series = SeriesSpec(tuple(coeffs))
    _, M = random_positive_matrix(sub.derive(0))
    return _outcome(check_preserver(series, M, o.tol, report_both=o.entrywise_constant))


def _trial_cauchy_schwarz(sub, t, o):
    x = random_vector(sub.derive(0))
    y = random_vector(sub.derive(1))
    gap = cauchy_schwarz_gap(x, y)
    rep = classify(gap, o.tol)
    margin = rep.min_spectrum / max(1.0, gap.norm())
    witness = None
    if margin < -o.tol or not rep.is_selfadjoint:
        witness = {
            "seed": sub.seed,
            "x": x.to_json(),
            "y": y.to_json(),
            "min_spectrum": rep.min_spectrum,
        }
    return margin, witness


def _trial_axioms(sub, t, o):
    x = random_vector(sub.derive(0))
    y = random_vector(sub.derive(1))
    a = random_element(sub.derive(2))
    sym_res = (inner_product(x, y) - inner_product(y, x).adjoint()).norm()
    lin_res = (
        inner_product(left_mul(a, x), y) - a * inner_product(x, y)
    ).norm()
    scale = max(1.0, a.norm() * inner_product(x, y).norm())
    pos_rep = classify(inner_product(x, x), o.tol)
    margin = min(
        -sym_res / scale,
        -lin_res / scale,
        pos_rep.min_spectrum / max(1.0, inner_product(x, x).norm()),
    )
    witness = None
    if margin < -AXIOM_TOL:
        witness = {"seed": sub.seed, "sym": sym_res, "lin": lin_res}
    return margin, witness


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Options:
    """The run-wide settings every entry of a suite sees."""

    trials: int
    d: int
    tol: float
    entrywise_constant: bool
    points: list[list[Element]] | None


def _margin_report(check: "Check", base: GenConfig, o: _Options) -> CheckReport:
    """Aggregate trials 0..trials-1 of a check; pass means margin >= -tol.

    Without trials the check is reported as skipped: nothing was verified.
    """
    if o.trials < 1:
        return check.skipped(o, "no trials requested")
    t0 = time.perf_counter()
    tol = check.tol or o.tol
    outcomes = _run_trials(lambda t: check.trial(base.derive(t), t, o), o.trials)
    details = check.details(o)
    if check.style:
        details["style"] = check.style
    margins = []
    witness = None
    for margin, trial_witness, *counts in outcomes:
        if trial_witness is not None:
            if witness is None:
                witness = trial_witness
            if check.clamp:
                margin = min(margin, -2 * tol)
        margins.append(margin)
        for extra in counts:
            for key, value in extra.items():
                details[key] += value
    failures = sum(1 for m in margins if not (m >= -tol))
    return _report(
        check.check_id, o.trials, failures, _worst(margins), tol, witness, details, t0
    )


def _run_novak(check: "Check", base: GenConfig, o: _Options) -> CheckReport:
    # explicit points replace the random trials with one pipeline run
    if o.points is not None:
        return novak_check(o.points, o.tol)[1]
    return _margin_report(check, base, o)


def _commutative(cfg, o) -> bool:
    return cfg.shape.is_commutative


def _noncommutative(cfg, o) -> bool:
    return not cfg.shape.is_commutative


@dataclass(frozen=True)
class Check:
    """One entry of the check table; see the module docstring for the fields."""

    check_id: str
    suite: str
    trial: Callable | None = None
    applies: Callable = lambda cfg, o: True
    skip: str | None = None
    key: str | None = None
    style: str | None = None
    fallback: dict = field(default_factory=dict)
    tol: float | None = None
    clamp: bool = False
    details: Callable = lambda o: {}
    run: Callable = _margin_report

    def base(self, cfg: GenConfig) -> GenConfig:
        base = cfg.derive(fnv1a64(self.key or self.check_id))
        if self.style:
            base = replace(base, style=self.style)
        if cfg.shape.is_commutative and self.fallback:
            base = replace(base, **self.fallback)
        return base

    def report(self, cfg: GenConfig, o: _Options) -> CheckReport | None:
        if self.applies(cfg, o):
            return self.run(self, self.base(cfg), o)
        if self.skip is None:
            return None
        return self.skipped(o, self.skip)

    def skipped(self, o: _Options, reason: str) -> CheckReport:
        tol = self.tol or o.tol
        return CheckReport(self.check_id, 0, 0, 0.0, tol, None, {"skipped": reason}, 0.0)


# the skip reason of the commutative-only checks
_COMM = "requires a commutative algebra"

CHECKS = (
    Check("schur_product_positive", "schur", _trial_schur, _commutative),
    Check("schur_product_probe", "schur", _trial_schur, _noncommutative,
          key="schur_product_positive",
          details=lambda o: {"probe": True, "note": "evidence on the open question"}),
    Check("commuting_spectral_schur", "schur", _trial_spectral, clamp=True),
    Check("schur_trace_form_agreement", "schur", _trial_trace_form, _commutative,
          tol=ORACLE_TOL),
    Check("psd_oracle_agreement", "schur", _trial_oracle),
    # associativity is exact over commutative shapes, so the witness search
    # falls back to the smallest noncommutative one
    Check("schur_nonassociativity", "schur", fallback={"shape": AlgebraShape((2,)), "n": 2},
          run=lambda check, base, o: find_nonassociativity(base, max(o.trials, 1))),
    Check("gram_row_sum_bound", "lowerbound", _trial_row_sum,
          details=lambda o: {"inputs_positive": 0}),
    Check("schur_chain_bound", "lowerbound", _trial_chain, _commutative, _COMM),
    Check("diag_outer_bound", "corollaries", _trial_diag, _commutative, _COMM,
          style="real_commutative"),
    Check("unit_diagonal_bound", "corollaries", _trial_unit_diag, _commutative, _COMM,
          style="real_commutative"),
    Check("diag_outer_bound_complex_probe", "corollaries", _trial_diag_probe, _commutative,
          style="complex", details=lambda o: {"probe": True}),
    Check("novak_conjecture", "novak", _trial_novak, clamp=True,
          details=lambda o: {"d": o.d}, run=_run_novak),
    Check("cosine_gram", "novak", _trial_cosine_gram, lambda cfg, o: o.points is None,
          clamp=True),
    Check("trig_identities", "trig", _trial_trig, tol=TRIG_TOL),
    Check("trig_addition_breakdown", "trig", fallback={"shape": AlgebraShape((2,))},
          run=lambda check, base, o: find_trig_breakdown(base, o.trials)),
    Check("schur_series_preserver", "preserver", _trial_preserver, _commutative, _COMM,
          details=lambda o: {"entrywise_constant_reported": o.entrywise_constant}),
    Check("cauchy_schwarz_gap", "module", _trial_cauchy_schwarz, clamp=True),
    Check("inner_product_axioms", "module", _trial_axioms, tol=AXIOM_TOL),
)


def run_suite(
    name: str,
    cfg: GenConfig,
    *,
    trials: int = 200,
    d: int = 2,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
    entrywise_constant: bool = False,
    points: list[list[Element]] | None = None,
) -> list[CheckReport]:
    """Run one named suite and return its reports in table order.

    ``threads`` is validated and otherwise unused (see ``validate_threads``).
    """
    if name not in SUITES:
        raise StructureError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
    validate_threads(threads)
    o = _Options(trials, d, tol, entrywise_constant, points)
    reports = (check.report(cfg, o) for check in CHECKS if check.suite == name)
    return [r for r in reports if r is not None]


def run_suites(
    names,
    cfg: GenConfig,
    *,
    trials: int = 200,
    d: int = 2,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
    entrywise_constant: bool = False,
    points=None,
) -> list[CheckReport]:
    if isinstance(names, str):
        names = SUITES if names == "all" else (names,)
    reports = []
    for name in names:
        reports.extend(
            run_suite(
                name,
                cfg,
                trials=trials,
                d=d,
                tol=tol,
                threads=threads,
                entrywise_constant=entrywise_constant,
                points=points,
            )
        )
    return reports


def counts_as_failure(report: CheckReport) -> bool:
    """Probe checks record evidence without affecting the verdict."""
    if report.details.get("probe"):
        return False
    return report.failures > 0
