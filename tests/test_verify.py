"""Checks, searches, and suite drivers.

Frozen oracle values used here:

* the deterministic positivity violation M = [diag(1, .01)], N = [all-units]
  over M_2(C) has symmetrized product [[1, .505], [.505, .01]] with minimum
  eigenvalue (1.01 - sqrt(2.0002)) / 2 = -0.2021421...;
* the cosine addition formula on the Pauli pair (sigma_x, sigma_z) fails by
  exactly sqrt((cos sqrt(2) - cos^2 1)^2 + sin^4 1) = 0.7210132...;
* two classical points x = (0, pi) give the shifted cosine-product matrix
  [[.5, -.5], [-.5, .5]] with spectrum {0, 1}.
"""

import dataclasses
import json
import math
import re
import runpy
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from cstar_schur import (
    AlgebraShape,
    AMatrix,
    AVector,
    DomainError,
    Element,
    GenConfig,
    NumericalError,
    SeriesSpec,
    StructureError,
    check_preserver,
    check_trig_identities,
    commutator_norm,
    counterexample_search,
    diag_matrix,
    elem_cos,
    elem_sin,
    find_nonassociativity,
    find_trig_breakdown,
    flatten,
    identity_element,
    identity_matrix,
    jordan_witness,
    mat_norm,
    novak_check,
    ones_matrix,
    pauli_pair,
    psd_check,
    random_commuting_family,
    random_matrix,
    random_positive_matrix,
    random_selfadjoint_element,
    random_selfadjoint_points,
    run_suite,
    run_suites,
    schur_product,
)
from cstar_schur import generate, suites, verify
from cstar_schur.algebra import DEFAULT_TOL, _first_of, _spectral_norm, _stack, _units
from cstar_schur.generate import STYLES
from cstar_schur.verify import SUITES, counts_as_failure
from conftest import comm_element, scalar_amatrix, as_numpy

SCALAR = AlgebraShape((1,))
M2 = AlgebraShape((2,))

JORDAN_MIN_EIG = (1.01 - np.sqrt(2.0002)) / 2.0
PAULI_COS_GAP = np.sqrt((np.cos(np.sqrt(2.0)) - np.cos(1.0) ** 2) ** 2 + np.sin(1.0) ** 4)


# -- evaluators on a batch of one ---------------------------------------------


def _schur_trial(monkeypatch, M, N):
    """``_trial_schur``'s outcome on the pair (M, N), planted as its one draw."""
    pair = (M._at(None), N._at(None), [0])
    monkeypatch.setattr(suites, "_random_pairs", lambda base, trials, pairs: pair)
    (outcome,) = suites._trial_schur(None, [0], OPTS, None)
    return outcome


def test_schur_positivity_check_commutative(monkeypatch):
    M = scalar_amatrix([[2, 1], [1, 2]])
    margin, witness = _schur_trial(monkeypatch, M, M)
    assert witness is None and margin >= 0


def test_schur_positivity_check_keeps_the_jordan_witness(monkeypatch):
    M, N = jordan_witness(M2)
    margin, witness = _schur_trial(monkeypatch, M, N)
    # the report, not the trial, adds the trial's index and seed
    assert set(witness) == {"m", "n", "product", "psd"}
    lowest = min(witness["psd"]["min_eigenvalue_per_block"])
    assert lowest == pytest.approx(JORDAN_MIN_EIG, abs=1e-12)
    assert margin < 0


def test_row_sum_bound_explicit_instance():
    # A = [[1, 0], [1, 1]]: M = AA* = [[1, 1], [1, 2]], y = (1, 2),
    # M - yy*/2 = [[.5, 0], [0, 0]]
    A = scalar_amatrix([[1, 0], [1, 1]])
    margin, witness, input_positive = suites._row_sum_bounds(A._at(None), DEFAULT_TOL)[0]
    assert witness is None and margin >= -DEFAULT_TOL
    M = as_numpy(A) @ as_numpy(A).conj().T
    y = as_numpy(A).sum(axis=1)
    gap = M - np.outer(y, y.conj()) / 2.0
    assert np.allclose(gap, [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)
    assert input_positive is False  # A itself is not Hermitian


def test_row_sum_bound_never_needs_positive_input(mixed_shape):
    # arbitrary A over a noncommutative shape still satisfies the bound
    for seed in range(10):
        A = random_matrix(GenConfig(seed=seed, shape=mixed_shape, n=3))
        margin, witness, _ = suites._row_sum_bounds(A._at(None), DEFAULT_TOL)[0]
        assert witness is None and margin >= -DEFAULT_TOL, margin


def test_schur_chain_explicit_instance():
    A = scalar_amatrix([[1, 0], [1, 1]])
    B = scalar_amatrix([[1, 1], [0, 1]])
    margin, witness = suites._schur_chains(A._at(None), B._at(None), DEFAULT_TOL)[0]
    assert witness is None and margin >= -DEFAULT_TOL
    # independent oracle with plain numpy
    a, b = as_numpy(A), as_numpy(B)
    m = a @ a.conj().T
    nn = b @ b.conj().T
    c = a * b
    y = c.sum(axis=1)
    gap1 = m * nn - c @ c.conj().T
    gap2 = c @ c.conj().T - np.outer(y, y.conj()) / 2.0
    assert min(np.linalg.eigvalsh(gap1)) >= -1e-12
    assert min(np.linalg.eigvalsh(gap2)) >= -1e-12


def test_schur_chain_rejects_noncommutative(m2_shape):
    _, M = random_positive_matrix(GenConfig(seed=0, shape=m2_shape, n=2))
    with pytest.raises(DomainError):
        suites._schur_chains(M._at(None), M._at(None), DEFAULT_TOL)


def test_diag_bound_real_instance():
    M = scalar_amatrix([[2.0, 1.0], [1.0, 2.0]])
    margin, witness = suites._diag_bounds(M._at(None), DEFAULT_TOL, positive=True)[0]
    assert witness is None and margin >= -DEFAULT_TOL


def test_diag_bound_complex_violation():
    # a genuinely complex positive matrix violating M o M >= diag outer / n:
    # the argument needs entries fixed by the involution
    z = 0.9j
    M = scalar_amatrix([[1.0, z], [np.conj(z), 1.0]])
    assert psd_check(M).is_positive
    margin, witness = suites._diag_bounds(M._at(None), DEFAULT_TOL, positive=True)[0]
    assert witness is not None and margin < -DEFAULT_TOL
    # cross-check with numpy: (M o M) - diag diag*/2 has a negative eigenvalue
    m = as_numpy(M)
    gap = m * m - np.outer(np.diag(m), np.diag(m).conj()) / 2.0
    assert min(np.linalg.eigvalsh((gap + gap.conj().T) / 2)) < -1e-3


def test_unit_diagonal_bound_explicit():
    # real unit-diagonal M: M o M - E_2 / 2 has eigenvalues {.25, .75} at rho=.5
    M = scalar_amatrix([[1.0, 0.5], [0.5, 1.0]])
    margin, witness, _ = suites._unit_diag_checks(M._at(None), DEFAULT_TOL)[0]
    assert witness is None and margin >= -DEFAULT_TOL
    m = as_numpy(M)
    gap = m * m - np.ones((2, 2)) / 2.0
    assert np.allclose(sorted(np.linalg.eigvalsh(gap)), [0.25, 0.75], atol=1e-12)


def test_unit_diagonal_bound_rejects_bad_diagonal():
    M = scalar_amatrix([[2.0, 0.1], [0.1, 1.0]])
    with pytest.raises(DomainError):
        suites._unit_diag_checks(M._at(None), DEFAULT_TOL)


# -- sharpness of Vybíral's constant -------------------------------------------


def _equality_outcomes(shape, n):
    """Check id -> (margin, witness) of each c/n bound that applies over ``shape``,
    at its equality instance of size n: A = B = all-ones, M = I_n."""
    ones = ones_matrix(shape, n)._at(None)
    ident = identity_matrix(shape, n)._at(None)
    outcomes = {"gram_row_sum_bound": suites._row_sum_bounds(ones, DEFAULT_TOL)[0][:2]}
    if shape.is_commutative:
        outcomes["schur_chain_bound"] = suites._schur_chains(ones, ones, DEFAULT_TOL)[0]
        outcomes["diag_outer_bound"] = suites._diag_bounds(ident, DEFAULT_TOL, positive=True)[0]
        outcomes["unit_diagonal_bound"] = suites._unit_diag_checks(ident, DEFAULT_TOL)[0][:2]
    return outcomes


def test_vybiral_constant_is_one():
    assert suites.VYBIRAL_CONSTANT == 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("blocks", [(1,), (1, 1), (2,)])
def test_lower_bounds_are_sharp_at_their_equality_instances(blocks, n, monkeypatch):
    # each bound passes at the constant and fails with it raised by 1e-6, so
    # code with a weaker constant, such as a halved 1/n, fails this test
    for check_id, (margin, witness) in _equality_outcomes(AlgebraShape(blocks), n).items():
        assert witness is None and margin >= -DEFAULT_TOL, check_id
    monkeypatch.setattr(suites, "VYBIRAL_CONSTANT", suites.VYBIRAL_CONSTANT * (1 + 1e-6))
    for check_id, (margin, witness) in _equality_outcomes(AlgebraShape(blocks), n).items():
        assert witness is not None and margin <= -1e-7, check_id


# -- named thresholds, planted on both sides --------------------------------------


def _unit_diag_passes(residual: float) -> bool:
    """Whether the unit-diagonal bound takes the positive 2x2 scalar matrix
    whose first diagonal entry is 1 + ``residual``; a DomainError rejects it."""
    M = scalar_amatrix([[1.0 + residual, 0.5], [0.5, 1.0]])
    try:
        ((margin, witness, details),) = suites._unit_diag_checks(M._at(None), DEFAULT_TOL)
    except DomainError:
        return False
    assert witness is None and margin >= -DEFAULT_TOL
    assert details["diag_residual"] == pytest.approx(residual, rel=1e-6)
    return True


def _spectral_witness(*instance):
    """The commuting spectral check's witness on the one instance (M, N, U, V,
    lam, mu), whose M, N and product are positive, so that only the
    hypothesis can fail."""
    ((margin, witness),) = suites._commuting_spectral(*(v._at(None) for v in instance), DEFAULT_TOL)
    assert margin >= -DEFAULT_TOL
    return witness


def _scalar_vector(*values) -> AVector:
    return AVector.from_elements([comm_element(SCALAR, v) for v in values])


def _scalar_spectral_witness(M: AMatrix, U: AMatrix):
    """The check's witness on the given M and U, with lam = (0.5, 0.3), V = I,
    mu = (0.4, 0.2) and N exactly diag(mu)."""
    N = scalar_amatrix([[0.4, 0.0], [0.0, 0.2]])
    ident = identity_matrix(SCALAR, 2)
    return _spectral_witness(M, N, U, ident, _scalar_vector(0.5, 0.3), _scalar_vector(0.4, 0.2))


def _reconstruction_passes(defect: float) -> bool:
    """Whether the commuting spectral check holds its hypothesis for
    M = U diag(lam) U* + E with U = I, ||E|| = ``defect`` and ||M|| < 1; a
    failed hypothesis leaves a witness, which records the residual."""
    diag = scalar_amatrix([[0.5, 0.0], [0.0, 0.3]])
    M = scalar_amatrix([[0.5, defect], [defect, 0.3]])
    witness = _scalar_spectral_witness(M, identity_matrix(SCALAR, 2))
    residual = mat_norm(M - diag) if witness is None else witness["reconstruction_residual"]
    assert residual == pytest.approx(defect, rel=1e-6)
    return witness is None


def _unitary_passes(residual: float) -> bool:
    """Whether the commuting spectral check holds its hypothesis for U =
    (1 + eps) I with (1 + eps)^2 - 1 = ``residual`` and M exactly diag(lam):
    ||U U* - I|| is the residual, and the reconstruction defect of M about
    half of it, far below its own threshold."""
    U = math.sqrt(1.0 + residual) * identity_matrix(SCALAR, 2)
    M = scalar_amatrix([[0.5, 0.0], [0.0, 0.3]])
    witness = _scalar_spectral_witness(M, U)
    if witness is None:
        unitary = mat_norm(U @ U.adjoint() - identity_matrix(SCALAR, 2))
        recon = mat_norm(M - U @ M @ U.adjoint())
    else:
        unitary, recon = witness["unitary_residual"], witness["reconstruction_residual"]
    assert unitary == pytest.approx(residual, rel=1e-5)
    assert recon == pytest.approx(residual / 2, rel=1e-3)
    return witness is None


def _family_commuting_passes(comm: float) -> bool:
    """Whether the commuting spectral check holds its hypothesis over M_2 at
    n = 1 for U = V = I, lam = (x,) and mu = (y,), x = diag(1, 0) and y =
    [[0.3, comm], [comm, 0.1]]: M = [x] and N = [y] are exact, ||[x, y]|| =
    ``comm`` and ||M||, ||N|| <= 1, so the limit is FAMILY_COMMUTING_TOL."""
    x, y = Element(M2, [np.diag([1.0, 0.0])]), Element(M2, [[[0.3, comm], [comm, 0.1]]])
    ident = identity_matrix(M2, 1)
    M, N = (AMatrix.from_entries([[e]]) for e in (x, y))
    witness = _spectral_witness(M, N, ident, ident, AVector.from_elements([x]), AVector.from_elements([y]))
    residual = commutator_norm(x, y) if witness is None else witness["commutator"]
    assert residual == pytest.approx(comm, rel=1e-6)
    return witness is None


def _planted_commutator(comm: float) -> tuple[Element, Element]:
    """x = diag(1, -1) and y = [[0.3, comm/2], [comm/2, 0.1]] over M_2:
    ||[x, y]|| = ``comm`` and the larger norm is 1."""
    return (
        Element(M2, [np.diag([1.0, -1.0])]),
        Element(M2, [[[0.3, comm / 2], [comm / 2, 0.1]]]),
    )


def _trig_addition_checked(comm: float) -> bool:
    """Whether the trig check takes the addition formulas for the planted pair."""
    x, y = _planted_commutator(comm)
    ((margin, witness, details),) = suites._trig_identities(x._at(None), y._at(None), suites.TRIG_TOL, False)
    assert witness is None and details["commutator"] == pytest.approx(comm, rel=1e-6)
    return details["addition_checked"]


def _novak_points_commute(comm: float) -> bool:
    """Whether the Novak hypothesis takes the planted pair as commuting points;
    a DomainError rejects it."""
    try:
        suites._require_commuting_points(M2, _stack(list(_planted_commutator(comm)))._at(None).blocks)
    except DomainError as exc:
        assert str(exc).startswith("elements do not commute")
        return False
    return True


def _alone_passes(check_id: str, **planted) -> bool:
    """Whether the table entry ``check_id`` passes on one trial over C at n = 2,
    with the named functions of ``suites`` replaced by ``planted``; a failing
    trial must carry its witness."""
    (check,) = [c for c in suites.CHECKS if c.check_id == check_id]
    opts = suites._Options(trials=1, d=2, tol=DEFAULT_TOL, entrywise_constant=False)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in planted.items():
            mp.setattr(suites, name, value)
        rep = check.report(GenConfig(seed=2024, shape=SCALAR, n=2), opts)
    assert rep.trials == 1 and (rep.failures > 0) == (rep.witness is not None)
    return rep.failures == 0


def _novak_diag_passes(residual: float) -> bool:
    """Whether the Novak check passes when diag(M) deviates from the units by ``residual``."""
    return _alone_passes("novak_conjecture", _diag_residual=lambda M: np.full(M.batch[0], residual))


def _cosine_gram_residual_passes(residual: float) -> bool:
    """Whether the cosine-Gram check passes when both probes' Gram residuals are ``residual``."""
    return _alone_passes(
        "cosine_gram", _gram_residuals=lambda A, cos, sin, y: np.full(len(y[0]), residual)
    )


def _trace_form_passes(residual: float) -> bool:
    """Whether the trace-form check passes when the direct route gives 0 and
    the trace route ``residual`` * 1, so that their relative residual is
    ``residual``."""

    def routes(M, N, x):
        return tuple(Element._wrap(M.shape, _units(M.shape, x.batch, v)) for v in (0.0, residual))

    return _alone_passes("schur_trace_form_agreement", schur_quadratic_form_oracle=routes)


def _axioms_passes(residual: float) -> bool:
    """Whether the inner-product axioms check passes when its margin, the
    first worst of its three columns, is -``residual``."""
    return _alone_passes(
        "inner_product_axioms", _first_of=lambda columns, worse: np.full(len(columns[0]), -residual)
    )


@pytest.mark.parametrize(
    "passes, threshold",
    [
        (_unit_diag_passes, 1e-8),
        (_reconstruction_passes, 1e-9),
        (_trig_addition_checked, 1e-10),
        (_novak_points_commute, 1e-10),
        (_unitary_passes, 1e-10),
        (_family_commuting_passes, 1e-12),
        (_novak_diag_passes, 1e-8),
        (_cosine_gram_residual_passes, 1e-10),
        (_trace_form_passes, 1e-10),
        (_axioms_passes, 1e-12),
    ],
    ids=[
        "UNIT_DIAG_TOL", "RECONSTRUCTION_TOL", "COMMUTING_TOL-trig", "COMMUTING_TOL-novak", "UNITARY_TOL",
        "FAMILY_COMMUTING_TOL", "UNIT_DIAG_TOL-novak", "ORACLE_TOL-cosine-gram", "ORACLE_TOL-trace-form",
        "AXIOM_TOL",
    ],
)
def test_named_threshold_holds_from_both_sides(passes, threshold):
    # the threshold is written here, not read from suites, so code with a
    # loosened or tightened constant fails one side
    assert passes(threshold * (1 - 1e-3))
    assert not passes(threshold * (1 + 1e-3))


# -- novak pipeline -----------------------------------------------------------


def test_novak_closed_form_two_points():
    pts = [[comm_element(SCALAR, 0.0)], [comm_element(SCALAR, np.pi)]]
    novak, rep = novak_check(pts)
    assert rep.passed
    eigs = np.linalg.eigvalsh(flatten(novak)[0])
    assert np.allclose(sorted(eigs), [0.0, 1.0], atol=1e-12)
    assert rep.details["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)


def test_novak_equal_points_give_half_ones():
    # x1 = x2 = 0, d = 1: the cosine matrix is E_2, the shifted matrix E_2/2
    pts = [[comm_element(SCALAR, 0.0)], [comm_element(SCALAR, 0.0)]]
    novak, rep = novak_check(pts)
    assert rep.passed
    assert np.allclose(flatten(novak)[0], np.full((2, 2), 0.5), atol=1e-14)


def test_novak_random_commutative_grid():
    from cstar_schur import random_selfadjoint_points

    cfg = GenConfig(seed=77, shape=AlgebraShape((1, 1)), n=4)
    pts = random_selfadjoint_points(cfg, d=3)
    _, rep = novak_check(pts)
    assert rep.passed, rep.details


def test_novak_noncommutative_commuting_points():
    cfg = GenConfig(seed=13, shape=M2, n=3)
    flat = random_commuting_family(cfg, 6, selfadjoint=True, norm_cap=np.pi)
    pts = [flat[0:2], flat[2:4], flat[4:6]]
    _, rep = novak_check(pts)
    assert rep.passed, rep.details


def test_novak_rejects_noncommuting_points():
    x, z = pauli_pair(M2)
    with pytest.raises(DomainError):
        novak_check([[x], [z]])


def test_novak_rejects_ragged_points():
    with pytest.raises(StructureError):
        novak_check([[comm_element(SCALAR, 0.0)], []])


def _cosine_gram(points, tol=DEFAULT_TOL):
    """The cosine-Gram outcome on one set of points, probed from ``default_rng(0xC05)``."""
    stacks = _stack(points)._at(None).blocks
    return suites._cosine_gram(points[0].shape, stacks, tol, [np.random.default_rng(0xC05)])[0]


def test_cosine_gram_scalar_points():
    pts = [comm_element(SCALAR, v) for v in (0.0, 1.0, 2.5, -0.5)]
    margin, witness, details = _cosine_gram(pts)
    assert witness is None and margin >= -DEFAULT_TOL
    assert details["gram_residual"] <= 1e-10


# -- trigonometry -------------------------------------------------------------


def test_trig_identities_commuting_scalars():
    x = comm_element(SCALAR, 0.7)
    y = comm_element(SCALAR, -1.2)
    rep = check_trig_identities(x, y)
    assert rep.passed
    assert rep.details["addition_checked"] is True
    assert all(v <= 1e-12 for v in rep.details["residuals"].values())


def test_trig_identities_skip_addition_for_noncommuting():
    x, z = pauli_pair(M2)
    rep = check_trig_identities(x, z)
    assert rep.passed  # parity/adjoint/pythagorean still hold
    assert rep.details["addition_checked"] is False
    assert "cos_addition" not in rep.details["residuals"]


@pytest.mark.parametrize("pos", [0, 1])
def test_trig_identities_fail_on_a_nan_in_any_block(pos):
    # a NaN in block 1 read as a pass, with every residual 0.0
    values = [0.3, 0.3]
    values[pos] = math.nan
    shape = AlgebraShape((1, 1))
    x = Element(shape, [[[v]] for v in values])
    rep = check_trig_identities(x, Element(shape, [[[0.2]], [[0.1]]]))
    assert not rep.passed and math.isnan(rep.worst_margin)
    assert rep.witness is not None


def test_pauli_breakdown_closed_form():
    x, z = pauli_pair(M2)
    rep = check_trig_identities(x, z, falsify=True)
    assert rep.witness is not None
    gap = rep.witness["cos_addition_residual"]
    assert gap == pytest.approx(PAULI_COS_GAP, abs=1e-12)
    assert gap > 1e-3


def test_find_trig_breakdown_uses_pauli_seed():
    cfg = GenConfig(seed=0, shape=M2, n=1)
    rep = find_trig_breakdown(cfg, trials=0)
    assert rep.witness is not None and rep.witness["trial"] == 0
    assert rep.failures == 0  # expected hit found
    assert -rep.worst_margin == pytest.approx(PAULI_COS_GAP, abs=1e-12)


# -- preserver ----------------------------------------------------------------


def test_preserver_identity_vs_ones_convention():
    shape = AlgebraShape((1,))
    M = scalar_amatrix([[1.0, 0.8], [0.8, 1.0]])
    unit = identity_element(shape)
    series = SeriesSpec((unit, unit, unit))  # 1 + t + t^2
    rep = check_preserver(series, M, report_both=True)
    assert rep.passed
    assert rep.details["ones_convention"]["is_positive"] is True


def test_entrywise_constant_suite_forms_no_all_units_series(monkeypatch):
    # the suite's report carries only the flag, so its trials skip that convention
    calls = []
    sums = suites._series_sums

    def counted(coefficients, M, constant):
        calls.append(constant)
        return sums(coefficients, M, constant)

    monkeypatch.setattr(suites, "_series_sums", counted)
    cfg = GenConfig(seed=2024, shape=AlgebraShape((1, 1)), n=3)
    (rep,) = run_suite("preserver", cfg, trials=5, entrywise_constant=True)
    assert rep.details["entrywise_constant_reported"] is True
    assert calls and "ones" not in calls
    M = scalar_amatrix([[1.0, 0.8], [0.8, 1.0]])
    unit = identity_element(AlgebraShape((1,)))
    check_preserver(SeriesSpec((unit, unit)), M, report_both=True)
    assert calls[-1] == "ones"


def test_preserver_requires_positive_coefficients():
    shape = AlgebraShape((1,))
    M = scalar_amatrix([[1.0]])
    series = SeriesSpec((comm_element(shape, -1.0),))
    with pytest.raises(DomainError):
        check_preserver(series, M)


# -- spectral utilities ---------------------------------------------------------


def test_commuting_spectral_instance_passes():
    for shape in (AlgebraShape((1, 1)), M2, AlgebraShape((2, 1))):
        pair = generate.random_commuting_spectral_pair(GenConfig(seed=5, shape=shape, n=3))
        instance = (v._at(None) for v in pair.values())
        ((margin, witness),) = suites._commuting_spectral(*instance, DEFAULT_TOL)
        assert witness is None and margin >= -DEFAULT_TOL, shape
        for W in (pair["U"], pair["V"]):
            assert mat_norm(W @ W.adjoint() - identity_matrix(shape, 3)) <= 1e-10
        # every pair of the sample the check takes commutes
        U, V, lam, mu = (pair[k] for k in ("U", "V", "lam", "mu"))
        sample = [U.entry(0, 0), V.entry(0, 0), lam[0], mu[0], U.entry(0, 1), V.entry(2, 0), lam[2]]
        for a, b in combinations(sample, 2):
            assert commutator_norm(a, b) <= 1e-12, shape


# -- searches -------------------------------------------------------------------


def test_jordan_witness_closed_form():
    M, N = jordan_witness(M2, n=1)
    P = schur_product(M, N)
    assert np.allclose(flatten(P)[0], [[1.0, 0.505], [0.505, 0.01]], atol=1e-15)
    rep = psd_check(P)
    assert not rep.is_positive
    assert rep.min_eigenvalue == pytest.approx(JORDAN_MIN_EIG, abs=1e-12)
    assert abs(rep.min_eigenvalue - (-0.202)) < 1e-3


def test_jordan_witness_embeds_in_larger_settings():
    # the witness survives embedding into bigger matrices and extra blocks
    for shape, n in ((AlgebraShape((2, 1)), 1), (AlgebraShape((3,)), 2), (M2, 3)):
        M, N = jordan_witness(shape, n=n)
        assert psd_check(M).is_positive and psd_check(N).is_positive
        rep = psd_check(schur_product(M, N))
        assert not rep.is_positive
        assert rep.min_eigenvalue == pytest.approx(JORDAN_MIN_EIG, abs=1e-10)


def test_jordan_witness_needs_matrix_block():
    with pytest.raises(DomainError):
        jordan_witness(AlgebraShape((1, 1)), n=1)


def test_counterexample_search_counts_witness_and_random_hits():
    cfg = GenConfig(seed=2024, shape=M2, n=1)
    rep = counterexample_search(cfg, trials=200)
    assert rep.check_id == "schur_counterexample_search"
    assert rep.trials == 201  # deterministic witness + random trials
    assert rep.failures >= 1
    assert rep.details["violations"][0]["deterministic_witness"] is True
    assert rep.details["random_violations"] >= 1
    assert rep.worst_margin < -1e-6
    # every kept violation is a stub with its substream seed; the witness
    # alone carries the matrices and the certificate
    for v in rep.details["violations"]:
        assert set(v) == STUB_KEYS
    assert {"trial", "seed", "min_eigenvalue", "m", "n", "product", "psd"} <= set(rep.witness)


def test_counterexample_search_stop_on_first():
    cfg = GenConfig(seed=1, shape=M2, n=1)
    rep = counterexample_search(cfg, trials=500, stop_on_first=True)
    assert rep.details["trials_attempted"] == 1  # trial 0 is already a hit
    assert rep.failures == 1


def _reference_search(cfg, trials, stop_on_first=False):
    """The search one trial at a time: every margin and every violation."""
    margins, violations = [], []
    for t in range(trials + 1):
        if t == 0:
            (M, N), seed = verify.jordan_witness(cfg.shape, cfg.n), cfg.seed
        else:
            sub = cfg.derive(t)
            M = random_positive_matrix(sub.derive(0))[1]
            N = random_positive_matrix(sub.derive(1))[1]
            seed = sub.seed
        P = schur_product(M, N)
        rep = psd_check(P)
        margins.append(rep.margin)
        if rep.margin < -verify.VIOLATION_THRESHOLD:
            violations.append({
                "m": M.to_json(),
                "n": N.to_json(),
                "product": P.to_json(),
                "psd": rep.to_json(),
                "trial": t,
                "seed": seed,
                "deterministic_witness": t == 0,
                "min_eigenvalue": rep.min_eigenvalue,
                "margin": rep.margin,
            })
            if stop_on_first:
                break
    return margins, violations


def _search_schedule(cfg, trials):
    """The chunks a search of ``trials`` random trials evaluates."""
    return verify._chunks(range(trials + 1), verify._chunk_size(cfg), search=True)


def _search_margins(cfg, trials):
    """The margins of every trial of a search, a chunk at a time."""
    margins = []
    for chunk in _search_schedule(cfg, trials):
        M, N, _ = verify._pairs(cfg, chunk)
        margins.extend(verify._psd_stack(schur_product(M, N), 1e-9).margins().tolist())
    return margins


STUB_KEYS = {"trial", "seed", "margin", "min_eigenvalue", "deterministic_witness"}


def _stub(record):
    """The keys of a full search record that the report's stubs keep."""
    return {k: record[k] for k in STUB_KEYS}


def _assert_summary_matches(rep, cfg, violations):
    """The search's summary against the per-trial reference: the violating
    trials, the record of each rebuilt alone, the stubs kept, and the witness."""
    by_trial = {v["trial"]: v for v in violations}
    assert rep.details["violation_trials"] == list(by_trial)
    for t, v in by_trial.items():
        assert verify.search_witness(cfg, t) == v
    kept = rep.details["violations"]
    assert all(w == _stub(by_trial[w["trial"]]) for w in kept)
    random = sorted(
        (v for v in violations if v["trial"] > 0), key=lambda v: (v["margin"], v["trial"])
    )
    expected = [v for v in violations if v["trial"] == 0] + random[: verify._TOP_WITNESSES]
    assert [w["trial"] for w in kept] == [v["trial"] for v in expected]
    assert rep.witness == (violations[0] if violations else None)


@pytest.mark.parametrize("stop_on_first", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("shape", ["2", "2,1", "3"])
def test_stacked_search_matches_per_trial_reference(shape, n, stop_on_first, monkeypatch):
    cfg = GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n)
    chunk = verify._CHUNK_ENTRIES // (n * max(cfg.shape.blocks)) ** 2
    trials = chunk + 3  # trial 0 alone, one full chunk, then a chunk of 3
    if stop_on_first:
        # a positive pair in place of the Jordan witness moves the first hit
        # to a random trial inside a chunk (trial 1, 2 or 83 at this seed;
        # none for shape 3 at n = 5, where the search runs to the end)
        ident = identity_matrix(cfg.shape, n)
        monkeypatch.setattr(verify, "jordan_witness", lambda shape, n: (ident, ident))
    margins, violations = _reference_search(cfg, trials, stop_on_first)

    stacked = _search_margins(cfg, trials)
    assert np.array(stacked[: len(margins)]).tobytes() == np.array(margins).tobytes()

    rep = counterexample_search(cfg, trials, stop_on_first=stop_on_first)
    assert rep.details["trials_attempted"] == rep.trials == len(margins)
    _assert_summary_matches(rep, cfg, violations)
    assert rep.failures == len(violations)
    assert np.array(rep.worst_margin).tobytes() == np.array(min(margins)).tobytes()


@pytest.mark.parametrize(
    "style, scale", [("real_commutative", 1.0), ("complex", 0.37), ("real_commutative", 0.37)]
)
@pytest.mark.parametrize("shape", ["2", "2,1"])
def test_stacked_search_matches_per_trial_reference_at_other_styles_and_scales(
    shape, style, scale
):
    cfg = GenConfig(
        seed=2024, shape=AlgebraShape.parse(shape), n=3, entry_scale=scale, style=style
    )
    chunk = verify._CHUNK_ENTRIES // (cfg.n * max(cfg.shape.blocks)) ** 2
    trials = chunk + 3  # trial 0 alone, one full chunk, then a chunk of 3
    margins, violations = _reference_search(cfg, trials)

    stacked = _search_margins(cfg, trials)
    assert np.array(stacked).tobytes() == np.array(margins).tobytes()

    rep = counterexample_search(cfg, trials)
    _assert_summary_matches(rep, cfg, violations)
    assert rep.failures == len(violations)
    assert np.array(rep.worst_margin).tobytes() == np.array(min(margins)).tobytes()


_Z95 = 1.959963984540054


def _wilson_closed_form(k, n, z=_Z95):
    # (k + z^2/2 -+ z sqrt(k (n - k) / n + z^2 / 4)) / (n + z^2)
    half = z * math.sqrt(k * (n - k) / n + z * z / 4)
    return (k + z * z / 2 - half) / (n + z * z), (k + z * z / 2 + half) / (n + z * z)


@pytest.mark.parametrize("k, n", [(0, 10), (10, 10), (475, 1000), (1, 3)])
def test_wilson_interval_matches_closed_form(k, n):
    low, high = verify._wilson_interval(k, n)
    want_low, want_high = _wilson_closed_form(k, n)
    assert low == pytest.approx(want_low, abs=1e-15)
    assert high == pytest.approx(want_high, abs=1e-15)
    assert 0.0 <= low <= k / n <= high <= 1.0


def test_wilson_interval_ends_and_empty():
    z2 = _Z95**2
    assert verify._wilson_interval(0, 10) == (0.0, pytest.approx(z2 / (10 + z2)))
    assert verify._wilson_interval(10, 10) == (pytest.approx(10 / (10 + z2)), 1.0)
    assert verify._wilson_interval(0, 0) == (0.0, 1.0)
    rate = counterexample_search(GenConfig(seed=1, shape=M2, n=2), trials=0).details[
        "violation_rate"
    ]
    assert rate == {"rate": 0.0, "interval": [0.0, 1.0], "confidence": 0.95}


def test_margin_histogram_counts_nan_apart():
    hist = verify._margin_histogram(
        [math.nan, -1.0, -math.inf, -2e-6, -1e-6, 0.0, 5e-7, 1.0, math.inf, math.nan]
    )
    edges = list(verify.MARGIN_BIN_EDGES)
    assert hist["edges"] == edges
    assert hist["nan"] == 2
    assert sum(hist["counts"]) == 8
    counts = dict(enumerate(hist["counts"]))
    zero = edges.index(0.0)
    assert counts[0] == 2  # -1 and -inf: below the first edge
    assert counts[zero - 1] == 1  # -2e-6 in [-1e-5, -1e-6)
    assert counts[zero] == 1  # -1e-6 in [-1e-6, 0): not a violation
    assert counts[zero + 1] == 2  # 0 and 5e-7 in [0, 1e-6)
    assert counts[len(edges)] == 2  # 1 and inf: above the last edge


def test_search_summary_counts_every_trial():
    cfg = GenConfig(seed=2024, shape=M2, n=3)
    rep = counterexample_search(cfg, trials=600)
    d = rep.details
    hist = d["margin_histogram"]
    assert sum(hist["counts"]) + hist["nan"] == d["trials_attempted"] == 601
    below = list(verify.MARGIN_BIN_EDGES).index(-verify.VIOLATION_THRESHOLD) + 1
    assert sum(hist["counts"][:below]) == rep.failures == len(d["violation_trials"])
    assert d["random_violations"] == rep.failures - 1
    rate = d["violation_rate"]
    assert rate["rate"] == d["random_violations"] / 600
    assert rate["interval"] == list(verify._wilson_interval(d["random_violations"], 600))


def test_search_keeps_the_most_negative_witnesses_in_order():
    # n = 3 runs in chunks of 227 trials, so the top 5 is carried across chunks
    cfg = GenConfig(seed=2024, shape=M2, n=3)
    rep = counterexample_search(cfg, trials=600)
    margins = _search_margins(cfg, 600)
    hits = sorted((m, t) for t, m in enumerate(margins) if t > 0 and m < -1e-6)
    kept = rep.details["violations"]
    assert kept[0]["trial"] == 0 and kept[0] == _stub(rep.witness)
    assert [(w["margin"], w["trial"]) for w in kept[1:]] == hits[: verify._TOP_WITNESSES]
    assert len({w["trial"] for w in kept}) == len(kept) == 1 + verify._TOP_WITNESSES


def test_search_breaks_margin_ties_by_trial(monkeypatch):
    # every random trial gets the violating pair of trial 1: equal margins
    real = verify._pairs

    def same_pair(cfg, trials, window=None):
        if trials[0] == 0:
            return real(cfg, [0])
        m, n, seeds = real(cfg, [1])
        count = len(trials)
        m, n = (v._at([0] * count) for v in (m, n))
        return m, n, seeds * count

    monkeypatch.setattr(verify, "_pairs", same_pair)
    rep = counterexample_search(GenConfig(seed=2024, shape=M2, n=2), trials=600)
    assert rep.failures == 601  # trial 0 and the 600 copies; two chunks at n = 2
    assert [w["trial"] for w in rep.details["violations"]] == [0, 1, 2, 3, 4, 5]


def test_search_stop_on_first_is_a_one_trial_summary():
    rep = counterexample_search(GenConfig(seed=1, shape=M2, n=2), trials=500, stop_on_first=True)
    d = rep.details
    assert d["violation_trials"] == [0]
    assert [w["trial"] for w in d["violations"]] == [0]
    assert d["violations"] == [_stub(rep.witness)]
    assert sum(d["margin_histogram"]["counts"]) == d["trials_attempted"] == 1
    assert d["violation_rate"]["interval"] == [0.0, 1.0]


def test_search_witnesses_in_stacks_match_each_alone():
    # more violations than one chunk holds: the rebuild runs in several stacks
    cfg = GenConfig(seed=2024, shape=M2, n=2)
    trials = counterexample_search(cfg, trials=1200).details["violation_trials"]
    assert trials[0] == 0 and len(trials) > 1 + verify._chunk_size(cfg)
    records = list(verify._search_witnesses(cfg, trials))
    assert [w["trial"] for w in records] == trials
    for t in (trials[0], trials[1], trials[1 + verify._chunk_size(cfg)], trials[-1]):
        assert records[trials.index(t)] == verify.search_witness(cfg, t)


def test_search_encodes_only_the_records_it_keeps(monkeypatch):
    # the chunks build stubs; only the witness's record is built, at the end
    from cstar_schur.cli import _canonical_json

    calls = []
    to_json = AMatrix.to_json

    def counted(self):
        calls.append(self)
        return to_json(self)

    for n in (2, 3):
        cfg = GenConfig(seed=2024, shape=M2, n=n)
        monkeypatch.setattr(AMatrix, "to_json", counted)
        rep = counterexample_search(cfg, trials=1000)
        monkeypatch.setattr(AMatrix, "to_json", to_json)
        kept = rep.details["violations"]
        assert len(kept) == 1 + verify._TOP_WITNESSES
        # the witness's three matrices; the stubs encode none
        assert len(calls) == 3
        calls.clear()
        # the records a search built from its chunks as it read them
        trials = {w["trial"] for w in kept}
        from_chunks = {}
        for chunk in _search_schedule(cfg, 1000):
            first, (M, N, seeds) = chunk[0], verify._pairs(cfg, chunk)
            product = schur_product(M, N)
            verdicts = verify._psd_stack(product, 1e-9)
            for i in range(len(seeds)):
                if first + i in trials:
                    from_chunks[first + i] = verify._search_record(
                        first + i, i, seeds[i], M, N, product, verdicts
                    )
        expected = [_stub(from_chunks[w["trial"]]) for w in kept]
        assert _canonical_json(kept) == _canonical_json(expected)
        assert _canonical_json(rep.witness) == _canonical_json(from_chunks[0])


@pytest.mark.parametrize("stop_on_first", [False, True])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shape", ["2", "2,1"])
def test_search_stubs_equal_the_records_rebuilt_alone(shape, n, stop_on_first, monkeypatch):
    cfg = GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n)
    if stop_on_first:
        # a positive pair in place of the Jordan witness: the search stops at
        # a random trial inside a growing chunk
        ident = identity_matrix(cfg.shape, n)
        monkeypatch.setattr(verify, "jordan_witness", lambda shape, n: (ident, ident))
    rep = counterexample_search(cfg, verify._chunk_size(cfg) + 3, stop_on_first=stop_on_first)
    d = rep.details
    assert len(d["violations"]) == (1 if stop_on_first else 1 + verify._TOP_WITNESSES)
    for stub in d["violations"]:
        assert set(stub) == STUB_KEYS
        record = verify.search_witness(cfg, stub["trial"])
        for key in STUB_KEYS:
            assert np.array(stub[key]).tobytes() == np.array(record[key]).tobytes(), key
    assert rep.witness == verify.search_witness(cfg, d["violation_trials"][0])


def _plant_search_pairs(monkeypatch, products):
    """Random trial t of a search over M_2 at n = 1 draws M = 1 and N =
    products[t - 1], a 2x2 array, with its real seed; the symmetrized product
    of the pair is N. ``search_witness`` draws the same pairs."""
    def amatrix(block):
        return AMatrix(M2, [np.asarray(block, dtype=complex).reshape(1, 1, 2, 2)])

    ident, planted = amatrix(np.eye(2)), [amatrix(p) for p in products]

    def pairs(cfg, trials, streams=None):
        seeds = [cfg.derive(t).seed for t in trials]
        return _stack([ident] * len(trials)), _stack([planted[t - 1] for t in trials]), seeds

    monkeypatch.setattr(verify, "_random_pairs", pairs)


def _assert_stubs_are_the_records(rep, cfg):
    for stub in rep.details["violations"]:
        assert set(stub) == STUB_KEYS
        record = verify.search_witness(cfg, stub["trial"])
        for key in STUB_KEYS:
            assert np.array(stub[key]).tobytes() == np.array(record[key]).tobytes(), key


def test_search_counts_violations_strictly_beyond_the_threshold(monkeypatch):
    # N = diag(1, -c * VIOLATION_THRESHOLD) has scale 1, so its margin is
    # -c * VIOLATION_THRESHOLD: c = 1 sits on the line, which is not crossed,
    # and c = 0.1 fails the oracle at tol 1e-9 without counting
    cs = [1e3, 10.0, 1.0, 0.1, -0.1]
    line = verify.VIOLATION_THRESHOLD
    _plant_search_pairs(monkeypatch, [np.diag([1.0, -c * line]) for c in cs])
    cfg = GenConfig(seed=2024, shape=M2, n=1)
    rep = counterexample_search(cfg, len(cs))
    d = rep.details
    assert _search_margins(cfg, len(cs))[1:] == [-c * line for c in cs]
    assert d["violation_trials"] == [0, 1, 2]
    assert (rep.failures, d["random_violations"]) == (3, 2)
    assert [w["trial"] for w in d["violations"]] == [0, 1, 2]
    _assert_stubs_are_the_records(rep, cfg)
    assert verify.search_witness(cfg, 4)["psd"]["is_positive"] is False
    assert verify.search_witness(cfg, 5)["psd"]["is_positive"] is True


def test_search_stub_of_a_product_that_is_not_self_adjoint(monkeypatch):
    from cstar_schur.amatrix import PsdReport

    # [[1, 1], [0, 1]] has Hermitian defect 1, far past the cut, so the oracle
    # reports no eigenvalue; it shares its chunk with a self-adjoint violation
    _plant_search_pairs(monkeypatch, [[[1, 1], [0, 1]], np.diag([1.0, -0.5])])
    cfg = GenConfig(seed=2024, shape=M2, n=1)
    rep = counterexample_search(cfg, 2)
    assert rep.details["violation_trials"] == [0, 1, 2]
    _assert_stubs_are_the_records(rep, cfg)
    stub = rep.details["violations"][1]
    psd = PsdReport.from_json(verify.search_witness(cfg, 1)["psd"])
    assert stub["trial"] == 1 and stub["min_eigenvalue"] is None
    assert psd.min_eigenvalue_per_block == () and psd.hermitian_defect > psd.tol_used
    margin = -psd.hermitian_defect / max(1.0, psd.scale)
    assert np.array(stub["margin"]).tobytes() == np.array(margin).tobytes()
    expected = verify._search_stub(1, stub["seed"], psd.margin, psd.min_eigenvalue)
    assert stub == {**expected, "trial": 1}
    assert rep.details["violations"][2]["min_eigenvalue"] == -0.5


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("style", STYLES)
def test_search_draws_equal_each_pair_drawn_alone(style, scale):
    # n = 3 over (2, 1) runs in chunks of 227 trials, so the range crosses a chunk boundary
    cfg = GenConfig(seed=2024, shape=AlgebraShape((2, 1)), n=3, entry_scale=scale, style=style)
    size = verify._chunk_size(cfg)
    trials = range(size - 2, size + 3)
    chunks = [range(size - 2, size + 1), range(size + 1, size + 3)]
    for group in [trials, *chunks]:
        M, N, seeds = verify._pairs(cfg, group)
        for i, t in enumerate(group):
            sub = cfg.derive(t)
            assert seeds[i] == sub.seed
            pairs = (random_positive_matrix(sub.derive(j)) for j in (0, 1))
            for stacks, (_, alone) in zip((M.blocks, N.blocks), pairs):
                for stack, block in zip(stacks, alone.blocks):
                    assert stack[i].tobytes() == block.tobytes()


def test_search_witness_rejects_negative_trial():
    with pytest.raises(StructureError):
        verify.search_witness(GenConfig(seed=1, shape=M2, n=2), -1)


def test_counterexample_search_rejects_commutative():
    with pytest.raises(DomainError):
        counterexample_search(GenConfig(seed=0, shape=SCALAR, n=2), trials=1)


def test_nonassociativity_witness_found_quickly():
    cfg = GenConfig(seed=42, shape=M2, n=2)
    rep = find_nonassociativity(cfg, trials=1000)
    assert rep.failures == 0 and rep.witness is not None
    assert rep.witness["defect"] > 1e-6
    # recompute the defect from the stored witness matrices
    A = AMatrix.from_json(rep.witness["a"])
    B = AMatrix.from_json(rep.witness["b"])
    C = AMatrix.from_json(rep.witness["c"])
    defect = mat_norm(
        schur_product(schur_product(A, B), C) - schur_product(A, schur_product(B, C))
    )
    assert defect == pytest.approx(rep.witness["defect"], rel=1e-12)


def test_hit_searches_without_trials():
    cfg = GenConfig(seed=3, shape=M2, n=2)
    rep = find_nonassociativity(cfg, 0)
    assert (rep.trials, rep.failures, rep.worst_margin, rep.witness) == (0, 1, 0.0, None)
    rep = find_trig_breakdown(cfg, 0)
    assert (rep.trials, rep.failures, rep.witness["trial"]) == (1, 0, 0)


def _search_evaluator(monkeypatch, search, *args):
    """The chunk evaluator the hit search ``search(*args)`` hands to ``_run_trials``."""
    evaluators = []
    run = suites._run_trials

    def spy(evaluate, *args, **kwargs):
        evaluators.append(evaluate)
        return run(evaluate, *args, **kwargs)

    monkeypatch.setattr(suites, "_run_trials", spy)
    search(*args)
    monkeypatch.setattr(suites, "_run_trials", run)
    return evaluators[0]


def _schedule_outcomes(evaluate, count, cfg):
    """The outcomes of trials 0 .. count - 1, evaluated in a search's chunks."""
    return [outcome for chunk in _search_schedule(cfg, count - 1) for outcome in evaluate(chunk)]


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _nonassociativity_alone(cfg, t):
    """Trial t of ``find_nonassociativity`` drawn and evaluated alone, with its witness."""
    sub = cfg.derive(t)
    A, B, C = (random_matrix(sub.derive(i)) for i in range(3))
    defect = mat_norm(
        schur_product(schur_product(A, B), C) - schur_product(A, schur_product(B, C))
    )
    witness = {"seed": sub.seed, "defect": defect}
    return -defect, {**witness, "a": A.to_json(), "b": B.to_json(), "c": C.to_json()}


def _breakdown_alone(cfg, t):
    """Trial t of ``find_trig_breakdown`` drawn alone: (x, y) and the residual of
    the cosine addition formula, from ``elem_sin`` and ``elem_cos``."""
    if t == 0:
        x, y = pauli_pair(cfg.shape)
    else:
        sub = cfg.derive(t)
        x, y = (random_selfadjoint_element(sub.derive(i), norm_cap=5.0) for i in range(2))
    gap = (elem_cos(x + y) - (elem_cos(x) * elem_cos(y) - elem_sin(x) * elem_sin(y))).norm()
    return x, y, gap


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("shape", ["2", "2,1"])
def test_nonassociativity_search_matches_each_trial_alone(shape, style, monkeypatch):
    # n = 8 runs in chunks of 32 trials: trial 0 alone, then 1..32 and 33..39
    cfg = GenConfig(seed=7, shape=AlgebraShape.parse(shape), n=8, style=style)
    count = verify._chunk_size(cfg) + 8
    alone = [_nonassociativity_alone(cfg, t) for t in range(count)]
    rep = find_nonassociativity(cfg, count, threshold=math.inf)
    assert (rep.trials, rep.failures, rep.witness) == (count, 1, None)
    assert _bits(rep.worst_margin) == _bits(min(m for m, _ in alone))
    evaluate = _search_evaluator(monkeypatch, find_nonassociativity, cfg, 1, math.inf)
    chunked = _schedule_outcomes(evaluate, count, cfg)
    assert _bits([m for m, _ in chunked]) == _bits([m for m, _ in alone])
    assert all(w is None for _, w in chunked)
    # a threshold below every defect: a chunk's outcomes end at its first witness
    evaluate = _search_evaluator(monkeypatch, find_nonassociativity, cfg, 1, -math.inf)
    for t in (0, 1, count - 1):
        assert evaluate(range(t, count)) == [alone[t]]


@pytest.mark.parametrize("shape", ["2", "2,1"])
def test_breakdown_search_matches_each_trial_alone(shape, monkeypatch):
    cfg = GenConfig(seed=7, shape=AlgebraShape.parse(shape), n=8)
    count = verify._chunk_size(cfg) + 8
    alone = [_breakdown_alone(cfg, t) for t in range(count)]
    monkeypatch.setattr(suites, "BREAKDOWN_THRESHOLD", math.inf)
    rep = find_trig_breakdown(cfg, count - 1)
    assert (rep.trials, rep.failures, rep.witness) == (count, 1, None)
    assert _bits(rep.worst_margin) == _bits(-max(gap for *_, gap in alone))
    monkeypatch.setattr(suites, "BREAKDOWN_THRESHOLD", -math.inf)
    evaluate = _search_evaluator(monkeypatch, find_trig_breakdown, cfg, 0)
    chunked = _schedule_outcomes(evaluate, count, cfg)
    assert _bits([m for m, *_ in chunked]) == _bits([-gap for *_, gap in alone])
    for (x, y, gap), (_, witness, details) in zip(alone, chunked):
        assert witness == {"x": x.to_json(), "y": y.to_json(), "cos_addition_residual": gap}
    # the details are those of the trial evaluated alone, as the search did trial by trial
    per_trial = [
        suites._trig_identities(x._at(None), y._at(None), suites.TRIG_TOL, True)[0]
        for x, y, _ in alone
    ]
    assert chunked == per_trial


def _poison_trial(monkeypatch, module, name, bad):
    """Replace ``module.<name>`` (a chunk form a hit search draws with, or
    ``verify._pairs``) by a draw in which every instance of trial ``bad`` holds NaN
    entries, so any chunk holding it raises. A chunk form is handed the rows of its
    trials, which are those last asked of the search's window."""
    real = getattr(module, name)
    asked = []

    class Window(verify._Window):
        def __call__(self, trials):
            asked[:] = [list(trials)]
            return super().__call__(trials)

    monkeypatch.setattr(suites, "_Window", Window)

    def poisoned(cfg, drawn_from, *args, **kwargs):
        drawn = real(cfg, drawn_from, *args, **kwargs)
        trials = asked[0] if isinstance(drawn_from, generate._Streams) else drawn_from
        first = drawn[0] if isinstance(drawn, tuple) else drawn
        per = len(first.blocks[0]) // len(trials)
        blocks = [b.copy() for b in first.blocks]
        for i, t in enumerate(trials):
            if t == bad:
                blocks[0][i * per : (i + 1) * per] = np.nan
        value = first._like(tuple(blocks))
        return (value, *drawn[1:]) if isinstance(drawn, tuple) else value

    monkeypatch.setattr(module, name, poisoned)


def _stopping_rule(monkeypatch, module, name, search, error):
    """``search()`` with its first witness at a trial k >= 2 inside a chunk: a trial
    poisoned after k leaves the report as it was, one poisoned before k raises
    ``error``, the error that trial raises alone."""
    clean = search()
    k = clean.witness["trial"]
    assert 2 <= k < verify._chunk_size(GenConfig(seed=0, shape=M2, n=2))
    _poison_trial(monkeypatch, module, name, k + 1)
    assert search().to_json() == clean.to_json()
    monkeypatch.undo()
    _poison_trial(monkeypatch, module, name, k - 1)
    with pytest.raises(NumericalError, match=error):
        search()
    monkeypatch.undo()


def test_hit_searches_stop_at_a_witness_before_a_raising_trial(monkeypatch):
    # both first witnesses are trial 3 at this seed
    cfg = GenConfig(seed=7, shape=M2, n=2)
    defects = [-_nonassociativity_alone(cfg, t)[0] for t in range(3)]

    def nonassociativity():
        # trials 0, 1 and 2 miss; the first defect above theirs is the witness
        return find_nonassociativity(cfg, 40, threshold=max(defects))

    assert nonassociativity().witness == {**_nonassociativity_alone(cfg, 3)[1], "trial": 3}
    _stopping_rule(monkeypatch, suites, "_gaussian_stack", nonassociativity, "NaN entries")
    gaps = [_breakdown_alone(cfg, t)[2] for t in range(3)]

    def breakdown():
        # the Pauli pair of trial 0 misses too
        monkeypatch.setattr(suites, "BREAKDOWN_THRESHOLD", max(gaps))
        return find_trig_breakdown(cfg, 40)

    _stopping_rule(monkeypatch, suites, "_selfadjoint_stack", breakdown, "NaN entries")


def test_counterexample_search_stops_at_a_violation_before_a_raising_trial(monkeypatch):
    # the first random violation is trial 2 at this seed
    cfg = GenConfig(seed=2021, shape=M2, n=2)
    ident = identity_matrix(M2, 2)

    def search():
        # a positive pair in place of the Jordan witness moves the first hit to a random trial
        monkeypatch.setattr(verify, "jordan_witness", lambda shape, n: (ident, ident))
        return counterexample_search(cfg, 40, stop_on_first=True)

    _stopping_rule(monkeypatch, verify, "_pairs", search, "^non-finite entries on block 0$")


def _window_runs(cfg, monkeypatch) -> str:
    """The canonical JSON of the searches that draw through windows: both
    counterexample searches, witnesses on both sides of the edges of 3-trial
    windows, and both hit searches, stopping at their first hit and run to
    their end."""
    from cstar_schur.cli import _canonical_json

    trials = 40  # a chunk of 32 trials at n = 8, so both edges meet windows of 3
    reports = [
        counterexample_search(cfg, trials),
        counterexample_search(cfg, trials, stop_on_first=True),
        find_nonassociativity(cfg, trials),
        find_nonassociativity(cfg, trials, threshold=math.inf),
        find_trig_breakdown(cfg, trials),
    ]
    threshold = suites.BREAKDOWN_THRESHOLD
    monkeypatch.setattr(suites, "BREAKDOWN_THRESHOLD", math.inf)
    reports.append(find_trig_breakdown(cfg, trials))
    monkeypatch.setattr(suites, "BREAKDOWN_THRESHOLD", threshold)
    witnesses = [0, 2, 3, 4, 5, 9, 33]
    records = [*verify._search_witnesses(cfg, witnesses), verify.search_witness(cfg, 3)]
    return _canonical_json([[r.to_json() for r in reports], records])


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("shape", ["2", "2,1"])
def test_search_windows_move_no_report_byte(shape, n, style, monkeypatch):
    cfg = GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n, style=style)
    runs = []
    for window in (1, 3):
        monkeypatch.setattr(verify, "_WINDOW_TRIALS", window)
        runs.append(_window_runs(cfg, monkeypatch))
    assert runs[1] == runs[0]


def test_search_hashes_its_streams_once_per_window(monkeypatch):
    # 63 hashes while each chunk of 32 trials hashed its own 64 seeds
    sizes = []
    init = generate._Streams.__init__

    def counted(self, seeds):
        sizes.append(np.size(seeds))
        init(self, seeds)

    monkeypatch.setattr(generate._Streams, "__init__", counted)
    counterexample_search(GenConfig(seed=2024, shape=M2, n=8), 2000)
    assert len(sizes) <= math.ceil(2000 / verify._WINDOW_TRIALS) + 1
    assert sum(sizes) == 2 * 2000


@pytest.mark.parametrize("window", [5, 32, None])
def test_search_holds_at_most_one_window_of_states(window, monkeypatch):
    window = window or verify._WINDOW_TRIALS
    monkeypatch.setattr(verify, "_WINDOW_TRIALS", window)
    held = []
    streams = verify._streams

    def counted(cfg, trials, *indices):
        held.append(len(trials))
        return streams(cfg, trials, *indices)

    monkeypatch.setattr(verify, "_streams", counted)
    for n, trials in [(8, 3), (8, 5), (8, 70), (2, 1200)]:
        cfg = GenConfig(seed=7, shape=M2, n=n)
        held.clear()
        rep = counterexample_search(cfg, trials)
        assert max(held) <= window and sum(held) == trials
        # the records of every violating trial, as --witness-dir writes them
        held.clear()
        violations = rep.details["violation_trials"]
        assert len(list(verify._search_witnesses(cfg, violations))) == rep.failures
        assert max(held, default=0) <= window


def test_nonassociativity_rejects_commutative():
    with pytest.raises(DomainError):
        find_nonassociativity(GenConfig(seed=0, shape=SCALAR, n=2), trials=1)


# -- suites ---------------------------------------------------------------------


def test_run_suite_unknown_name():
    cfg = GenConfig(seed=0, shape=SCALAR, n=2)
    # "all" names every suite in run_suites only: run_suite runs one suite
    for name in ("bogus", "all"):
        with pytest.raises(StructureError, match=re.escape(f"{name!r}; choose from {SUITES}")):
            run_suite(name, cfg)
    every = [r.check_id for name in SUITES for r in run_suite(name, cfg, trials=0)]
    assert [r.check_id for r in run_suites("all", cfg, trials=0)] == every


def test_run_suite_rejects_negative_trials():
    with pytest.raises(StructureError, match="trials must be >= 0, got -1"):
        run_suite("trig", GenConfig(seed=0, shape=SCALAR, n=2), trials=-1)


def test_all_suites_pass_commutative():
    cfg = GenConfig(seed=99, shape=AlgebraShape((1, 1)), n=3)
    reports = run_suites("all", cfg, trials=20, d=2)
    assert not any(counts_as_failure(r) for r in reports)
    ids = [r.check_id for r in reports]
    assert "schur_product_positive" in ids
    assert "schur_chain_bound" in ids
    assert "diag_outer_bound_complex_probe" in ids  # probe present, not a failure


def test_suites_skip_commutative_only_checks_on_noncommutative_shapes():
    cfg = GenConfig(seed=99, shape=AlgebraShape((2, 1)), n=2)
    reports = run_suites(("lowerbound", "corollaries", "preserver"), cfg, trials=5)
    skipped = {r.check_id for r in reports if "skipped" in r.details}
    assert skipped == {
        "schur_chain_bound",
        "diag_outer_bound",
        "unit_diagonal_bound",
        "schur_series_preserver",
    }
    assert not any(counts_as_failure(r) for r in reports)


def test_schur_suite_probes_open_question_on_noncommutative_shapes():
    cfg = GenConfig(seed=7, shape=M2, n=1)
    reports = run_suite("schur", cfg, trials=30)
    probe = next(r for r in reports if r.check_id == "schur_product_probe")
    assert probe.details["probe"] is True
    assert probe.failures > 0  # violations are common at this size
    assert not counts_as_failure(probe)


def test_suite_reports_are_thread_deterministic():
    cfg = GenConfig(seed=5, shape=AlgebraShape((1, 1)), n=3)
    a = run_suites("all", cfg, trials=15, d=2, threads=1)
    b = run_suites("all", cfg, trials=15, d=2, threads=4)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_report_json_excludes_timing():
    cfg = GenConfig(seed=5, shape=SCALAR, n=2)
    rep = run_suite("module", cfg, trials=3)[0]
    data = rep.to_json()
    assert "elapsed" not in data
    json.dumps(data)  # canonical payloads must be plain-JSON serializable


def test_zero_trials_report_margin_checks_as_not_run():
    cfg = GenConfig(seed=3, shape=M2, n=2)
    module = run_suite("module", cfg, trials=0)
    assert [(r.check_id, r.trials, r.details) for r in module] == [
        ("cauchy_schwarz_gap", 0, {"skipped": "no trials requested"}),
        ("inner_product_axioms", 0, {"skipped": "no trials requested"}),
    ]
    # the hit searches keep their own trial counts: the Pauli pair is trial 0
    trig = {r.check_id: r for r in run_suite("trig", cfg, trials=0)}
    assert trig["trig_identities"].details == {"skipped": "no trials requested"}
    assert trig["trig_addition_breakdown"].trials == 1
    assert trig["trig_addition_breakdown"].failures == 0


def test_suite_catalog_is_stable():
    assert SUITES == (
        "schur",
        "lowerbound",
        "corollaries",
        "novak",
        "trig",
        "preserver",
        "module",
    )


# -- the check table ------------------------------------------------------------

# (check_id, skipped, probe) of every report in order, at any seed and trials
COMMUTATIVE_CATALOGUE = [
    ("schur_product_positive", False, None),
    ("commuting_spectral_schur", False, None),
    ("schur_trace_form_agreement", False, None),
    ("psd_oracle_agreement", False, None),
    ("schur_nonassociativity", False, None),
    ("gram_row_sum_bound", False, None),
    ("schur_chain_bound", False, None),
    ("diag_outer_bound", False, None),
    ("unit_diagonal_bound", False, None),
    ("diag_outer_bound_complex_probe", False, True),
    ("novak_conjecture", False, None),
    ("cosine_gram", False, None),
    ("trig_identities", False, None),
    ("trig_addition_breakdown", False, None),
    ("schur_series_preserver", False, None),
    ("cauchy_schwarz_gap", False, None),
    ("inner_product_axioms", False, None),
]
NONCOMMUTATIVE_CATALOGUE = [
    ("schur_product_probe", False, True),
    ("commuting_spectral_schur", False, None),
    ("psd_oracle_agreement", False, None),
    ("schur_nonassociativity", False, None),
    ("gram_row_sum_bound", False, None),
    ("schur_chain_bound", True, None),
    ("diag_outer_bound", True, None),
    ("unit_diagonal_bound", True, None),
    ("novak_conjecture", False, None),
    ("cosine_gram", False, None),
    ("trig_identities", False, None),
    ("trig_addition_breakdown", False, None),
    ("schur_series_preserver", True, None),
    ("cauchy_schwarz_gap", False, None),
    ("inner_product_axioms", False, None),
]
GRID_CATALOGUES = {
    ("1", 6): COMMUTATIVE_CATALOGUE,
    ("1,1", 4): COMMUTATIVE_CATALOGUE,
    ("1,1,1,1", 3): COMMUTATIVE_CATALOGUE,
    ("2", 2): NONCOMMUTATIVE_CATALOGUE,
    ("2,1", 2): NONCOMMUTATIVE_CATALOGUE,
    ("3", 2): NONCOMMUTATIVE_CATALOGUE,
    ("2,2", 2): NONCOMMUTATIVE_CATALOGUE,
}


def test_grid_catalogue_is_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_verification_suites.py"
    grid = runpy.run_path(str(script))["GRID"]
    assert sorted(grid) == sorted(GRID_CATALOGUES)
    for shape_text, n in grid:
        cfg = GenConfig(seed=2024, shape=AlgebraShape.parse(shape_text), n=n)
        reports = run_suites("all", cfg, trials=1)
        got = [
            (r.check_id, "skipped" in r.details, r.details.get("probe")) for r in reports
        ]
        assert got == GRID_CATALOGUES[(shape_text, n)], (shape_text, n)


@pytest.mark.parametrize("nan_at", [0, 4])
def test_worst_margin_is_nan_wherever_a_trial_is_nan(nan_at):
    def trial(base, trials, opts):
        return [(math.nan if t == nan_at else -1.0, None) for t in trials]

    check = suites.Check("nan_margins", "none", trial)
    opts = suites._Options(trials=5, d=2, tol=1e-9, entrywise_constant=False)
    rep = check.report(GenConfig(seed=0, shape=SCALAR, n=2), opts)
    assert math.isnan(rep.worst_margin)
    assert rep.failures == 5


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_verification_suites.py", ["--trials", "0"]),
        ("probe_identities.py", ["--trials", "0"]),
    ],
)
def test_scripts_take_no_threads_flag(name, argv, monkeypatch):
    # trials run sequentially, so the library only validates a thread count
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    monkeypatch.setattr(sys, "argv", [name, *argv, "--threads", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2


def _run_script(name, argv, monkeypatch) -> int:
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    return exc.value.code


def test_golden_compare_counts_reordered_kept_witnesses(tmp_path):
    # last bits may move in a margin, but the kept witnesses may not reorder
    script = Path(__file__).resolve().parents[1] / "scripts" / "golden_reports.py"
    compare = runpy.run_path(str(script))["compare"]
    rep = counterexample_search(GenConfig(seed=2024, shape=M2, n=2), trials=300)
    text = json.dumps({"reports": [rep.to_json()]})
    shifted, moved = json.loads(text), json.loads(text)
    kept = shifted["reports"][0]["details"]["violations"]
    kept[1]["margin"] = float(np.nextafter(kept[1]["margin"], 0.0))
    kept = moved["reports"][0]["details"]["violations"]
    kept[1], kept[2] = kept[2], kept[1]
    for d in ("new", "ref"):
        (tmp_path / d).mkdir()
    for name, ref in [("shifted.json", shifted), ("moved.json", moved)]:
        (tmp_path / "new" / name).write_text(text)
        (tmp_path / "ref" / name).write_text(json.dumps(ref))
    assert compare(tmp_path / "new", tmp_path / "ref", ["shifted.json"]) == 0
    assert compare(tmp_path / "new", tmp_path / "ref", ["moved.json"]) == 1


def test_probe_script_reads_the_corollaries_suite(monkeypatch, capsys):
    argv = ["--trials", "5", "--seed", "3"]
    assert _run_script("probe_identities.py", argv, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    cfg = GenConfig(seed=3, shape=AlgebraShape((1, 1)), n=4)
    reports = {r.check_id: r for r in run_suite("corollaries", cfg, trials=5)}
    probe = reports["diag_outer_bound_complex_probe"]
    assert lines[0].startswith("diag bound, style=complex")
    assert f": {probe.failures}/5 violations, worst margin {probe.worst_margin:+.3e}" in lines[0]
    assert f"worst margin {reports['diag_outer_bound'].worst_margin:+.3e}" in lines[1]
    # the smallest margins of positive series, not a floor at zero
    assert "+0.000e+00" not in lines[2]


def test_suite_grid_script_passes(monkeypatch, capsys):
    assert _run_script("run_verification_suites.py", ["--trials", "2"], monkeypatch) == 0
    out = capsys.readouterr().out
    assert out.count("checks: ") == len(GRID_CATALOGUES)
    assert " 0 failed," in out


# -- stacked trials ---------------------------------------------------------------

GRID = list(GRID_CATALOGUES)
OPTS = suites._Options(trials=10, d=2, tol=1e-9, entrywise_constant=False)


def _margin_checks_on_the_grid():
    for shape, n in GRID:
        cfg = GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n)
        for c in suites.CHECKS:
            if c.run is suites._margin_report and c.applies(cfg, OPTS):
                yield pytest.param(c, cfg, id=f"{c.check_id}-{shape}-{n}")


@pytest.mark.parametrize("check, cfg", _margin_checks_on_the_grid())
def test_stacked_trials_equal_each_trial_alone(check, cfg):
    base = check.base(cfg)

    def draw(trials):
        return check.trial(base, trials, OPTS)

    alone = []
    for t in range(OPTS.trials):
        margin, witness, *_ = draw(range(t, t + 1))[0]
        alone.append((margin, None if witness is None else {**witness, "trial": t}))
    for size in (verify._chunk_size(base), 4):
        stacked = [o[:2] for o in verify._run_trials(draw, OPTS.trials, size)]
        assert stacked == alone


def test_suite_grid_certifies_in_few_oracle_calls(monkeypatch):
    from cstar_schur import algebra, amatrix

    calls = []
    verdict = algebra._psd_verdict

    def counted(flats, tol):
        calls.append(len(flats[0]))
        return verdict(flats, tol)

    monkeypatch.setattr(algebra, "_psd_verdict", counted)
    monkeypatch.setattr(amatrix, "_psd_verdict", counted)
    for shape, n in GRID:
        run_suites("all", GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n), trials=10)
    # one call per check chunk and group of equal block shapes, the Novak and
    # cosine-Gram hypotheses included (88 calls; 214 with those per trial,
    # 2 036 unstacked)
    assert len(calls) <= 95


# -- norm bounds: the gates that read them against exact norms -----------------


def _reference_spectral(M, N, U, V, lam, mu, tol: float) -> list[tuple]:
    """``suites._commuting_spectral`` with the exact norm of every residual of
    every member, all taken before the oracle runs."""
    n = M.n
    ident = identity_matrix(M.shape, n)
    unitary = _first_of([mat_norm(W @ W.adjoint() - ident) for W in (U, V)], np.greater)
    (defect_m, norm_m), (defect_n, norm_n) = (
        (mat_norm(X - W @ diag_matrix(d) @ W.adjoint()), mat_norm(X))
        for X, W, d in ((M, U, lam), (N, V, mu))
    )
    recon = _first_of([defect_m / np.fmax(norm_m, 1.0), defect_n / np.fmax(norm_n, 1.0)], np.greater)
    sample = [U.entry(0, 0), V.entry(0, 0), lam[0], mu[0]]
    if n > 1:
        sample += [U.entry(0, 1), V.entry(n - 1, 0), lam[n - 1]]
    points = _stack(sample, 1)
    x, y = (points._at(np.s_[:, list(ends)]) for ends in zip(*combinations(range(len(sample)), 2)))
    comms = _first_of(list(commutator_norm(x, y).T), np.greater)
    bound = suites.FAMILY_COMMUTING_TOL * np.fmax(np.fmax(norm_m, 1.0), norm_n)
    hypothesis = (unitary <= suites.UNITARY_TOL) & (recon <= suites.RECONSTRUCTION_TOL) & (comms <= bound)
    mats = {"m": M, "n": N, "product": schur_product(M, N)}
    verdicts = iter(suites._oracle(_stack(list(mats.values()), 1), tol))
    columns = zip(unitary.tolist(), recon.tolist(), comms.tolist(), hypothesis.tolist())
    outcomes = []
    for t, (unitary_residual, recon_residual, comm, hypothesis_ok) in enumerate(columns):
        taken = {k: next(verdicts) for k in mats}
        margin = verify._worst([v.margin for v in taken.values()])
        witness = None
        if not (hypothesis_ok and all(v.is_positive for v in taken.values())):
            witness = {
                **verify._matrix_payload(t, m=M, n=N),
                "psd": {k: v.report().to_json() for k, v in taken.items()},
                "unitary_residual": unitary_residual,
                "reconstruction_residual": recon_residual,
                "commutator": comm,
            }
        outcomes.append((margin, witness))
    return outcomes


def _reference_capped(blocks, cap: float) -> tuple:
    """``generate._capped`` with the exact norm of every member."""
    lead = blocks[0].shape[:-2]
    norms = [_spectral_norm(b.reshape(-1, *b.shape[-2:])).reshape(lead) for b in blocks]
    norm = _first_of(norms, np.greater)
    over = (norm > cap)[..., None, None]
    factor = (cap / np.where(over, norm[..., None, None], cap)).astype(np.complex128)
    return tuple(np.where(over, factor * b, b) for b in blocks)


def _outcome_bytes(evaluate, *args):
    """The JSON of the outcomes ``evaluate`` returns, or the shapes and bytes
    of the blocks, or the class and message of the error it raises."""
    try:
        out = evaluate(*args)
    except (NumericalError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, tuple):
        return [(b.shape, b.tobytes()) for b in out]
    return json.dumps(out)


def _assert_spectral_agrees(instance) -> None:
    """The check equals its reference on a batch (M, N, U, V, lam, mu) and on
    each of its members alone."""
    members = [tuple(v._at([t]) for v in instance) for t in range(instance[0].batch[0])]
    for values in [instance] + members:
        got = _outcome_bytes(suites._commuting_spectral, *values, DEFAULT_TOL)
        assert got == _outcome_bytes(_reference_spectral, *values, DEFAULT_TOL)


def _assert_capped_agrees(blocks, cap: float) -> None:
    """The norm cap equals its reference on a stack and on each member alone."""
    for part in [blocks] + [tuple(b[[t]] for b in blocks) for t in range(len(blocks[0]))]:
        assert _outcome_bytes(generate._capped, part, cap) == _outcome_bytes(_reference_capped, part, cap)


def _spectral_plant(lam, mu, u=1.0, e=None) -> tuple:
    """An instance (M, N, U, V, lam, mu) over M_k at n = len(lam), with the
    k x k entries of lam and mu given: U = u I, V = I, M = diag(lam) + e (e
    an n x n array of k x k entries, or zero) and N = diag(mu)."""
    lam, mu = (np.asarray(v, dtype=complex) for v in (lam, mu))
    shape = AlgebraShape((lam.shape[-1],))
    lam_v, mu_v = AVector(shape, [lam]), AVector(shape, [mu])
    M = diag_matrix(lam_v)
    if e is not None:
        M = M + AMatrix(shape, [e])
    ident = identity_matrix(shape, len(lam))
    return M, diag_matrix(mu_v), u * ident, ident, lam_v, mu_v


def _stacked(instances) -> tuple:
    return tuple(_stack(list(values)) for values in zip(*instances))


def _direct_sum(*instances) -> tuple:
    """The instance over the direct sum of the one-block algebras of the given ones."""
    shape = AlgebraShape(tuple(inst[0].shape.blocks[0] for inst in instances))
    return tuple(type(vs[0])._wrap(shape, sum((v.blocks for v in vs), ())) for vs in zip(*instances))


I2, Z2 = np.eye(2), np.zeros((2, 2))
# diagonal, so that every entry of lam and mu commutes with every other
LAM, MU = (np.diag([0.5, 0.4]), np.diag([0.3, 0.2])), (np.diag([0.4, 0.3]), np.diag([0.2, 0.1]))
ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _failing_plants(side: float, k: int = 2) -> list[tuple]:
    """Instances over M_k at n = 2, each with one residual planted at
    ``side`` times its limit (written here, as in the threshold rows): the
    unitary residual and the reconstruction defect as [[0, rI], [rI, 0]],
    whose bound is its norm; over M_2 also that defect as r R in one corner,
    R a rotation, whose bound is sqrt(2) r, and the commutator [lam_0, mu_0]."""
    lam, mu = ([x[:k, :k] for x in v] for v in (LAM, MU))
    ik, zk = np.eye(k), np.zeros((k, k))
    r = 1e-9 * side
    plants = [
        _spectral_plant(lam, mu, u=math.sqrt(1.0 + 1e-10 * side)),
        _spectral_plant(lam, mu, e=[[zk, r * ik], [r * ik, zk]]),
    ]
    if k == 2:
        x, y = np.diag([1.0, 0.0]), np.array([[0.3, 1e-12 * side], [1e-12 * side, 0.1]])
        plants.append(_spectral_plant(LAM, MU, e=[[r * ROTATION, Z2], [Z2, Z2]]))
        plants.append(_spectral_plant((x, x), (y, y)))
    return plants


def _jordan_plant() -> tuple:
    # a settled hypothesis (every residual exactly 0, mu_1 unsampled) whose
    # product is not positive: its (1, 1) entry is the Jordan product
    return _spectral_plant((I2, np.diag([1.0, 0.01])), (I2, np.ones((2, 2))))


@pytest.mark.parametrize("shape, n", GRID_CATALOGUES, ids=str)
def test_bounded_gates_equal_exact_norms_on_draws(shape, n):
    shape = AlgebraShape.parse(shape)
    for scale in (1.0, 1e3):
        cfg = GenConfig(seed=2024, shape=shape, n=n, entry_scale=scale)
        _assert_spectral_agrees(generate._spectral_pair_stack(cfg, generate._streams(cfg, range(10))))
        elements = generate._selfadjoint_stack(cfg, generate._streams(cfg, range(10)))
        family = generate._family_stack(cfg, generate._streams(cfg, range(6)), 3, selfadjoint=True)
        for cap in (0.5, 2.0, 5.0, np.pi * scale):
            _assert_capped_agrees(elements.blocks, cap)
            _assert_capped_agrees(family.blocks, cap)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_bounded_spectral_gate_equals_exact_norms_on_plants():
    below, above = _failing_plants(1 - 1e-3), _failing_plants(1 + 1e-3)
    for plants, holds in ((below, True), (above, False)):
        outcomes = suites._commuting_spectral(*_stacked(plants), DEFAULT_TOL)
        assert [witness is None for _, witness in outcomes] == [holds] * len(plants)
    scales = (1e-170, 3e-170, 1e154, 1.2e154)
    scaled = [_spectral_plant([s * x for x in LAM], [s * x for x in MU]) for s in scales]
    finite = [_jordan_plant()] + below + above + scaled
    _assert_spectral_agrees(_stacked(finite))
    # the settled Jordan member's witness holds its exact residuals, all 0
    _, witness = suites._commuting_spectral(*_stacked(finite), DEFAULT_TOL)[0]
    keys = ("unitary_residual", "reconstruction_residual", "commutator")
    assert [witness[key] for key in keys] == [0.0] * 3
    # over M_2 at n = 2 a NaN, or an inf that meets a zero, raises in the norms
    nan, inf = np.nan, np.inf
    raising = [
        _spectral_plant(LAM, MU, e=[[Z2, Z2], [Z2, np.diag([nan, 0.0])]]),
        _spectral_plant(LAM, MU, u=inf),
        _spectral_plant((LAM[0], np.diag([-inf, 0.2])), MU),
        _spectral_plant((np.diag([inf, 0.4]), LAM[1]), (MU[0], np.diag([nan, 0.1]))),
    ]
    _assert_spectral_agrees(_stacked(raising[:1] + finite[:3]))
    _assert_spectral_agrees(_stacked(raising))
    # over the scalars at n = 1 they reach the witnesses as NaN and inf
    scalars = [
        _spectral_plant([[[v]]], [[[0.4]]], u=u)
        for v, u in ((nan, 1.0), (inf, 1.0), (-inf, 1.0), (0.5, nan), (0.5, inf), (complex(inf, nan), 1.0))
    ]
    _assert_spectral_agrees(_stacked(scalars))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_bounded_norm_cap_equals_exact_norms_on_plants():
    cap = 2.0

    def member(first, second):
        return (np.asarray(first, dtype=complex)[None], np.asarray([[second]], dtype=complex)[None])

    planted = []
    for side in (1 - 1e-3, 1 + 1e-3):
        c = cap * side
        planted += [
            member(c * np.diag([1.0, 0.5]), 0.1),
            member(0.1 * I2, c),
            member(c * ROTATION, 0.1),
            member(0.1 * I2, -c),
            # not Hermitian: its row sums, or its column sums, are below the norm
            member(c * np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2.0), 0.1),
            member(c * np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0), 0.1),
        ]
    planted += [
        member(1e-170 * I2, 1e-170), member(1e154 * ROTATION, 0.1), member(0.1 * I2, 1e154),
        member(np.diag([np.inf, 1.0]), 0.1), member(np.diag([-np.inf, 1.0]), 0.1),
        member(0.1 * I2, np.nan), member(0.1 * I2, np.inf), member(0.1 * I2, complex(-np.inf, np.nan)),
    ]
    stack = tuple(np.concatenate(parts) for parts in zip(*planted))
    _assert_capped_agrees(stack, cap)
    # a NaN in a 2 x 2 block raises, in a stack and alone
    nan = member(np.diag([np.nan, 1.0]), 0.1)
    _assert_capped_agrees(tuple(np.concatenate(parts) for parts in zip(nan, *planted[:3])), cap)


@pytest.mark.parametrize("k", [2, 1])
def test_commuting_spectral_commutes_with_the_block_swap(k):
    # over (k, k), swapping the blocks of every input keeps each margin and
    # residual bit for bit, and swaps the blocks of each witness's matrices
    # and eigenvalue lists; a plant fails in one block only, so a bound taken
    # on the wrong block settles it on one side of the swap
    def reversed_blocks(value):
        if isinstance(value, dict):
            keys = ("blocks", "min_eigenvalue_per_block")
            return {key: v[::-1] if key in keys else reversed_blocks(v) for key, v in value.items()}
        return [reversed_blocks(v) for v in value] if isinstance(value, list) else value

    good = _spectral_plant(*([x[:k, :k] for x in v] for v in (LAM, MU)))
    failing = _failing_plants(1 + 1e-3, k) + ([_jordan_plant()] if k == 2 else [])
    planted = _stacked([_direct_sum(good, bad) for bad in failing])
    cfg = GenConfig(seed=2024, shape=AlgebraShape((k, k)), n=2)
    drawn = generate._spectral_pair_stack(cfg, generate._streams(cfg, range(10)))
    for instance in (drawn, planted):
        outcomes = suites._commuting_spectral(*instance, DEFAULT_TOL)
        swapped = suites._commuting_spectral(*(v._like(v.blocks[::-1]) for v in instance), DEFAULT_TOL)
        assert json.dumps(swapped) == json.dumps([(m, reversed_blocks(w)) for m, w in outcomes])
    # every plant fails its hypothesis or its product, in block 1 before the swap
    assert all(witness is not None for _, witness in suites._commuting_spectral(*planted, DEFAULT_TOL))


def _counted_singular_values(monkeypatch) -> list:
    """The shapes of the ``_top_singular_values`` calls made from here on."""
    from cstar_schur import algebra

    calls = []
    top = algebra._top_singular_values

    def counted(mats):
        calls.append(mats.shape)
        return top(mats)

    monkeypatch.setattr(algebra, "_top_singular_values", counted)
    return calls


def test_suite_grid_takes_few_singular_values(monkeypatch):
    calls = _counted_singular_values(monkeypatch)
    for shape, n in GRID:
        run_suites("all", GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n), trials=10)
    # the oracle solves first and takes the exactly Hermitian members' scale
    # from their spectra (2 082 calls while it took an SVD of every member),
    # and the evaluators take their norms once per chunk on batched values
    # (2 030 calls while they took them one instance at a time; 518 while the
    # Gram draws were not exactly Hermitian; 492 while the Cholesky oracle
    # took one prelude per instance; 375 calls on 6 529 members while the
    # commuting spectral gates and the norm caps took the norm of every member,
    # which the row/column-sum bound now settles for most; 282 while each norm
    # of a set, such as the trig residuals, took its own call)
    assert len(calls) <= 179
    assert sum(math.prod(shape[:-2]) for shape in calls) <= 4304


def _grid_calls(monkeypatch, name, *owners) -> list:
    """The calls to ``name``, which each of ``owners`` holds, over the suite
    grid at 10 trials."""
    calls = []
    real = getattr(owners[0], name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    for shape, n in GRID:
        run_suites("all", GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n), trials=10)
    return calls


def test_suite_grid_takes_one_prelude_per_oracle_chunk(monkeypatch):
    from cstar_schur import algebra, amatrix

    # the oracle and the Cholesky oracle of psd_oracle_agreement take one per
    # chunk (101 while the Cholesky oracle took one per instance)
    assert len(_grid_calls(monkeypatch, "_psd_prelude", algebra, amatrix)) <= 38


def test_suite_grid_builds_reports_only_for_witnesses_and_details(monkeypatch):
    from cstar_schur import amatrix

    # the evaluators read positivity, margins and the Novak details' smallest
    # eigenvalues from the stacks' arrays; only the witnesses take reports
    # (1 170 while every verdict was read as a report, 119 while each Novak
    # trial took one for its details)
    assert len(_grid_calls(monkeypatch, "report", amatrix.PsdStack)) <= 49


@pytest.mark.parametrize("n", [2, 3])
def test_search_builds_a_report_only_for_its_witness(monkeypatch, n):
    from cstar_schur import amatrix

    calls = []
    report = amatrix.PsdStack.report

    def counted(self, i):
        calls.append(i)
        return report(self, i)

    monkeypatch.setattr(amatrix.PsdStack, "report", counted)
    rep = counterexample_search(GenConfig(seed=2024, shape=M2, n=n), trials=1000)
    # the chunks read their stubs from the stacks' arrays, and only the witness
    # is rebuilt with its certificate (438 and 196 reports, 437 and 195
    # violations, while every violation took one)
    assert rep.failures == {2: 437, 3: 195}[n]
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("shape", [(2,), (2, 1)], ids=str)
def test_counterexample_search_takes_no_singular_values(monkeypatch, shape, n):
    # every Gram draw and every symmetrized product of two is exactly
    # Hermitian, so the oracle reads each member's scale from its spectrum
    calls = _counted_singular_values(monkeypatch)
    rep = counterexample_search(GenConfig(seed=2024, shape=AlgebraShape(shape), n=n), trials=100)
    assert rep.trials == 101
    assert calls == []


def test_suite_grid_builds_few_blockwise_values(monkeypatch):
    from cstar_schur import algebra

    built = []
    wrap = algebra._Blocks._wrap.__func__

    def counted(cls, shape, blocks):
        built.append(cls)
        return wrap(cls, shape, blocks)

    monkeypatch.setattr(algebra._Blocks, "_wrap", classmethod(counted))
    for shape, n in GRID:
        run_suites("all", GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n), trials=10)
    # every value operation builds one value for a whole chunk (9 786 values
    # while the evaluators built them one instance at a time; 1 922 while the
    # hit searches drew and evaluated one trial at a time)
    assert len(built) <= 1908


def test_suite_grid_seeds_its_draws_in_bulk(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    for shape, n in GRID:
        run_suites("all", GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n), trials=10)
    # the nonassociativity search drew 3 matrices per trial alone, 21 calls; the
    # cosine-Gram probes made 70 more, one stream per draw 1 757
    assert len(calls) == 0


def test_suite_grid_hashes_each_chunks_streams_once(monkeypatch):
    # one hash per grid command: the first chunks of all its checks, the
    # nonassociativity search's trial 0 included, at once (118 while each draw
    # of a chunk hashed its own substreams, 98 while each chunk and each hit
    # search window hashed its own); every _Streams hashes through _hash
    assert len(_grid_calls(monkeypatch, "_hash", generate)) <= 7


@pytest.mark.parametrize("shape, n, trials", [("1", 3, 10), ("1", 16, 40), ("2", 2, 10),
                                              ("2", 8, 40), ("2,1", 2, 10)])
def test_joint_hash_moves_no_report_byte(monkeypatch, shape, n, trials):
    # n = 16 over (1,) and n = 8 over (2,) run two chunks of 32 trials
    from cstar_schur.cli import _canonical_json

    cfg = GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n)
    joint = run_suites("all", cfg, trials=trials)
    # an empty map of first chunks: every check hashes its own rows
    monkeypatch.setattr(suites, "_first_streams", lambda checks, cfg, o: {})
    own = run_suites("all", cfg, trials=trials)
    assert _canonical_json([r.to_json() for r in joint]) == _canonical_json(
        [r.to_json() for r in own]
    )


def test_novak_run_holds_no_more_states_than_its_first_chunks(monkeypatch, tmp_path, capsys):
    import weakref

    from cstar_schur.cli import main

    # each hash's arrays, by the array that owns their memory, while alive
    owners, hashed, held = [], [], []
    states = generate._states

    def counted(seeds):
        out = states(seeds)
        hashed.append(sum(a.size // 4 for a in out))
        owners.extend(weakref.ref(a if a.base is None else a.base) for a in out)
        held.append(sum(a().size // 4 for a in owners if a() is not None))
        return out

    monkeypatch.setattr(generate, "_states", counted)
    argv = ["verify", "--suite", "novak", "--shape", "1", "--n", "32", "--d", "32",
            "--trials", "12", "--json", str(tmp_path / "novak.json")]
    assert main(argv) == 0
    capsys.readouterr()
    # chunks of 8 trials; a trial draws 32 x 32 Novak points, 32 cosine-Gram
    # points and a probe
    chunk, rows = verify._chunk_size(GenConfig(seed=0, shape=SCALAR, n=32)), 32 * 32 + 32 + 1
    assert (chunk, hashed[0]) == (8, chunk * rows)
    assert sum(hashed) == 12 * rows
    assert max(held) <= chunk * rows


def _grid_trig_calls(monkeypatch, suite: str) -> list:
    """The grid point of each ``suites._trig_stack`` call that runs of ``suite``
    over the grid make at 10 trials."""
    calls = []
    trig_stack = suites._trig_stack

    def counted(stacks, *fns):
        calls.append(point)
        return trig_stack(stacks, *fns)

    monkeypatch.setattr(suites, "_trig_stack", counted)
    for point in GRID:
        shape, n = point
        run_suite(suite, GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n), trials=10)
    return calls


def test_novak_suite_takes_its_cosines_once_per_chunk(monkeypatch):
    calls = _grid_trig_calls(monkeypatch, "novak")
    # every grid point counts, so a call the patch cannot see fails here
    assert set(calls) == set(GRID)
    # per grid point and chunk: the Novak steps, then the cosine-Gram sin and
    # cos z, its cosine matrix and its probes (28 calls; 420 per trial)
    assert len(calls) <= 28


def test_trig_suite_takes_its_sines_and_cosines_once_per_chunk(monkeypatch):
    calls = _grid_trig_calls(monkeypatch, "trig")
    assert set(calls) == set(GRID)
    # per grid point: x, y, -x, x* of the chunk, then x + y, and two for the
    # breakdown search's Pauli pair, its first hit (28 calls; 154 per trial)
    assert len(calls) <= 28


def test_suite_grid_eigendecomposes_each_trig_member_once(monkeypatch):
    from cstar_schur import calculus

    members, formed = [], []
    eigh = np.linalg.eigh
    spectral_stack = calculus._spectral_stack

    def counted(a, *args, **kwargs):
        members.append(math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    def counted_functions(stacks, fns, name):
        formed.append(len(fns) * len(stacks[0]))
        return spectral_stack(stacks, fns, name)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(calculus, "_spectral_stack", counted_functions)
    for shape, n in GRID:
        run_suites("all", GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n), trials=10)
    # sin and cos of a member share one eigendecomposition (1 690 members
    # while each took its own, the cosine-Gram z and the trig suite's x, y,
    # -x, x* and x + y twice over)
    assert sum(members) <= 1300
    # and V f(w) V* is formed only for the functions read (4 970 while the
    # cosine matrices took a sine of each difference too)
    assert sum(formed) <= 3500


def test_suite_grid_builds_one_report_per_reported_check(monkeypatch):
    made = []
    check_report = verify.CheckReport

    def counted(*args, **kwargs):
        made.append(1)
        return check_report(*args, **kwargs)

    monkeypatch.setattr(verify, "CheckReport", counted)
    monkeypatch.setattr(suites, "CheckReport", counted)
    reported = 0
    for shape, n in GRID:
        cfg = GenConfig(seed=2024, shape=AlgebraShape.parse(shape), n=n)
        reported += len(run_suites("all", cfg, trials=10))
    # 111 reports; 188 reports made when trig trials ran the public check
    assert len(made) == reported


@pytest.mark.parametrize("budget", [40, 10])
def test_novak_commutators_are_taken_a_slice_of_trials_at_a_time(budget, monkeypatch):
    # 6 points over M_2 make 15 pairs a trial; the chunk of 10 trials holds 150
    cfg = GenConfig(seed=2024, shape=M2, n=2)
    expected = [r.to_json() for r in run_suite("novak", cfg, trials=10, d=3)]
    sizes = []
    commutators = suites.commutator_norm

    def counted(x, y):
        sizes.append(x.batch)
        return commutators(x, y)

    monkeypatch.setattr(suites, "commutator_norm", counted)
    monkeypatch.setattr(suites, "_COMMUTATOR_PAIRS", budget)
    got = [r.to_json() for r in run_suite("novak", cfg, trials=10, d=3)]
    assert got == expected
    assert max(t * p for t, p in sizes) <= max(15, budget)
    assert sum(t for t, p in sizes if p == 15) == 10


def test_failing_chunk_draw_is_redrawn_trial_by_trial():
    # trial 3 draws a NaN element, so the norm cap fails for any chunk
    # holding it; alone, only trial 3 fails
    finished = []

    def trial(base, trials, opts):
        elements = [np.full((1, 2, 2), np.nan if t == 3 else 1.0, complex) for t in trials]
        generate._capped((np.concatenate(elements),), 1.0)
        return [(finished.append(t), (-1.0, None))[1] for t in trials]

    check = suites.Check("capped", "none", trial)
    base = check.base(GenConfig(seed=0, shape=M2, n=2))
    with pytest.raises(NumericalError):
        trial(base, range(OPTS.trials), OPTS)
    assert len(trial(base, range(3), OPTS) + trial(base, range(4, 10), OPTS)) == 9
    finished.clear()
    with pytest.raises(NumericalError, match="norm of a matrix with NaN entries"):
        check.report(GenConfig(seed=0, shape=M2, n=2), OPTS)
    assert finished == [0, 1, 2]


@pytest.mark.parametrize("finish_error_at", [1, None])
def test_draw_error_is_raised_after_the_earlier_trials_finish(finish_error_at):
    finished = []

    def trial(base, trials, opts):
        if 3 in trials:
            raise NumericalError("draw 3")
        outcomes = []
        for t in trials:
            finished.append(t)
            if t == finish_error_at:
                raise DomainError("finish 1")
            outcomes.append((-1.0, None))
        return outcomes

    check = suites.Check("ordered", "none", trial)
    # an earlier trial's finish error beats a later trial's draw error
    error = DomainError if finish_error_at is not None else NumericalError
    with pytest.raises(error):
        check.report(GenConfig(seed=0, shape=SCALAR, n=2), OPTS)
    assert finished == ([0, 1] if finish_error_at is not None else [0, 1, 2])


@pytest.mark.parametrize("positivity_at, algebra_at", [(2, 3), (3, 2)])
def test_chunk_error_gives_way_to_the_first_trial_that_raises_alone(positivity_at, algebra_at):
    # trial algebra_at draws a NaN element, so the chunk's norm cap raises
    # NumericalError before any verdict is read; trial positivity_at asks for
    # a matrix that is not positive, a DomainError in the trial loop
    good = identity_matrix(M2, 2)

    def trial(base, trials, opts):
        elements = [np.full((1, 2, 2), np.nan if t == algebra_at else 1.0, complex) for t in trials]
        generate._capped((np.concatenate(elements),), 1.0)
        mats = _stack([-1.0 * good if t == positivity_at else good for t in trials])
        outcomes = []
        for verdict in suites._oracle(mats, opts.tol):
            suites._require_positive("M", verdict)
            outcomes.append((0.0, None))
        return outcomes

    check = suites.Check("first_alone", "none", trial)
    base = check.base(GenConfig(seed=0, shape=M2, n=2))
    error, match = (
        (DomainError, "M is not positive") if positivity_at < algebra_at
        else (NumericalError, "norm of a matrix with NaN entries")
    )
    for size in (verify._chunk_size(base), 4):
        with pytest.raises(error, match=match):
            verify._run_trials(lambda trials: check.trial(base, trials, OPTS), OPTS.trials, size)


def test_failing_solve_in_a_stack_is_rerun_member_by_member():
    # a NaN block makes the solve of the stack fail; the members around it
    # still get their own verdicts, and the failure is raised when read
    cfg = GenConfig(seed=0, shape=M2, n=2)
    good = identity_matrix(M2, 2)
    bad = AMatrix._wrap(M2, (np.full((2, 2, 2, 2), np.nan, complex),))
    read = []

    def trial(base, trials, opts):
        mats = _stack([bad if t == 2 else good for t in trials])
        outcomes = []
        for t, verdict in zip(trials, suites._oracle(mats, opts.tol)):
            read.append(t)
            outcomes.append((verdict.report().margin, None))
        return outcomes

    check = suites.Check("solve", "none", trial)
    with pytest.raises(NumericalError, match="non-finite entries on block 0"):
        check.trial(check.base(cfg), range(OPTS.trials), OPTS)
    assert read == [0, 1, 2]
    with pytest.raises(NumericalError, match="non-finite entries on block 0"):
        check.report(cfg, OPTS)
    verdicts = suites._oracle(_stack([good, bad, good]), 1e-9)
    assert [v.error is None for v in verdicts] == [True, False, True]
    assert verdicts[2].report() == psd_check(good)


def _nan_report_at(monkeypatch, position):
    """Make the verdict the oracle returns at `position` a NaN certificate."""
    real = suites._oracle
    reads = []

    def oracle(X, tol, *args):
        verdicts = []
        for verdict in real(X, tol, *args):
            if len(reads) == position:
                stack, i = verdict.stack, verdict.i
                mins, positive = stack.min_eigenvalues.copy(), stack.is_positive.copy()
                mins[i], positive[i] = math.nan, False
                stack = dataclasses.replace(stack, is_positive=positive, min_eigenvalues=mins)
                margins, lowest = stack.margins().tolist(), stack.lowest_eigenvalues().tolist()
                verdict = suites._Verdict(stack, i, margins=margins, lowest=lowest)
            reads.append(None)
            verdicts.append(verdict)
        return verdicts

    monkeypatch.setattr(suites, "_oracle", oracle)
    return reads


@pytest.mark.parametrize(
    "check_id, reads",
    [("schur_chain_bound", 4), ("commuting_spectral_schur", 3), ("novak_conjecture", 4)],
)
def test_nan_certificate_in_any_position_fails_the_trial(check_id, reads, monkeypatch):
    # Python's min drops a NaN that is not first; the sub-margins must not
    check = next(c for c in suites.CHECKS if c.check_id == check_id)
    opts = dataclasses.replace(OPTS, trials=1)
    cfg = GenConfig(seed=2024, shape=SCALAR, n=3)
    assert check.report(cfg, opts).failures == 0
    for position in range(reads):
        with monkeypatch.context() as patch:
            seen = _nan_report_at(patch, position)
            rep = check.report(cfg, opts)
        assert len(seen) == reads
        assert math.isnan(rep.worst_margin), position
        assert rep.failures == 1 and counts_as_failure(rep)
        assert rep.witness is not None


def test_nan_diagonal_residual_is_found_and_rejected(monkeypatch):
    # Python's max over the blocks dropped a NaN in block 1
    M = identity_matrix(AlgebraShape((1, 1)), 3)
    blocks = [b.copy()[None] for b in M.blocks]
    blocks[1][0, 1, 1] = math.nan
    assert math.isnan(suites._diag_residual(AMatrix._wrap(M.shape, blocks))[0])
    assert suites._diag_residual(M._at(None)).tolist() == [0.0]
    monkeypatch.setattr(suites, "_diag_residual", lambda blocks: np.array([math.nan]))
    with pytest.raises(DomainError, match="diagonal entries deviate"):
        suites._unit_diag_checks(M._at(None), DEFAULT_TOL)


@pytest.mark.parametrize(
    "values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]]
)
def test_residual_maximum_lets_nan_win(values):
    assert math.isnan(suites._largest(values))
    assert math.isnan(verify._worst(values))


def test_nan_commutator_is_not_commuting(monkeypatch):
    x, z = pauli_pair(M2)
    points = tuple(b[None, None].repeat(2, axis=1) for b in x.blocks)
    suites._require_commuting_points(M2, points)
    nan = lambda x, y: np.full(x.batch, math.nan)
    monkeypatch.setattr(suites, "commutator_norm", nan)
    with pytest.raises(DomainError, match="do not commute"):
        suites._require_commuting_points(M2, points)


@pytest.mark.parametrize("budget", [1, 1 << 16])
def test_noncommuting_points_raise_at_the_first_failing_trial(budget, monkeypatch):
    # trial 1 fails first, at pair (0, 2); trial 2 fails at pair (0, 1)
    x, z = pauli_pair(M2)
    trials = [(x, x, x), (x, x, z), (z, x, x)]
    points = (np.array([[p.blocks[0] for p in t] for t in trials]),)
    monkeypatch.setattr(suites, "_COMMUTATOR_PAIRS", budget)
    with pytest.raises(DomainError) as stacked:
        suites._require_commuting_points(M2, points)
    with pytest.raises(DomainError) as alone:
        suites._require_commuting_points(M2, (points[0][1:2],))
    assert stacked.value.details == alone.value.details
    assert alone.value.details == {"pair": (0, 2), "commutator": pytest.approx(2.0)}


def test_hypothesis_falls_back_to_each_point_alone_when_the_stack_fails(monkeypatch):
    # a noncommutative shape then takes its commuting bounds from the points' own verdicts
    x, z = pauli_pair(M2)
    commuting = tuple(b[None, None].repeat(2, axis=1) for b in x.blocks)
    noncommuting = tuple(np.stack([u, v])[None] for u, v in zip(x.blocks, z.blocks))
    with pytest.raises(DomainError) as stacked:
        suites._require_commuting_points(M2, noncommuting)
    psd_stack = suites._psd_stack

    def alone_only(M, tol):
        if len(M.blocks[0]) > 1:
            raise NumericalError("stacked solve failed")
        return psd_stack(M, tol)

    monkeypatch.setattr(suites, "_psd_stack", alone_only)
    suites._require_commuting_points(M2, commuting)
    with pytest.raises(DomainError) as alone:
        suites._require_commuting_points(M2, noncommuting)
    assert stacked.value.details["pair"] == (0, 1)
    assert alone.value.details == stacked.value.details


def test_noncommuting_pair_is_found_pair_by_pair_when_stacked_commutators_overflow():
    # pair (1, 2) commutes, but its products overflow, so its stacked commutator
    # is NaN; pair (0, 1) fails first, so the error is a domain error (exit 2)
    x, _ = pauli_pair(M2)
    big = [1e200 * np.diag(d).astype(complex) for d in ((1.0, 2.0), (3.0, 4.0))]
    points = (np.stack([x.blocks[0], *big])[None],)
    # pairs (0, 1) and (1, 2) as one stack of left and one of right points
    left, right = (Element._wrap(M2, (points[0][:, ends],)) for ends in ([0, 1], [1, 2]))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError):
            suites.commutator_norm(left, right)
        with pytest.raises(DomainError, match="elements do not commute") as exc:
            suites._require_commuting_points(M2, points)
    assert exc.value.details["pair"] == (0, 1)


# a point's block 0 over (2, 1): not self-adjoint, or self-adjoint but not
# commuting with the commuting family it replaces a member of
_FAULTS = {
    "selfadjoint": ("index", 1, lambda b: b + np.array([[0.0, 1.0], [0.0, 0.0]])),
    "commuting": ("pair", (0, 1), lambda b: np.array([[0.0, 1.0], [1.0, 0.0]], complex)),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("check_id", ["novak_conjecture", "cosine_gram"])
def test_stacked_hypothesis_raises_the_first_failing_trial_alone(check_id, fault, monkeypatch):
    key, where, corrupt = _FAULTS[fault]
    bad = 6
    draw_points = suites._commuting_points

    def faulty(cfg, trials, count, *indices, **kw):
        points = [b.copy() for b in draw_points(cfg, trials, count, *indices, **kw)]
        for i, t in enumerate(trials):
            if t == bad:
                points[0][i, 1] = corrupt(points[0][i, 1])
        return tuple(points)

    monkeypatch.setattr(suites, "_commuting_points", faulty)
    check = next(c for c in suites.CHECKS if c.check_id == check_id)
    base = check.base(GenConfig(seed=2024, shape=AlgebraShape((2, 1)), n=2))
    with pytest.raises(DomainError) as alone:
        check.trial(base, range(bad, bad + 1), OPTS)
    assert alone.value.details[key] == where
    for size in (verify._chunk_size(base), 4):
        finished = []

        def draw(trials):
            outcomes = check.trial(base, trials, OPTS)
            finished.extend(trials)
            return outcomes

        with pytest.raises(DomainError) as stacked:
            verify._run_trials(draw, OPTS.trials, size)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.details == alone.value.details
        assert finished == list(range(bad))


def test_run_trials_raises_the_chunk_error_when_no_trial_raises_alone():
    seen = []

    def evaluate(trials):
        seen.append(list(trials))
        if len(trials) > 1:
            raise NumericalError("only the chunk fails")
        return [(1.0, None)]

    with pytest.raises(NumericalError, match="only the chunk fails"):
        verify._run_trials(evaluate, 3, 3)
    assert seen == [[0, 1, 2], [0], [1], [2]]


def test_novak_witnesses_hold_the_points_as_json():
    # no golden reaches these witnesses; at tol 1e-300 the round-off fails both checks
    points = random_selfadjoint_points(GenConfig(seed=0, shape=SCALAR, n=3), 2)
    _, rep = novak_check(points, 1e-300)
    assert rep.witness is not None
    assert rep.witness["points"] == [[p.to_json() for p in row] for row in points]
    cfg = GenConfig(seed=1, shape=AlgebraShape((2, 1)), n=3)
    z = random_commuting_family(cfg, 3, selfadjoint=True, norm_cap=3.0)
    _, witness, _ = _cosine_gram(z, 1e-300)
    assert witness is not None
    assert witness["points"] == [p.to_json() for p in z]


def test_public_novak_checks_reject_malformed_points():
    a, b = comm_element(SCALAR, 0.0), identity_element(M2)
    for points, match in [([], "nonempty"), ([[a], []], "nonempty"),
                          ([[a, a], [a]], "unequal length"), ([[a], [b]], "differ in algebra shape")]:
        with pytest.raises(StructureError, match=match):
            novak_check(points)


def test_cosine_gram_probe_is_the_default_rng_stream():
    # alphas, then betas, each standard_normal(n) of default_rng(seed)
    for seed, n in [(0xC05, 4), (2**64 - 1, 1), (7, 3)]:
        rng = np.random.default_rng(seed)
        want = np.stack([rng.standard_normal(n), rng.standard_normal(n)])
        (got,) = generate._normals([np.random.default_rng(seed)], [(2, n)])
        assert got[0].tobytes() == want.tobytes()
        (bulk,) = generate._normals(generate._Streams([seed]), [(2, n)])
        assert bulk[0].tobytes() == want.tobytes()


def test_stopping_searches_grow_their_chunks_from_one_trial():
    sizes = [len(c) for c in verify._chunks(range(600), 512, search=True, grow=True)]
    assert sizes == [1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 88]
    grown = [t for c in verify._chunks(range(600), 512, search=True, grow=True) for t in c]
    assert grown == list(range(600))
    sizes = [len(c) for c in verify._chunks(range(600), 512, search=True)]
    assert sizes == [1, 512, 87]


def test_hit_search_draws_few_trials_past_an_early_witness(monkeypatch):
    # trial 0 misses and trial 2 is the first witness, at a chunk of 512
    cfg = GenConfig(seed=7, shape=M2, n=2)
    d0 = -find_nonassociativity(cfg, 1, threshold=1e300).worst_margin
    received = []
    run = suites._run_trials

    def counting(evaluate, *args, **kwargs):
        def counted(trials):
            received.extend(trials)
            return evaluate(trials)

        return run(counted, *args, **kwargs)

    monkeypatch.setattr(suites, "_run_trials", counting)
    rep = find_nonassociativity(cfg, 600, threshold=d0)
    assert verify._chunk_size(cfg) == 512
    assert rep.witness["trial"] == 2
    assert len(received) <= 4
