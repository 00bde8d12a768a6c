"""Matrices over the algebra: flattening, the symmetrized Schur product,
positivity certification, and the quadratic-form trace identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    AMatrix,
    AVector,
    DomainError,
    Element,
    GenConfig,
    PsdReport,
    StructureError,
    cholesky_psd_check,
    diag_matrix,
    diag_vector,
    element_scale,
    flatten,
    identity_matrix,
    mat_norm,
    ones_matrix,
    outer_product,
    psd_check,
    random_matrix,
    random_positive_matrix,
    random_vector,
    row_sums,
    schur_product,
    schur_quadratic_form_oracle,
    unflatten,
    zero_matrix,
)
from cstar_schur.algebra import _exactly_hermitian, _hermitian_part, _stack, classify
from cstar_schur.amatrix import _cholesky_stack, _psd_stack
from cstar_schur.errors import NumericalError
from cstar_schur.suites import _oracle
from conftest import (
    COMMUTATIVE_SHAPES,
    NONCOMMUTATIVE_SHAPES,
    as_numpy,
    scalar_amatrix,
)

ALL_SHAPES = COMMUTATIVE_SHAPES + NONCOMMUTATIVE_SHAPES
shape_idx = st.integers(0, len(ALL_SHAPES) - 1)
seeds = st.integers(0, 2**63 - 1)
sizes = st.integers(1, 5)


# -- structure ---------------------------------------------------------------


def test_entry_accessors(m2_shape):
    M = identity_matrix(m2_shape, 3)
    assert np.array_equal(M.entry(0, 0).block(0), np.eye(2))
    assert np.array_equal(M.entry(0, 1).block(0), np.zeros((2, 2)))


def test_matmul_against_entrywise_definition(mixed_shape):
    cfg = GenConfig(seed=3, shape=mixed_shape, n=3)
    A = random_matrix(cfg.derive(0))
    B = random_matrix(cfg.derive(1))
    C = A @ B
    for j in range(3):
        for l in range(3):
            acc = A.entry(j, 0) * B.entry(0, l)
            for k in range(1, 3):
                acc = acc + A.entry(j, k) * B.entry(k, l)
            assert (C.entry(j, l) - acc).norm() < 1e-12


def test_matvec(mixed_shape):
    cfg = GenConfig(seed=9, shape=mixed_shape, n=2)
    A = random_matrix(cfg.derive(0))
    x = random_vector(cfg.derive(1))
    y = A @ x
    for j in range(2):
        acc = A.entry(j, 0) * x[0] + A.entry(j, 1) * x[1]
        assert (y[j] - acc).norm() < 1e-13


def test_adjoint_transpose_trace():
    M = scalar_amatrix([[1, 2j], [3, 4]])
    assert np.allclose(as_numpy(M.adjoint()), [[1, 3], [-2j, 4]])
    assert np.allclose(as_numpy(M.transpose()), [[1, 3], [2j, 4]])
    assert M.trace().block(0)[0, 0] == pytest.approx(5.0)


def test_row_sums_diag_outer():
    M = scalar_amatrix([[1, 2], [3, 4]])
    y = row_sums(M)
    assert [y[j].block(0)[0, 0] for j in range(2)] == [3, 7]
    d = diag_vector(M)
    assert [d[j].block(0)[0, 0] for j in range(2)] == [1, 4]
    # outer product of (1, i) has the Hermitian form [[1, -i], [i, 1]]
    shape = AlgebraShape((1,))
    v = AVector.from_elements(
        [Element(shape, [[[1.0]]]), Element(shape, [[[1j]]])]
    )
    assert np.allclose(as_numpy(outer_product(v)), [[1, -1j], [1j, 1]])
    D = diag_matrix(v)
    assert np.allclose(as_numpy(D), [[1, 0], [0, 1j]])


def test_json_roundtrip(mixed_shape):
    M = random_matrix(GenConfig(seed=21, shape=mixed_shape, n=2))
    back = AMatrix.from_json(M.to_json())
    assert all(np.array_equal(a, b) for a, b in zip(M.blocks, back.blocks))


def _element_json_per_scalar(e):
    return {
        "blocks": [
            [[[float(z.real), float(z.imag)] for z in row] for row in blk]
            for blk in e.blocks
        ]
    }


def _amatrix_json_per_scalar(M):
    return {
        "algebra": M.shape.to_json(),
        "n": M.n,
        "entries": [
            [_element_json_per_scalar(M.entry(j, l)) for l in range(M.n)]
            for j in range(M.n)
        ],
    }


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", ALL_SHAPES, ids=str)
def test_to_json_matches_per_scalar_encoding(shape, n):
    # repr tells -0.0 from 0.0, NaN from NaN-free, and an int from a float
    specials = [-0.0, complex(-0.0, -0.0), np.nan, complex(0.0, np.inf), -np.inf]
    blocks = []
    for b in random_matrix(GenConfig(seed=n, shape=shape, n=n)).blocks:
        flat = b.reshape(-1).copy()
        count = min(len(specials), flat.size)
        flat[:count] = specials[:count]
        blocks.append(flat.reshape(b.shape))
    M = AMatrix(shape, blocks)
    assert repr(M.to_json()) == repr(_amatrix_json_per_scalar(M))
    for j in range(n):
        for l in range(n):
            e = M.entry(j, l)
            assert repr(e.to_json()) == repr(_element_json_per_scalar(e))


# -- flattening is a bit-exact *-isomorphism ---------------------------------


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds, sizes)
def test_flatten_roundtrip_bitwise(idx, seed, n):
    M = random_matrix(GenConfig(seed=seed, shape=ALL_SHAPES[idx], n=n))
    back = unflatten(flatten(M), M.shape, M.n)
    assert all(np.array_equal(a, b) for a, b in zip(M.blocks, back.blocks))


@settings(max_examples=40, deadline=None)
@given(shape_idx, seeds)
def test_flatten_is_multiplicative(idx, seed):
    cfg = GenConfig(seed=seed, shape=ALL_SHAPES[idx], n=3)
    A = random_matrix(cfg.derive(0))
    B = random_matrix(cfg.derive(1))
    for fa, fb, fc in zip(flatten(A), flatten(B), flatten(A @ B)):
        assert np.allclose(fa @ fb, fc, atol=1e-12 * max(1, mat_norm(A) * mat_norm(B)))


def test_flatten_respects_adjoint(mixed_shape):
    M = random_matrix(GenConfig(seed=4, shape=mixed_shape, n=3))
    for f, fs in zip(flatten(M), flatten(M.adjoint())):
        assert np.array_equal(f.conj().T, fs)


# -- the symmetrized Schur product -------------------------------------------


def test_schur_symmetrization_oracle(m2_shape):
    # entries sigma_x and sigma_z anticommute, so the symmetrized
    # product of the 1x1 matrices [sigma_x] and [sigma_z] vanishes
    x = AMatrix.from_entries([[Element(m2_shape, [[[0, 1], [1, 0]]])]])
    z = AMatrix.from_entries([[Element(m2_shape, [[[1, 0], [0, -1]]])]])
    prod = schur_product(x, z)
    assert mat_norm(prod) < 1e-15
    # while the plain entry product is (XZ + ZX)/2 = 0 but XZ itself is not
    assert (x.entry(0, 0) * z.entry(0, 0)).norm() == pytest.approx(1.0)


def test_schur_commutative_collapse_bitwise():
    # over a commutative algebra the symmetrized product IS the entrywise one
    shape = AlgebraShape((1, 1, 1))
    cfg = GenConfig(seed=8, shape=shape, n=4)
    A = random_matrix(cfg.derive(0))
    B = random_matrix(cfg.derive(1))
    P = schur_product(A, B)
    for pa, a, b in zip(P.blocks, A.blocks, B.blocks):
        entrywise = np.einsum("jlab,jlbc->jlac", a, b)
        assert np.array_equal(pa, entrywise)


@settings(max_examples=50, deadline=None)
@given(shape_idx, seeds)
def test_schur_commutativity_bitwise(idx, seed):
    cfg = GenConfig(seed=seed, shape=ALL_SHAPES[idx], n=3)
    A = random_matrix(cfg.derive(0))
    B = random_matrix(cfg.derive(1))
    P, Q = schur_product(A, B), schur_product(B, A)
    assert all(np.array_equal(p, q) for p, q in zip(P.blocks, Q.blocks))


@settings(max_examples=50, deadline=None)
@given(shape_idx, seeds)
def test_schur_bilinearity(idx, seed):
    cfg = GenConfig(seed=seed, shape=ALL_SHAPES[idx], n=2)
    A = random_matrix(cfg.derive(0))
    B = random_matrix(cfg.derive(1))
    C = random_matrix(cfg.derive(2))
    lhs = schur_product(A + B, C)
    rhs = schur_product(A, C) + schur_product(B, C)
    scale = max(1.0, (mat_norm(A) + mat_norm(B)) * mat_norm(C))
    assert mat_norm(lhs - rhs) <= 1e-12 * scale


def test_schur_identity_for_units():
    # E_n is the Schur unit: M o E_n = M for any M, symmetrized or not
    shape = AlgebraShape((2, 1))
    M = random_matrix(GenConfig(seed=2, shape=shape, n=3))
    E = ones_matrix(shape, 3)
    assert mat_norm(schur_product(M, E) - M) < 1e-13


def test_element_scale(mixed_shape):
    cfg = GenConfig(seed=6, shape=mixed_shape, n=2)
    M = random_matrix(cfg.derive(0))
    from cstar_schur import random_element

    a = random_element(cfg.derive(1))
    S = element_scale(a, M)
    for j in range(2):
        for l in range(2):
            assert (S.entry(j, l) - a * M.entry(j, l)).norm() < 1e-13


# -- positivity certification -------------------------------------------------


def test_psd_check_known_instances():
    assert psd_check(scalar_amatrix([[2, 1], [1, 2]])).is_positive
    rep = psd_check(scalar_amatrix([[1, 2], [2, 1]]))
    assert not rep.is_positive
    assert rep.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    # non-Hermitian input: defect route, no eigenvalues reported
    rep = psd_check(scalar_amatrix([[0, 1], [0, 0]]))
    assert not rep.is_positive
    assert rep.min_eigenvalue_per_block == ()
    assert rep.margin < 0


def test_psd_report_roundtrip():
    rep = psd_check(scalar_amatrix([[2, 1], [1, 2]]))
    back = PsdReport.from_json(rep.to_json())
    assert back == rep


def test_psd_margin_is_relative():
    # scaling the matrix must not change the relative margin much
    M = scalar_amatrix([[1, 2], [2, 1]])
    m1 = psd_check(M).margin
    m2 = psd_check(1e6 * M).margin
    assert m1 == pytest.approx(m2, rel=1e-9)


# one 1x1 block carries NaN, at every position of a commutative algebra
NAN_CASES = [
    (shape, pos) for shape in COMMUTATIVE_SHAPES[1:] for pos in range(len(shape.blocks))
]


def _one_by_one(shape, nan_at):
    """The blocks of the 1x1 matrix [a], a = 1 except for a NaN in block ``nan_at``."""
    return [
        np.full((1, 1, 1, 1), np.nan if b == nan_at else 1.0, dtype=np.complex128)
        for b in range(len(shape.blocks))
    ]


def test_psd_check_nan_in_any_block_is_not_positive():
    # a NaN after a finite block used to be dropped by "first value wins"
    for shape, pos in NAN_CASES:
        rep = psd_check(AMatrix(shape, _one_by_one(shape, pos)))
        assert not rep.is_positive, (shape, pos)
        assert np.isnan(rep.margin), (shape, pos)
        assert np.isnan(rep.hermitian_defect), (shape, pos)


def test_stack_of_exact_and_one_ulp_off_hermitian_members_matches_each_alone():
    # exactly Hermitian members take their scale from the spectrum, the others
    # from SVDs; in a stack of both, each member gets the report it gets alone.
    # The first has -0 real parts below the diagonal, where the eigensolver
    # reads them and their sign picks LAPACK's reflector.
    shape, n = AlgebraShape((2, 1)), 3
    members = []
    for seed in range(4):
        M = random_positive_matrix(GenConfig(seed=seed, shape=shape, n=n))[1]
        flats = [(f + f.conj().T) / 2 for f in flatten(M)]
        if seed == 0:
            f = flats[0]
            for j in range(1, f.shape[0]):
                f[j, j - 1] = complex(-0.0, abs(f[j, j - 1].imag))
                f[j - 1, j] = np.conj(f[j, j - 1])
        if seed % 2:
            # one ulp off in one entry of block 0 or 1
            f = flats[seed // 2]
            f[0, 1] = complex(np.nextafter(f[0, 1].real, np.inf), f[0, 1].imag)
        members.append(unflatten(flats, shape, n))
    stack = _psd_stack(_stack(members), 1e-9)
    assert stack.hermitian_defect.tolist()[::2] == [0.0, 0.0]
    assert (stack.hermitian_defect[1::2] > 0).all()
    for i, M in enumerate(members):
        assert stack.report(i) == psd_check(M)


def test_psd_stack_nan_in_any_block_is_not_positive():
    shape = AlgebraShape((1, 1, 1))
    members = [_one_by_one(shape, pos) for pos in (None, 0, 1, 2)]
    stack = _psd_stack(AMatrix._wrap(shape, [np.stack(col) for col in zip(*members)]), 1e-9)
    assert stack.is_positive.tolist() == [True, False, False, False]
    margins = stack.margins()
    assert margins[0] == 1.0 and np.isnan(margins[1:]).all()
    for i in range(1, 4):
        assert not stack.report(i).is_positive and np.isnan(stack.report(i).margin)


def test_psd_report_min_eigenvalue_keeps_nan():
    rep = PsdReport(True, 0.0, (1.0, np.nan), 1e-9, 1.0)
    assert np.isnan(rep.min_eigenvalue) and np.isnan(rep.margin)
    # signed-zero ties keep the first value, as Python's min does
    bits = np.float64(PsdReport(True, 0.0, (-0.0, 0.0), 1e-9, 1.0).min_eigenvalue).tobytes()
    assert bits == np.float64(-0.0).tobytes()
    bits = np.float64(PsdReport(True, 0.0, (0.0, -0.0), 1e-9, 1.0).min_eigenvalue).tobytes()
    assert bits == np.float64(0.0).tobytes()


# -- both sides of the line ------------------------------------------------------

NEAR_TOL = 1e-9
# (algebra shape, n): 1x1 flattened blocks, 2x2 and 1x1 ones, one 6x6 one
NEAR_CASES = [(AlgebraShape((1, 1)), 1), (AlgebraShape((2, 1)), 1), (AlgebraShape((2,)), 3)]
# c -> the verdict of a matrix planted c * tol * max(1, scale) past the line
NEAR_SIDES = {1e3: False, 10.0: False, 0.1: True, -0.1: True}


def _planted(shape, n, scale, lowest, defect=0.0, ulp=False, seed=0):
    """Flattened blocks of an n x n matrix over ``shape`` whose Hermitian part
    has smallest eigenvalue ``lowest`` (in block 0) and largest ``scale``, up
    to rounding. It is exactly Hermitian, unless it carries the Hermitian
    defect ``defect`` = ||f - f*|| or, with ``ulp``, one entry one ulp off."""
    rng = np.random.default_rng(seed)
    flats = []
    for b, k in enumerate(shape.blocks):
        m = n * k
        w = np.linspace(scale / 2, scale, m)
        if b == 0:
            w[0] = lowest
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q = np.linalg.qr(z)[0]
        flats.append(_hermitian_part((q * w) @ q.conj().T))
    assert _exactly_hermitian([f[None] for f in flats])[0]
    f = flats[0]
    if f.shape == (1, 1):
        f[0, 0] += 0.5j * defect
        if ulp:
            f[0, 0] = complex(f[0, 0].real, np.nextafter(0.0, 1.0))
    else:
        f[0, 1] += 0.5 * defect
        f[1, 0] -= 0.5 * defect
        if ulp:
            f[0, 1] = complex(np.nextafter(f[0, 1].real, np.inf), f[0, 1].imag)
    return flats


def _verdicts(entry, shape, n, members):
    """(is_positive, self-adjoint) of each member, given by its flattened
    blocks, from ``classify``, ``psd_check``, ``cholesky_psd_check`` or one
    ``_psd_stack`` call."""
    if entry == "classify":
        reports = [classify(Element(shape, flats), NEAR_TOL) for flats in members]
        return [(r.is_positive, r.is_selfadjoint) for r in reports]
    matrices = [unflatten(flats, shape, n) for flats in members]
    if entry == "psd_check":
        reports = [psd_check(M, NEAR_TOL) for M in matrices]
        return [(r.is_positive, bool(r.min_eigenvalue_per_block)) for r in reports]
    if entry == "cholesky_psd_check":
        # it reports no eigenvalues: self-adjoint is a defect within the cut
        reports = [cholesky_psd_check(M, NEAR_TOL) for M in matrices]
        cuts = [NEAR_TOL * max(1.0, r.scale) for r in reports]
        return [(r.is_positive, r.hermitian_defect <= cut) for r, cut in zip(reports, cuts)]
    stack = _psd_stack(_stack(matrices), NEAR_TOL)
    return list(zip(stack.is_positive.tolist(), stack.hermitian.tolist()))


def _near_line_cases():
    for shape, n in NEAR_CASES:
        for entry in ("classify", "psd_check", "cholesky_psd_check", "_psd_stack"):
            if entry != "classify" or n == 1:
                yield pytest.param(entry, shape, n, id=f"{entry}-{shape.blocks}-{n}")


@pytest.mark.parametrize("entry, shape, n", _near_line_cases())
@pytest.mark.parametrize("scale", [0.25, 1e3])
def test_oracle_sees_a_smallest_eigenvalue_just_past_the_cut(entry, shape, n, scale):
    # exactly Hermitian members take the spectrum path (every search member
    # does), one-ulp-off ones the prelude's SVDs; a cut ten times too wide on
    # either path calls lambda_min = -10 tol max(1, scale) positive
    cut = NEAR_TOL * max(1.0, scale)
    for ulp in (False, True):
        members = [_planted(shape, n, scale, -c * cut, ulp=ulp) for c in NEAR_SIDES]
        assert all(_exactly_hermitian([f[None] for f in m])[0] != ulp for m in members)
        got = _verdicts(entry, shape, n, members)
        assert got == [(side, True) for side in NEAR_SIDES.values()], (ulp, got)


@pytest.mark.parametrize("entry, shape, n", _near_line_cases())
@pytest.mark.parametrize("scale", [0.25, 1e3])
def test_oracle_sees_a_hermitian_defect_just_past_the_cut(entry, shape, n, scale):
    # the Hermitian part is positive definite; only the defect decides
    cut = NEAR_TOL * max(1.0, scale)
    sides = {c: side for c, side in NEAR_SIDES.items() if c > 0}
    members = [_planted(shape, n, scale, scale / 2, defect=c * cut) for c in sides]
    got = _verdicts(entry, shape, n, members)
    assert got == [(side, side) for side in sides.values()], got


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -0.0])
def test_psd_oracles_reject_non_finite_tol(tol):
    # an infinite cut would declare every matrix positive
    M = scalar_amatrix([[1, 2], [2, 1]])
    with pytest.raises(DomainError, match="finite and positive"):
        psd_check(M, tol)
    with pytest.raises(DomainError, match="finite and positive"):
        cholesky_psd_check(M, tol)


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds, sizes)
def test_gram_matrices_are_positive(idx, seed, n):
    _, M = random_positive_matrix(GenConfig(seed=seed, shape=ALL_SHAPES[idx], n=n))
    rep = psd_check(M)
    assert rep.is_positive, rep


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds, sizes)
def test_cholesky_oracle_agrees_with_eigenvalues(idx, seed, n):
    cfg = GenConfig(seed=seed, shape=ALL_SHAPES[idx], n=n)
    if seed % 3 == 0:
        _, M = random_positive_matrix(cfg)
    elif seed % 3 == 1:
        R = random_matrix(cfg)
        M = 0.5 * (R + R.adjoint())
    else:
        M = outer_product(random_vector(cfg))
    assert psd_check(M).is_positive == cholesky_psd_check(M).is_positive


def _outcome(check, M):
    """The repr of ``check(M)``, which shows signed zeros, or the error it raises."""
    try:
        return repr(check(M))
    except NumericalError as exc:
        return repr(exc)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)], ids=str)
def test_stacked_cholesky_gives_each_member_its_alone_report(shape, n):
    cfg = GenConfig(seed=5, shape=AlgebraShape(shape), n=n)
    _, gram = random_positive_matrix(cfg.derive(0))
    R = random_matrix(cfg.derive(1))
    # a Gram matrix, a Hermitian part, an outer product, and R itself, whose
    # defect is far beyond the self-adjoint cut
    members = [gram, 0.5 * (R + R.adjoint()), outer_product(random_vector(cfg.derive(2))), R]
    alone = [cholesky_psd_check(M) for M in members]
    assert not alone[3].is_positive and alone[3].hermitian_defect > 1e-3
    stack = _cholesky_stack(_stack(members), 1e-9)
    assert [repr(stack.report(i)) for i in range(len(members))] == list(map(repr, alone))
    assert stack.margins().tolist() == [r.margin for r in alone]
    # a NaN member: where it raises alone the stack raises, and the oracle
    # falls back member by member
    members.insert(1, float("nan") * gram)
    verdicts = _oracle(_stack(members), 1e-9, _cholesky_stack)
    got = [_outcome(lambda v: v.report(), v) for v in verdicts]
    assert got == [_outcome(cholesky_psd_check, M) for M in members]
    assert ("NumericalError" in got[1]) == (max(shape) * n > 1)


def test_outer_products_are_positive(mixed_shape):
    y = random_vector(GenConfig(seed=33, shape=mixed_shape, n=4))
    assert psd_check(outer_product(y)).is_positive


def test_zero_and_identity_psd(mixed_shape):
    assert psd_check(zero_matrix(mixed_shape, 3)).is_positive
    assert psd_check(identity_matrix(mixed_shape, 3)).is_positive
    assert not psd_check(-1.0 * identity_matrix(mixed_shape, 3)).is_positive


# -- the trace identity for quadratic forms ----------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(COMMUTATIVE_SHAPES) - 1), seeds, st.integers(1, 4))
def test_quadratic_form_trace_identity(idx, seed, n):
    cfg = GenConfig(seed=seed, shape=COMMUTATIVE_SHAPES[idx], n=n)
    _, M = random_positive_matrix(cfg.derive(0))
    _, N = random_positive_matrix(cfg.derive(1))
    x = random_vector(cfg.derive(2))
    direct, trace_form = schur_quadratic_form_oracle(M, N, x)
    assert (direct - trace_form).norm() <= 1e-10 * max(1.0, direct.norm())


def test_quadratic_form_oracle_rejects_noncommutative(m2_shape):
    cfg = GenConfig(seed=1, shape=m2_shape, n=2)
    _, M = random_positive_matrix(cfg.derive(0))
    x = random_vector(cfg.derive(1))
    with pytest.raises(DomainError):
        schur_quadratic_form_oracle(M, M, x)


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_mat_norm_keeps_a_nan_in_any_block(pos):
    # Python's max over the blocks dropped a NaN that is not first
    shape = AlgebraShape((1, 1, 1))
    blocks = [np.full((1, 1, 1, 1), v, complex) for v in (0.5, 2.0, 0.25)]
    assert mat_norm(AMatrix(shape, blocks)) == 2.0
    blocks[pos] = np.full((1, 1, 1, 1), np.nan, complex)
    assert np.isnan(mat_norm(AMatrix(shape, blocks)))


def _unflatten_zeros(shape, n):
    return unflatten([np.zeros((max(n, 0) * k,) * 2) for k in shape.blocks], shape, n)


def test_cholesky_oracle_rejects_a_matrix_that_is_not_self_adjoint():
    # [[1, 1], [0, 1]] is a unit away from its adjoint, far past the cut
    entry = Element(AlgebraShape((2,)), [np.array([[1.0, 1.0], [0.0, 1.0]])])
    rep = cholesky_psd_check(AMatrix.from_entries([[entry]]))
    assert rep.is_positive is False
    assert rep.hermitian_defect == 1.0
    assert rep.min_eigenvalue_per_block == ()


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "make",
    [identity_matrix, zero_matrix, ones_matrix, _unflatten_zeros],
    ids=["identity", "zero", "ones", "unflatten"],
)
def test_matrix_constructors_need_n_at_least_one(make, n):
    # n = 0 used to give an AMatrix the validated constructor rejects, on which
    # psd_check and mat_norm raised IndexError; n = -1 a bare numpy ValueError
    with pytest.raises(StructureError, match="n must be >= 1"):
        make(AlgebraShape((2,)), n)


# -- metamorphic relations of the symmetrized product --------------------------


def _hermitian_pair(cfg: GenConfig) -> tuple[AMatrix, AMatrix]:
    """A Gram-positive M and a Hermitian N that is indefinite in general."""
    _, M = random_positive_matrix(cfg)
    G = random_matrix(cfg.derive(1))
    return M, 0.5 * (G + G.adjoint())


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("shape", ALL_SHAPES, ids=str)
def test_schur_product_is_commutative_bit_for_bit(shape, n):
    for seed in range(5):
        cfg = GenConfig(seed=seed, shape=shape, n=n, entry_scale=[1.0, 0.37, 3.0][seed % 3])
        M, N = random_matrix(cfg), random_matrix(cfg.derive(1))
        for a, b in zip(schur_product(M, N).blocks, schur_product(N, M).blocks):
            assert a.tobytes() == b.tobytes()


def test_schur_product_over_scalars_is_numpys_entrywise_product():
    shape, tol = AlgebraShape((1, 1, 1)), 1e-9
    signs = set()
    for seed in range(40):
        M, N = _hermitian_pair(GenConfig(seed=seed, shape=shape, n=1 + seed % 5))
        P = schur_product(M, N)
        # einsum's complex products may round apart from numpy's a * b in the
        # last bit, each within a few units of |a b|
        for p, a, b in zip(P.blocks, M.blocks, N.blocks):
            assert np.all(np.abs(p - a * b) <= 4 * np.finfo(float).eps * np.abs(a) * np.abs(b))
        eigenvalues = [np.linalg.eigvalsh(p[..., 0, 0]) for p in P.blocks]
        lowest = min(float(w.min()) for w in eigenvalues)
        scale = max(float(np.abs(w).max()) for w in eigenvalues)
        margin = lowest / max(1.0, scale)
        if abs(margin) > 10 * tol:
            assert psd_check(P, tol).is_positive == (margin >= -tol)
            signs.add(margin > 0)
    assert signs == {True, False}


def test_schur_product_lowest_eigenvalue_is_the_least_of_its_blocks():
    shape = AlgebraShape((2, 1))
    for seed in range(20):
        cfg = GenConfig(seed=seed, shape=shape, n=1 + seed % 4)
        _, positive = random_positive_matrix(cfg.derive(2))
        for M, N in (_hermitian_pair(cfg), (positive, positive)):
            whole = psd_check(schur_product(M, N)).min_eigenvalue
            alone = []
            for a, b, k in zip(M.blocks, N.blocks, shape.blocks):
                one = AlgebraShape((k,))
                product = schur_product(AMatrix(one, [a]), AMatrix(one, [b]))
                alone.append(psd_check(product).min_eigenvalue)
            assert np.array(whole).tobytes() == np.array(min(alone)).tobytes()
