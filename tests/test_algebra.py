import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    DomainError,
    Element,
    GenConfig,
    StructureError,
    classify,
    commutator_norm,
    hermitian_defect,
    identity_element,
    random_element,
    scalar_element,
    sqrt_positive,
    zero_element,
)
from conftest import COMMUTATIVE_SHAPES, NONCOMMUTATIVE_SHAPES, comm_element

ALL_SHAPES = COMMUTATIVE_SHAPES + NONCOMMUTATIVE_SHAPES


def test_shape_validation():
    with pytest.raises(StructureError):
        AlgebraShape(())
    with pytest.raises(StructureError):
        AlgebraShape((2, 0))
    assert AlgebraShape((1, 1)).is_commutative
    assert not AlgebraShape((2, 1)).is_commutative
    assert AlgebraShape((2, 1)).dim == 5


def test_shape_parse_and_json():
    s = AlgebraShape.parse("2,1")
    assert s.blocks == (2, 1)
    assert AlgebraShape.from_json(s.to_json()) == s
    with pytest.raises(StructureError):
        AlgebraShape.parse("2,x")


def test_element_block_validation(m2_shape):
    with pytest.raises(StructureError):
        Element(m2_shape, [[[1.0]]])  # 1x1 block where 2x2 expected
    with pytest.raises(StructureError):
        Element(m2_shape, [np.eye(2), np.eye(2)])  # too many blocks


def test_element_arithmetic_oracle(m2_shape):
    x = Element(m2_shape, [[[0, 1], [1, 0]]])  # sigma_x
    z = Element(m2_shape, [[[1, 0], [0, -1]]])  # sigma_z
    xz = x * z
    assert np.allclose(xz.block(0), [[0, -1], [1, 0]])
    assert np.allclose((x + z).block(0), [[1, 1], [1, -1]])
    assert np.allclose((2j * x).block(0), [[0, 2j], [2j, 0]])
    # Pauli commutator [X, Z] = -2iY has norm 2
    assert commutator_norm(x, z) == pytest.approx(2.0, abs=1e-12)


def test_adjoint_and_norm():
    shape = AlgebraShape((2, 1))
    a = Element(shape, [[[1, 2j], [0, 1]], [[3]]])
    astar = a.adjoint()
    assert np.allclose(astar.block(0), [[1, 0], [-2j, 1]])
    assert astar.block(1)[0, 0] == 3
    assert a.norm() >= 3.0


def test_identity_and_zero(mixed_shape):
    e = identity_element(mixed_shape)
    z = zero_element(mixed_shape)
    a = Element(mixed_shape, [np.arange(4).reshape(2, 2), [[5]]])
    assert np.array_equal((a * e).block(0), a.block(0))
    assert np.array_equal((e * a).block(0), a.block(0))
    assert (a + z).norm() == a.norm()
    s = scalar_element(mixed_shape, 2.0)
    assert np.allclose((s * a).block(1), [[10]])


def test_classify_known_elements(m2_shape):
    pos = Element(m2_shape, [[[2, 1], [1, 2]]])
    rep = classify(pos)
    assert rep.is_selfadjoint and rep.is_positive
    assert rep.min_spectrum == pytest.approx(1.0, abs=1e-12)

    indef = Element(m2_shape, [[[1, 0], [0, -1]]])
    rep = classify(indef)
    assert rep.is_selfadjoint and not rep.is_positive
    assert rep.min_spectrum == pytest.approx(-1.0, abs=1e-12)

    skew = Element(m2_shape, [[[0, 1], [-1, 0]]])
    rep = classify(skew)
    assert not rep.is_selfadjoint and not rep.is_positive
    assert rep.hermitian_defect == pytest.approx(2.0, abs=1e-12)


def test_classify_rejects_bad_tol(m2_shape):
    with pytest.raises(DomainError):
        classify(identity_element(m2_shape), tol=0.0)


def test_sqrt_positive_oracles():
    shape = AlgebraShape((1, 1))
    a = comm_element(shape, 4.0, 9.0)
    r = sqrt_positive(a)
    assert np.allclose([r.block(0)[0, 0], r.block(1)[0, 0]], [2.0, 3.0])

    m2 = AlgebraShape((2,))
    b = Element(m2, [[[2, 1], [1, 2]]])
    root = sqrt_positive(b)
    # eigenvalues of the root are sqrt(1), sqrt(3)
    eigs = np.linalg.eigvalsh(root.block(0))
    assert np.allclose(eigs, [1.0, np.sqrt(3.0)], atol=1e-12)
    assert (root * root - b).norm() < 1e-12

    with pytest.raises(DomainError):
        sqrt_positive(Element(m2, [[[1, 0], [0, -1]]]))


def test_element_json_roundtrip(mixed_shape):
    a = Element(mixed_shape, [[[1 + 2j, 0], [3, 4j]], [[5 - 1j]]])
    back = Element.from_json(mixed_shape, a.to_json())
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks))


def test_blocks_are_immutable(m2_shape):
    a = identity_element(m2_shape)
    with pytest.raises(ValueError):
        a.block(0)[0, 0] = 5.0


# -- algebraic laws on random elements --------------------------------------

shape_idx = st.integers(0, len(ALL_SHAPES) - 1)
seeds = st.integers(0, 2**63 - 1)


def _elem(shape, seed):
    return random_element(GenConfig(seed=seed, shape=shape))


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds)
def test_cstar_identity(idx, seed):
    # ||a* a|| = ||a||^2 characterizes C*-norms
    a = _elem(ALL_SHAPES[idx], seed)
    lhs = (a.adjoint() * a).norm()
    rhs = a.norm() ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds, seeds)
def test_involution_antimultiplicative(idx, s1, s2):
    shape = ALL_SHAPES[idx]
    a, b = _elem(shape, s1), _elem(shape, s2)
    scale = max(1.0, a.norm() * b.norm())
    assert ((a * b).adjoint() - b.adjoint() * a.adjoint()).norm() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds, seeds)
def test_positive_cone_closed_under_sums(idx, s1, s2):
    shape = ALL_SHAPES[idx]
    a, b = _elem(shape, s1), _elem(shape, s2)
    rep = classify(a * a.adjoint() + b * b.adjoint())
    assert rep.is_positive


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds)
def test_hermitian_defect_of_symmetrization_is_zero(idx, seed):
    a = _elem(ALL_SHAPES[idx], seed)
    sym = 0.5 * (a + a.adjoint())
    assert hermitian_defect(sym) == 0.0


@pytest.mark.parametrize("k", range(1, 9))
def test_spectral_norm_is_numpy_two_norm_bitwise(k):
    from cstar_schur.algebra import _spectral_norm

    rng = np.random.default_rng(k)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(25):
            m = scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            got = np.float64(_spectral_norm(m))
            # 1x1 blocks keep the scalar modulus, which the SVD can miss by an ulp
            want = abs(complex(m[0, 0])) if k == 1 else np.linalg.norm(m, 2)
            assert got.tobytes() == np.float64(want).tobytes()
            assert abs(got - np.linalg.norm(m, 2)) <= np.spacing(got)
