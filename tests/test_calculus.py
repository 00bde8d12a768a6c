"""Exponential-based trigonometry on algebra elements and entrywise series."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    Element,
    GenConfig,
    RangeError,
    SeriesSpec,
    StructureError,
    elem_cos,
    elem_exp,
    elem_sin,
    hermitian_defect,
    identity_element,
    identity_matrix,
    mat_norm,
    ones_matrix,
    random_element,
    random_positive_matrix,
    random_selfadjoint_element,
    schur_series_apply,
    schur_product,
    scalar_element,
)
from conftest import COMMUTATIVE_SHAPES, NONCOMMUTATIVE_SHAPES, comm_element, scalar_amatrix

ALL_SHAPES = COMMUTATIVE_SHAPES + NONCOMMUTATIVE_SHAPES


def test_exp_scalar_oracle():
    shape = AlgebraShape((1, 1))
    x = comm_element(shape, 0.0, np.log(2.0))
    y = elem_exp(x)
    assert y.block(0)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert y.block(1)[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_exp_matrix_block_oracle(m2_shape):
    # exp of the nilpotent [[0, 1], [0, 0]] is I + N
    n = Element(m2_shape, [[[0, 1], [0, 0]]])
    y = elem_exp(n)
    assert np.allclose(y.block(0), [[1, 1], [0, 1]], atol=1e-14)
    # Hermitian route: exp(diag(a, b)) via eigh
    h = Element(m2_shape, [[[1, 0], [0, -1]]])
    assert np.allclose(elem_exp(h).block(0), np.diag([np.e, 1 / np.e]), atol=1e-13)


def test_trig_scalar_oracles():
    shape = AlgebraShape((1,))
    x = comm_element(shape, np.pi / 2)
    assert elem_sin(x).block(0)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert abs(elem_cos(x).block(0)[0, 0]) < 1e-15
    zero = comm_element(shape, 0.0)
    assert elem_cos(zero).block(0)[0, 0] == pytest.approx(1.0)


def test_norm_cap_raised():
    shape = AlgebraShape((1,))
    with pytest.raises(RangeError):
        elem_exp(comm_element(shape, 60.0))
    # and the cap is adjustable
    y = elem_exp(comm_element(shape, 60.0), norm_cap=100.0)
    assert y.block(0)[0, 0] == pytest.approx(np.exp(60.0), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(ALL_SHAPES) - 1), st.integers(0, 2**63 - 1))
def test_pythagorean_identity(idx, seed):
    shape = ALL_SHAPES[idx]
    x = random_selfadjoint_element(GenConfig(seed=seed, shape=shape), norm_cap=5.0)
    s, c = elem_sin(x), elem_cos(x)
    unit = identity_element(shape)
    assert (s * s + c * c - unit).norm() <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(ALL_SHAPES) - 1), st.integers(0, 2**63 - 1))
def test_sin_cos_parity(idx, seed):
    x = random_selfadjoint_element(
        GenConfig(seed=seed, shape=ALL_SHAPES[idx]), norm_cap=5.0
    )
    assert (elem_sin(-1.0 * x) + elem_sin(x)).norm() <= 1e-11
    assert (elem_cos(-1.0 * x) - elem_cos(x)).norm() <= 1e-11


def _sin_by_exp(x, norm_cap=50.0):
    return (elem_exp(1j * x, norm_cap) - elem_exp(-1j * x, norm_cap)) * (-0.5j)


def _cos_by_exp(x, norm_cap=50.0):
    return (elem_exp(1j * x, norm_cap) + elem_exp(-1j * x, norm_cap)) * 0.5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(ALL_SHAPES) - 1), st.integers(0, 2**63 - 1))
def test_selfadjoint_trig_matches_exponential_formula(idx, seed):
    x = random_selfadjoint_element(
        GenConfig(seed=seed, shape=ALL_SHAPES[idx]), norm_cap=5.0
    )
    bound = 1e-12 * max(1.0, x.norm())
    assert (elem_sin(x) - _sin_by_exp(x)).norm() <= bound
    assert (elem_cos(x) - _cos_by_exp(x)).norm() <= bound


def test_selfadjoint_trig_takes_the_eigendecomposition_route(monkeypatch):
    import cstar_schur.calculus as calculus

    def no_exp(*a, **k):
        raise AssertionError("elem_exp called for a self-adjoint argument")

    monkeypatch.setattr(calculus, "elem_exp", no_exp)
    for shape in ALL_SHAPES:
        x = random_selfadjoint_element(GenConfig(seed=3, shape=shape), norm_cap=5.0)
        elem_sin(x)
        elem_cos(x)


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=str)
def test_non_selfadjoint_trig_is_the_exponential_formula_bitwise(shape):
    x = random_element(GenConfig(seed=11, shape=shape))
    assert hermitian_defect(x) > 1e-3
    for got, want in ((elem_sin(x), _sin_by_exp(x)), (elem_cos(x), _cos_by_exp(x))):
        for a, b in zip(got.blocks, want.blocks):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=str)
def test_trig_norm_cap_matches_exp(shape):
    x = random_selfadjoint_element(GenConfig(seed=4, shape=shape), norm_cap=5.0)
    big = (60.0 / x.norm()) * x
    with pytest.raises(RangeError) as exp_err:
        elem_exp(big)
    for fn in (elem_sin, elem_cos):
        with pytest.raises(RangeError) as err:
            fn(big)
        assert str(err.value) == str(exp_err.value)
        with pytest.raises(RangeError):
            fn(x, norm_cap=0.5 * x.norm())
        fn(big, norm_cap=100.0)


def test_exp_of_selfadjoint_is_positive(m2_shape):
    x = random_selfadjoint_element(GenConfig(seed=77, shape=m2_shape), norm_cap=3.0)
    from cstar_schur import classify

    assert classify(elem_exp(x)).is_positive


# -- entrywise series ---------------------------------------------------------


def test_series_spec_validation(m2_shape):
    unit = identity_element(m2_shape)
    spec = SeriesSpec((unit, 2.0 * unit))
    assert spec.degree == 1
    assert spec.shape == m2_shape
    with pytest.raises(StructureError):
        SeriesSpec(())
    other = identity_element(AlgebraShape((1,)))
    with pytest.raises(StructureError):
        SeriesSpec((unit, other))
    back = SeriesSpec.from_json(m2_shape, spec.to_json())
    assert all(
        (a - b).norm() == 0.0
        for a, b in zip(spec.coefficients, back.coefficients)
    )


def test_series_apply_low_degree_oracle():
    # f(t) = 1 + 2 t applied to M: identity convention gives I + 2M
    shape = AlgebraShape((1,))
    M = scalar_amatrix([[1, 2], [3, 4]])
    unit = scalar_element(shape, 1.0)
    spec = SeriesSpec((unit, 2.0 * unit))
    out = schur_series_apply(spec, M)
    expected = identity_matrix(shape, 2) + 2.0 * M
    assert mat_norm(out - expected) < 1e-13
    # all-units convention replaces I by E_2
    out_ones = schur_series_apply(spec, M, constant="ones")
    expected_ones = ones_matrix(shape, 2) + 2.0 * M
    assert mat_norm(out_ones - expected_ones) < 1e-13
    with pytest.raises(StructureError):
        schur_series_apply(spec, M, constant="zeros")


def test_series_apply_powers_are_left_nested(m2_shape):
    cfg = GenConfig(seed=5, shape=m2_shape, n=2)
    _, M = random_positive_matrix(cfg)
    unit = identity_element(m2_shape)
    zero = 0.0 * unit
    spec = SeriesSpec((zero, zero, zero, unit))  # f = t^3 alone
    out = schur_series_apply(spec, M)
    expected = schur_product(schur_product(M, M), M)
    assert mat_norm(out - expected) < 1e-12


def test_series_shape_mismatch(m2_shape):
    spec = SeriesSpec((identity_element(m2_shape),))
    M = scalar_amatrix([[1]])
    with pytest.raises(StructureError):
        schur_series_apply(spec, M)
