"""The standard Hilbert C*-module A^n: inner products and Cauchy-Schwarz."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    AVector,
    Element,
    GenConfig,
    StructureError,
    cauchy_schwarz_gap,
    classify,
    identity_element,
    inner_product,
    left_mul,
    ones_vector,
    random_element,
    random_vector,
)
from conftest import COMMUTATIVE_SHAPES, NONCOMMUTATIVE_SHAPES

ALL_SHAPES = COMMUTATIVE_SHAPES + NONCOMMUTATIVE_SHAPES


def test_vector_construction_and_indexing(m2_shape):
    e = identity_element(m2_shape)
    x = AVector.from_elements([e, 2.0 * e, 3.0 * e])
    assert len(x) == 3
    assert np.allclose(x[1].block(0), 2 * np.eye(2))
    with pytest.raises(StructureError):
        AVector.from_elements([])


def test_inner_product_oracle():
    # y = (1, i) over the scalars: <y, y> = 2, outer entries y_j conj(y_l)
    shape = AlgebraShape((1,))
    one = Element(shape, [[[1.0]]])
    im = Element(shape, [[[1j]]])
    y = AVector.from_elements([one, im])
    ip = inner_product(y, y)
    assert ip.block(0)[0, 0] == pytest.approx(2.0)
    # left-linearity in the first slot: <a x, y> = a <x, y>
    a = Element(shape, [[[2 - 1j]]])
    assert (
        inner_product(left_mul(a, y), y) - a * inner_product(y, y)
    ).norm() < 1e-14


def test_inner_product_hermitian_symmetry(mixed_shape):
    cfg = GenConfig(seed=5, shape=mixed_shape, n=3)
    x = random_vector(cfg.derive(0))
    y = random_vector(cfg.derive(1))
    assert (inner_product(x, y) - inner_product(y, x).adjoint()).norm() < 1e-13


def test_ones_vector_inner_product(mixed_shape):
    e = ones_vector(mixed_shape, 4)
    # <e, e> = n * 1
    assert (inner_product(e, e) - 4.0 * identity_element(mixed_shape)).norm() == 0.0


def test_cauchy_schwarz_equality_case_is_exact(mixed_shape):
    # x = y = e_n makes ||<y,y>|| <x,x> - <x,y><y,x> vanish identically
    e = ones_vector(mixed_shape, 3)
    gap = cauchy_schwarz_gap(e, e)
    assert gap.norm() == 0.0


def test_vector_json_roundtrip(m2_shape):
    cfg = GenConfig(seed=11, shape=m2_shape, n=2)
    x = random_vector(cfg)
    back = AVector.from_json(m2_shape, x.to_json())
    assert all(np.array_equal(a, b) for a, b in zip(x.blocks, back.blocks))


shape_idx = st.integers(0, len(ALL_SHAPES) - 1)
seeds = st.integers(0, 2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(shape_idx, seeds, st.integers(1, 5))
def test_cauchy_schwarz_gap_is_positive(idx, seed, n):
    shape = ALL_SHAPES[idx]
    cfg = GenConfig(seed=seed, shape=shape, n=n)
    x = random_vector(cfg.derive(0))
    y = random_vector(cfg.derive(1))
    gap = cauchy_schwarz_gap(x, y)
    rep = classify(gap, tol=1e-9)
    assert rep.is_positive, rep


@settings(max_examples=40, deadline=None)
@given(shape_idx, seeds)
def test_inner_product_positivity_and_faithfulness(idx, seed):
    shape = ALL_SHAPES[idx]
    x = random_vector(GenConfig(seed=seed, shape=shape, n=3))
    rep = classify(inner_product(x, x))
    assert rep.is_positive
    # <x, x> = sum_j x_j x_j* >= x_j x_j*, so ||<x, x>|| >= max_j ||x_j||^2 and
    # <x, x> = 0 forces x = 0
    largest = max(np.linalg.norm(b, 2, axis=(-2, -1)).max() for b in x.blocks)
    assert inner_product(x, x).norm() >= largest**2 - 1e-12
