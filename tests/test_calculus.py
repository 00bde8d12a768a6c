"""Exponential-based trigonometry on algebra elements and entrywise series."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    Element,
    GenConfig,
    NumericalError,
    RangeError,
    SeriesSpec,
    StructureError,
    elem_cos,
    elem_exp,
    elem_sin,
    haar_unitary,
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
from cstar_schur.calculus import _exp_block, _trig_stack
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


def test_one_ulp_off_hermitian_takes_the_exponential_formula():
    import scipy.linalg

    x = random_selfadjoint_element(GenConfig(seed=8, shape=AlgebraShape((2,))), norm_cap=2.0)
    blk = x.block(0).copy()
    blk[0, 1] = complex(np.nextafter(blk[0, 1].real, np.inf), blk[0, 1].imag)
    y = Element(x.shape, [blk])
    assert 0.0 < hermitian_defect(y) <= 1e-15
    want = scipy.linalg.expm(blk)
    assert np.linalg.norm(elem_exp(y).block(0) - want) <= 1e-12 * np.linalg.norm(want)
    for got, want in ((elem_sin(y), _sin_by_exp(y)), (elem_cos(y), _cos_by_exp(y))):
        assert got.block(0).tobytes() == want.block(0).tobytes()


@pytest.mark.parametrize("k", range(2, 7))
def test_exp_of_a_non_hermitian_block_is_scipys_expm_within_rounding(k):
    # scipy's degree-13 Pade approximant is the reference. The Taylor
    # polynomial's truncation error is below 1e-22 at ||A / 2^s||_1 <= 1/2, so
    # the difference is rounding, most of it from the s <= 9 squarings.
    import scipy.linalg

    rng = np.random.default_rng(k)
    for trial in range(15):
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        if trial % 3 == 1:  # normal, with complex eigenvalues
            q = np.linalg.qr(z)[0]
            z = (q * (rng.standard_normal(k) + 1j * rng.standard_normal(k))) @ q.conj().T
        elif trial % 3 == 2:  # strongly non-normal: the strict upper triangle 30 times the diagonal
            z = np.diag(np.diag(z)) + 30 * np.triu(z, 1)
        for norm in (1e-3, 0.7, 8.0, 49.9):
            x = Element(AlgebraShape((k,)), [z * (norm / np.linalg.norm(z, 2))])
            assert hermitian_defect(x) > 0
            want = scipy.linalg.expm(x.block(0))
            assert np.linalg.norm(elem_exp(x).block(0) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("k", range(2, 7))
def test_exp_closed_forms_off_the_hermitian_route(k):
    rng = np.random.default_rng(k)
    shape = AlgebraShape((k,))
    # nonzero entries only in the top-right corner make N @ N = 0 exactly
    n = np.zeros((k, k), complex)
    n[: k // 2, k // 2 :] = rng.standard_normal((k // 2, k - k // 2)) + 1j
    n *= 49.0 / np.linalg.norm(n, 2)
    assert np.array_equal(elem_exp(Element(shape, [n])).block(0), np.eye(k) + n)
    d = 3 * rng.standard_normal(k) + 10j * rng.standard_normal(k)
    got = elem_exp(Element(shape, [np.diag(d)])).block(0)
    assert np.array_equal(got, np.diag(np.diag(got)))
    assert np.abs(np.diag(got) / np.exp(d) - 1).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_exp_of_a_block_with_a_non_finite_entry_is_nan(bad):
    blk = np.array([[1.0, bad], [0.0, 2.0]], complex)
    assert np.isnan(_exp_block(blk)).all()


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


@pytest.mark.parametrize("shape", [AlgebraShape((2,)), AlgebraShape((2, 1))], ids=str)
def test_selfadjoint_trig_takes_its_cap_norm_from_the_eigensolve(shape, monkeypatch):
    x = random_selfadjoint_element(GenConfig(seed=4, shape=shape), norm_cap=5.0)
    big = (60.0 / x.norm()) * x
    with pytest.raises(RangeError) as exp_err:
        elem_exp(big)
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    w, v = np.linalg.eigh(x.block(0))
    for fn, f in ((elem_sin, np.sin), (elem_cos, np.cos)):
        got = fn(x)
        assert got.block(0).tobytes() == ((v * f(w)) @ v.conj().T).tobytes()
        with pytest.raises(RangeError) as err:
            fn(big)
        assert str(err.value) == str(exp_err.value)
    assert calls == []


def test_trig_stack_gives_each_member_its_alone_value_and_first_error():
    shape = AlgebraShape((2, 1))
    x = random_selfadjoint_element(GenConfig(seed=5, shape=shape), norm_cap=5.0)
    y = random_element(GenConfig(seed=6, shape=shape))
    big = (60.0 / x.norm()) * x
    # exactly Hermitian, so it joins the stacked solve, which it makes fail
    bad = Element(shape, [np.diag([np.inf, 1.0]), np.ones((1, 1))])

    def trig(members, *fns):
        stacks = [np.stack([m.blocks[b] for m in members]) for b in range(2)]
        return _trig_stack(stacks, *fns)

    sines, cosines = trig([x, y, x], np.sin, np.cos)
    for i, m in enumerate((x, y, x)):
        for got, want in ((sines, elem_sin(m)), (cosines, elem_cos(m))):
            assert all(g[i].tobytes() == w.tobytes() for g, w in zip(got, want.blocks))
    # after the stacked solve fails each member is solved alone, under the name
    # of the first function
    with pytest.raises(NumericalError, match="^non-finite entries in sin$"):
        trig([x, bad, y], np.sin, np.cos)
    # and the first member in order that raises alone raises
    with pytest.raises(RangeError):
        trig([y, big, bad], np.sin, np.cos)
    with pytest.raises(NumericalError, match="^non-finite entries in cos$"):
        trig([bad, big], np.cos, np.sin)


@pytest.mark.parametrize("blocks", [(2, 1), (1,)], ids=str)
def test_trig_stack_takes_only_the_functions_asked_for(blocks):
    # each function of a member has the bits the call for sin and cos gives it,
    # asked for alone or in either order and at 0, 1 or 2 batch axes, over
    # exactly Hermitian members, members that take the exponential formula,
    # and 1x1 blocks; a stack keeps its batch axes
    shape = AlgebraShape(blocks)
    cfgs = [GenConfig(seed=s, shape=shape) for s in range(3)]
    members = [random_selfadjoint_element(c, norm_cap=5.0) for c in cfgs]
    members += [random_element(c) for c in cfgs]
    for batch in ((), (6,), (2, 3)):
        groups = [[m] for m in members] if batch == () else [members]
        for group in groups:
            stacks = [np.stack([m.blocks[b] for m in group]).reshape(batch + (k, k))
                      for b, k in enumerate(blocks)]
            sines, cosines = _trig_stack(stacks, np.sin, np.cos)
            assert [v.shape for v in sines + cosines] == [v.shape for v in stacks * 2]
            if batch == ():
                assert [v.tobytes() for v in sines] == [v.tobytes() for v in elem_sin(group[0]).blocks]
                assert [v.tobytes() for v in cosines] == [v.tobytes() for v in elem_cos(group[0]).blocks]
            for fns, want in (((np.sin,), (sines,)), ((np.cos,), (cosines,)),
                              ((np.cos, np.sin), (cosines, sines))):
                got = _trig_stack(stacks, *fns)
                assert [[v.tobytes() for v in f] for f in got] == [[v.tobytes() for v in f] for f in want]
    if blocks == (1,):
        return
    # the first function's name labels the eigensolver site
    bad = [np.diag([np.inf, 1.0])[None], np.ones((1, 1, 1))]
    for fns in ((np.sin,), (np.cos,), (np.cos, np.sin), (np.sin, np.cos)):
        with pytest.raises(NumericalError, match=f"^non-finite entries in {fns[0].__name__}$"):
            _trig_stack(bad, *fns)


@pytest.mark.parametrize("shape", [AlgebraShape((2,)), AlgebraShape((2, 1))], ids=str)
def test_inexact_trig_checks_its_cap_once_and_keeps_the_exponential_bits(shape, monkeypatch):
    # a member that is not exactly Hermitian takes one norm, for the cap, and
    # the bits of the formula on elem_exp
    y = random_element(GenConfig(seed=8, shape=shape))
    plus, minus = elem_exp(1j * y), elem_exp(-1j * y)
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for fn, want in ((elem_sin, (plus - minus) * (-0.5j)), (elem_cos, (plus + minus) * 0.5)):
        calls.clear()
        got = fn(y)
        assert len(calls) == 1
        assert [v.tobytes() for v in got.blocks] == [v.tobytes() for v in want.blocks]
        with pytest.raises(RangeError) as err:
            fn(y, norm_cap=0.5)
        assert str(err.value) == f"||x|| = {y.norm():.3g} exceeds the exp cap 0.5"


def test_exp_of_selfadjoint_is_positive(m2_shape):
    x = random_selfadjoint_element(GenConfig(seed=77, shape=m2_shape), norm_cap=3.0)
    from cstar_schur import classify

    assert classify(elem_exp(x)).is_positive


# -- *-automorphisms -------------------------------------------------------------


@pytest.mark.parametrize("blocks", [(2, 2), (3, 3, 1), (2, 1)], ids=str)
def test_calculus_commutes_with_the_automorphisms(blocks):
    # the *-automorphisms of the direct sum permute blocks of equal size and
    # conjugate each block by a unitary, and f(a(x)) = a(f(x)) for f = sin,
    # cos and exp. A conjugated Hermitian block is Hermitian only up to
    # rounding, so the conjugation also holds the spectral route to the
    # exponential one
    shape = AlgebraShape(blocks)
    swaps = [(a, b) for a, b in combinations(range(len(blocks)), 2) if blocks[a] == blocks[b]]
    for seed in range(30):
        cfg, rng = GenConfig(seed=seed, shape=shape), np.random.default_rng(seed)
        W = [haar_unitary(rng, k) for k in shape.blocks]
        for x in (random_selfadjoint_element(cfg, norm_cap=5.0), random_element(cfg)):
            for fn in (elem_sin, elem_cos, elem_exp):
                fx = fn(x)
                for a, b in swaps:
                    order = list(range(len(blocks)))
                    order[a], order[b] = b, a
                    swapped = fn(Element(shape, [x.blocks[i] for i in order])).blocks
                    assert [v.tobytes() for v in swapped] == [fx.blocks[i].tobytes() for i in order]
                got = fn(Element(shape, [w @ v @ w.conj().T for w, v in zip(W, x.blocks)]))
                want = Element(shape, [w @ v @ w.conj().T for w, v in zip(W, fx.blocks)])
                assert (got - want).norm() <= 1e-12 * max(1.0, fx.norm()), (seed, fn.__name__)


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
