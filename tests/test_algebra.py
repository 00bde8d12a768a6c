import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    AMatrix,
    DomainError,
    Element,
    GenConfig,
    NumericalError,
    StructureError,
    classify,
    commutator_norm,
    elem_cos,
    elem_exp,
    elem_sin,
    flatten,
    hermitian_defect,
    identity_element,
    mat_norm,
    psd_check,
    random_element,
    random_matrix,
    random_positive_matrix,
    random_selfadjoint_element,
    random_unit_diagonal_positive,
    scalar_element,
)
from cstar_schur import algebra
from cstar_schur.algebra import DEFAULT_TOL, _norms, _stack
from cstar_schur.amatrix import _psd_stack
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


@pytest.mark.parametrize("blocks", ["21", ("2", 1), (2.0,), (2.7,), (True,), (2, False)])
def test_block_sizes_must_be_integers(blocks):
    # int() would read each of these as a size; JSON block lists come through here
    with pytest.raises(StructureError, match="block sizes must be integers"):
        AlgebraShape(blocks)
    with pytest.raises(StructureError, match="block sizes must be integers"):
        AlgebraShape.from_json({"blocks": blocks})
    assert AlgebraShape((np.int64(2), 1)).blocks == (2, 1)


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
    z = scalar_element(mixed_shape, 0.0)
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
    # a NaN cut would call the exactly self-adjoint unit not self-adjoint
    for tol in (0.0, -0.0, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="finite and positive"):
            classify(identity_element(m2_shape), tol=tol)


def test_element_json_roundtrip(mixed_shape):
    a = Element(mixed_shape, [[[1 + 2j, 0], [3, 4j]], [[5 - 1j]]])
    back = Element.from_json(mixed_shape, a.to_json())
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks))


@pytest.mark.parametrize("pair", [[True, 0.0], [0.0, False]])
def test_element_json_entries_are_not_bools(pair):
    with pytest.raises(StructureError, match="must be numbers"):
        Element.from_json(AlgebraShape((1,)), {"blocks": [[[pair]]]})


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
    if k == 1:
        # a stack of 1x1 blocks takes Python's complex abs, batched and alone
        parts = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -3e-310, 1e308, -1e308, 1.5]
        special = [complex(re, im) for re in parts for im in parts]
        drawn = [complex(*rng.standard_normal(2) * 10.0 ** rng.uniform(-310, 300)) for _ in range(500)]
        values = np.array(special + drawn).reshape(-1, 1, 1)
        want = np.array([abs(z) for z in values.reshape(-1)])
        assert _spectral_norm(values).tobytes() == want.tobytes()
        assert _spectral_norm(values.reshape(-1, 2, 1, 1)).tobytes() == want.tobytes()
        for z, w in zip(values, want):
            assert np.float64(_spectral_norm(z)).tobytes() == w.tobytes()


@pytest.mark.parametrize("k", range(1, 9))
def test_norm_bound_is_above_the_spectral_norm(k):
    from cstar_schur.algebra import _norm_bound, _spectral_norm

    rng = np.random.default_rng(k)
    for scale in (1e-320, 1e-310, 1e-170, 1.0, 1e154, 1e300):
        m = scale * (rng.standard_normal((50, k, k)) + 1j * rng.standard_normal((50, k, k)))
        assert (_norm_bound(m) >= _spectral_norm(m)).all()
    # subnormal entries whose moduli round down, so only the floor keeps the
    # bound above the norm (for k = 2 the sums give 2 ulp, the norm 3 ulp)
    tiny = (1 + 1j) * 5e-324 * np.arange(1, 4)[:, None, None] * np.ones((k, k))
    assert (_norm_bound(tiny) >= _spectral_norm(tiny)).all()
    assert all(_norm_bound(t[None])[0] >= _spectral_norm(t) for t in tiny)
    # an entry the norm raises on or gives NaN for leaves the bound NaN or inf
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
        m = np.stack([np.eye(k, dtype=complex)] * 2)
        m[1, -1, 0] = bad
        assert np.isfinite(_norm_bound(m)).tolist() == [True, False]


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=str)
def test_classify_is_psd_check_of_the_one_by_one_matrix(shape):
    def bits(v):
        return np.float64(v).tobytes()

    kinds = set()
    for seed in range(8):
        a = _elem(shape, seed)
        for x in (a * a.adjoint(), 0.5 * (a + a.adjoint()), a):
            rep = classify(x)
            M = AMatrix.from_entries([[x]])
            psd = psd_check(M)
            # psd_check's report leaves out the eigenvalues of a non-self-adjoint matrix
            lowest = min(_psd_stack(M, DEFAULT_TOL).min_eigenvalues[0])
            assert rep.is_selfadjoint == bool(psd.min_eigenvalue_per_block)
            assert rep.is_positive == psd.is_positive
            assert bits(rep.hermitian_defect) == bits(psd.hermitian_defect)
            assert bits(rep.min_spectrum) == bits(lowest)
            if rep.is_selfadjoint:
                assert bits(rep.min_spectrum) == bits(psd.min_eigenvalue)
            kinds.add((rep.is_selfadjoint, rep.is_positive))
    # positive, self-adjoint but not positive, and not self-adjoint all occur
    assert kinds == {(True, True), (True, False), (False, False)}


def _forced_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("forced")


def _eig_calls():
    """Name -> (solver that fails, call, block the error names) for every
    public entry point that reaches an eigensolver."""
    cfg = GenConfig(seed=3, shape=AlgebraShape((2,)), n=2)
    _, M = random_positive_matrix(cfg)
    x = random_selfadjoint_element(cfg, norm_cap=1.0)
    return {
        "psd_check": ("eigvalsh", lambda: psd_check(M), 0),
        "classify": ("eigvalsh", lambda: classify(x * x), 0),
        "elem_sin": ("eigh", lambda: elem_sin(x), None),
        "random_unit_diagonal_positive": ("eigh", lambda: random_unit_diagonal_positive(cfg), 0),
    }


@pytest.mark.parametrize("name", list(_eig_calls()))
def test_eigensolver_failure_is_numerical_error(name, monkeypatch):
    solver, call, block = _eig_calls()[name]
    monkeypatch.setattr(np.linalg, solver, _forced_failure)
    with pytest.raises(NumericalError) as err:
        call()
    where = "in sin" if block is None else f"on block {block}"
    assert str(err.value) == f"eigensolver failed {where}"
    assert err.value.block == block


def test_classify_nan_in_any_block_is_not_positive():
    # a NaN after a finite block used to be dropped by "first value wins"
    for shape in COMMUTATIVE_SHAPES[1:]:
        for pos in range(len(shape.blocks)):
            values = [np.nan if b == pos else 1.0 for b in range(len(shape.blocks))]
            rep = classify(comm_element(shape, *values))
            assert not rep.is_positive and not rep.is_selfadjoint, (shape, pos)
            assert np.isnan(rep.min_spectrum) and np.isnan(rep.hermitian_defect), (shape, pos)


def _solver_inputs(monkeypatch) -> list:
    """Every array numpy's svd, eigvalsh and eigh are called with, from now on."""
    seen = []
    for name in ("svd", "eigvalsh", "eigh"):
        def spy(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            seen.append(np.asarray(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return seen


# an infinity makes NaNs when a block is symmetrized; numpy warns about them
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, complex(np.nan, 1.0), np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)])
def test_non_finite_entries_never_reach_lapack(value, at, monkeypatch):
    seen = _solver_inputs(monkeypatch)
    shape, eye = AlgebraShape((1, 3)), np.eye(3, dtype=complex)
    # in a 1x1 flattened block: not positive, with a NaN margin
    odd = np.full((1, 1), value, dtype=complex)
    rep = psd_check(AMatrix(shape, [odd[None, None], eye[None, None]]))
    assert not rep.is_positive and np.isnan(rep.margin)
    assert not classify(Element(shape, [odd, eye])).is_positive
    # in a 3x3 one, even where the block still equals its adjoint: NumericalError
    bad = eye.copy()
    bad[at] = value
    bad[at[::-1]] = np.conj(value)
    with pytest.raises(NumericalError, match="^non-finite entries on block 1$"):
        psd_check(AMatrix(shape, [np.ones((1, 1, 1, 1)), bad[None, None]]))
    with pytest.raises(NumericalError, match="^non-finite entries on block 1$"):
        classify(Element(shape, [np.ones((1, 1)), bad]))
    # its norm: a NaN raises, an infinite entry gives NaN, as the SVD did
    if np.isnan(value):
        with pytest.raises(NumericalError, match="^norm of a matrix with NaN entries$"):
            Element(shape, [np.ones((1, 1)), bad]).norm()
    else:
        assert np.isnan(Element(shape, [np.ones((1, 1)), bad]).norm())
    assert seen and all(np.isfinite(a).all() for a in seen)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [complex(0, np.inf), complex(1, np.inf)])
def test_infinite_hermitian_defect_is_not_selfadjoint(value):
    # the cut tol * max(1, scale) is infinite too, and inf <= inf
    shape = AlgebraShape((1,))
    rep = classify(Element(shape, [[[value]]]))
    assert not rep.is_selfadjoint and not rep.is_positive
    assert rep.hermitian_defect == np.inf
    rep = psd_check(AMatrix(shape, [[[[[value]]]]]))
    assert not rep.is_positive and rep.hermitian_defect == np.inf
    # no eigenvalues are listed for a matrix that is not self-adjoint
    assert rep.min_eigenvalue_per_block == () and rep.min_eigenvalue is None


def test_an_infinite_entry_raises_numerical_error_not_a_warning():
    # 0.5 times an infinite entry, when a block is symmetrized, has a NaN part;
    # numpy's warning about it must not replace the error that reports it
    shape = AlgebraShape((2, 1))
    blocks = [np.diag([np.inf, 1.0]), np.ones((1, 1))]
    a, m = Element(shape, blocks), AMatrix(shape, [b[None, None] for b in blocks])
    calls = [
        (lambda: elem_exp(a), "in exp"),
        (lambda: elem_sin(a), "in sin"),
        (lambda: elem_cos(a), "in cos"),
        (lambda: classify(a), "on block 0"),
        (lambda: psd_check(m), "on block 0"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, where in calls:
            with pytest.raises(NumericalError) as err:
                call()
            assert str(err.value) == f"non-finite entries {where}"


def _outcome(call):
    """What ``call`` returns, or the text of the ``NumericalError`` it raises."""
    try:
        return call()
    except NumericalError as exc:
        return str(exc)


@pytest.mark.parametrize("blocks", [(2, 1), (1, 1), (3,)], ids=str)
def test_norms_equal_each_values_own_norm(blocks, monkeypatch):
    # one _spectral_norm call per block for all the values, each member's norm
    # bit for bit as Element.norm or mat_norm takes it alone: an infinite entry
    # gives NaN, and a NaN entry raises the first error the norms raise alone
    # (over 1x1 blocks it gives NaN too)
    shape = AlgebraShape(blocks)
    cfgs = [GenConfig(seed=s, shape=shape, n=2) for s in range(4)]
    x = _stack([random_element(c) for c in cfgs])
    y = _stack([random_selfadjoint_element(c) for c in cfgs])
    A = _stack([random_matrix(c) for c in cfgs])
    calls = []
    spectral_norm = algebra._spectral_norm

    def counted(mats):
        calls.append(mats.shape)
        return spectral_norm(mats)

    monkeypatch.setattr(algebra, "_spectral_norm", counted)
    for odd in (None, np.inf, np.nan):
        z = x
        if odd is not None:
            planted = x.blocks[0].copy()
            planted[2, 0, 0] = odd
            z = x._like((planted,) + x.blocks[1:])
        values = [y, z, x]
        want = _outcome(lambda: [v.norm() for v in values])
        calls.clear()
        got = _outcome(lambda: list(_norms(*(v.blocks for v in values))))
        if isinstance(want, str):
            assert got == want
        else:
            assert len(calls) == len(blocks)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert np.isfinite(want[1][2]) == (odd is None)
    got = _norms(flatten(A), flatten(A._at(np.s_[::-1])))
    assert [g.tobytes() for g in got] == [mat_norm(A).tobytes(), mat_norm(A._at(np.s_[::-1])).tobytes()]
    # one value with no batch axes: a 0-d norm
    assert _norms(x._at(0).blocks)[0] == x._at(0).norm()


def test_spectral_scale_agrees_with_the_top_singular_value():
    # an exactly Hermitian member's scale is max|λ| from eigvalsh, not an SVD
    rng = np.random.default_rng(16)
    g = rng.standard_normal((200, 16, 16)) + 1j * rng.standard_normal((200, 16, 16))
    gram = g @ g.conj().swapaxes(-1, -2)
    m = (gram + gram.conj().swapaxes(-1, -2)) / 2
    stack = _psd_stack(AMatrix._wrap(AlgebraShape((16,)), [m[:, None, None]]), DEFAULT_TOL)
    assert stack.is_positive.all() and (stack.hermitian_defect == 0).all()
    top = np.linalg.svd(m, compute_uv=False)[:, 0]
    ulps = np.abs(stack.scale - top) / (np.finfo(float).eps * top)
    assert ulps.max() <= 16


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_element_norms_keep_a_nan_in_any_block(pos):
    # Python's max over the blocks dropped a NaN that is not first
    shape = AlgebraShape((1, 1, 1))
    blocks = [np.array([[v]], complex) for v in (0.5, 2.0, 0.25)]
    a = Element(shape, blocks)
    assert a.norm() == 2.0 and hermitian_defect(a) == 0.0
    blocks[pos] = np.array([[complex(np.nan, 1.0)]])
    a = Element(shape, blocks)
    assert np.isnan(a.norm()) and np.isnan(hermitian_defect(a))
