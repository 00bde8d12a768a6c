"""Seeded generators: determinism, substreams, and structural guarantees."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    DomainError,
    GenConfig,
    StructureError,
    commutator_norm,
    derive_seed,
    fnv1a64,
    haar_unitary,
    hermitian_defect,
    identity_element,
    mat_norm,
    mix64,
    psd_check,
    random_commuting_family,
    random_commuting_spectral_pair,
    random_element,
    random_matrix,
    random_positive_matrix,
    random_selfadjoint_element,
    random_selfadjoint_points,
    random_unit_diagonal_positive,
    random_vector,
    schur_product,
)
from cstar_schur.algebra import _exactly_hermitian, _hermitian_part
from cstar_schur.amatrix import diag_matrix, flatten
from cstar_schur import generate, verify
from cstar_schur.generate import STYLES, _from_normals, _mix64s, _normals, _Streams
from conftest import COMMUTATIVE_SHAPES, NONCOMMUTATIVE_SHAPES

ALL_SHAPES = COMMUTATIVE_SHAPES + NONCOMMUTATIVE_SHAPES


# -- seed derivation ----------------------------------------------------------


def test_mix64_matches_splitmix64_reference():
    # independent reference implementation of the SplitMix64 finalizer
    def ref(seed, index):
        z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    for seed, index in [(0, 0), (1, 0), (0, 1), (2024, 17), (2**63, 12345)]:
        assert mix64(seed, index) == ref(seed, index)


def test_fnv1a64_frozen_values():
    # canonical FNV-1a offset basis and a published test vector
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_derive_seed_composes():
    assert derive_seed(7, 1, 2) == mix64(mix64(7, 1), 2)
    assert derive_seed(7) == 7


def test_substreams_differ():
    cfg = GenConfig(seed=5, shape=AlgebraShape((2,)), n=2)
    seeds = {cfg.derive(i).seed for i in range(100)}
    assert len(seeds) == 100


# -- config -------------------------------------------------------------------


def test_genconfig_validation():
    shape = AlgebraShape((2,))
    with pytest.raises(StructureError):
        GenConfig(seed=1, shape=shape, n=0)
    for scale in (0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="finite and positive"):
            GenConfig(seed=1, shape=shape, entry_scale=scale)
    with pytest.raises(DomainError):
        GenConfig(seed=1, shape=shape, style="gaussian")


def test_genconfig_json_roundtrip():
    cfg = GenConfig(
        seed=42, shape=AlgebraShape((2, 1)), n=3, entry_scale=0.5, style="real_commutative"
    )
    assert GenConfig.from_json(cfg.to_json()) == cfg
    # the form of a report's config: a block list, other keys ignored
    assert cfg.to_json()["shape"] == [2, 1]
    assert GenConfig.from_json({**cfg.to_json(), "trials": 5, "tol": 1e-9}) == cfg


def test_capped_leaves_a_member_with_a_nan_block_unscaled():
    # the norm of a member is Element.norm's: a NaN in a later block is not
    # dropped for an earlier block's norm over the cap
    blocks = (np.array([[[[4.0 + 0j]]], [[[4.0]]]]), np.array([[[[np.nan + 0j]]], [[[1.0]]]]))
    capped = generate._capped(blocks, 2.0)
    assert capped[0][0, 0, 0, 0] == 4.0 and np.isnan(capped[1][0, 0, 0, 0])
    assert capped[0][1, 0, 0, 0] == 2.0 and capped[1][1, 0, 0, 0] == 0.5


def test_draws_are_deterministic():
    cfg = GenConfig(seed=31337, shape=AlgebraShape((2, 1)), n=3)
    a = random_matrix(cfg)
    b = random_matrix(cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


def test_styles_differ_and_real_style_is_real():
    shape = AlgebraShape((1, 1))
    real = GenConfig(seed=3, shape=shape, n=2, style="real_commutative")
    cplx = GenConfig(seed=3, shape=shape, n=2, style="complex")
    rm = random_matrix(real)
    cm = random_matrix(cplx)
    assert all(np.all(b.imag == 0.0) for b in rm.blocks)
    assert any(np.any(b.imag != 0.0) for b in cm.blocks)


# -- structured draws ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(ALL_SHAPES) - 1), st.integers(0, 2**63 - 1))
def test_selfadjoint_draw_has_zero_defect(idx, seed):
    x = random_selfadjoint_element(GenConfig(seed=seed, shape=ALL_SHAPES[idx]))
    assert hermitian_defect(x) == 0.0


def test_selfadjoint_norm_cap():
    x = random_selfadjoint_element(
        GenConfig(seed=9, shape=AlgebraShape((3,)), entry_scale=100.0), norm_cap=2.5
    )
    assert x.norm() <= 2.5 + 1e-12


def test_selfadjoint_points_grid():
    cfg = GenConfig(seed=10, shape=AlgebraShape((1, 1)), n=3)
    pts = random_selfadjoint_points(cfg, d=4)
    assert len(pts) == 3 and all(len(r) == 4 for r in pts)
    for row in pts:
        for p in row:
            assert hermitian_defect(p) == 0.0
            assert p.norm() <= np.pi + 1e-12


def test_unit_diagonal_positive():
    for seed in range(25):
        cfg = GenConfig(
            seed=seed, shape=AlgebraShape((1, 1, 1)), n=4, style="real_commutative"
        )
        M = random_unit_diagonal_positive(cfg)
        assert psd_check(M).is_positive
        unit = identity_element(M.shape)
        residual = max((M.entry(j, j) - unit).norm() for j in range(M.n))
        assert residual <= 1e-10


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for k in (1, 2, 5):
        u = haar_unitary(rng, k)
        assert np.allclose(u @ u.conj().T, np.eye(k), atol=1e-12)


def test_commuting_family_properties():
    cfg = GenConfig(seed=23, shape=AlgebraShape((3, 2)), n=2)
    fam = random_commuting_family(cfg, 6, selfadjoint=True)
    for i, a in enumerate(fam):
        assert hermitian_defect(a) == 0.0
        for b in fam[i + 1 :]:
            assert commutator_norm(a, b) <= 1e-12
    pos = random_commuting_family(cfg, 3, positive=True)
    from cstar_schur import classify

    assert all(classify(p).is_positive for p in pos)


def test_commuting_spectral_pair_structure():
    cfg = GenConfig(seed=4, shape=AlgebraShape((2,)), n=3)
    data = random_commuting_spectral_pair(cfg)
    M, N, U, V = data["M"], data["N"], data["U"], data["V"]
    lam, mu = data["lam"], data["mu"]
    ident_flat = np.eye(3 * 2)
    from cstar_schur import flatten

    assert np.allclose(flatten(U @ U.adjoint())[0], ident_flat, atol=1e-12)
    # reconstruction M = U diag(lam) U*
    recon = U @ diag_matrix(lam) @ U.adjoint()
    assert mat_norm(M - recon) <= 1e-10 * max(1.0, mat_norm(M))
    assert psd_check(M).is_positive and psd_check(N).is_positive
    # spectral data commutes pairwise, entry by entry
    worst = max(
        commutator_norm(U.entry(0, 0), V.entry(1, 2)),
        commutator_norm(U.entry(0, 1), lam[0]),
        commutator_norm(lam[1], mu[2]),
    )
    assert worst <= 1e-12
    # and the Schur product of such a pair stays positive
    assert psd_check(schur_product(M, N)).is_positive


def _uint64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_gram_positive_matrices(seed):
    G, M = random_positive_matrix(GenConfig(seed=seed, shape=AlgebraShape((2, 1)), n=3))
    assert psd_check(M).is_positive
    # M is the Hermitian part of G G*, bit for bit, so it equals its adjoint
    # exactly (the product alone does not at this size)
    for m, gram in zip(flatten(M), flatten(G @ G.adjoint())):
        assert np.array_equal(_uint64(m), _uint64(_hermitian_part(gram)))
    assert _exactly_hermitian([f[None] for f in flatten(M)])[0]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1,), (3,), (2, 1), (2, 2)]),
    st.integers(1, 8),
    st.sampled_from(STYLES),
    st.sampled_from([0.37, 1.0, 2.5]),
    st.integers(0, 2**63 - 1),
)
def test_every_gram_draw_is_exactly_hermitian(shape, n, style, scale, seed):
    # the oracle then reads every member from its spectrum, with no SVD
    cfg = GenConfig(seed=seed, shape=AlgebraShape(shape), n=n, entry_scale=scale, style=style)
    _, M = generate._positive_stack(cfg, _Streams(generate._seeds(cfg, range(3))))
    flats = [f.reshape(-1, *f.shape[-2:]) for f in flatten(M)]
    assert _exactly_hermitian(flats).all()


def test_vector_and_element_shapes():
    cfg = GenConfig(seed=6, shape=AlgebraShape((2, 1)), n=4)
    x = random_vector(cfg)
    assert len(x) == 4
    e = random_element(cfg)
    assert e.shape == cfg.shape


# -- the draw path ------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("style", STYLES)
def test_draw_matches_the_two_call_reference_bitwise(style, scale):
    shapes = [(1, 1), (2, 2), (3, 3, 2, 2), (4, 2), (8, 8, 1, 1)]
    for seed in range(200):
        dims = shapes[seed % len(shapes)]
        got_rng = np.random.default_rng(seed)
        parts = () if style == "real_commutative" else (2,)
        got = _from_normals(_normals([got_rng], [parts + dims])[0], scale, style)[0]
        rng = np.random.default_rng(seed)
        if style == "real_commutative":
            want = (scale * rng.standard_normal(dims)).astype(np.complex128)
        else:
            re = rng.standard_normal(dims)
            im = rng.standard_normal(dims)
            want = (re + 1j * im) * (scale / np.sqrt(2.0))
        assert got.dtype == np.complex128 and got.shape == dims
        assert got.tobytes() == want.tobytes()
        # both leave the stream at the same place
        assert got_rng.standard_normal() == rng.standard_normal()


# -- bulk-seeded streams ------------------------------------------------------

# one- and two-word seeds at the ends of both ranges
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def test_bulk_streams_equal_default_rng_bitwise():
    rng = np.random.default_rng(11)
    seeds = np.array(
        EDGE_SEEDS
        + [derive_seed(2024, t, j) for t in range(1, 2001) for j in (0, 1)]
        + rng.integers(0, 2**32, 3000, dtype=np.uint64).tolist()
        + rng.integers(0, 2**64 - 1, 3000, dtype=np.uint64, endpoint=True).tolist(),
        dtype=np.uint64,
    )
    # one- and two-word seeds interleaved in one call
    seeds = rng.permutation(seeds).tolist()
    assert len(seeds) >= 10_000
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [g.standard_normal(3).tobytes() for g in _Streams(seeds)]
    assert got == [np.random.default_rng(s).standard_normal(3).tobytes() for s in seeds]


def test_stream_states_equal_default_rng():
    # the full PCG64 state, not only the first draws: state, increment and the
    # buffered 32-bit half all start as default_rng(seed) starts them
    seeds = EDGE_SEEDS + [derive_seed(2024, t, j) for t in (0, 1, 999) for j in (0, 1)]
    got = [g.bit_generator.state for g in _Streams(seeds)]
    assert got == [np.random.default_rng(s).bit_generator.state for s in seeds]


def test_empty_streams_yield_nothing():
    streams = _Streams([])
    assert len(streams) == 0
    assert list(streams) == []


def test_kept_generators_each_keep_their_own_stream():
    # collected before any is used, each generator still draws its own seed's
    # stream, in any order of use
    seeds = EDGE_SEEDS + [derive_seed(7, t) for t in range(20)]
    streams = _Streams(seeds)
    gens = list(streams)
    assert len({id(g) for g in gens}) == len({id(g.bit_generator) for g in gens}) == len(seeds)
    got = [g.standard_normal(5).tobytes() for g in reversed(gens)][::-1]
    assert got == [np.random.default_rng(s).standard_normal(5).tobytes() for s in seeds]
    # the draws leave the streams object as it was: a second pass starts over
    assert [g.standard_normal(5).tobytes() for g in streams] == got


def test_vectorized_mix64_equals_derive_seed():
    seeds = EDGE_SEEDS + [2**63, 2024]
    indices = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 2, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _mix64s(np.array(seeds, np.uint64)[:, None], indices)
        chained = _mix64s(_mix64s(2**64 - 1, indices)[:, None], [0, 1])
        alone = _mix64s(2**64 - 1, 2**64 - 1)
    assert got.tolist() == [[derive_seed(s, i) for i in indices] for s in seeds]
    assert chained.tolist() == [[derive_seed(2**64 - 1, i, j) for j in (0, 1)] for i in indices]
    assert alone.tolist() == [derive_seed(2**64 - 1, 2**64 - 1)]


# -- chunk forms --------------------------------------------------------------


def _bytes(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return [_bytes(v) for v in value.values()]
    if isinstance(value, (list, tuple)):
        return [_bytes(v) for v in value]
    return [b.tobytes() for b in value.blocks]


def _chunk_cases(cfg, d):
    """(name, chunk form on generators, public draw of one config, index
    products of an instance's streams) for every chunk form."""
    g, n, cap = generate, cfg.n, cfg.entry_scale * np.pi
    elements = [generate.Element, generate.AVector, generate.AMatrix]
    single = [random_element, random_vector, random_matrix]
    cases = [
        (cls.__name__, lambda c, gens, cls=cls: g._gaussian_stack(c, gens, cls), public, ())
        for cls, public in zip(elements, single)
    ]
    cases += [
        ("positive", g._positive_stack, random_positive_matrix, ()),
        ("unit diagonal", g._unit_diagonal_stack, random_unit_diagonal_positive, ()),
        ("spectral pair", g._spectral_pair_stack, random_commuting_spectral_pair, ()),
        # an instance of points and of families is an AVector of its elements
        ("points", lambda c, gens: g._points_stack(c, gens, d),
         lambda c: [p for row in random_selfadjoint_points(c, d) for p in row],
         (range(n), range(d))),
        ("family", lambda c, gens: g._family_stack(c, gens, 3),
         lambda c: random_commuting_family(c, 3), ()),
        ("positive family", lambda c, gens: g._family_stack(c, gens, 2, positive=True),
         lambda c: random_commuting_family(c, 2, positive=True), ()),
        ("haar", lambda c, gens: g._haar(np.array([r.standard_normal((2, 3, 3)) for r in gens])),
         lambda c: haar_unitary(c.rng(), 3), ()),
    ]
    for norm_cap in (None, cap, 5.0):
        cases += [
            (f"self-adjoint cap {norm_cap}",
             lambda c, gens, m=norm_cap: g._selfadjoint_stack(c, gens, m),
             lambda c, m=norm_cap: random_selfadjoint_element(c, m), ()),
            (f"self-adjoint family cap {norm_cap}",
             lambda c, gens, m=norm_cap: g._family_stack(c, gens, n * d, True, norm_cap=m),
             lambda c, m=norm_cap: random_commuting_family(c, n * d, True, norm_cap=m), ()),
        ]
    return cases


def _members(drawn):
    """The members of a batched value in order, or tuples of those of a tuple of values."""
    if isinstance(drawn, tuple):
        return list(zip(*(_members(v) for v in drawn)))
    return [drawn._at(t) for t in range(drawn.batch[0])]


def test_chunk_forms_equal_each_instance_drawn_alone():
    # member i of a chunk form on bulk-seeded streams is the public generator
    # on cfg.derive(t), over a trial range that crosses a chunk boundary; the
    # caps (entry_scale * pi and 5.0) each both fire and stay idle
    capped = {}
    for shape, style, scale in itertools.product([(1, 1), (2, 1), (3,)], STYLES, (1.0, 0.37, 2.5)):
        cfg = GenConfig(2024, AlgebraShape(shape), n=2, entry_scale=scale, style=style)
        size = verify._chunk_size(cfg)
        alone = {}
        for name, form, public, indices in _chunk_cases(cfg, 3):
            for trials in (range(size - 4, size), range(size, size + 4)):
                drawn = form(cfg, _Streams(generate._seeds(cfg, trials, *indices)))
                members = list(drawn) if name == "haar" else _members(drawn)
                assert len(members) == len(trials), name
                for t, member in zip(trials, members):
                    if name == "points" or "family" in name:
                        member = _members(member)
                    want = _bytes(public(cfg.derive(t)))
                    assert _bytes(member) == want, (name, shape, style, scale, t)
                    alone[name, t] = want
        for t in range(size - 4, size + 4):
            for label in ("self-adjoint", "self-adjoint family"):
                free = alone[f"{label} cap None", t]
                for which, cap in (("pi", scale * np.pi), ("5", 5.0)):
                    capped.setdefault(which, set()).add(alone[f"{label} cap {cap}", t] != free)
    assert all(seen == {True, False} for seen in capped.values()), capped
