"""The blockwise storage that Element, AVector and AMatrix share: construction
checks, same-operand checks, the linear structure, the [re, im] encoding, and
values with batch axes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstar_schur import (
    AlgebraShape,
    AMatrix,
    AVector,
    Element,
    GenConfig,
    NumericalError,
    StructureError,
    commutator_norm,
    diag_matrix,
    diag_vector,
    element_scale,
    hermitian_defect,
    identity_element,
    identity_matrix,
    inner_product,
    left_mul,
    mat_norm,
    ones_vector,
    outer_product,
    random_matrix,
    random_vector,
    row_sums,
    schur_product,
)
from cstar_schur.algebra import _spectral_norm, _stack
from cstar_schur.amatrix import _gram_block, _schur_block
from cstar_schur.verify import _random_pairs

SHAPE = AlgebraShape((2, 1))

# leading axes of each class: element, vector in A^n, matrix in M_n(A)
KINDS = [(Element, ()), (AVector, (3,)), (AMatrix, (3, 3))]
KIND_IDS = ["element", "vector", "matrix"]


def _blocks(lead, shape=SHAPE):
    return [np.ones(lead + (k, k)) for k in shape.blocks]


@pytest.mark.parametrize("cls, lead", KINDS, ids=KIND_IDS)
def test_valid_blocks_are_locked_copies(cls, lead):
    raw = _blocks(lead)
    x = cls(SHAPE, raw)
    assert x.shape == SHAPE
    assert [b.shape for b in x.blocks] == [r.shape for r in raw]
    assert all(b.dtype == np.complex128 and not b.flags.writeable for b in x.blocks)
    if lead:
        assert x.n == 3
    raw[0][...] = 5.0
    assert x.blocks[0].reshape(-1)[0] == 1.0


@pytest.mark.parametrize("cls, lead", KINDS, ids=KIND_IDS)
def test_wrong_block_count(cls, lead):
    with pytest.raises(StructureError, match="expected 2 blocks, got 1"):
        cls(SHAPE, _blocks(lead)[:1])
    with pytest.raises(StructureError, match="expected 2 blocks, got 3"):
        cls(SHAPE, _blocks(lead) + [np.ones(lead + (1, 1))])


@pytest.mark.parametrize("cls, lead", KINDS, ids=KIND_IDS)
def test_wrong_entry_dims(cls, lead):
    bad = [np.ones(lead + (1, 1)), np.ones(lead + (1, 1))]
    want = ", ".join(["n"] * len(lead) + ["2", "2"])
    with pytest.raises(StructureError, match=rf"block 0 must have shape \({want}\)"):
        cls(SHAPE, bad)
    # an extra axis, or a missing leading one, is a wrong shape as well
    for arr in (np.ones(lead + (1, 2, 2)),) + ((np.ones((2, 2)),) if lead else ()):
        with pytest.raises(StructureError):
            cls(SHAPE, [arr, np.ones(lead + (1, 1))])


# blocks that are not arrays of numbers, each given its leading axes
NOT_NUMBERS = {
    "object_string": lambda lead: np.full(lead + (1, 1), "1", dtype=object),
    "none": lambda lead: np.full(lead + (1, 1), None).tolist(),
    "bool": lambda lead: np.ones(lead + (1, 1), dtype=bool),
    "string": lambda lead: np.full(lead + (1, 1), "x").tolist(),
    "ragged": lambda lead: [[1], [2, 3]],
}


@pytest.mark.parametrize("raw", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("cls, lead", KINDS, ids=KIND_IDS)
def test_blocks_must_be_arrays_of_numbers(cls, lead, raw):
    # cast to complex unchecked, "1" and True would read as 1 and None as NaN
    with pytest.raises(StructureError, match="blocks must"):
        cls(AlgebraShape((1,)), [raw(lead)])


@pytest.mark.parametrize("cls, lead", KINDS, ids=KIND_IDS)
def test_repr_shows_the_batch_and_the_norm_of_one_value_only(cls, lead):
    x = cls(SHAPE, _blocks(lead))
    sized = f"n={x.n}, " if lead else ""
    alone = f"{cls.__name__}({sized}shape=(2, 1)"
    assert repr(x) == alone + (", norm=2)" if cls is Element else ")")
    assert repr(_stack([x, x])) == alone + ", batch=(2,))"
    assert repr(_stack([x, x])._reshape((1, 2))) == alone + ", batch=(1, 2))"


def test_matrix_needs_square_leading_axes():
    with pytest.raises(StructureError, match=r"\(n, n, 2, 2\), got \(2, 3, 2, 2\)"):
        AMatrix(SHAPE, [np.ones((2, 3, 2, 2)), np.ones((2, 3, 1, 1))])


@pytest.mark.parametrize("cls, lead", KINDS[1:], ids=KIND_IDS[1:])
def test_blocks_must_agree_on_n(cls, lead):
    other = (2,) * len(lead)
    want = ", ".join(["3"] * len(lead) + ["1", "1"])
    with pytest.raises(StructureError, match=rf"block 1 must have shape \({want}\)"):
        cls(SHAPE, [np.ones(lead + (2, 2)), np.ones(other + (1, 1))])


@pytest.mark.parametrize("cls, lead", KINDS[1:], ids=KIND_IDS[1:])
def test_n_must_be_positive(cls, lead):
    empty = (0,) * len(lead)
    with pytest.raises(StructureError, match="n must be >= 1"):
        cls(SHAPE, [np.ones(empty + (k, k)) for k in SHAPE.blocks])


@pytest.mark.parametrize("cls, lead", KINDS, ids=KIND_IDS)
def test_require_same_rejects_other_shape_or_size(cls, lead):
    x = cls(SHAPE, _blocks(lead))
    x._require_same(cls(SHAPE, _blocks(lead)))
    other_shape = AlgebraShape((1, 2))
    with pytest.raises(StructureError):
        x._require_same(cls(other_shape, _blocks(lead, other_shape)))
    with pytest.raises(StructureError):
        x + cls(other_shape, _blocks(lead, other_shape))
    if lead:
        smaller = cls(SHAPE, _blocks((2,) * len(lead)))
        with pytest.raises(StructureError):
            x._require_same(smaller)
        with pytest.raises(StructureError):
            x - smaller


def test_operands_of_another_kind_are_type_errors():
    e = identity_element(SHAPE)
    x = ones_vector(SHAPE, 1)
    M = identity_matrix(SHAPE, 1)
    for a, b in ((e, M), (M, e), (x, M), (M, x), (e, x)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    with pytest.raises(TypeError):
        x * x


def test_vector_linear_structure_is_blockwise():
    x = random_vector(GenConfig(seed=3, shape=SHAPE, n=3))
    y = random_vector(GenConfig(seed=4, shape=SHAPE, n=3))
    lam = 0.5 - 2j
    for got, want in (
        (lam * x, [lam * b for b in x.blocks]),
        (x * lam, [lam * b for b in x.blocks]),
        (2 * x, [2.0 * b for b in x.blocks]),
        (-x, [-b for b in x.blocks]),
        (x + y, [a + b for a, b in zip(x.blocks, y.blocks)]),
        (x - y, [a - b for a, b in zip(x.blocks, y.blocks)]),
    ):
        assert type(got) is AVector and got.n == 3 and got.shape == SHAPE
        assert all(np.array_equal(g, w) for g, w in zip(got.blocks, want))
    # the module action of a scalar is that of the scalar element, entry by entry
    assert all(np.array_equal((lam * x)[j].blocks[b], (lam * x[j]).blocks[b])
               for j in range(3) for b in range(2))


def test_scalar_action_agrees_across_kinds():
    M = random_matrix(GenConfig(seed=5, shape=SHAPE, n=2))
    lam = -1.5 + 0.25j
    scaled = lam * M
    assert type(scaled) is AMatrix and type(-M) is AMatrix
    for j in range(2):
        for l in range(2):
            want = lam * M.entry(j, l)
            got = scaled.entry(j, l)
            assert all(np.array_equal(a, b) for a, b in zip(got.blocks, want.blocks))


@pytest.mark.parametrize("shape", [AlgebraShape((1,)), AlgebraShape((1, 1)), SHAPE], ids=str)
def test_vector_json_is_the_element_encoding_of_each_entry(shape):
    specials = [-0.0, complex(-0.0, -0.0), np.nan, complex(0.0, np.inf), -np.inf]
    blocks = []
    for b in random_vector(GenConfig(seed=9, shape=shape, n=3)).blocks:
        flat = b.reshape(-1).copy()
        count = min(len(specials), flat.size)
        flat[:count] = specials[:count]
        blocks.append(flat.reshape(b.shape))
    x = AVector(shape, blocks)
    want = {"entries": [x[j].to_json() for j in range(x.n)]}
    # repr tells -0.0 from 0.0 and NaN from a number
    assert repr(x.to_json()) == repr(want)
    assert type(x.to_json()["entries"][0]["blocks"][0][0][0][0]) is float


# -- values with batch axes ---------------------------------------------------

# every batched operation and reduction, on (elements x, y, vectors u, v,
# matrices M, N, scalars lam): member i of its result on a batch must be its
# result on the members i alone
BATCHED_OPS = {
    "add": lambda a: a["M"] + a["N"],
    "sub": lambda a: a["x"] - a["y"],
    "neg": lambda a: -a["u"],
    "scalar": lambda a: (0.5 - 2j) * a["M"],
    "scalar per member": lambda a: a["lam"] * a["M"],
    "element product": lambda a: a["x"] * a["y"],
    "matrix product": lambda a: a["M"] @ a["N"],
    "matrix on vector": lambda a: a["M"] @ a["u"],
    "element adjoint": lambda a: a["x"].adjoint(),
    "matrix adjoint": lambda a: a["M"].adjoint(),
    "transpose": lambda a: a["M"].transpose(),
    "trace": lambda a: a["M"].trace(),
    "schur product": lambda a: schur_product(a["M"], a["N"]),
    "element scale": lambda a: element_scale(a["x"], a["M"]),
    "diag matrix": lambda a: diag_matrix(a["u"]),
    "diag vector": lambda a: diag_vector(a["M"]),
    "row sums": lambda a: row_sums(a["M"]),
    "outer product": lambda a: outer_product(a["u"]),
    "inner product": lambda a: inner_product(a["u"], a["v"]),
    "left mul": lambda a: left_mul(a["x"], a["u"]),
    "entry": lambda a: a["M"].entry(0, a["M"].n - 1),
    "norm": lambda a: a["x"].norm(),
    "mat norm": lambda a: mat_norm(a["M"]),
    "hermitian defect": lambda a: hermitian_defect(a["x"]),
    "commutator norm": lambda a: commutator_norm(a["x"], a["y"]),
}


def _bits(value):
    """The float64 words of a value or a number, NaNs zeroed, and where the NaNs are."""
    arrays = value.blocks if hasattr(value, "blocks") else (value,)
    words = [np.atleast_1d(np.asarray(a, np.complex128)).view(np.float64) for a in arrays]
    return [(np.where(np.isnan(w), 0.0, w).tobytes(), np.isnan(w).tobytes()) for w in words]


def _batched_values(shape, n, size, seed, special):
    rng = np.random.default_rng(seed)

    def draw(lead, cls):
        blocks = []
        for k in shape.blocks:
            dims = (size,) + (n,) * lead + (k, k)
            blocks.append(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
        if special == "nan":
            # in a later block of the last member: a 1x1 block's norm is NaN,
            # a larger block's raises, alone as in the batch
            blocks[-1][-1].flat[0] = np.nan
        elif special == "signed zeros":
            # member 0 is zero with signed zeros, so every block norm ties at 0
            for b in blocks:
                signs = rng.random(b[0].shape) < 0.5
                b[0] = np.where(signs, -0.0, 0.0) + 1j * np.where(signs, 0.0, -0.0)
        return cls._wrap(shape, blocks)

    values = {"x": draw(0, Element), "y": draw(0, Element), "u": draw(1, AVector),
              "v": draw(1, AVector), "M": draw(2, AMatrix), "N": draw(2, AMatrix)}
    values["lam"] = rng.standard_normal(size)
    return values


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(1,), (1, 1), (2,), (2, 1), (3,)]),
    n=st.integers(1, 3),
    size=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
    special=st.sampled_from([None, "nan", "signed zeros"]),
)
def test_batched_values_give_each_member_its_alone_bits(shape, n, size, seed, special):
    batch = _batched_values(AlgebraShape(shape), n, size, seed, special)
    members = [
        {key: v[i] if key == "lam" else v._at(i) for key, v in batch.items()} for i in range(size)
    ]
    for name, op in BATCHED_OPS.items():
        alone = []
        for member in members:
            try:
                alone.append(op(member))
            except NumericalError:
                alone.append(None)
        try:
            got = op(batch)
        except NumericalError:
            assert None in alone, name
            continue
        assert None not in alone, name
        for i, want in enumerate(alone):
            mine = got._at(i) if hasattr(got, "blocks") else got[i]
            assert _bits(mine) == _bits(want), (name, i)
            assert type(mine) is type(want) or isinstance(want, float), name
    stack = batch["M"].blocks[-1].reshape(-1, *batch["M"].blocks[-1].shape[-2:])
    if special != "nan" or stack.shape[-1] == 1:
        norms = _spectral_norm(stack)
        assert _bits(norms) == _bits(np.array([_spectral_norm(m) for m in stack]))
    # the validated constructors take one value, never a batch
    x = batch["x"]
    with pytest.raises(StructureError):
        Element(x.shape, x.blocks)
    with pytest.raises(StructureError):
        AMatrix.from_entries([[x]])
    with pytest.raises(StructureError):
        AVector.from_elements([x])


SCHUR_SUBSCRIPTS = "...jlab,...jlbc->...jlac"


def _c_ordered_schur_block(a, b):
    """The reference: the symmetrized product's block from C-ordered einsums."""
    return 0.5 * (np.einsum(SCHUR_SUBSCRIPTS, a, b) + np.einsum(SCHUR_SUBSCRIPTS, b, a))


def _assert_same_words(a, b):
    got = _schur_block(a, b)
    want = _c_ordered_schur_block(a, b)
    assert got.flags.c_contiguous
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(want).view(np.uint64))


def _special_block(rng, lead, n, k, layout, special):
    dims = lead + (n, n, k, k)
    x = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    if layout == "gram":
        x = _gram_block(x)  # a strided view, as the draws hand it on
    cells = rng.random(dims) < 0.3
    if special == "signed zeros":
        parts = np.where(rng.random((cells.sum(), 2)) < 0.5, -0.0, 0.0)
        x[cells] = parts.view(np.complex128).ravel()
    elif special == "nan":
        x[cells] = complex(np.nan, 1.0)
    elif special == "inf":
        x[cells] = np.where(rng.random(cells.sum()) < 0.5, np.inf, -np.inf) + 1j
    elif special == "huge":
        x *= 1e300
    return x


@settings(max_examples=80, deadline=None)
@given(
    lead=st.sampled_from([(), (3,), (17,)]),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    layouts=st.tuples(*[st.sampled_from(["c", "gram"])] * 2),
    specials=st.tuples(*[st.sampled_from([None, "signed zeros", "nan", "inf", "huge"])] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_schur_block_keeps_the_c_ordered_bits(lead, n, k, layouts, specials, seed):
    # numpy's F-ordered iteration sums each entry's k terms in the C order
    rng = np.random.default_rng(seed)
    a, b = (_special_block(rng, lead, n, k, *ls) for ls in zip(layouts, specials))
    with np.errstate(all="ignore"):
        _assert_same_words(a, b)


def test_schur_block_keeps_the_bits_of_a_search_chunk():
    # trials 1..32 of the search at n = 8: the (32, 8, 8, 2, 2) Gram views it stacks
    cfg = GenConfig(seed=2024, shape=AlgebraShape((2,)), n=8)
    M, N, _ = _random_pairs(cfg, range(1, 33))
    assert M.blocks[0].shape == (32, 8, 8, 2, 2) and not M.blocks[0].flags.c_contiguous
    _assert_same_words(M.blocks[0], N.blocks[0])
