"""The blockwise storage that Element, AVector and AMatrix share: construction
checks, same-operand checks, the linear structure and the [re, im] encoding."""

import numpy as np
import pytest

from cstar_schur import (
    AlgebraShape,
    AMatrix,
    AVector,
    Element,
    GenConfig,
    StructureError,
    identity_element,
    identity_matrix,
    ones_vector,
    random_matrix,
    random_vector,
)

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
