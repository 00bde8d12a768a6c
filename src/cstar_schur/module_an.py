"""The standard Hilbert C*-module A^n over a finite-dimensional C*-algebra.

Vectors are n-tuples of algebra elements with the A-valued inner product

    <x, y> = sum_j x_j y_j^*,

linear in the first slot. The induced scalar norm is ||<x,x>||^(1/2).
Internally a vector stores one (n, k_b, k_b) array per block, after any batch
axes (see ``algebra._Blocks``).
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraShape, Element, _SizedBlocks, _adjoint, _units
from .errors import StructureError


class AVector(_SizedBlocks):
    """An element of A^n, stored blockwise as (n, k, k) arrays."""

    __slots__ = ()
    _lead = 1

    @classmethod
    def from_elements(cls, entries) -> "AVector":
        entries = list(entries)
        if not entries:
            raise StructureError("vectors need length >= 1")
        shape = entries[0].shape
        for e in entries:
            if e.shape != shape:
                raise StructureError("entries live in different algebras")
        blocks = tuple(
            np.stack([e.blocks[b] for e in entries])
            for b in range(len(shape.blocks))
        )
        # the validated constructor: an entry with batch axes is rejected
        return cls(shape, blocks)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> Element:
        return Element._wrap(self.shape, tuple(b[..., j, :, :].copy() for b in self.blocks))

    def entrywise_adjoint(self) -> "AVector":
        """The vector (x_1^*, ..., x_n^*)."""
        return self._like(tuple(_adjoint(b) for b in self.blocks))

    def to_json(self) -> dict:
        # entry j is Element.to_json of self[j]
        return {"entries": [{"blocks": list(cell)} for cell in zip(*self._pairs())]}

    @classmethod
    def from_json(cls, shape: AlgebraShape, data: dict) -> "AVector":
        return cls.from_elements(
            Element.from_json(shape, entry) for entry in data["entries"]
        )


def left_mul(a: Element, x: AVector) -> AVector:
    """The module action (a x)_j = a x_j."""
    if a.shape != x.shape:
        raise StructureError("algebra shapes differ")
    blocks = zip(a.blocks, x.blocks)
    return x._like(tuple(np.einsum("...ab,...jbc->...jac", ab, xb) for ab, xb in blocks))


def inner_product(x: AVector, y: AVector) -> Element:
    """<x, y> = sum_j x_j y_j^*."""
    x._require_same(y)
    blocks = zip(x.blocks, y.blocks)
    return Element._wrap(
        x.shape, tuple(np.einsum("...jab,...jcb->...ac", xb, yb.conj()) for xb, yb in blocks)
    )


def cauchy_schwarz_gap(x: AVector, y: AVector) -> Element:
    """The element ||<y,y>|| <x,x> - <x,y><y,x>, positive for every x, y."""
    x._require_same(y)
    yy = inner_product(y, y)
    xy = inner_product(x, y)
    yx = inner_product(y, x)
    return yy.norm() * inner_product(x, x) - xy * yx


def ones_vector(shape: AlgebraShape, n: int) -> AVector:
    """e_n = (1, 1, ..., 1), the all-units vector."""
    return AVector._wrap(shape, _units(shape, (n,)))
