"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

Every finite-dimensional C*-algebra is *-isomorphic to a direct sum

    M_{k_1}(C) + M_{k_2}(C) + ... + M_{k_B}(C),

and this module fixes that concrete form. An element carries one dense
complex matrix per block; the product is blockwise, the involution is the
blockwise conjugate transpose, and the norm is the largest blockwise
spectral norm. The algebra is commutative exactly when every block is 1x1,
in which case elements are just tuples of complex numbers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NumericalError, StructureError

DEFAULT_TOL = 1e-9
# the slack and the floor of ``_norm_bound``
_BOUND_SLACK, _BOUND_FLOOR = 1.0 + 2.0**-20, 2.0**-1000


def _is_integer(value) -> bool:
    """Whether a value read from outside is an integer: JSON's true, "3" and
    2.7 are not, though int() would take each."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (k_1, ..., k_B) of a direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        # every reader of a block list comes through here
        blocks = tuple(self.blocks)
        if not all(map(_is_integer, blocks)):
            raise StructureError(f"block sizes must be integers, got {self.blocks!r}")
        blocks = tuple(int(k) for k in blocks)
        if not blocks:
            raise StructureError("an algebra needs at least one block")
        if any(k < 1 for k in blocks):
            raise StructureError(f"block dimensions must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def is_commutative(self) -> bool:
        return all(k == 1 for k in self.blocks)

    @property
    def dim(self) -> int:
        return sum(k * k for k in self.blocks)

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks)}

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraShape":
        return cls(data["blocks"])

    @classmethod
    def parse(cls, text: str) -> "AlgebraShape":
        """Parse a comma-separated shape string such as "2,1"."""
        try:
            parts = tuple(int(p) for p in text.split(",") if p.strip())
        except ValueError as exc:
            raise StructureError(f"cannot parse algebra shape {text!r}") from exc
        return cls(parts)


def _top_singular_values(mats: np.ndarray) -> np.ndarray:
    """The largest singular value of a matrix, or of each member of a stack.

    LAPACK returns the singular values in descending order, so the first one
    is the value ``np.linalg.norm(m, 2)`` takes the maximum of, without that
    wrapper's cost. A NaN entry or a solver that does not converge raises
    ``NumericalError``; a member with an infinite entry gets NaN, with no SVD.
    """
    if not np.isfinite(mats).all():
        if np.isnan(mats).any():
            raise NumericalError("norm of a matrix with NaN entries")
        finite = np.isfinite(mats).all(axis=(-1, -2))
        return np.where(finite, _top_singular_values(np.where(np.isinf(mats), 0, mats)), np.nan)
    try:
        return np.linalg.svd(mats, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD did not converge") from exc


def _spectral_norm(mats: np.ndarray):
    """The operator (2-)norm of a matrix, as a float, or of each member of a
    stack, as an array. 1x1 blocks take ``np.hypot`` of the parts, which is
    Python's complex abs bit for bit; numpy's array abs can differ from it in
    the last bit."""
    if mats.shape[-1] == 1:
        norms = np.hypot(mats.real, mats.imag)[..., 0, 0]
    else:
        norms = _top_singular_values(mats)
    return float(norms) if mats.ndim == 2 else norms


def _norms(*values) -> np.ndarray:
    """The norm of each member of each value, one row per value. A value is
    one stack per block, all with the same leading axes; one
    ``_spectral_norm`` call per block takes every value, and the norm is
    ``Element.norm``'s NaN-first maximum over the blocks."""
    return _first_of([_spectral_norm(np.stack(blocks)) for blocks in zip(*values)], np.greater)


def _norm_bound(mats: np.ndarray) -> np.ndarray:
    """A certified upper bound on ``_spectral_norm`` of each member of a stack,
    NaN or inf wherever that norm raises or is NaN or inf: the larger of the
    largest absolute row and column sums, times 1 + 2^-20, plus 2^-1000.
    ||A||_2 <= sqrt(||A||_1 ||A||_inf). The slack covers the rounding of the
    moduli and sums and LAPACK's error in the top singular value, each O(m u)
    for an m x m block, about 1e-12 at ``cli.MAX_FLAT_SIZE`` = 8 192; the floor
    covers both sides' absolute error on subnormal entries. Nothing is
    squared, so nothing underflows."""
    a = np.abs(mats)
    return np.maximum(a.sum(-1).max(-1), a.sum(-2).max(-1)) * _BOUND_SLACK + _BOUND_FLOOR


def _first_of(values: list[np.ndarray], better) -> np.ndarray:
    """Elementwise best over the blocks: a NaN in any block wins, so a NaN
    can never be dropped in favour of a finite verdict; otherwise a later
    value replaces the kept one only when strictly better, so signed-zero
    ties come out as with Python's max and min."""
    acc = values[0]
    for v in values[1:]:
        acc = np.where(better(v, acc) | np.isnan(v), v, acc)
    return acc


def _adjoint(mats: np.ndarray) -> np.ndarray:
    """m* of a matrix, or of each member of a stack."""
    return mats.swapaxes(-1, -2).conj()


def _hermitian_part(mats: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 of a matrix, or of each member of a stack. The halving is
    a product with 0.5, several times faster than a complex division by 2 and
    with the same bits up to the signs of zero parts. An infinite entry gives
    a NaN part, silently: its callers report it."""
    with np.errstate(invalid="ignore"):
        return 0.5 * (mats + _adjoint(mats))


def _eigh(mats: np.ndarray, vectors: bool = False, block: int | None = None, site: str | None = None):
    """Ascending eigenvalues (and with ``vectors`` eigenvectors) of the Hermitian
    part of a matrix or of each member of a stack. A part with a non-finite
    entry, which never reaches LAPACK, or a solver that does not converge
    raises ``NumericalError`` naming ``site``, or else the block."""
    sym = _hermitian_part(mats)
    where = f"in {site}" if site is not None else f"on block {block}"
    if not np.isfinite(sym).all():
        raise NumericalError(f"non-finite entries {where}", block=block)
    try:
        return np.linalg.eigh(sym) if vectors else np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed {where}", block=block) from exc


def _exactly_hermitian(stacks) -> np.ndarray:
    """Which members of a stack, given by one (T, m, m) array per block, have
    every block exactly equal to its adjoint."""
    return np.logical_and.reduce([(s == _adjoint(s)).all(axis=(-2, -1)) for s in stacks])


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Blocks:
    """One locked complex array per algebra block, of shape ``batch + (n,) * _lead + (k, k)``.

    Since M_n(M_{k_1} + ... + M_{k_B}) ~ M_{n k_1} + ... + M_{n k_B}, an
    element (no axes of length n), a vector in A^n (one) and a matrix in
    M_n(A) (two) are stored alike, so they share the validation, the linear
    structure and the JSON encoding here. Leading batch axes make one value a
    stack of members, a trial axis first: every operation acts member by
    member, and numpy's stacked products, einsums and SVDs give each member
    the bits it gets alone. The validated constructor builds one value with
    no batch axes; ``to_json`` is for such values only.
    Values are immutable; arithmetic returns new objects of the same class
    through ``_wrap``.
    """

    __slots__ = ("shape", "blocks")
    _lead = 0
    # numpy defers its operators to ours, so an array acts as a batch of scalars
    __array_ufunc__ = None

    def __init__(self, shape: AlgebraShape, blocks):
        lead = self._lead
        if len(blocks) != len(shape.blocks):
            raise StructureError(f"expected {len(shape.blocks)} blocks, got {len(blocks)}")
        try:
            arrays = [np.asarray(raw) for raw in blocks]
        except ValueError as exc:  # a ragged block
            raise StructureError(f"blocks must be arrays of numbers: {exc}") from None
        # numbers only: a cast to complex reads True, "1" and None as 1, 1 and NaN
        if any(a.dtype.kind not in "iufc" for a in arrays):
            raise StructureError(f"blocks must hold numbers, got {[str(a.dtype) for a in arrays]}")
        mats = [np.array(a, dtype=np.complex128) for a in arrays]
        # block 0 fixes n; the others must agree with it
        n = mats[0].shape[0] if lead and mats[0].ndim else None
        for b, (k, arr) in enumerate(zip(shape.blocks, mats)):
            if arr.shape != (n,) * lead + (k, k):
                want = ", ".join(map(str, (n if b else "n",) * lead + (k, k)))
                raise StructureError(f"block {b} must have shape ({want}), got {arr.shape}")
            _lock(arr)
        if lead and n < 1:
            raise StructureError(f"n must be >= 1, got {n}")
        self.shape = shape
        self.blocks = tuple(mats)

    @classmethod
    def _wrap(cls, shape: AlgebraShape, blocks):
        # fast path for internally computed blocks; trusts dtype and dims
        obj = object.__new__(cls)
        obj.shape = shape
        obj.blocks = tuple(_lock(b) for b in blocks)
        return obj

    def _like(self, blocks):
        return self._wrap(self.shape, blocks)

    @property
    def batch(self) -> tuple:
        """The batch axes: () for one value."""
        b = self.blocks[0]
        return b.shape[: b.ndim - 2 - self._lead]

    def _at(self, index):
        """The members at a numpy index into the batch axes; None adds a batch axis of one."""
        return self._like(tuple(b[index] for b in self.blocks))

    def _reshape(self, batch: tuple):
        """The members with the batch axes reshaped to ``batch``."""
        cut = len(self.batch)
        return self._like(tuple(b.reshape(batch + b.shape[cut:]) for b in self.blocks))

    def _max_norm(self, norms):
        """The largest of one norm per block, with ``_first_of``'s NaN rule: a
        float for one value, an array for a batch."""
        norm = _first_of(norms, np.greater)
        return norm if self.batch else float(norm)

    def _require_same(self, other: "_Blocks") -> None:
        # equal shapes and equal block-0 dims past the batch mean the same
        # algebra and the same n; the batch axes broadcast
        tail = -2 - self._lead
        if self.shape != other.shape or self.blocks[0].shape[tail:] != other.blocks[0].shape[tail:]:
            raise StructureError("operands differ in algebra shape or in size")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        return self._like(tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        return self._like(tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self):
        return self._like(tuple(-a for a in self.blocks))

    def __mul__(self, other):
        # the scalar action; an array of the batch shape scales member by member
        if isinstance(other, numbers.Complex):
            lam = complex(other)
        elif isinstance(other, np.ndarray):
            lam = other.astype(np.complex128)[(...,) + (None,) * (self._lead + 2)]
        else:
            return NotImplemented
        return self._like(tuple(lam * a for a in self.blocks))

    __rmul__ = __mul__

    def _pairs(self) -> list:
        # one [re, im] pair of Python floats per scalar, nested as the block arrays
        return [np.stack((b.real, b.imag), -1).tolist() for b in self.blocks]


def _stack(values: list, axis: int = 0):
    """The values, of one algebra and size, as the members of a new batch axis
    at position ``axis``."""
    for v in values[1:]:
        values[0]._require_same(v)
    blocks = zip(*(v.blocks for v in values))
    return values[0]._like(tuple(np.stack(b, axis) for b in blocks))


class _SizedBlocks(_Blocks):
    """Blocks with leading axes of length n: vectors in A^n and matrices in M_n(A)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.blocks[0].shape[-3]

    def __repr__(self):
        batch = f", batch={self.batch}" if self.batch else ""
        return f"{type(self).__name__}(n={self.n}, shape={self.shape.blocks}{batch})"


class Element(_Blocks):
    """A single algebra value: one complex k_i x k_i matrix per block.

    Elements are immutable; all arithmetic returns new objects. ``a * b``
    is the algebra product, ``lam * a`` the scalar action, ``a.adjoint()``
    the involution.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same(other)
            return self._like(tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        return super().__mul__(other)

    def adjoint(self) -> "Element":
        return self._like(tuple(_adjoint(a).copy() for a in self.blocks))

    def norm(self):
        # _first_of, unlike Python's max, keeps a NaN in any block
        return self._max_norm([_spectral_norm(a) for a in self.blocks])

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def to_json(self) -> dict:
        return {"blocks": self._pairs()}

    @classmethod
    def from_json(cls, shape: AlgebraShape, data: dict) -> "Element":
        blocks = [np.array([[_complex(re, im) for re, im in row] for row in blk])
                  for blk in data["blocks"]]
        # json reads NaN and Infinity; no verdict on them means anything
        if not all(np.isfinite(b).all() for b in blocks):
            raise StructureError("element entries must be finite numbers")
        return cls(shape, blocks)

    def __repr__(self):
        if self.batch:
            return f"Element(shape={self.shape.blocks}, batch={self.batch})"
        return f"Element(shape={self.shape.blocks}, norm={self.norm():.6g})"


def _complex(re, im) -> complex:
    # json reads true and false as bools, which complex() takes as 1 and 0
    if isinstance(re, bool) or isinstance(im, bool):
        raise StructureError(f"element entries must be numbers, got {[re, im]!r}")
    return complex(re, im)


def _units(shape: AlgebraShape, lead: tuple = (), value: complex = 1.0) -> tuple:
    """value * 1 of each block, repeated over the axes ``lead`` of length n >= 1:
    the blocks of an element, of a vector with ``lead`` (n,), of a matrix with
    (n, n)."""
    if any(n < 1 for n in lead):
        raise StructureError("n must be >= 1")
    return tuple(
        np.broadcast_to(complex(value) * np.eye(k, dtype=np.complex128), lead + (k, k)).copy()
        for k in shape.blocks
    )


def identity_element(shape: AlgebraShape) -> Element:
    return Element._wrap(shape, _units(shape))


def scalar_element(shape: AlgebraShape, value: complex) -> Element:
    """The multiple value * 1 of the unit."""
    return Element._wrap(shape, _units(shape, value=value))


@dataclass(frozen=True)
class SpectrumReport:
    """Self-adjointness and positivity certificate for one element: ``min_spectrum``
    is the most negative eigenvalue of the symmetrized part over all blocks,
    ``hermitian_defect`` is ||a - a*||."""

    is_selfadjoint: bool
    is_positive: bool
    min_spectrum: float
    hermitian_defect: float

    def to_json(self) -> dict:
        return asdict(self)


def hermitian_defect(a: Element):
    """||a - a*|| in the algebra norm; NaN when any block's is NaN."""
    return a._max_norm([_spectral_norm(b - _adjoint(b)) for b in a.blocks])


def _psd_prelude(flats: list[np.ndarray], tol: float):
    """Scale, Hermitian defect and cut tol * max(1, scale) of each member of a
    stack of matrices over the algebra, given by one (T, m, m) stack per block,
    from one SVD call per block for both norms and none to an eigensolver."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tolerance must be finite and positive", tol=tol)
    scale, defect = _norms(flats, [f - _adjoint(f) for f in flats])
    # fmax, like max(1.0, scale), takes 1.0 when scale is NaN
    return scale, defect, tol * np.fmax(scale, 1.0)


def _psd_verdict(flats: list[np.ndarray], tol: float):
    """(is_positive, selfadjoint, defect, min_eigenvalues, scale) of each member
    of a stack given as for ``_psd_prelude``: self-adjoint when defect <= cut
    and finite, positive when also every block's smallest eigenvalue, one
    column per block and computed for every member, is >= -cut. A member whose
    blocks are finite and equal their adjoints exactly has defect 0 and scale
    max|λ|, as accurate as the top singular value (eigvalsh is backward
    stable); every Gram draw is such a member, and so is the symmetrized
    product of two. The others take ``_psd_prelude``'s. A NaN in a 1x1 block
    gives a NaN verdict; a non-finite entry in a larger one raises
    ``NumericalError``."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tolerance must be finite and positive", tol=tol)
    # a 1x1 block's eigenvalue is its real part, as LAPACK gives it, NaN included
    eigs = [_hermitian_part(f).real[..., 0] if f.shape[-1] == 1 else _eigh(f, block=b)
            for b, f in enumerate(flats)]
    scale = _first_of([np.maximum(abs(w[:, 0]), abs(w[:, -1])) for w in eigs], np.greater)
    other = ~(_exactly_hermitian(flats) & np.isfinite(scale))
    defect, cut = np.zeros(len(scale)), tol * np.fmax(scale, 1.0)
    if other.any():
        scale[other], defect[other], cut[other] = _psd_prelude([f[other] for f in flats], tol)
    mins = np.stack([w[:, 0] for w in eigs], axis=-1)
    # an infinite defect is not within an infinite cut
    selfadjoint = (defect <= cut) & np.isfinite(defect)
    positive = selfadjoint & (_first_of(list(mins.T), np.less) >= -cut)
    return positive, selfadjoint, defect, mins, scale


def _spectrum_report(positive, selfadjoint, defect, mins, i: int) -> SpectrumReport:
    """Member i of a ``_psd_verdict`` on 1x1 matrices, as ``classify`` reports it."""
    lowest = float(_first_of(mins[i], np.less))
    return SpectrumReport(bool(selfadjoint[i]), bool(positive[i]), lowest, float(defect[i]))


def classify(a: Element, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Decide self-adjointness and positivity of one element.

    An element counts as self-adjoint when ||a - a*|| <= tol * max(1, ||a||)
    and as positive when it is self-adjoint and every eigenvalue of the
    symmetrized part stays above -tol * max(1, ||a||). This is the
    positivity verdict on the 1x1 matrix [a].
    """
    positive, selfadjoint, defect, mins, _ = _psd_verdict([b[None] for b in a.blocks], tol)
    return _spectrum_report(positive, selfadjoint, defect, mins, 0)


def commutator_norm(a: Element, b: Element):
    """||ab - ba||; NaN when any block's commutator norm is NaN."""
    a._require_same(b)
    return a._max_norm([_spectral_norm(x @ y - y @ x) for x, y in zip(a.blocks, b.blocks)])
