"""Matrices over a finite-dimensional C*-algebra and their Schur calculus.

An n x n matrix M over the algebra A = M_{k_1}(C) + ... + M_{k_B}(C) is
stored blockwise as one (n, n, k_b, k_b) array per block, after any batch
axes (see ``algebra._Blocks``). The key fact used
throughout: M_n(A) is again a direct sum of matrix algebras, concretely

    M_n(M_{k_1} + ... + M_{k_B})  ~  M_{n k_1} + ... + M_{n k_B},

realized by ``flatten``, which rearranges block b into the (n k_b) x (n k_b)
complex matrix whose (j, l) sub-block is entry m_{jl}'s b-th block. A matrix
is positive in M_n(A) exactly when every flattened block is Hermitian
positive semidefinite, so positivity questions reduce to dense eigenvalue
problems at desk scale.

The Schur product is symmetrized entrywise,

    (M o N)_{jl} = (m_jl n_jl + n_jl m_jl) / 2,

which restricts to the plain entrywise product when the algebra is
commutative. It is bilinear and commutative but non-associative in general.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraShape, Element, SpectrumReport, _SizedBlocks
from .algebra import _adjoint, _first_of, _hermitian_part, _is_integer, _psd_prelude
from .algebra import _psd_verdict, _spectral_norm, _spectrum_report, _units
from .errors import DomainError, StructureError
from .module_an import AVector, inner_product


class AMatrix(_SizedBlocks):
    """An n x n matrix with entries in a fixed finite-dimensional C*-algebra."""

    __slots__ = ()
    _lead = 2

    @classmethod
    def from_entries(cls, entries) -> "AMatrix":
        """Build from an n x n nested sequence of Elements."""
        rows = [list(row) for row in entries]
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise StructureError("entries must form a square array")
        shape = rows[0][0].shape
        for row in rows:
            for e in row:
                if e.shape != shape:
                    raise StructureError("entries live in different algebras")
        blocks = tuple(
            np.stack([np.stack([e.blocks[b] for e in row]) for row in rows])
            for b in range(len(shape.blocks))
        )
        # the validated constructor: an entry with batch axes is rejected
        return cls(shape, blocks)

    def entry(self, j: int, l: int) -> Element:
        return Element._wrap(self.shape, tuple(b[..., j, l, :, :].copy() for b in self.blocks))

    def __matmul__(self, other):
        # the ring product: multiply flattened blocks, which is exact because
        # flatten is an algebra isomorphism
        if isinstance(other, AMatrix):
            self._require_same(other)
            n = self.n
            out = []
            for k, a, b in zip(self.shape.blocks, self.blocks, other.blocks):
                fa = _flatten_block(a, n, k)
                fb = _flatten_block(b, n, k)
                out.append(_unflatten_block(fa @ fb, n, k))
            return self._like(tuple(out))
        if isinstance(other, AVector):
            if self.shape != other.shape or self.n != other.n:
                raise StructureError("matrix and vector sizes differ")
            n = self.n
            out = []
            for k, a, x in zip(self.shape.blocks, self.blocks, other.blocks):
                fa = _flatten_block(a, n, k)
                fx = x.reshape(*x.shape[:-3], n * k, k)
                y = fa @ fx
                out.append(y.reshape(*y.shape[:-2], n, k, k))
            return other._like(tuple(out))
        return NotImplemented

    def adjoint(self) -> "AMatrix":
        """(M*)_{jl} = (m_{lj})^*."""
        return self._like(tuple(_adjoint(b.swapaxes(-4, -3)).copy() for b in self.blocks))

    def transpose(self) -> "AMatrix":
        """Position transpose only; entries are neither moved inside nor conjugated."""
        return self._like(tuple(b.swapaxes(-4, -3).copy() for b in self.blocks))

    def trace(self) -> Element:
        return Element._wrap(self.shape, tuple(np.einsum("...jjab->...ab", b) for b in self.blocks))

    def to_json(self) -> dict:
        # entry (j, l) is Element.to_json of self.entry(j, l)
        pairs = self._pairs()
        return {
            "algebra": self.shape.to_json(),
            "n": self.n,
            "entries": [
                [{"blocks": list(cell)} for cell in zip(*rows)]
                for rows in zip(*pairs)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AMatrix":
        shape = AlgebraShape.from_json(data["algebra"])
        n = data["n"]
        if not _is_integer(n):
            raise StructureError(f"matrix size must be an integer, got {n!r}")
        entries = [
            [Element.from_json(shape, cell) for cell in row] for row in data["entries"]
        ]
        if len(entries) != n or any(len(row) != n for row in entries):
            raise StructureError("entry array does not match declared size")
        return cls.from_entries(entries)


# constructors -------------------------------------------------------------


def identity_matrix(shape: AlgebraShape, n: int) -> AMatrix:
    """I_n: the units on the diagonal, zeros off it."""
    return AMatrix._wrap(shape, tuple(map(_diag_block, _units(shape, (n,)))))


def zero_matrix(shape: AlgebraShape, n: int) -> AMatrix:
    return AMatrix._wrap(shape, _units(shape, (n, n), 0.0))


def ones_matrix(shape: AlgebraShape, n: int) -> AMatrix:
    """E_n: every entry equals the unit of the algebra."""
    return AMatrix._wrap(shape, _units(shape, (n, n)))


def diag_matrix(x: AVector) -> AMatrix:
    return AMatrix._wrap(x.shape, tuple(map(_diag_block, x.blocks)))


def _diag_block(xb: np.ndarray) -> np.ndarray:
    """The block of diag(x) from the block xb of x, over any leading stack axes."""
    n = xb.shape[-3]
    arr = np.zeros(xb.shape[:-3] + (n,) + xb.shape[-3:], dtype=np.complex128)
    idx = np.arange(n)
    arr[..., idx, idx, :, :] = xb
    return arr


def diag_vector(M: AMatrix) -> AVector:
    return AVector._wrap(M.shape, tuple(np.einsum("...jjab->...jab", b).copy() for b in M.blocks))


def row_sums(M: AMatrix) -> AVector:
    """y with y_j = sum_l m_{jl}."""
    return AVector._wrap(M.shape, tuple(b.sum(axis=-3) for b in M.blocks))


def outer_product(y: AVector) -> AMatrix:
    """(y y*)_{jl} = y_j y_l^*."""
    return AMatrix._wrap(
        y.shape, tuple(np.einsum("...jab,...lcb->...jlac", b, b.conj()) for b in y.blocks)
    )


# Schur calculus ------------------------------------------------------------


def schur_product(A: AMatrix, B: AMatrix) -> AMatrix:
    """Entrywise symmetrized product (m_jl n_jl + n_jl m_jl) / 2.

    Commutative with B exactly. Over commutative algebras it is the plain
    entrywise product within rounding, at most 4 eps |a| |b| per entry.
    """
    A._require_same(B)
    return A._like(tuple(_schur_block(a, b) for a, b in zip(A.blocks, B.blocks)))


_SCHUR_SUBSCRIPTS = "...jlab,...jlbc->...jlac"


# ``order="F"`` makes numpy's iterator run its inner loop along the leading
# stack axes (trial, j, l) instead of the k x k axes, several times faster on a
# search chunk. The bits stay: each entry is a sum over the one summed index b,
# taken in the same order in any layout. An einsum with two summed indices
# must not take it: it moved bits in 40 of 111 ``inner_product`` calls and 5 of
# 26 ``tjab,tjcb->tac`` calls over the suite grid. The product is copied back
# to C order because later reductions read it by layout: left F-ordered, it
# moved 8 of the 24 goldens (the verify runs over commutative shapes).
# The F order does not keep a NaN's sign bit: an inf times a NaN, or inf - inf,
# gives a NaN whose sign follows the inner loop's kernel, so a product with a
# NaN in it is formed again in the default order.
def _schur_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One block of the symmetrized product, over any leading stack axes."""
    ab = np.einsum(_SCHUR_SUBSCRIPTS, a, b, order="F")
    ba = np.einsum(_SCHUR_SUBSCRIPTS, b, a, order="F")
    out = np.ascontiguousarray(0.5 * (ab + ba))
    if np.isnan(out).any():
        ab = np.einsum(_SCHUR_SUBSCRIPTS, a, b)
        ba = np.einsum(_SCHUR_SUBSCRIPTS, b, a)
        out = np.ascontiguousarray(0.5 * (ab + ba))
    return out


def element_scale(a: Element, M: AMatrix) -> AMatrix:
    """Left-multiply every entry: (a . M)_{jl} = a m_{jl}."""
    if a.shape != M.shape:
        raise StructureError("algebra shapes differ")
    return M._like(
        tuple(np.einsum("...ab,...jlbc->...jlac", ab, mb) for ab, mb in zip(a.blocks, M.blocks))
    )


# flattening and positivity --------------------------------------------------


# the block helpers below take any leading stack axes (a trial axis first)
def _flatten_block(arr: np.ndarray, n: int, k: int) -> np.ndarray:
    return arr.swapaxes(-3, -2).reshape(*arr.shape[:-4], n * k, n * k)


def _unflatten_block(flat: np.ndarray, n: int, k: int) -> np.ndarray:
    return flat.reshape(*flat.shape[:-2], n, k, n, k).swapaxes(-3, -2)


def _gram_block(g: np.ndarray) -> np.ndarray:
    """The block of G G* from the block g of G, as the Hermitian part
    (P + P*)/2 of the product P that ``G @ G.adjoint()`` forms. P alone need
    not equal its adjoint bit for bit (at n = 3 over M_2 none of the drawn
    ones does); its Hermitian part does when finite, up to the signs of zero
    parts, since entry (j, l) and the conjugate of entry (l, j) are the same
    commutative sum. So the oracle reads every Gram draw from its spectrum,
    with no SVD."""
    n, k = g.shape[-3], g.shape[-1]
    f = _flatten_block(g, n, k)
    gram = f @ np.ascontiguousarray(_adjoint(f))
    return _unflatten_block(_hermitian_part(gram), n, k)


def flatten(M: AMatrix) -> list[np.ndarray]:
    """One (n k_b) x (n k_b) complex matrix per block; a *-isomorphism."""
    return [
        _flatten_block(b, M.n, k) for k, b in zip(M.shape.blocks, M.blocks)
    ]


def unflatten(flats, shape: AlgebraShape, n: int) -> AMatrix:
    """Inverse of ``flatten``; bit-exact (pure memory relayout)."""
    # the zero blocks it fills in, which also checks n
    blocks = _units(shape, (n, n), 0.0)
    flats = list(flats)
    if len(flats) != len(blocks):
        raise StructureError("wrong number of flattened blocks")
    for k, out, f in zip(shape.blocks, blocks, flats):
        arr = np.asarray(f, dtype=np.complex128)
        if arr.shape != (n * k, n * k):
            raise StructureError(f"flattened block must be {n*k}x{n*k}, got {arr.shape}")
        out[...] = _unflatten_block(arr, n, k)
    return AMatrix._wrap(shape, blocks)


def mat_norm(M: AMatrix):
    """Operator norm of the flattened representation (max over blocks, NaN when
    any block's is NaN); an array over a batch."""
    return M._max_norm([_spectral_norm(f) for f in flatten(M)])


@dataclass(frozen=True)
class PsdReport:
    """Positivity certificate for a matrix over the algebra.

    ``scale`` is the norm of the flattened input; all tolerance comparisons
    are relative to max(1, scale). For an input whose flattened blocks equal
    their adjoints exactly it is max|λ| over the eigenvalues (and the defect
    is 0); otherwise the top singular value. When the Hermitian defect already
    exceeds tolerance no eigenvalues are reported (the verdict is "not
    self-adjoint").
    """

    is_positive: bool
    hermitian_defect: float
    min_eigenvalue_per_block: tuple[float, ...]
    tol_used: float
    scale: float

    @property
    def min_eigenvalue(self) -> float | None:
        if not self.min_eigenvalue_per_block:
            return None
        return float(_first_of(self.min_eigenvalue_per_block, np.less))

    @property
    def margin(self) -> float:
        """Relative margin; the check passes iff margin >= -tol_used."""
        denom = max(1.0, self.scale)
        if not self.min_eigenvalue_per_block:
            return -self.hermitian_defect / denom
        return self.min_eigenvalue / denom

    def to_json(self) -> dict:
        return {
            "is_positive": self.is_positive,
            "hermitian_defect": self.hermitian_defect,
            "min_eigenvalue_per_block": list(self.min_eigenvalue_per_block),
            "tol_used": self.tol_used,
            "scale": self.scale,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PsdReport":
        return cls(
            bool(data["is_positive"]),
            float(data["hermitian_defect"]),
            tuple(float(v) for v in data["min_eigenvalue_per_block"]),
            float(data["tol_used"]),
            float(data["scale"]),
        )


@dataclass(frozen=True)
class PsdStack:
    """The oracle's verdicts on a stack of matrices, one entry per member.

    Member i has the report ``report(i)``. ``min_eigenvalues`` holds one
    column per block; the rows of members whose Hermitian defect exceeds
    the cut are computed but left out of their reports and margins. The
    Cholesky oracle's stacks have no columns.
    """

    is_positive: np.ndarray
    hermitian: np.ndarray
    hermitian_defect: np.ndarray
    min_eigenvalues: np.ndarray
    scale: np.ndarray
    tol: float

    def lowest_eigenvalues(self) -> np.ndarray:
        """``PsdReport.min_eigenvalue`` of every self-adjoint member, bit for
        bit; the entries of the other members are computed but not reported."""
        return _first_of(list(self.min_eigenvalues.T), np.less)

    def margins(self) -> np.ndarray:
        """``PsdReport.margin`` of every member, bit for bit."""
        denom = np.fmax(self.scale, 1.0)
        if not self.min_eigenvalues.shape[-1]:
            # a stack without eigenvalues (``_cholesky_stack``'s) reports none
            return -self.hermitian_defect / denom
        lowest = self.lowest_eigenvalues()
        return np.where(self.hermitian, lowest / denom, -self.hermitian_defect / denom)

    def report(self, i: int) -> PsdReport:
        mins = tuple(float(v) for v in self.min_eigenvalues[i]) if self.hermitian[i] else ()
        return PsdReport(
            bool(self.is_positive[i]),
            float(self.hermitian_defect[i]),
            mins,
            self.tol,
            float(self.scale[i]),
        )

    def spectrum(self, i: int) -> SpectrumReport:
        """``classify``'s report of member i, for a stack of 1x1 matrices."""
        return _spectrum_report(
            self.is_positive, self.hermitian, self.hermitian_defect, self.min_eigenvalues, i
        )


def _psd_stack(M: AMatrix, tol: float) -> PsdStack:
    """The positivity oracle on the members of M, its batch axes read in C
    order (one matrix is a stack of one): the verdict on the flattened blocks
    is ``algebra._psd_verdict``. Member i gets the verdict ``psd_check``
    gives that matrix alone, bit for bit.
    """
    flats = [f.reshape(-1, *f.shape[-2:]) for f in flatten(M)]
    return PsdStack(*_psd_verdict(flats, tol), tol)


def psd_check(M: AMatrix, tol: float = DEFAULT_TOL) -> PsdReport:
    """Certify positivity via Hermitian eigendecomposition of each flattened block.

    Verdict: the Hermitian defect stays within tol * max(1, scale) and the
    smallest eigenvalue of every symmetrized flattened block stays above
    -tol * max(1, scale). The scale of an exactly Hermitian M is max|λ| from
    those eigenvalues, with no SVD. A non-finite entry in a 1x1 flattened
    block gives "not positive" with a NaN margin; in a larger one it raises
    ``NumericalError``. This is the stacked oracle on a stack of one.
    """
    return _psd_stack(M, tol).report(0)


def _pivoted_cholesky_psd(sym: np.ndarray, cut: float) -> bool:
    # outer-product Cholesky with diagonal pivoting; declares PSD when all
    # pivots clear -cut and whatever remains once pivots fall below cut is
    # negligible (a Hermitian remainder with ~zero diagonal and large
    # off-diagonal entries is indefinite)
    a = sym.copy()
    m = a.shape[0]
    for i in range(m):
        diag = a.diagonal().real
        j = i + int(np.argmax(diag[i:]))
        piv = diag[j]
        if piv < -cut:
            return False
        if piv <= cut:
            rem = a[i:, i:]
            return bool(
                np.abs(rem).max(initial=0.0) <= cut * max(1.0, m)
                and diag[i:].min(initial=0.0) >= -cut
            )
        if j != i:
            a[[i, j], :] = a[[j, i], :]
            a[:, [i, j]] = a[:, [j, i]]
        col = a[i + 1 :, i].copy()
        a[i + 1 :, i + 1 :] -= np.outer(col, col.conj()) / piv
        a[i, i] = piv
    return True


def _cholesky_stack(M: AMatrix, tol: float) -> PsdStack:
    """The Cholesky oracle on the members of M, its batch axes read in C
    order: one ``_psd_prelude`` for the stack, then a pivoted Cholesky attempt
    per self-adjoint member and block. Member i gets the report
    ``cholesky_psd_check`` gives that matrix alone, bit for bit; no
    eigenvalues are taken, so the stack holds none.
    """
    flats = [f.reshape(-1, *f.shape[-2:]) for f in flatten(M)]
    scale, defect, cut = _psd_prelude(flats, tol)
    selfadjoint = defect <= cut
    syms = [_hermitian_part(f) for f in flats]
    positive = [
        ok and all(_pivoted_cholesky_psd(s[i], c) for s in syms)
        for i, (ok, c) in enumerate(zip(selfadjoint.tolist(), cut.tolist()))
    ]
    mins = np.empty((len(scale), 0))
    return PsdStack(np.array(positive, dtype=bool), selfadjoint, defect, mins, scale, tol)


def cholesky_psd_check(M: AMatrix, tol: float = DEFAULT_TOL) -> PsdReport:
    """Independent positivity oracle: pivoted Cholesky attempt per block.

    Mirrors ``psd_check``'s tolerance handling but certifies via a
    factorization attempt instead of an eigendecomposition. The two verdicts
    must agree away from the tolerance boundary; ``min_eigenvalue_per_block``
    is not populated here. Its scale and defect always come from SVDs
    (``_psd_prelude``), never from the eigensolver it is checked against.
    This is the stacked Cholesky oracle, ``_cholesky_stack``, on a stack of
    one.
    """
    return _cholesky_stack(M, tol).report(0)


def schur_quadratic_form_oracle(
    M: AMatrix, N: AMatrix, x: AVector
) -> tuple[Element, Element]:
    """Two routes to x*(M o N)x over a commutative algebra.

    Returns (direct, trace_form) where the direct route evaluates
    <(M o N)x, x> and the trace route evaluates

        Tr( diag(x*) M diag(x) N^T ).

    The pair must agree within 1e-10 * max(1, scale); disagreement flags a
    harness bug rather than a mathematical failure.
    """
    if not M.shape.is_commutative:
        raise DomainError("the trace identity needs a commutative algebra")
    M._require_same(N)
    if x.shape != M.shape or x.n != M.n:
        raise StructureError("vector does not match matrix size")
    product = schur_product(M, N)
    direct = inner_product(product @ x, x)
    d_star = diag_matrix(x.entrywise_adjoint())
    d_x = diag_matrix(x)
    trace_form = (d_star @ M @ d_x @ N.transpose()).trace()
    return direct, trace_form
