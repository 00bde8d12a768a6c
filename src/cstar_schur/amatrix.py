"""Matrices over a finite-dimensional C*-algebra and their Schur calculus.

An n x n matrix M over the algebra A = M_{k_1}(C) + ... + M_{k_B}(C) is
stored blockwise as one (n, n, k_b, k_b) array per block. The key fact used
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

import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraShape, Element, _lock, _spectral_norm
from .algebra import _min_eigenvalues, _psd_sqrt, _top_singular_values
from .errors import DomainError, StructureError
from .module_an import AVector


class AMatrix:
    """An n x n matrix with entries in a fixed finite-dimensional C*-algebra."""

    __slots__ = ("shape", "n", "blocks")

    def __init__(self, shape: AlgebraShape, blocks):
        if len(blocks) != len(shape.blocks):
            raise StructureError(f"expected {len(shape.blocks)} blocks")
        n = None
        mats = []
        for k, raw in zip(shape.blocks, blocks):
            arr = np.array(raw, dtype=np.complex128)
            if arr.ndim != 4 or arr.shape[2:] != (k, k) or arr.shape[0] != arr.shape[1]:
                raise StructureError(
                    f"block array must be (n, n, {k}, {k}), got {arr.shape}"
                )
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise StructureError("blocks disagree on matrix size")
            mats.append(_lock(arr))
        if n is None or n < 1:
            raise StructureError("matrices need size >= 1")
        self.shape = shape
        self.n = n
        self.blocks = tuple(mats)

    @classmethod
    def _wrap(cls, shape: AlgebraShape, n: int, blocks) -> "AMatrix":
        obj = object.__new__(cls)
        obj.shape = shape
        obj.n = n
        obj.blocks = tuple(_lock(b) for b in blocks)
        return obj

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
        return cls._wrap(shape, n, blocks)

    def entry(self, j: int, l: int) -> Element:
        return Element._wrap(self.shape, tuple(b[j, l].copy() for b in self.blocks))

    def _require_same(self, other: "AMatrix") -> None:
        if self.shape != other.shape or self.n != other.n:
            raise StructureError("matrices have different shape or size")

    # ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AMatrix):
            return NotImplemented
        self._require_same(other)
        return AMatrix._wrap(
            self.shape, self.n, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other):
        if not isinstance(other, AMatrix):
            return NotImplemented
        self._require_same(other)
        return AMatrix._wrap(
            self.shape, self.n, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __neg__(self):
        return AMatrix._wrap(self.shape, self.n, tuple(-a for a in self.blocks))

    def __mul__(self, other):
        if isinstance(other, numbers.Complex):
            lam = complex(other)
            return AMatrix._wrap(self.shape, self.n, tuple(lam * a for a in self.blocks))
        return NotImplemented

    __rmul__ = __mul__

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
            return AMatrix._wrap(self.shape, n, tuple(out))
        if isinstance(other, AVector):
            if self.shape != other.shape or self.n != other.n:
                raise StructureError("matrix and vector sizes differ")
            n = self.n
            out = []
            for k, a, x in zip(self.shape.blocks, self.blocks, other.blocks):
                fa = _flatten_block(a, n, k)
                fx = x.reshape(n * k, k)
                out.append((fa @ fx).reshape(n, k, k))
            return AVector._wrap(self.shape, n, tuple(out))
        return NotImplemented

    def adjoint(self) -> "AMatrix":
        """(M*)_{jl} = (m_{lj})^*."""
        return AMatrix._wrap(
            self.shape,
            self.n,
            tuple(b.conj().transpose(1, 0, 3, 2).copy() for b in self.blocks),
        )

    def transpose(self) -> "AMatrix":
        """Position transpose only; entries are neither moved inside nor conjugated."""
        return AMatrix._wrap(
            self.shape, self.n, tuple(b.transpose(1, 0, 2, 3).copy() for b in self.blocks)
        )

    def trace(self) -> Element:
        return Element._wrap(
            self.shape, tuple(np.einsum("jjab->ab", b) for b in self.blocks)
        )

    def to_json(self) -> dict:
        return {
            "algebra": self.shape.to_json(),
            "n": self.n,
            "entries": [
                [self.entry(j, l).to_json() for l in range(self.n)]
                for j in range(self.n)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AMatrix":
        shape = AlgebraShape.from_json(data["algebra"])
        n = int(data["n"])
        entries = [
            [Element.from_json(shape, cell) for cell in row] for row in data["entries"]
        ]
        if len(entries) != n or any(len(row) != n for row in entries):
            raise StructureError("entry array does not match declared size")
        return cls.from_entries(entries)

    def __repr__(self):
        return f"AMatrix(n={self.n}, shape={self.shape.blocks})"


# constructors -------------------------------------------------------------


def identity_matrix(shape: AlgebraShape, n: int) -> AMatrix:
    blocks = []
    for k in shape.blocks:
        arr = np.zeros((n, n, k, k), dtype=np.complex128)
        idx = np.arange(n)
        arr[idx, idx] = np.eye(k)
        blocks.append(arr)
    return AMatrix._wrap(shape, n, tuple(blocks))


def zero_matrix(shape: AlgebraShape, n: int) -> AMatrix:
    return AMatrix._wrap(
        shape, n, tuple(np.zeros((n, n, k, k), dtype=np.complex128) for k in shape.blocks)
    )


def ones_matrix(shape: AlgebraShape, n: int) -> AMatrix:
    """E_n: every entry equals the unit of the algebra."""
    blocks = tuple(
        np.broadcast_to(np.eye(k, dtype=np.complex128), (n, n, k, k)).copy()
        for k in shape.blocks
    )
    return AMatrix._wrap(shape, n, blocks)


def diag_matrix(x: AVector) -> AMatrix:
    n = x.n
    blocks = []
    for k, xb in zip(x.shape.blocks, x.blocks):
        arr = np.zeros((n, n, k, k), dtype=np.complex128)
        idx = np.arange(n)
        arr[idx, idx] = xb
        blocks.append(arr)
    return AMatrix._wrap(x.shape, n, tuple(blocks))


def diag_vector(M: AMatrix) -> AVector:
    return AVector._wrap(
        M.shape, M.n, tuple(np.einsum("jjab->jab", b).copy() for b in M.blocks)
    )


def row_sums(M: AMatrix) -> AVector:
    """y with y_j = sum_l m_{jl}."""
    return AVector._wrap(M.shape, M.n, tuple(b.sum(axis=1) for b in M.blocks))


def outer_product(y: AVector) -> AMatrix:
    """(y y*)_{jl} = y_j y_l^*."""
    return AMatrix._wrap(
        y.shape,
        y.n,
        tuple(np.einsum("jab,lcb->jlac", b, b.conj()) for b in y.blocks),
    )


# Schur calculus ------------------------------------------------------------


def schur_product(A: AMatrix, B: AMatrix) -> AMatrix:
    """Entrywise symmetrized product (m_jl n_jl + n_jl m_jl) / 2.

    Commutative with B exactly; collapses bitwise to the plain entrywise
    product over commutative algebras.
    """
    A._require_same(B)
    return AMatrix._wrap(
        A.shape, A.n, tuple(_schur_block(a, b) for a, b in zip(A.blocks, B.blocks))
    )


def _schur_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One block of the symmetrized product, over any leading stack axes."""
    ab = np.einsum("...jlab,...jlbc->...jlac", a, b)
    ba = np.einsum("...jlab,...jlbc->...jlac", b, a)
    return 0.5 * (ab + ba)


def schur_power(M: AMatrix, p: int) -> AMatrix:
    """The p-fold Schur product of M with itself, nested left; p = 0 gives the identity."""
    if p < 0:
        raise DomainError("Schur powers need p >= 0", p=p)
    if p == 0:
        return identity_matrix(M.shape, M.n)
    acc = M
    for _ in range(p - 1):
        acc = schur_product(acc, M)
    return acc


def element_scale(a: Element, M: AMatrix) -> AMatrix:
    """Left-multiply every entry: (a . M)_{jl} = a m_{jl}."""
    if a.shape != M.shape:
        raise StructureError("algebra shapes differ")
    return AMatrix._wrap(
        M.shape,
        M.n,
        tuple(
            np.einsum("ab,jlbc->jlac", ab, mb) for ab, mb in zip(a.blocks, M.blocks)
        ),
    )


# flattening and positivity --------------------------------------------------


# the block helpers below take any leading stack axes (a trial axis first)
def _flatten_block(arr: np.ndarray, n: int, k: int) -> np.ndarray:
    return arr.swapaxes(-3, -2).reshape(*arr.shape[:-4], n * k, n * k)


def _unflatten_block(flat: np.ndarray, n: int, k: int) -> np.ndarray:
    return flat.reshape(*flat.shape[:-2], n, k, n, k).swapaxes(-3, -2)


def _adjoint_flat(flat: np.ndarray) -> np.ndarray:
    return flat.swapaxes(-1, -2).conj()


def _gram_block(g: np.ndarray) -> np.ndarray:
    """The block of G G* from the block g of G; the same bits as ``G @ G.adjoint()``.

    The result is C-contiguous: the einsum of a Schur product over a stack
    of such blocks takes about 30 % less time than over the strided view.
    """
    n, k = g.shape[-3], g.shape[-1]
    f = _flatten_block(g, n, k)
    gram = f @ np.ascontiguousarray(_adjoint_flat(f))
    return np.ascontiguousarray(_unflatten_block(gram, n, k))


def _stacked(M: "AMatrix") -> tuple[np.ndarray, ...]:
    """The blocks of M as a stack of one."""
    return tuple(b[None] for b in M.blocks)


def flatten(M: AMatrix) -> list[np.ndarray]:
    """One (n k_b) x (n k_b) complex matrix per block; a *-isomorphism."""
    return [
        _flatten_block(b, M.n, k) for k, b in zip(M.shape.blocks, M.blocks)
    ]


def unflatten(flats, shape: AlgebraShape, n: int) -> AMatrix:
    """Inverse of ``flatten``; bit-exact (pure memory relayout)."""
    flats = list(flats)
    if len(flats) != len(shape.blocks):
        raise StructureError("wrong number of flattened blocks")
    blocks = []
    for k, f in zip(shape.blocks, flats):
        arr = np.array(f, dtype=np.complex128)
        if arr.shape != (n * k, n * k):
            raise StructureError(f"flattened block must be {n*k}x{n*k}, got {arr.shape}")
        blocks.append(_unflatten_block(arr, n, k).copy())
    return AMatrix._wrap(shape, n, tuple(blocks))


def mat_norm(M: AMatrix) -> float:
    """Operator norm of the flattened representation (max over blocks)."""
    return max(
        _spectral_norm(_flatten_block(b, M.n, k))
        for k, b in zip(M.shape.blocks, M.blocks)
    )


@dataclass(frozen=True)
class PsdReport:
    """Positivity certificate for a matrix over the algebra.

    ``scale`` is the norm of the flattened input; all tolerance comparisons
    are relative to max(1, scale). When the Hermitian defect already exceeds
    tolerance no eigenvalues are reported (the verdict is "not self-adjoint").
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
        return min(self.min_eigenvalue_per_block)

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
    the cut are NaN, because no eigenvalues are computed for them.
    """

    is_positive: np.ndarray
    hermitian: np.ndarray
    hermitian_defect: np.ndarray
    min_eigenvalues: np.ndarray
    scale: np.ndarray
    tol: float

    def margins(self) -> np.ndarray:
        """``PsdReport.margin`` of every member, bit for bit."""
        denom = np.fmax(self.scale, 1.0)
        lowest = _first_of(list(self.min_eigenvalues.T), np.less)
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


def _first_of(values: list[np.ndarray], better) -> np.ndarray:
    """Elementwise best over the blocks with the rules of Python's max and
    min: a later value replaces the kept one only when strictly better, so
    NaN and signed-zero ties come out as in a reduction over floats."""
    acc = values[0]
    for v in values[1:]:
        acc = np.where(better(v, acc), v, acc)
    return acc


def _norms(flats: np.ndarray) -> np.ndarray:
    """The operator norm of each matrix of a stack, as ``_spectral_norm`` computes it."""
    if flats.shape[-1] == 1:
        # the scalar abs: numpy's array abs can differ from it in the last bit
        return np.array([abs(z) for z in flats.reshape(-1)])
    return _top_singular_values(flats)


def _psd_prelude(blocks, tol: float):
    """What both positivity oracles start from, for a stack of matrices given
    by their blocks (T, n, n, k, k): flattened blocks, scale, defect, cut."""
    if tol <= 0:
        raise DomainError("tolerance must be positive", tol=tol)
    flats = [_flatten_block(b, b.shape[-3], b.shape[-1]) for b in blocks]
    # one SVD call per block serves both: the norms of f, then those of f - f*
    norms = [_norms(np.concatenate([f, f - _adjoint_flat(f)])) for f in flats]
    t = len(flats[0])
    scale = _first_of([v[:t] for v in norms], np.greater)
    defect = _first_of([v[t:] for v in norms], np.greater)
    # fmax, like max(1.0, scale), takes 1.0 when scale is NaN
    return flats, scale, defect, tol * np.fmax(scale, 1.0)


def _psd_stack(blocks, tol: float) -> PsdStack:
    """The positivity oracle on a stack of matrices over the algebra.

    ``blocks`` holds one (T, n, n, k_b, k_b) array per block; each block
    costs one SVD call (scale and defect) and one eigensolver call on the
    Hermitian parts of the members within the cut. Member i gets the
    verdict ``psd_check`` gives that matrix alone, bit for bit.
    """
    flats, scale, defect, cut = _psd_prelude(blocks, tol)
    hermitian = ~(defect > cut)
    mins = np.full((len(scale), len(flats)), np.nan)
    mins[hermitian] = np.stack(_min_eigenvalues([f[hermitian] for f in flats]), axis=-1)
    lowest = _first_of(list(mins.T), np.less)
    positive = hermitian & (lowest >= -cut)
    return PsdStack(positive, hermitian, defect, mins, scale, tol)


def psd_check(M: AMatrix, tol: float = DEFAULT_TOL) -> PsdReport:
    """Certify positivity via Hermitian eigendecomposition of each flattened block.

    Verdict: the Hermitian defect stays within tol * max(1, scale) and the
    smallest eigenvalue of every symmetrized flattened block stays above
    -tol * max(1, scale). This is the stacked oracle on a stack of one.
    """
    return _psd_stack(_stacked(M), tol).report(0)


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


def cholesky_psd_check(M: AMatrix, tol: float = DEFAULT_TOL) -> PsdReport:
    """Independent positivity oracle: pivoted Cholesky attempt per block.

    Mirrors ``psd_check``'s tolerance handling but certifies via a
    factorization attempt instead of an eigendecomposition. The two verdicts
    must agree away from the tolerance boundary; ``min_eigenvalue_per_block``
    is not populated here.
    """
    flats, scale, defect, cut = _psd_prelude(_stacked(M), tol)
    scale, defect, cut = float(scale[0]), float(defect[0]), float(cut[0])
    if defect > cut:
        return PsdReport(False, defect, (), tol, scale)
    verdict = all(
        _pivoted_cholesky_psd((f[0] + f[0].conj().T) / 2.0, cut) for f in flats
    )
    return PsdReport(verdict, defect, (), tol, scale)


def positive_sqrt(M: AMatrix, tol: float = DEFAULT_TOL) -> AMatrix:
    """The positive square root of a positive matrix, blockwise via eigh.

    Eigenvalues in [-tol*scale, 0) are clamped to zero. Raises ``DomainError``
    with the failing report attached when M is not positive.
    """
    report = psd_check(M, tol)
    if not report.is_positive:
        raise DomainError("matrix is not positive", report=report)
    n = M.n
    out = [
        _unflatten_block(_psd_sqrt(_flatten_block(blk, n, k), b), n, k).copy()
        for b, (k, blk) in enumerate(zip(M.shape.blocks, M.blocks))
    ]
    return AMatrix._wrap(M.shape, n, tuple(out))


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
    from .module_an import inner_product  # local import keeps module graph acyclic

    product = schur_product(M, N)
    direct = inner_product(product @ x, x)
    d_star = diag_matrix(x.entrywise_adjoint())
    d_x = diag_matrix(x)
    trace_form = (d_star @ M @ d_x @ N.transpose()).trace()
    return direct, trace_form
