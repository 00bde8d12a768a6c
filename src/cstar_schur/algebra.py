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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, StructureError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (k_1, ..., k_B) of a direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(k) for k in self.blocks)
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
        return cls(tuple(data["blocks"]))

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
    wrapper's cost. A solver that does not converge raises ``NumericalError``.
    """
    try:
        return np.linalg.svd(mats, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD did not converge") from exc


def _spectral_norm(mat: np.ndarray) -> float:
    # operator (2-)norm; cheap exact path for the ubiquitous 1x1 blocks
    if mat.shape == (1, 1):
        return float(abs(mat[0, 0]))
    return float(_top_singular_values(mat))


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Element:
    """A single algebra value: one complex k_i x k_i matrix per block.

    Elements are immutable; all arithmetic returns new objects. ``a * b``
    is the algebra product, ``lam * a`` the scalar action, ``a.adjoint()``
    the involution.
    """

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: AlgebraShape, blocks):
        if len(blocks) != len(shape.blocks):
            raise StructureError(
                f"expected {len(shape.blocks)} blocks, got {len(blocks)}"
            )
        mats = []
        for k, raw in zip(shape.blocks, blocks):
            mat = np.array(raw, dtype=np.complex128)
            if mat.shape != (k, k):
                raise StructureError(f"block must be {k}x{k}, got {mat.shape}")
            mats.append(_lock(mat))
        self.shape = shape
        self.blocks = tuple(mats)

    @classmethod
    def _wrap(cls, shape: AlgebraShape, blocks: tuple[np.ndarray, ...]) -> "Element":
        # fast path for internally computed blocks; trusts dtype and dims
        obj = object.__new__(cls)
        obj.shape = shape
        obj.blocks = tuple(_lock(b) for b in blocks)
        return obj

    def _require_same_shape(self, other: "Element") -> None:
        if self.shape != other.shape:
            raise StructureError("algebra shapes differ")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_shape(other)
        return Element._wrap(self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_shape(other)
        return Element._wrap(self.shape, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self):
        return Element._wrap(self.shape, tuple(-a for a in self.blocks))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same_shape(other)
            return Element._wrap(
                self.shape, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
            )
        if isinstance(other, numbers.Complex):
            lam = complex(other)
            return Element._wrap(self.shape, tuple(lam * a for a in self.blocks))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            lam = complex(other)
            return Element._wrap(self.shape, tuple(lam * a for a in self.blocks))
        return NotImplemented

    def adjoint(self) -> "Element":
        return Element._wrap(self.shape, tuple(a.conj().T.copy() for a in self.blocks))

    def norm(self) -> float:
        return max(_spectral_norm(a) for a in self.blocks)

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def to_json(self) -> dict:
        # one [re, im] pair of Python floats per scalar
        return {"blocks": [np.stack((b.real, b.imag), -1).tolist() for b in self.blocks]}

    @classmethod
    def from_json(cls, shape: AlgebraShape, data: dict) -> "Element":
        blocks = []
        for blk in data["blocks"]:
            blocks.append(
                np.array([[complex(re, im) for re, im in row] for row in blk])
            )
        return cls(shape, blocks)

    def __repr__(self):
        return f"Element(shape={self.shape.blocks}, norm={self.norm():.6g})"


def identity_element(shape: AlgebraShape) -> Element:
    return Element._wrap(shape, tuple(np.eye(k, dtype=np.complex128) for k in shape.blocks))


def zero_element(shape: AlgebraShape) -> Element:
    return Element._wrap(
        shape, tuple(np.zeros((k, k), dtype=np.complex128) for k in shape.blocks)
    )


def scalar_element(shape: AlgebraShape, value: complex) -> Element:
    """The multiple value * 1 of the unit."""
    return Element._wrap(
        shape, tuple(complex(value) * np.eye(k, dtype=np.complex128) for k in shape.blocks)
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Self-adjointness and positivity certificate for one element.

    ``min_spectrum`` is the most negative eigenvalue of the symmetrized part
    over all blocks; ``hermitian_defect`` is ||a - a*||.
    """

    is_selfadjoint: bool
    is_positive: bool
    min_spectrum: float
    hermitian_defect: float

    def to_json(self) -> dict:
        return {
            "is_selfadjoint": self.is_selfadjoint,
            "is_positive": self.is_positive,
            "min_spectrum": self.min_spectrum,
            "hermitian_defect": self.hermitian_defect,
        }


def _min_eigenvalues(mats) -> list[np.ndarray]:
    """The smallest eigenvalue of the Hermitian part of each matrix, or of
    each member of a stack of matrices (one eigensolver call per stack)."""
    mins = []
    for b, mat in enumerate(mats):
        sym = (mat + mat.swapaxes(-1, -2).conj()) / 2.0
        try:
            eigs = np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed on block {b}", block=b) from exc
        mins.append(eigs[..., 0])
    return mins


def hermitian_defect(a: Element) -> float:
    """||a - a*|| in the algebra norm."""
    return max(_spectral_norm(b - b.conj().T) for b in a.blocks)


def classify(a: Element, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Decide self-adjointness and positivity of one element.

    An element counts as self-adjoint when ||a - a*|| <= tol * max(1, ||a||)
    and as positive when it is self-adjoint and every eigenvalue of the
    symmetrized part stays above -tol * max(1, ||a||).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tolerance must be finite and positive", tol=tol)
    norm = a.norm()
    cut = tol * max(1.0, norm)
    defect = hermitian_defect(a)
    min_spectrum = float(min(_min_eigenvalues(a.blocks)))
    selfadjoint = defect <= cut
    positive = selfadjoint and min_spectrum >= -cut
    return SpectrumReport(selfadjoint, positive, min_spectrum, defect)


def sqrt_positive(a: Element, tol: float = DEFAULT_TOL) -> Element:
    """The positive square root of a positive element.

    Blockwise Hermitian eigendecomposition; eigenvalues in [-tol*scale, 0)
    are clamped to zero before taking square roots. Raises ``DomainError``
    for inputs that fail ``classify``.
    """
    report = classify(a, tol)
    if not report.is_positive:
        raise DomainError(
            "element is not positive",
            min_spectrum=report.min_spectrum,
            hermitian_defect=report.hermitian_defect,
        )
    roots = [_psd_sqrt(blk, b) for b, blk in enumerate(a.blocks)]
    return Element._wrap(a.shape, tuple(roots))


def _psd_sqrt(mat: np.ndarray, block: int) -> np.ndarray:
    """Square root of the Hermitian part of ``mat``; negative eigenvalues clamp to zero."""
    sym = (mat + mat.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on block {block}", block=block) from exc
    w = np.where(w < 0.0, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2.0


def commutator_norm(a: Element, b: Element) -> float:
    """||ab - ba||."""
    a._require_same_shape(b)
    return max(
        _spectral_norm(x @ y - y @ x) for x, y in zip(a.blocks, b.blocks)
    )
