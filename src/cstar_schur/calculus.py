"""Exponential, trigonometric, and Schur power-series calculus on elements.

sin and cos are defined through the exponential map,

    sin x = (e^{ix} - e^{-ix}) / 2i,      cos x = (e^{ix} + e^{-ix}) / 2,

so both make sense for arbitrary elements and are self-adjoint for
self-adjoint x. A self-adjoint x takes the spectral route instead: one
Hermitian eigendecomposition x = V diag(w) V* per block and V sin(w) V*
(1x1 blocks apply sin or cos to the entry), which is the same function
(Higham, Functions of Matrices, 2008, sec. 1.2). Every other element goes
through the exponential formula.

Power series act entrywise on matrices through iterated Schur products,
with the convention that the zeroth Schur power is the identity matrix (an
alternative entrywise convention using the all-units matrix is available
behind a switch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import AlgebraShape, Element, _spectral_norm
from .amatrix import AMatrix, element_scale, identity_matrix, ones_matrix, schur_product, zero_matrix
from .errors import NumericalError, RangeError, StructureError

DEFAULT_NORM_CAP = 50.0

# exactly-symmetrized inputs have zero Hermitian defect, so a tight cutoff
# suffices to route self-adjoint elements through the eigendecomposition path
_HERMITIAN_CUTOFF = 1e-14


def _capped_norms(x: Element, norm_cap: float) -> list[float]:
    """The norm of each block of x; ``RangeError`` when ||x|| exceeds the cap."""
    norms = [_spectral_norm(b) for b in x.blocks]
    norm = max(norms)
    if norm > norm_cap:
        raise RangeError(f"||x|| = {norm:.3g} exceeds the exp cap {norm_cap:g}")
    return norms


def _is_hermitian(blk: np.ndarray, norm: float) -> bool:
    return _spectral_norm(blk - blk.conj().T) <= _HERMITIAN_CUTOFF * max(1.0, norm)


def _hermitian_apply(blk: np.ndarray, fn, name: str) -> np.ndarray:
    """fn of a self-adjoint block: V fn(Λ) V* from one eigendecomposition."""
    if blk.shape == (1, 1):
        return fn(blk)
    sym = (blk + blk.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed in {name}") from exc
    return (v * fn(w)) @ v.conj().T


def _exp_block(blk: np.ndarray, norm: float) -> np.ndarray:
    if blk.shape == (1, 1):
        return np.exp(blk)
    if _is_hermitian(blk, norm):
        return _hermitian_apply(blk, np.exp, "exp")
    return scipy.linalg.expm(blk)


def elem_exp(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """Blockwise matrix exponential.

    Self-adjoint blocks go through a Hermitian eigendecomposition, everything
    else through scaling-and-squaring (Pade). Inputs with ||x|| beyond
    ``norm_cap`` are rejected to keep results inside a trustworthy range.
    """
    norms = _capped_norms(x, norm_cap)
    return Element._wrap(
        x.shape, tuple(_exp_block(b, nb) for b, nb in zip(x.blocks, norms))
    )


def _selfadjoint_apply(x: Element, norm_cap: float, fn, name: str) -> Element | None:
    """fn(x) blockwise when every block of x is self-adjoint, else None."""
    norms = _capped_norms(x, norm_cap)
    if not all(_is_hermitian(b, nb) for b, nb in zip(x.blocks, norms)):
        return None
    return Element._wrap(x.shape, tuple(_hermitian_apply(b, fn, name) for b in x.blocks))


def elem_sin(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """sin x = (e^{ix} - e^{-ix}) / 2i; one eigendecomposition per block when
    x is self-adjoint."""
    out = _selfadjoint_apply(x, norm_cap, np.sin, "sin")
    if out is not None:
        return out
    plus = elem_exp(1j * x, norm_cap)
    minus = elem_exp(-1j * x, norm_cap)
    return (plus - minus) * (-0.5j)


def elem_cos(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """cos x = (e^{ix} + e^{-ix}) / 2; one eigendecomposition per block when
    x is self-adjoint."""
    out = _selfadjoint_apply(x, norm_cap, np.cos, "cos")
    if out is not None:
        return out
    plus = elem_exp(1j * x, norm_cap)
    minus = elem_exp(-1j * x, norm_cap)
    return (plus + minus) * 0.5


@dataclass(frozen=True)
class SeriesSpec:
    """A finite power series sum_q a_q t^q with element coefficients."""

    coefficients: tuple[Element, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        if not coeffs:
            raise StructureError("a series needs at least one coefficient")
        shape = coeffs[0].shape
        for a in coeffs:
            if a.shape != shape:
                raise StructureError("coefficients live in different algebras")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def shape(self) -> AlgebraShape:
        return self.coefficients[0].shape

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_json(self) -> dict:
        return {"coefficients": [a.to_json() for a in self.coefficients]}

    @classmethod
    def from_json(cls, shape: AlgebraShape, data: dict) -> "SeriesSpec":
        return cls(
            tuple(Element.from_json(shape, a) for a in data["coefficients"])
        )


def schur_series_apply(
    series: SeriesSpec, M: AMatrix, constant: str = "identity"
) -> AMatrix:
    """Apply f[M] = sum_q a_q (Schur power of M)^q, powers nested left.

    ``constant`` picks the zeroth-power convention: "identity" (the default)
    uses the identity matrix, "ones" uses the all-units matrix E_n so the
    constant term acts on every entry.
    """
    if constant not in ("identity", "ones"):
        raise StructureError(f"unknown constant-term convention {constant!r}")
    if series.shape != M.shape:
        raise StructureError("series coefficients do not match the matrix algebra")
    result = zero_matrix(M.shape, M.n)
    power = None
    for q, a in enumerate(series.coefficients):
        if q == 0:
            base = (
                identity_matrix(M.shape, M.n)
                if constant == "identity"
                else ones_matrix(M.shape, M.n)
            )
        elif q == 1:
            power = M
            base = power
        else:
            power = schur_product(power, M)
            base = power
        result = result + element_scale(a, base)
    return result
