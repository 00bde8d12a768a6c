"""Exponential, trigonometric, and Schur power-series calculus on elements.

sin and cos are defined through the exponential map,

    sin x = (e^{ix} - e^{-ix}) / 2i,      cos x = (e^{ix} + e^{-ix}) / 2,

so both make sense for arbitrary elements and are self-adjoint for
self-adjoint x. An x whose every block equals its adjoint exactly takes the
spectral route instead: one Hermitian eigendecomposition x = V diag(w) V*
per block and V sin(w) V* (1x1 blocks apply sin or cos to the entry), which
is the same function (Higham, Functions of Matrices, 2008, sec. 1.2). Every
other element goes through the exponential formula. ``_trig_stack`` takes a
stack of elements, its exactly self-adjoint members in one
eigendecomposition per block; ``elem_sin`` and ``elem_cos`` are that call on
a stack of one.

Power series act entrywise on matrices through iterated Schur products,
with the convention that the zeroth Schur power is the identity matrix (an
alternative entrywise convention using the all-units matrix is available
behind a switch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraShape, Element, _eigh, _exactly_hermitian, _first_of, _spectral_apply, _spectral_norm
)
from .amatrix import AMatrix, element_scale, identity_matrix, ones_matrix, schur_product, zero_matrix
from .errors import NumericalError, RangeError, StructureError

DEFAULT_NORM_CAP = 50.0


def _raise_over_cap(norm: float, norm_cap: float) -> None:
    if norm > norm_cap:
        raise RangeError(f"||x|| = {norm:.3g} exceeds the exp cap {norm_cap:g}")


def _check_cap(x: Element, norm_cap: float) -> None:
    _raise_over_cap(x.norm(), norm_cap)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Moler and Van Loan, SIAM Review 45, 2003):
    the degree-18 Taylor polynomial of a / 2^s, for the smallest s >= 0 with
    ||a / 2^s||_1 <= 1/2, squared s times. A non-finite entry gives NaNs."""
    norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        return np.full_like(a, np.nan)
    mantissa, exponent = np.frexp(norm)  # norm = mantissa 2^exponent, 1/2 <= mantissa < 1
    s = max(0, int(exponent + (mantissa > 0.5)))
    term = out = np.identity(len(a), a.dtype)
    for j in range(1, 19):
        term = term @ a / (2.0**s * j)
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _exp_block(blk: np.ndarray) -> np.ndarray:
    if blk.shape == (1, 1):
        return np.exp(blk)
    if _exactly_hermitian([blk[None]])[0]:
        return _spectral_apply(blk, np.exp, site="exp")
    return _expm(blk)


def elem_exp(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """Blockwise matrix exponential.

    Blocks equal to their adjoint go through a Hermitian eigendecomposition,
    everything else through scaling and squaring of a Taylor polynomial.
    Inputs with ||x|| beyond ``norm_cap`` are rejected to keep results inside
    a trustworthy range.
    """
    _check_cap(x, norm_cap)
    return Element._wrap(x.shape, tuple(_exp_block(b) for b in x.blocks))


def _spectral_stack(stacks, fn, name: str):
    """(fn of each member, its norm) for a stack of elements whose blocks are
    Hermitian, one (T, k, k) array per block: one eigendecomposition per block
    for the whole stack, V fn(Λ) V* per member, and the norm max|λ| over the
    blocks. A 1x1 block applies fn to the entry and takes the entry's abs."""
    # (w, v) per block with w ascending; a 1x1 block is its own eigenvalue
    eigs = [None if s.shape[-1] == 1 else _eigh(s, True, site=name) for s in stacks]
    norms = [
        _spectral_norm(s) if e is None else _first_of([abs(e[0][:, 0]), abs(e[0][:, -1])], np.greater)
        for s, e in zip(stacks, eigs)
    ]
    values = [
        fn(s) if e is None else (e[1] * fn(e[0])[:, None, :]) @ e[1].conj().swapaxes(-1, -2)
        for s, e in zip(stacks, eigs)
    ]
    return values, _first_of(norms, np.greater)


def _trig_stack(shape: AlgebraShape, stacks, sine, norm_cap=DEFAULT_NORM_CAP) -> list:
    """cos of each member of a stack of elements, one (T, k, k) array per block,
    or sin of the members where the boolean array ``sine`` is set.

    The members whose blocks all equal their adjoints exactly share one
    ``_spectral_stack`` call, and one over the cap raises ``RangeError`` with
    the norm it gives. When that call raises, each of them is solved alone,
    under the name of its function. Every other member is checked against the
    cap with its norm and takes the exponential formula. Members are finished
    in order, so each gets the bits it gets alone, and the first error raised
    is the one it raises first in member order.
    """
    out = [np.empty_like(s) for s in stacks]
    exact = _exactly_hermitian(stacks)
    # a solved member's norm is never NaN; NaN marks the members left to solve
    norms = np.full(len(sine), np.nan)

    def solve(members, name: str) -> None:
        # sin or cos of the members from one _spectral_stack call, into out and norms
        picked = sine[members]

        def fn(w):
            return np.where(picked.reshape((-1,) + (1,) * (w.ndim - 1)), np.sin(w), np.cos(w))

        values, norms[members] = _spectral_stack([s[members] for s in stacks], fn, name)
        for o, v in zip(out, values):
            o[members] = v

    try:
        solve(exact, "cos")
    except NumericalError:
        pass
    for i in np.flatnonzero(~(exact & (norms <= norm_cap))):
        if exact[i]:
            if np.isnan(norms[i]):
                solve([i], "sin" if sine[i] else "cos")
            _raise_over_cap(float(norms[i]), norm_cap)
            continue
        x = Element._wrap(shape, tuple(s[i] for s in stacks))
        _check_cap(x, norm_cap)
        plus, minus = elem_exp(1j * x, norm_cap), elem_exp(-1j * x, norm_cap)
        value = (plus - minus) * (-0.5j) if sine[i] else (plus + minus) * 0.5
        for o, b in zip(out, value.blocks):
            o[i] = b
    return out


def _trig(x: Element, sine: bool, norm_cap: float) -> Element:
    """``_trig_stack`` on a stack of one."""
    blocks = _trig_stack(x.shape, [b[None] for b in x.blocks], np.array([sine]), norm_cap)
    return x._like(tuple(b[0] for b in blocks))


def elem_sin(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """sin x = (e^{ix} - e^{-ix}) / 2i; one eigendecomposition per block when
    x is self-adjoint."""
    return _trig(x, True, norm_cap)


def elem_cos(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """cos x = (e^{ix} + e^{-ix}) / 2; one eigendecomposition per block when
    x is self-adjoint."""
    return _trig(x, False, norm_cap)


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
    return _series_sums(series.coefficients, M, constant)[-1]


def _series_sums(coefficients, M: AMatrix, constant: str) -> list[AMatrix]:
    """The partial sums of ``schur_series_apply``, sum_{q <= p} a_q M^(q) for
    p = 0, 1, ...; the coefficients and M may be batches."""
    if constant not in ("identity", "ones"):
        raise StructureError(f"unknown constant-term convention {constant!r}")
    if coefficients[0].shape != M.shape:
        raise StructureError("series coefficients do not match the matrix algebra")
    base = identity_matrix(M.shape, M.n) if constant == "identity" else ones_matrix(M.shape, M.n)
    sums = [zero_matrix(M.shape, M.n) + element_scale(coefficients[0], base)]
    power = M
    for q, a in enumerate(coefficients[1:]):
        if q:
            power = schur_product(power, M)
        sums.append(sums[-1] + element_scale(a, power))
    return sums
