"""Exponential, trigonometric, and Schur power-series calculus on elements.

sin and cos are defined through the exponential map,

    sin x = (e^{ix} - e^{-ix}) / 2i,      cos x = (e^{ix} + e^{-ix}) / 2,

so both make sense for arbitrary elements and are self-adjoint for
self-adjoint x. An x whose every block equals its adjoint exactly takes the
spectral route instead: one Hermitian eigendecomposition x = V diag(w) V*
per block gives both V sin(w) V* and V cos(w) V* (1x1 blocks apply sin and
cos to the entry), the same functions (Higham, Functions of Matrices, 2008,
sec. 1.2). Every other element takes the exponential formula, one pair
e^{ix}, e^{-ix} for both. ``_trig_stack`` gives the functions its caller
names, sin, cos or both, of each member of a stack of elements, its exactly
self-adjoint members from one eigendecomposition per block; ``elem_sin`` and
``elem_cos`` are that call on one element and one function.
``_spectral_stack`` forms every V f(w) V*, the Hermitian blocks of
``elem_exp`` included.

Power series act entrywise on matrices through iterated Schur products,
with the convention that the zeroth Schur power is the identity matrix (an
alternative entrywise convention using the all-units matrix is available
behind a switch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraShape, Element, _eigh, _exactly_hermitian, _first_of, _norms, _spectral_norm
)
from .amatrix import AMatrix, element_scale, identity_matrix, ones_matrix, schur_product, zero_matrix
from .errors import NumericalError, RangeError, StructureError

DEFAULT_NORM_CAP = 50.0


def _raise_over_cap(norm: float, norm_cap: float) -> None:
    if norm > norm_cap:
        raise RangeError(f"||x|| = {norm:.3g} exceeds the exp cap {norm_cap:g}")


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


def _spectral_stack(stacks, fns, name: str):
    """(each function of ``fns`` of each member, its norm) for a stack of
    elements whose blocks are Hermitian, one (T, k, k) array per block: one
    eigendecomposition per block for the whole stack, V f(Λ) V* per member and
    function f, and the norm max|λ| over the blocks. A 1x1 block applies f to
    the entry and takes the entry's abs. The values come one list of blocks
    per function; this is the package's only V f(Λ) V*."""
    # (w, v) per block with w ascending; a 1x1 block is its own eigenvalue
    eigs = [None if s.shape[-1] == 1 else _eigh(s, True, site=name) for s in stacks]
    norms = [
        _spectral_norm(s) if e is None else _first_of([abs(e[0][:, 0]), abs(e[0][:, -1])], np.greater)
        for s, e in zip(stacks, eigs)
    ]
    values = tuple(
        [
            f(s) if e is None else (e[1] * f(e[0])[:, None, :]) @ e[1].conj().swapaxes(-1, -2)
            for s, e in zip(stacks, eigs)
        ]
        for f in fns
    )
    return values, _first_of(norms, np.greater)


def _exp_block(blk: np.ndarray) -> np.ndarray:
    if blk.shape == (1, 1):
        return np.exp(blk)
    if _exactly_hermitian([blk[None]])[0]:
        ((value,),), _ = _spectral_stack([blk[None]], (np.exp,), "exp")
        return value[0]
    return _expm(blk)


def elem_exp(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """Blockwise matrix exponential.

    Blocks equal to their adjoint go through a Hermitian eigendecomposition,
    everything else through scaling and squaring of a Taylor polynomial.
    Inputs with ||x|| beyond ``norm_cap`` are rejected to keep results inside
    a trustworthy range.
    """
    _raise_over_cap(x.norm(), norm_cap)
    return Element._wrap(x.shape, tuple(_exp_block(b) for b in x.blocks))


# sin and cos from the pair p = e^{ix}, m = e^{-ix} of a block
_FROM_EXP = {np.sin: lambda p, m: -0.5j * (p - m), np.cos: lambda p, m: 0.5 * (p + m)}


def _trig_stack(stacks, *fns, norm_cap=DEFAULT_NORM_CAP) -> tuple:
    """Each function of ``fns``, ``np.sin`` or ``np.cos`` in the caller's
    order, of each member of a stack of elements given by one array per block
    with any leading batch axes: one tuple of blocks, shaped as ``stacks``, per
    function.

    The members whose blocks all equal their adjoints exactly share one
    ``_spectral_stack`` call for the functions, and one over the cap raises
    ``RangeError`` with the norm it gives. When that call raises, each of them
    is solved alone. Every other member is checked against the cap with its
    norm and takes the exponential formula, from one pair exp(ix), exp(-ix).
    The name of the first function labels the eigensolver site in an error.
    Members are finished in order, so each gets the bits it gets alone, and
    the first error raised is the one it raises first in member order.
    """
    batch = stacks[0].shape[:-2]
    stacks = [s.reshape(-1, *s.shape[-2:]) for s in stacks]
    outs = [[np.empty_like(s) for s in stacks] for _ in fns]
    exact = _exactly_hermitian(stacks)
    # a solved member's norm is never NaN; NaN marks the members left to solve
    norms = np.full(len(exact), np.nan)

    def put(i, values) -> None:
        # the blocks of each function of member (or members) i, into the outputs
        for out, blocks in zip(outs, values):
            for o, b in zip(out, blocks):
                o[i] = b

    def solve(members) -> None:
        values, norms[members] = _spectral_stack([s[members] for s in stacks], fns, fns[0].__name__)
        put(members, values)

    try:
        solve(exact)
    except NumericalError:
        pass
    for i in np.flatnonzero(~(exact & (norms <= norm_cap))):
        if exact[i]:
            if np.isnan(norms[i]):
                solve([i])
            _raise_over_cap(float(norms[i]), norm_cap)
            continue
        blocks = [s[i] for s in stacks]
        _raise_over_cap(float(_norms(blocks)[0]), norm_cap)
        plus, minus = ([_exp_block(z * b) for b in blocks] for z in (1j, -1j))
        put(i, [[_FROM_EXP[f](p, m) for p, m in zip(plus, minus)] for f in fns])
    return tuple(tuple(o.reshape(batch + o.shape[1:]) for o in out) for out in outs)


def elem_sin(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """sin x = (e^{ix} - e^{-ix}) / 2i; one eigendecomposition per block when
    x is self-adjoint."""
    (sines,) = _trig_stack(x.blocks, np.sin, norm_cap=norm_cap)
    return x._like(sines)


def elem_cos(x: Element, norm_cap: float = DEFAULT_NORM_CAP) -> Element:
    """cos x = (e^{ix} + e^{-ix}) / 2; one eigendecomposition per block when
    x is self-adjoint."""
    (cosines,) = _trig_stack(x.blocks, np.cos, norm_cap=norm_cap)
    return x._like(cosines)


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
