"""Seeded random instance generators.

All randomness flows from a single integer seed through a published
substream derivation: trial t of a run seeded with s uses the generator
``numpy.random.default_rng(mix64(s, t))`` where ``mix64`` is the SplitMix64
finalizer applied to the seed advanced by (t + 1) golden-ratio steps.
Named sub-checks derive their seed as ``mix64(s, fnv1a64(check_id))`` first.
Identical configs therefore produce bitwise-identical instances regardless
of execution order or thread count.

Searches seed a chunk's streams in bulk: ``_mix64s`` derives the seeds as
uint64 arrays, and ``_streams`` runs numpy's ``SeedSequence`` hash over all
of them at once and sets each resulting PCG64 state on one reused generator.
Each stream is bitwise ``numpy.random.default_rng(seed)``'s, which
``test_bulk_streams_equal_default_rng_bitwise`` checks over 10^4 seeds.

Gaussian coefficients are used throughout for full-support coverage; the
``real_commutative`` style restricts draws to real coordinates, which
matters for diagonal-bound checks whose proofs need entries with a = a*.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraShape, Element, _hermitian_part, _spectral_apply
from .amatrix import AMatrix, diag_matrix, diag_vector, identity_matrix
from .errors import DomainError, StructureError
from .module_an import AVector

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# added to G G* before normalizing the diagonal in random_unit_diagonal_positive
_RIDGE = 1e-6

STYLES = ("complex", "real_commutative")


def mix64(seed: int, index: int) -> int:
    """SplitMix64 finalizer of seed + (index + 1) * golden ratio, mod 2^64."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a check id, used to separate named substreams."""
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(seed: int, *indices: int) -> int:
    return functools.reduce(mix64, indices, seed & _MASK64)


@dataclass(frozen=True)
class GenConfig:
    """Everything a generator needs: seed, algebra shape, size, scale, style."""

    seed: int
    shape: AlgebraShape
    n: int = 2
    entry_scale: float = 1.0
    style: str = "complex"

    def __post_init__(self):
        if self.n < 1:
            raise StructureError("n must be >= 1")
        # NaN fails every comparison, so a bare "<= 0" would let it through
        if not (math.isfinite(self.entry_scale) and self.entry_scale > 0):
            raise DomainError(
                f"entry_scale must be finite and positive, got {self.entry_scale!r}"
            )
        if self.style not in STYLES:
            raise DomainError(f"unknown style {self.style!r}; choose from {STYLES}")
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def derive(self, *indices: int) -> "GenConfig":
        return replace(self, seed=derive_seed(self.seed, *indices))

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "shape": self.shape.to_json(),
            "n": self.n,
            "entry_scale": self.entry_scale,
            "style": self.style,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GenConfig":
        return cls(
            seed=int(data["seed"]),
            shape=AlgebraShape.from_json(data["shape"]),
            n=int(data.get("n", 2)),
            entry_scale=float(data.get("entry_scale", 1.0)),
            style=data.get("style", "complex"),
        )


def _from_normals(x: np.ndarray, scale: float, style: str, axis: int = 0) -> np.ndarray:
    """The complex draw made of the standard normals ``x``; in the complex
    style, axis ``axis`` of length 2 holds the real, then the imaginary parts."""
    if style == "real_commutative":
        return (scale * x).astype(np.complex128)
    re, im = x.swapaxes(0, axis)
    return (re + 1j * im) * (scale / np.sqrt(2.0))


def _draw(rng: np.random.Generator, dims: tuple[int, ...], scale: float, style: str):
    # one call fills the real parts, then the imaginary parts, in stream order
    parts = () if style == "real_commutative" else (2,)
    return _from_normals(rng.standard_normal(parts + dims), scale, style)


def _mix64s(seeds, indices) -> np.ndarray:
    """``mix64`` over uint64 arrays, broadcast; arrays wrap mod 2^64 silently."""
    u64 = np.uint64
    seeds, indices = (np.atleast_1d(np.asarray(a, u64)) for a in (seeds, indices))
    z = seeds + (indices + u64(1)) * u64(_GOLDEN)
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    return z ^ (z >> u64(31))


# numpy's SeedSequence hash constants (O'Neill's seed_seq redesign) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; its constant advances per call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _streams(seeds):
    """One generator per seed, in order, each with the stream of
    ``np.random.default_rng(seed)``: ``SeedSequence(seed).generate_state(4,
    np.uint64)`` computed for all seeds at once, then set as PCG64 state on one
    reused generator. Use each generator before taking the next."""
    seeds = np.atleast_1d(np.asarray(seeds, np.uint64))
    # the entropy words, low first; a seed below 2^32 has one word, and the
    # pool pads it with zero words, so its high word 0 gives the same pool
    lo = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (lo, hi, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(pool[src])
                pool[dst] = x ^ (x >> np.uint32(16))
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired into uint64 words low word first
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    words = [(out[i] | out[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2)]
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for s_hi, s_lo, i_hi, i_lo in zip(*words):
        # pcg64_set_seed: inc = 2 initseq + 1, two LCG steps from state 0
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def random_element(cfg: GenConfig) -> Element:
    rng = cfg.rng()
    return Element._wrap(
        cfg.shape,
        tuple(_draw(rng, (k, k), cfg.entry_scale, cfg.style) for k in cfg.shape.blocks),
    )


def random_matrix(cfg: GenConfig) -> AMatrix:
    """A dense Gaussian matrix over the algebra (no structure imposed)."""
    rng = cfg.rng()
    return AMatrix._wrap(
        cfg.shape,
        cfg.n,
        tuple(
            _draw(rng, (cfg.n, cfg.n, k, k), cfg.entry_scale, cfg.style)
            for k in cfg.shape.blocks
        ),
    )


def random_positive_matrix(cfg: GenConfig) -> tuple[AMatrix, AMatrix]:
    """(G, M) with M = G G*, positive by construction."""
    G = random_matrix(cfg)
    return G, G @ G.adjoint()


def random_vector(cfg: GenConfig) -> AVector:
    rng = cfg.rng()
    return AVector._wrap(
        cfg.shape,
        cfg.n,
        tuple(
            _draw(rng, (cfg.n, k, k), cfg.entry_scale, cfg.style)
            for k in cfg.shape.blocks
        ),
    )


def _cap_norm(e: Element, cap: float) -> Element:
    norm = e.norm()
    if norm > cap:
        return (cap / norm) * e
    return e


def random_selfadjoint_element(
    cfg: GenConfig, norm_cap: float | None = None
) -> Element:
    """A symmetrized Gaussian draw, optionally rescaled into a norm cap."""
    raw = random_element(cfg)
    sym = 0.5 * (raw + raw.adjoint())
    if norm_cap is not None:
        sym = _cap_norm(sym, norm_cap)
    return sym


def random_selfadjoint_points(cfg: GenConfig, d: int) -> list[list[Element]]:
    """An n x d array of self-adjoint elements with norms <= entry_scale * pi."""
    if d < 1:
        raise StructureError("d must be >= 1")
    cap = cfg.entry_scale * np.pi
    points = []
    for j in range(cfg.n):
        row = []
        for l in range(d):
            row.append(
                random_selfadjoint_element(cfg.derive(j, l), norm_cap=cap)
            )
        points.append(row)
    return points


def _inv_sqrt_positive(e: Element) -> Element:
    return Element._wrap(
        e.shape,
        tuple(
            _spectral_apply(blk, lambda w: 1.0 / np.sqrt(w), b)
            for b, blk in enumerate(e.blocks)
        ),
    )


def random_unit_diagonal_positive(cfg: GenConfig) -> AMatrix:
    """A positive matrix with diagonal entries equal to the unit (within 1e-10).

    Built as D^{-1/2} (G G* + _RIDGE I) D^{-1/2} where D collects the diagonal;
    the ridge keeps the diagonal safely invertible.
    """
    _, M0 = random_positive_matrix(cfg)
    M0 = M0 + _RIDGE * identity_matrix(cfg.shape, cfg.n)
    d = diag_vector(M0)
    scalers = AVector.from_elements(
        _inv_sqrt_positive(d[j]) for j in range(cfg.n)
    )
    S = diag_matrix(scalers)
    return S @ M0 @ S


def haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    """A Haar-distributed k x k unitary (QR with phase-fixed diagonal)."""
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0.0] = 1.0
    return q * (d / np.abs(d))


def random_commuting_family(
    cfg: GenConfig,
    count: int,
    selfadjoint: bool = False,
    positive: bool = False,
    norm_cap: float | None = None,
) -> list[Element]:
    """Pairwise commuting elements sharing one diagonalizing frame per block.

    Members are W diag(v) W* with a common Haar unitary W per block, so all
    commutators vanish (numerically to ~1e-15). ``selfadjoint`` draws real
    diagonals, ``positive`` nonnegative ones.
    """
    if count < 1:
        raise StructureError("count must be >= 1")
    rng = cfg.rng()
    frames = []
    values = []
    for k in cfg.shape.blocks:
        w = haar_unitary(rng, k)
        if positive:
            vals = (cfg.entry_scale * rng.standard_normal((count, k))) ** 2
        elif selfadjoint:
            vals = cfg.entry_scale * rng.standard_normal((count, k))
        else:
            vals = _draw(rng, (count, k), cfg.entry_scale, cfg.style)
        frames.append(w)
        values.append(np.asarray(vals, dtype=np.complex128))
    members = []
    for i in range(count):
        blocks = []
        for w, vals in zip(frames, values):
            mat = (w * vals[i]) @ w.conj().T
            if selfadjoint or positive:
                mat = _hermitian_part(mat)
            blocks.append(mat)
        member = Element._wrap(cfg.shape, tuple(blocks))
        if norm_cap is not None:
            member = _cap_norm(member, norm_cap)
        members.append(member)
    return members


def random_commuting_spectral_pair(cfg: GenConfig) -> dict:
    """Positive matrices M = U diag(lam) U*, N = V diag(mu) V* whose spectral
    data all commute.

    Per algebra block the construction works coordinate-wise: a common frame W
    diagonalizes everything, and along each of its k diagonal coordinates an
    independent n x n complex unitary and a positive real vector are drawn.
    Entries of U and V and the eigenvalue elements then live in one
    commutative subalgebra, which is exactly the hypothesis under which the
    Schur product of M and N is guaranteed positive.

    Returns a dict with AMatrix values M, N, U, V and AVector values lam, mu.
    """
    rng = cfg.rng()
    n = cfg.n
    m_blocks, n_blocks = [], []
    u_blocks, v_blocks = [], []
    lam_blocks, mu_blocks = [], []
    for k in cfg.shape.blocks:
        w = haar_unitary(rng, k)
        u_stack = np.stack([haar_unitary(rng, n) for _ in range(k)])
        v_stack = np.stack([haar_unitary(rng, n) for _ in range(k)])
        lam = (cfg.entry_scale * rng.standard_normal((k, n))) ** 2
        mu = (cfg.entry_scale * rng.standard_normal((k, n))) ** 2
        m_coord = np.einsum("tjs,ts,tls->tjl", u_stack, lam, u_stack.conj())
        n_coord = np.einsum("tjs,ts,tls->tjl", v_stack, mu, v_stack.conj())
        wc = w.conj()
        m_blocks.append(np.einsum("at,tjl,ct->jlac", w, m_coord, wc))
        n_blocks.append(np.einsum("at,tjl,ct->jlac", w, n_coord, wc))
        u_blocks.append(np.einsum("at,tjl,ct->jlac", w, u_stack, wc))
        v_blocks.append(np.einsum("at,tjl,ct->jlac", w, v_stack, wc))
        lam_blocks.append(np.einsum("at,tj,ct->jac", w, lam.astype(np.complex128), wc))
        mu_blocks.append(np.einsum("at,tj,ct->jac", w, mu.astype(np.complex128), wc))
    shape = cfg.shape
    return {
        "M": AMatrix._wrap(shape, n, tuple(m_blocks)),
        "N": AMatrix._wrap(shape, n, tuple(n_blocks)),
        "U": AMatrix._wrap(shape, n, tuple(u_blocks)),
        "V": AMatrix._wrap(shape, n, tuple(v_blocks)),
        "lam": AVector._wrap(shape, n, tuple(lam_blocks)),
        "mu": AVector._wrap(shape, n, tuple(mu_blocks)),
    }
