"""Seeded random instance generators.

All randomness flows from a single integer seed through a published
substream derivation: trial t of a run seeded with s uses the generator
``numpy.random.default_rng(mix64(s, t))`` where ``mix64`` is the SplitMix64
finalizer applied to the seed advanced by (t + 1) golden-ratio steps.
Named sub-checks derive their seed as ``mix64(s, fnv1a64(check_id))`` first.
Identical configs therefore produce bitwise-identical instances regardless
of execution order or thread count.

Searches and suite trials draw a chunk of instances at once, seeded in bulk
(``_mix64s``, ``_Streams``; each stream is bitwise ``default_rng(seed)``'s):
``_Streams`` computes SeedSequence's hash of every seed in one pass, and each
member's PCG64 seeds itself from its row of that hash, through numpy's
seed-sequence protocol, as it would from ``SeedSequence(seed)``. The hash
costs about as much for ten seeds as for a thousand, so it is taken for many
draws at once and its rows are sliced out (``_Streams.__getitem__``): a suite
run hashes the substreams of the first chunk of every check it runs in one
pass (``_Streams._apart``, each check's rows an array of its own), a later
chunk of a check hashes its own, and a search hashes the substreams of a
window of trials (``_streams``, ``verify._Window``) whose rows its chunks take.
Each generator's chunk form takes one generator per instance and returns the
instances as one batched value, instance t its member t (``algebra._Blocks``):
the complex stacks, Gram products, Haar frames, Hermitian parts and norm caps
are formed once per chunk, with the bits each instance gets alone.
``random_*`` and ``haar_unitary`` are member 0 of their chunk forms on the one
stream ``cfg.rng()``.

Gaussian coefficients are used throughout for full-support coverage; the
``real_commutative`` style restricts draws to real coordinates, which
matters for diagonal-bound checks whose proofs need entries with a = a*.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    AlgebraShape, Element, _adjoint, _eigh, _first_of, _hermitian_part, _norm_bound, _spectral_norm
)
from .amatrix import AMatrix, _flatten_block, _gram_block, _unflatten_block, identity_matrix
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
        """The ``config`` of a CLI report, without its run-wide keys; the
        shape is its block list."""
        return {
            "seed": self.seed,
            "shape": list(self.shape.blocks),
            "n": self.n,
            "entry_scale": self.entry_scale,
            "style": self.style,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GenConfig":
        """The config ``to_json`` wrote, such as a report's ``config``; other
        keys (trials, tol, ...) are ignored."""
        return cls(
            seed=int(data["seed"]),
            shape=AlgebraShape(data["shape"]),
            n=int(data.get("n", 2)),
            entry_scale=float(data.get("entry_scale", 1.0)),
            style=data.get("style", "complex"),
        )


def _from_normals(x: np.ndarray, scale: float, style: str) -> np.ndarray:
    """The complex stack made of the standard normals ``x``; in the complex
    style, axis 1 of length 2 holds the real, then the imaginary parts."""
    if style == "real_commutative":
        return (scale * x).astype(np.complex128)
    re, im = x.swapaxes(0, 1)
    return (re + 1j * im) * (scale / np.sqrt(2.0))


# mix64's constants as uint64 scalars: the golden ratio, the (shift,
# multiplier) of each of its two rounds, and its last shift
_ONE, _GOLDEN64, _LAST = np.uint64(1), np.uint64(_GOLDEN), np.uint64(31)
_ROUNDS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)


def _mix64s(seeds, indices) -> np.ndarray:
    """``mix64`` over uint64 arrays, broadcast; arrays wrap mod 2^64 silently.
    The rounds work in place: a chunk derives seeds for a few dozen trials,
    where numpy's cost per call dominates."""
    z = np.atleast_1d(np.asarray(indices, np.uint64)) + _ONE
    z *= _GOLDEN64
    z = z + np.asarray(seeds, np.uint64)
    for shift, mult in _ROUNDS:
        z ^= z >> shift
        z *= mult
    z ^= z >> _LAST
    return z


def _seeds(cfg: GenConfig, trials, *indices) -> np.ndarray:
    """The seeds of ``cfg.derive(t, *indices)`` for each trial t, as a uint64
    array with one axis for the trials and one per index; an index that is a
    range takes each of its values, an integer gives an axis of length 1."""
    seeds = _mix64s(cfg.seed, np.asarray(trials, np.uint64))
    for index in indices:
        seeds = _mix64s(seeds[..., None], np.asarray(index, np.uint64))
    return seeds


# numpy's SeedSequence hash constants (O'Neill's seed_seq redesign)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def _hash_constants(const: int, mult: int, calls: int):
    """The xor and the multiply constants of ``calls`` successive calls of
    SeedSequence's hashmix, as uint32 columns: the constant advances per call."""
    consts = [const]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32)[:, None], np.array(consts[1:], np.uint32)[:, None]


# the pool's 4 + 12 hashmix calls, then generate_state's 8
_HASH_A, _HASH_B = _hash_constants(_INIT_A, _MULT_A, 16), _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """hashmix of uint32 rows, each with its own call's constants."""
    value = (value ^ xors) * mults
    return value ^ (value >> np.uint32(16))


@functools.cache
def _hashed_seed() -> type:
    """The seed type that hands PCG64 an already hashed state: a
    ``numpy.random.bit_generator.ISeedSequence`` whose ``generate_state``
    returns its row. numpy.random is imported here, on the first draw, so
    that importing the package does not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        __slots__ = ("row",)

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 makes one request, generate_state(4, np.uint64)
            return self.row

    return HashedSeed


def _hash(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed of a flat
    uint64 array, one column of four words per seed."""
    # the entropy words, low first; a seed below 2^32 has one word, and the
    # pool pads it with zero words, so its high word 0 gives the same pool
    words = np.zeros((4, len(seeds)), np.uint32)
    words[0], words[1] = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    xors, mults = _HASH_A
    pool = _hashmix(words, xors[:4], mults[:4])
    # each word mixes into the other three in turn, with the next three calls
    for src in range(4):
        dst, calls = [d for d in range(4) if d != src], slice(4 + 3 * src, 7 + 3 * src)
        h = _hashmix(pool[src], xors[calls], mults[calls])
        x = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * h
        pool[dst] = x ^ (x >> np.uint32(16))
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired into uint64 words low word first
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_HASH_B).astype(np.uint64)
    return out[0::2] | out[1::2] << np.uint64(32)


def _states(seeds: list) -> list[np.ndarray]:
    """The hashed states of each of several seed arrays, from one ``_hash`` of
    all their seeds: one array per seed array, with its axes, then 4. Each is
    an array of its own, so each is freed with its streams, and each row is
    contiguous, since PCG64 reads the four words from the row's memory."""
    seeds = [np.atleast_1d(np.asarray(s, np.uint64)) for s in seeds]
    if not seeds:
        return []
    words = _hash(np.concatenate([s.ravel() for s in seeds]))
    ends = np.cumsum([s.size for s in seeds]).tolist()
    return [
        np.ascontiguousarray(words[:, end - s.size : end].T).reshape(s.shape + (4,))
        for s, end in zip(seeds, ends)
    ]


class _Streams:
    """One generator per seed, in C order over the seeds' axes, each with the
    stream of ``np.random.default_rng(seed)``: ``SeedSequence(seed).generate_state(4,
    np.uint64)`` is computed for all seeds at once, one row of ``states`` per
    seed (its axes, then 4), and each row seeds its own PCG64 in C as
    SeedSequence's output would. Indexing the seeds' axes gives the streams of
    those rows, with nothing hashed again. Each yielded generator is a new
    object, so they may be kept, and iterating twice gives the same streams."""

    def __init__(self, seeds):
        (self.states,) = _states([seeds])

    @classmethod
    def _of(cls, states: np.ndarray) -> "_Streams":
        """The streams of rows that are already hashed."""
        streams = cls.__new__(cls)
        streams.states = states
        return streams

    @classmethod
    def _apart(cls, seeds: list) -> list["_Streams"]:
        """``[_Streams(s) for s in seeds]``, bit for bit, from one hash of all
        the seeds; nothing is hashed when there are no seed arrays."""
        return [cls._of(states) for states in _states(seeds)]

    def __getitem__(self, rows) -> "_Streams":
        return _Streams._of(self.states[rows])

    def __len__(self) -> int:
        return self.states.size // 4

    def __iter__(self):
        hashed, generator, pcg64 = _hashed_seed(), np.random.Generator, np.random.PCG64
        for row in self.states.reshape(-1, 4):
            yield generator(pcg64(hashed(row)))


def _streams(cfg: GenConfig, trials, *indices) -> _Streams:
    """The streams of ``cfg.derive(t, *indices)`` for each trial t and each
    value of the indices, hashed at once, with the axes of ``_seeds``."""
    return _Streams(_seeds(cfg, trials, *indices))


# ---------------------------------------------------------------------------
# chunk forms: ``gens`` holds one generator per instance, and each form returns
# a value with the trial axis as its batch, or a tuple of such values
# ---------------------------------------------------------------------------


def _normals(gens, shapes) -> list[np.ndarray]:
    """Standard normals of the given shapes, one (T, *shape) array each: the i-th
    of the T generators fills row i of all of them, in order, in one call."""
    sizes = [math.prod(s) for s in shapes]
    x = np.empty((len(gens), sum(sizes)))
    for row, rng in zip(x, gens):
        rng.standard_normal(out=row)
    parts = np.split(x, np.cumsum(sizes)[:-1], axis=1)
    return [part.reshape(len(x), *s) for part, s in zip(parts, shapes)]


def _gaussian_stack(cfg: GenConfig, gens, cls: type):
    """``random_element``, ``random_vector`` or ``random_matrix`` by ``cls``."""
    parts = () if cfg.style == "real_commutative" else (2,)
    lead = (cfg.n,) * cls._lead
    xs = _normals(gens, [parts + lead + (k, k) for k in cfg.shape.blocks])
    return cls._wrap(cfg.shape, tuple(_from_normals(x, cfg.entry_scale, cfg.style) for x in xs))


def _positive_stack(cfg: GenConfig, gens) -> tuple:
    """(G, M) of ``random_positive_matrix``, with M = G G* formed per block
    as ``amatrix._gram_block`` forms it, exactly Hermitian."""
    G = _gaussian_stack(cfg, gens, AMatrix)
    return G, G._like(tuple(_gram_block(g) for g in G.blocks))


def _capped(blocks, cap: float) -> tuple:
    """Each member of a stack of elements, one (..., k, k) array per block,
    rescaled into norm <= cap, bit for bit as alone: its norm is
    ``Element.norm``'s, so a NaN in any block leaves it unscaled. It is
    taken only where a block's ``_norm_bound`` is over the cap or NaN."""
    lead = blocks[0].shape[:-2]
    flats = [b.reshape(-1, *b.shape[-2:]) for b in blocks]
    open_ = ~np.logical_and.reduce([_norm_bound(f) <= cap for f in flats])
    norm = np.zeros(lead)
    if open_.any():
        norm[open_.reshape(lead)] = _first_of([_spectral_norm(f[open_]) for f in flats], np.greater)
    over = (norm > cap)[..., None, None]
    factor = (cap / np.where(over, norm[..., None, None], cap)).astype(np.complex128)
    return tuple(np.where(over, factor * b, b) for b in blocks)


def _selfadjoint_stack(cfg: GenConfig, gens, norm_cap: float | None = None) -> Element:
    """``random_selfadjoint_element``."""
    a = _gaussian_stack(cfg, gens, Element)
    sym = 0.5 * (a + a.adjoint())
    return sym if norm_cap is None else sym._like(_capped(sym.blocks, norm_cap))


def _points_stack(cfg: GenConfig, gens, d: int) -> Element:
    """``random_selfadjoint_points``: n * d generators per instance, one per
    point in row order; the batch is (T, n * d)."""
    return _selfadjoint_stack(cfg, gens, cfg.entry_scale * np.pi)._reshape((-1, cfg.n * d))


def _unit_diagonal_stack(cfg: GenConfig, gens) -> AMatrix:
    """``random_unit_diagonal_positive``: S (G G* + _RIDGE I) S, with S the
    diagonal of inverse square roots of the diagonal entries."""
    n, idx = cfg.n, np.arange(cfg.n)
    _, grams = _positive_stack(cfg, gens)
    out = []
    units = identity_matrix(cfg.shape, n).blocks
    for b, (k, gram, unit) in enumerate(zip(cfg.shape.blocks, grams.blocks, units)):
        m = gram + complex(_RIDGE) * unit
        w, v = _eigh(np.einsum("...jjab->...jab", m), True, b)
        s = np.zeros_like(m)
        s[:, idx, idx] = (v * (1.0 / np.sqrt(w))[..., None, :]) @ _adjoint(v)
        fs = _flatten_block(s, n, k)
        out.append(_unflatten_block(fs @ _flatten_block(m, n, k) @ fs, n, k))
    return grams._like(tuple(out))


def _haar(x: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals (..., 2, k, k), real parts first:
    QR with a phase-fixed diagonal (Mezzadri, Notices AMS 54, 2007)."""
    z = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) == 0.0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def _family_stack(cfg: GenConfig, gens, count, selfadjoint=False, positive=False, norm_cap=None):
    """``random_commuting_family``: the batch is (T, count)."""
    diagonal = () if selfadjoint or positive or cfg.style == "real_commutative" else (2,)
    shapes = [s for k in cfg.shape.blocks for s in ((2, k, k), diagonal + (count, k))]
    xs = _normals(gens, shapes)
    out = []
    for x, y in zip(xs[::2], xs[1::2]):
        w = _haar(x)
        scale = cfg.entry_scale
        vals = _from_normals(y, scale, cfg.style) if diagonal else scale * y
        vals = np.asarray(vals**2 if positive else vals, dtype=np.complex128)
        scaled = w[:, None] * vals[..., None, :]
        if not selfadjoint:
            # as alone: numpy's loop over a short row can round apart from its vector loop
            scaled = np.array([[wt * v for v in vt] for wt, vt in zip(w, vals)])
        mats = scaled.reshape(len(w), count, *w.shape[1:]) @ _adjoint(w)[:, None]
        out.append(_hermitian_part(mats) if selfadjoint or positive else mats)
    return Element._wrap(cfg.shape, out if norm_cap is None else _capped(out, norm_cap))


def _spectral_pair_stack(cfg: GenConfig, gens) -> tuple:
    """``random_commuting_spectral_pair``: M, N, U, V, lam, mu."""
    n = cfg.n
    shapes = [[(2, k, k), (k, 2, n, n), (k, 2, n, n), (k, n), (k, n)] for k in cfg.shape.blocks]
    xs = _normals(gens, sum(shapes, []))
    per_block = []
    for b in range(0, len(xs), 5):
        w, u, v = (_haar(x) for x in xs[b : b + 3])
        lam, mu = ((cfg.entry_scale * x) ** 2 for x in xs[b + 3 : b + 5])
        wc = w.conj()
        pairs = ((u, lam), (v, mu))
        coords = [np.einsum("...tjs,...ts,...tls->...tjl", f, e, f.conj()) for f, e in pairs]
        values = [np.einsum("...at,...tjl,...ct->...jlac", w, c, wc) for c in (*coords, u, v)]
        for e in (lam, mu):
            values.append(np.einsum("...at,...tj,...ct->...jac", w, e.astype(np.complex128), wc))
        per_block.append(values)
    kinds = (AMatrix,) * 4 + (AVector,) * 2
    return tuple(cls._wrap(cfg.shape, blocks) for cls, blocks in zip(kinds, zip(*per_block)))


def _commuting_points(cfg: GenConfig, trials, count: int, *, streams: _Streams) -> tuple:
    """``count`` commuting self-adjoint elements of norm <= entry_scale * pi for
    each of the given trials, one (T, count, k, k) stack per block, from
    ``streams``: over commutative shapes as ``random_selfadjoint_points``,
    element i from row i of the trial's rows (a substream (t, j, l) per
    point), else a commuting family from the trial's own row."""
    if cfg.shape.is_commutative:
        points = _points_stack(cfg, streams, count // cfg.n)
    else:
        cap = cfg.entry_scale * np.pi
        points = _family_stack(cfg, streams, count, selfadjoint=True, norm_cap=cap)
    return points.blocks


# ---------------------------------------------------------------------------
# single draws: each is member 0 of its chunk form on the one stream cfg.rng()
# ---------------------------------------------------------------------------


def random_element(cfg: GenConfig) -> Element:
    return _gaussian_stack(cfg, [cfg.rng()], Element)._at(0)


def random_matrix(cfg: GenConfig) -> AMatrix:
    """A dense Gaussian matrix over the algebra (no structure imposed)."""
    return _gaussian_stack(cfg, [cfg.rng()], AMatrix)._at(0)


def random_positive_matrix(cfg: GenConfig) -> tuple[AMatrix, AMatrix]:
    """(G, M) with M = G G*, positive by construction and exactly Hermitian:
    M is the Hermitian part of ``G @ G.adjoint()``, bit for bit."""
    return tuple(v._at(0) for v in _positive_stack(cfg, [cfg.rng()]))


def random_vector(cfg: GenConfig) -> AVector:
    return _gaussian_stack(cfg, [cfg.rng()], AVector)._at(0)


def random_selfadjoint_element(cfg: GenConfig, norm_cap: float | None = None) -> Element:
    """A symmetrized Gaussian draw, optionally rescaled into a norm cap."""
    return _selfadjoint_stack(cfg, [cfg.rng()], norm_cap)._at(0)


def random_selfadjoint_points(cfg: GenConfig, d: int) -> list[list[Element]]:
    """An n x d array of self-adjoint elements with norms <= entry_scale * pi,
    point (j, l) drawn from the stream of ``cfg.derive(j, l)``."""
    if d < 1:
        raise StructureError("d must be >= 1")
    gens = [cfg.derive(j, l).rng() for j in range(cfg.n) for l in range(d)]
    flat = _points_stack(cfg, gens, d)
    return [[flat._at((0, j * d + l)) for l in range(d)] for j in range(cfg.n)]


def random_unit_diagonal_positive(cfg: GenConfig) -> AMatrix:
    """A positive matrix with diagonal entries equal to the unit (within 1e-10).

    Built as D^{-1/2} (G G* + _RIDGE I) D^{-1/2} where D collects the diagonal;
    the ridge keeps the diagonal safely invertible.
    """
    return _unit_diagonal_stack(cfg, [cfg.rng()])._at(0)


def haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    """A Haar-distributed k x k unitary (QR with phase-fixed diagonal)."""
    return _haar(rng.standard_normal((2, k, k)))


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
    family = _family_stack(cfg, [cfg.rng()], count, selfadjoint, positive, norm_cap)
    return [family._at((0, i)) for i in range(count)]


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
    values = (v._at(0) for v in _spectral_pair_stack(cfg, [cfg.rng()]))
    return dict(zip(("M", "N", "U", "V", "lam", "mu"), values))
