"""The verification suites: the check evaluators, the hit searches and the check table.

Only suite runs import this module: ``verify.run_suites``, the one suite
runner, when it first runs, and the CLI's ``novak`` and ``demo`` commands.
``search`` and ``verify --from-witness`` never compile it. The reports, the
trial loop (``verify._run_trials``) and the Schur counterexample search live
in ``verify``.

Two kinds of checks appear:

* verification checks assert a theorem on generated instances and count
  violations as failures;
* hit searches hunt for phenomena expected to exist over noncommutative
  shapes (non-associativity witnesses, breakdown of the cosine addition
  formula). A search that is expected to find a hit reports failures = 0
  when it does.

The suites are one table, ``CHECKS``: ``verify.run_suites(names, ...)``
reports the entries of each suite named in table order. A ``Check`` entry holds

* ``check_id``, ``suite``, and ``applies(cfg, opts)`` with ``skip``, the
  reason reported when it is false (without one the check is left out);
* the config its trials derive from, ``base``: the substream named ``key``
  (default: the check id), restyled to ``style`` (recorded in the details),
  with ``fallback`` fields replaced over commutative shapes (the hit
  searches move to the shape ``(2,)``);
* ``draws(base, opts)``, the substreams its trials draw from, each a tuple
  of indices: () is the trial's own stream ``base.derive(t)``, (range(2),)
  its substreams (t, 0) and (t, 1), and so on;
* ``evaluate(base, trials, opts, *streams)``, which draws the instances of a
  range of trials together from ``streams``, the trials' rows of each of
  those substreams, and returns the outcome of each trial,
  ``(margin, witness)`` or ``(margin, witness, counts)`` with counts summed
  into the details (``Check.trial`` hashes the rows when none are given).
  An outcome carries no seed: the report adds the ``trial`` t and the
  ``seed`` of its stream ``base.derive(t)`` to the one witness it keeps;
* ``first_trials(base, opts)``, the trials of its first chunk: a suite run
  hashes their substreams with those of the other checks' first chunks, in
  one pass (``_first_streams``);
* ``tol`` (fixed instead of the run's; every witnessed trial counts at most
  -2 tol), ``details`` and ``run``, which replaces the margin aggregation
  (the two hit searches).

Each check has one evaluator, a function from a batch of instances (values
with a leading trial axis, ``algebra._Blocks``) to their outcomes. It does
the batch's algebra once, as value arithmetic, asks the oracle for every
verdict it needs in one stacked call per group of equal block shapes
(``_rows``: one tuple of verdicts per instance), then reads each instance's
verdicts in order; a requirement such as "M is positive" raises
``DomainError`` there. The verdicts are read as arrays:
positivity and margins come from the oracle's stack (``_Verdict``), and a
``PsdReport`` is built only for a witness, a detail that records one, or a
failed requirement. The oracle-agreement check asks the Cholesky oracle
(``_cholesky_stack``) once per chunk as well. The trial draws a chunk with
``generate``'s chunk forms from the rows it is handed, and calls the
evaluator; it hashes nothing itself. The rows of a check's first chunk come
from its suite run's one hash; each later chunk's rows are hashed in one
pass (``Check.trial``). ``novak_check``,
``check_trig_identities`` and ``check_preserver`` run the same evaluator on a
batch of one. To add a check, write an evaluator, a trial and a table entry
that names the trial's draws.
The trig evaluator takes every sine and cosine of a chunk in two ``_sin_cos``
calls, one ``_trig_stack`` call for both functions each, and each set of
residual norms in one ``_norms`` call; its ``falsify`` form is the outcome of
a ``find_trig_breakdown`` trial.

The Novak suite takes its points as (T, count, k, k) stacks: one oracle call
and one commutator call per slice of trials (``_COMMUTATOR_PAIRS``) for the
hypotheses, one ``_trig_stack`` call for the cosines alone per set of cosine
matrices, and in the cosine-Gram check one for cos z and sin z and one for
the probes. The hit searches run through ``verify._run_trials`` as searches,
trial 0 alone before the chunks, and end the run at the first trial with a
witness; their chunks take their streams as rows of the search's windows
(``verify._Window``); in a suite run, the nonassociativity search's window
starts out holding the rows of its trial 0, hashed with the other checks'
first chunks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraShape,
    Element,
    SpectrumReport,
    _adjoint,
    _first_of,
    _norm_bound,
    _norms,
    _spectral_norm,
    _stack,
    _units,
    commutator_norm,
    identity_element,
)
from .amatrix import (
    AMatrix,
    PsdReport,
    PsdStack,
    diag_matrix,
    diag_vector,
    flatten,
    identity_matrix,
    mat_norm,
    ones_matrix,
    outer_product,
    row_sums,
    schur_product,
    schur_quadratic_form_oracle,
    _cholesky_stack,
    _flatten_block,
    _psd_stack,
)
from .calculus import SeriesSpec, _series_sums, _trig_stack
from .errors import DomainError, NumericalError, StructureError
from .generate import (
    GenConfig,
    _commuting_points,
    _family_stack,
    _gaussian_stack,
    _normals,
    _positive_stack,
    _seeds,
    _selfadjoint_stack,
    _spectral_pair_stack,
    _Streams,
    _unit_diagonal_stack,
    fnv1a64,
)
from .module_an import AVector, cauchy_schwarz_gap, inner_product, left_mul, ones_vector
from .verify import (
    CheckReport,
    _chunk_size,
    _first_big_block,
    _matrix_payload,
    _random_pairs,
    _report,
    _run_trials,
    _Window,
    _worst,
)

# hit searches count witnesses well clear of verification noise
NONASSOC_THRESHOLD = 1e-6
BREAKDOWN_THRESHOLD = 1e-3

TRIG_TOL = 1e-10
ORACLE_TOL = 1e-10
UNIT_DIAG_TOL = 1e-8
COMMUTING_TOL = 1e-10
FAMILY_COMMUTING_TOL = 1e-12
UNITARY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
AXIOM_TOL = 1e-12

# c of the c/n lower bounds: the row-sum bound, the chain, the diagonal
# corollaries and Novak's. Each holds with equality at some instance (A = B =
# all-ones, M = I_n), so no larger c holds
VYBIRAL_CONSTANT = 1.0


def _single(check_id, tol, t0, margin, witness, details) -> CheckReport:
    """The report on one instance, which fails exactly when it has a witness."""
    failures = 0 if witness is None else 1
    return _report(check_id, 1, failures, margin, tol, witness, details, t0)

def _psd_witness(verdict: "_Verdict", t, **mats) -> dict | None:
    """Member t's matrices and certificate when its positivity verdict failed, else None."""
    if verdict.is_positive:
        return None
    return {**_matrix_payload(t, **mats), "psd": verdict.report().to_json()}


@dataclass(frozen=True)
class _Verdict:
    """The oracle's verdict on one matrix: member i of ``stack``, whose
    ``margins`` and ``lowest`` eigenvalues (the stack's lists) it shares, or
    the error its solve raised alone, which is raised when the verdict is
    read. A trial that reads its verdicts in the order it needs them raises
    the error it raises alone. Verdicts are read from the stack's arrays; a
    ``PsdReport`` is built only when ``report`` is called."""

    stack: PsdStack | None
    i: int = 0
    error: Exception | None = None
    margins: list | None = None
    lowest: list | None = None

    def _read(self) -> PsdStack:
        if self.error is not None:
            raise self.error
        return self.stack

    @property
    def is_positive(self) -> bool:
        return bool(self._read().is_positive[self.i])

    @property
    def margin(self) -> float:
        """``PsdReport.margin``, bit for bit."""
        self._read()
        return self.margins[self.i]

    @property
    def min_eigenvalue(self) -> float | None:
        """``PsdReport.min_eigenvalue``, bit for bit: None for a member that
        is not self-adjoint."""
        return self.lowest[self.i] if self._read().hermitian[self.i] else None

    def report(self) -> PsdReport:
        return self._read().report(self.i)

    def spectrum(self) -> SpectrumReport:
        return self._read().spectrum(self.i)


def _oracle(X: AMatrix, tol: float, oracle: Callable = _psd_stack) -> list[_Verdict]:
    """The verdicts of ``oracle`` (``_psd_stack``, or ``_cholesky_stack``) on
    the members of X, its batch axes read in C order: one call, or when it
    raises, one call per member.

    A member of a stack gets the bits it gets alone, because numpy's linalg
    functions solve each matrix of a stack on its own (see "Linear algebra on
    several matrices at once" in numpy's ``linalg`` documentation).
    """
    try:
        stack = oracle(X, tol)
    except (DomainError, NumericalError) as exc:
        members = list(np.ndindex(X.batch))
        if len(members) == 1:
            return [_Verdict(None, error=exc)]
        return [verdict for i in members for verdict in _oracle(X._at(i), tol, oracle)]
    margins = stack.margins().tolist()
    # a stack without eigenvalues (``_cholesky_stack``'s) has no lowest ones
    lowest = stack.lowest_eigenvalues().tolist() if stack.min_eigenvalues.shape[-1] else None
    return [_Verdict(stack, i, margins=margins, lowest=lowest) for i in range(len(margins))]


def _rows(mats: list[AMatrix], tol: float) -> list[tuple[_Verdict, ...]]:
    """The verdicts on the members of a list of batches of matrices, one tuple
    per trial in the order of ``mats``, from one ``_oracle`` call; a single
    batch goes to it unstacked."""
    verdicts = _oracle(mats[0] if len(mats) == 1 else _stack(mats, 1), tol)
    return list(zip(*[iter(verdicts)] * len(mats)))


def _require_positive(name: str, verdict: _Verdict) -> None:
    if not verdict.is_positive:
        raise DomainError(f"{name} is not positive", report=verdict.report())


def _largest(values) -> float:
    """The largest of some residuals; NaN if any is NaN, whatever its position."""
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values)


def _one_by_one(a: Element) -> AMatrix:
    """The 1x1 matrix [a] of each member: ``classify``'s verdict on a is the one on [a]."""
    return AMatrix._wrap(a.shape, tuple(b[..., None, None, :, :] for b in a.blocks))


# ---------------------------------------------------------------------------
# checks: each evaluator takes its instances as values with a trial axis
# ---------------------------------------------------------------------------


def _row_sum_bounds(A: AMatrix, tol: float) -> list[tuple]:
    """A A* >= (1/n) y y*, y the row sums of A, on each member of A: its margin,
    witness, and whether A is positive (recorded, never required)."""
    bound = A @ A.adjoint() - (VYBIRAL_CONSTANT / A.n) * outer_product(row_sums(A))
    return [
        (verdict.margin, _psd_witness(verdict, t, a=A), a.is_positive)
        for t, (verdict, a) in enumerate(_rows([bound, A], tol))
    ]


def _schur_chains(A: AMatrix, B: AMatrix, tol: float) -> list[tuple]:
    """M o N >= C C* >= (1/n) y y* with M = A A*, N = B B*, C = A o B and y the row
    sums of C, on each member (A, B) of a batch: (margin, witness)."""
    if not A.shape.is_commutative:
        raise DomainError("the Schur chain bound needs a commutative algebra")
    A._require_same(B)
    M = A @ A.adjoint()
    N = B @ B.adjoint()
    C = schur_product(A, B)
    y = row_sums(C)
    product = schur_product(M, N)
    gram = C @ C.adjoint()
    lower = (VYBIRAL_CONSTANT / A.n) * outer_product(y)
    chain = {
        "product_minus_gram": product - gram,
        "gram_minus_lower": gram - lower,
        "product": product,
        "gram": gram,
    }
    outcomes = []
    for t, row in enumerate(_rows(list(chain.values()), tol)):
        taken = dict(zip(chain, row))
        margin = _worst([v.margin for v in taken.values()])
        witness = None
        if not all(v.is_positive for v in taken.values()):
            witness = {
                **_matrix_payload(t, a=A, b=B),
                "psd": {k: v.report().to_json() for k, v in taken.items()},
            }
        outcomes.append((margin, witness))
    return outcomes


def _diag_bounds(M: AMatrix, tol: float, positive: bool = False) -> list[tuple]:
    """The margin of M o M - (1/n) d d* of each member M, d = diag M, and its
    witness. With ``positive`` this is the diagonal-bound check, which
    requires a commutative shape and each M positive."""
    if positive and not M.shape.is_commutative:
        raise DomainError("the diagonal bound needs a commutative algebra")
    bound = schur_product(M, M) - (VYBIRAL_CONSTANT / M.n) * outer_product(diag_vector(M))
    outcomes = []
    for t, (*m, verdict) in enumerate(_rows([M, bound] if positive else [bound], tol)):
        if positive:
            _require_positive("M", *m)
        outcomes.append((verdict.margin, _psd_witness(verdict, t, m=M)))
    return outcomes


def _diag_residual(M: AMatrix) -> np.ndarray:
    """The largest deviation of a diagonal entry from the unit, of each member
    of a batch: one norm call per block, NaN where an entry's norm is NaN."""
    offsets = diag_vector(M) - ones_vector(M.shape, M.n)
    return Element._wrap(M.shape, offsets.blocks).norm().max(axis=-1)


def _unit_diag_checks(M: AMatrix, tol: float) -> list[tuple]:
    """M o M >= (1/n) E_n for unit-diagonal M, on each member M: (margin, witness, details)."""
    if not M.shape.is_commutative:
        raise DomainError("the unit-diagonal bound needs a commutative algebra")
    bound = schur_product(M, M) - (VYBIRAL_CONSTANT / M.n) * ones_matrix(M.shape, M.n)
    residuals = None
    outcomes = []
    for t, (m, verdict) in enumerate(_rows([M, bound], tol)):
        _require_positive("M", m)
        if residuals is None:
            # after the first verdict is read, as a trial alone reads it
            residuals = _diag_residual(M).tolist()
        # read first: a solve that failed raises before the residual check
        margin = verdict.margin
        if not residuals[t] <= UNIT_DIAG_TOL:
            raise DomainError("diagonal entries deviate from the unit", residual=residuals[t])
        outcomes.append((margin, _psd_witness(verdict, t, m=M), {"diag_residual": residuals[t]}))
    return outcomes


# ---------------------------------------------------------------------------
# the Novak pipeline, on stacks of points with a leading trial axis: a public
# check runs it on a stack of one, a suite trial on a chunk of trials
# ---------------------------------------------------------------------------


def _points_json(shape: AlgebraShape, blocks) -> list | dict:
    """The JSON of an array of points given by one (..., k, k) array per block,
    nested as the array."""
    if blocks[0].ndim == 2:
        return Element._wrap(shape, blocks).to_json()
    return [_points_json(shape, tuple(b[i] for b in blocks)) for i in range(len(blocks[0]))]


# Trials x pairs of one ``commutator_norm`` call in ``_require_commuting_points``,
# unless one trial has more pairs: about 250 bytes each over M_2, so about 16 MB.
_COMMUTATOR_PAIRS = 1 << 16


def _require_commuting_points(shape: AlgebraShape, points) -> None:
    """Raise ``DomainError`` at a point that is not self-adjoint, or else at a
    pair of points that do not commute; a trial's first, in its order, so a
    stack of one raises as that trial does. ``points`` holds one
    (T, count, k, k) stack per block: one oracle call takes all the points as
    1x1 matrices, and one ``commutator_norm`` call all the pairs of a slice of
    trials, at most ``_COMMUTATOR_PAIRS`` trials x pairs or one trial."""
    T, count = points[0].shape[:2]
    flat = AMatrix._wrap(shape, tuple(b.reshape(T * count, 1, 1, *b.shape[2:]) for b in points))
    try:
        stack = _psd_stack(flat, DEFAULT_TOL)
        verdicts = [] if stack.hermitian.all() else [_Verdict(stack, i) for i in range(T * count)]
        scale = stack.scale
    except NumericalError:
        # member by member, a solve that fails raises after the members before it
        verdicts = _oracle(flat, DEFAULT_TOL)
        scale = None
    for i, verdict in enumerate(verdicts):
        rep = verdict.spectrum()
        if not rep.is_selfadjoint:
            raise DomainError(
                "element is not self-adjoint",
                index=i % count,
                hermitian_defect=rep.hermitian_defect,
            )
    # commutative shapes commute exactly, so only self-adjointness is checked there
    if shape.is_commutative or count < 2:
        return
    if scale is None:
        scale = np.array([v.report().scale for v in verdicts])
    bounds = COMMUTING_TOL * np.fmax(scale.reshape(T, count).max(axis=1), 1.0)
    pairs = list(combinations(range(count), 2))
    step = max(1, _COMMUTATOR_PAIRS // len(pairs))
    for first in range(0, T, step):
        part = tuple(b[first : first + step] for b in points)
        _require_commuting(shape, part, bounds[first : first + step, None], pairs)


def _require_commuting(shape: AlgebraShape, points, bounds, pairs: list) -> None:
    """Raise ``DomainError`` at a pair whose commutator exceeds its trial's bound:
    in a stack of one, the trial's first such pair. A function of its own, so
    that one slice's commutators are freed before the next slice's are formed."""
    x, y = (Element._wrap(shape, tuple(b[:, ends] for b in points)) for ends in np.array(pairs).T)
    try:
        columns = [(pairs, commutator_norm(x, y))]
    except NumericalError:
        # pair by pair, a solve that fails raises after the pairs before it
        columns = (
            ([pair], commutator_norm(x._at(np.s_[:, [p]]), y._at(np.s_[:, [p]])))
            for p, pair in enumerate(pairs)
        )
    for group, comms in columns:
        bad = np.argwhere(~(comms <= bounds))
        if len(bad):
            t, p = bad[0]
            c = float(comms[t, p])
            raise DomainError("elements do not commute", pair=group[p], commutator=c)


def _cosine_matrices(z) -> tuple:
    """The blocks of [cos(z_j - z_k)] of each row of points in a stack, given by
    one (..., n, k, k) array per block: from the differences in the upper
    triangle because cos is even, all of them in one ``_trig_stack`` call."""
    n = z[0].shape[-3]
    j, k = np.triu_indices(n)
    (cosines,) = _trig_stack([s[..., j, :, :] - s[..., k, :, :] for s in z], np.cos)
    out = []
    for s, c in zip(z, cosines):
        m = np.empty(s.shape[:-3] + (n, n) + s.shape[-2:], dtype=np.complex128)
        m[..., j, k, :, :] = c
        m[..., k, j, :, :] = c
        out.append(m)
    return tuple(out)


def _gram_residuals(A, cos, sin, y) -> np.ndarray:
    """||<Ay, y> - (S_c S_c* + S_s S_s*)|| / max(1, ||<Ay, y>||) of each member
    of a stack, with S_c = sum_j cos(z_j) y_j and S_s = sum_j sin(z_j) y_j
    summed in order of j: A holds one (T, n, n, k, k) array per block, and
    cos z, sin z and the probe y one (T, n, k, k) array per block each."""
    T, n = y[0].shape[:2]
    diffs, forms = [], []
    for a, c, s, v in zip(A, cos, sin, y):
        k = v.shape[-1]
        av = (_flatten_block(a, n, k) @ v.reshape(T, n * k, k)).reshape(v.shape)
        q = np.einsum("tjab,tjcb->tac", av, v.conj())
        grams = []
        for part in (c @ v, s @ v):
            acc = np.zeros_like(q)
            for j in range(n):
                acc = acc + part[:, j]
            grams.append(acc @ np.ascontiguousarray(_adjoint(acc)))
        diffs.append(q - (grams[0] + grams[1]))
        forms.append(q)
    diff, scale = _norms(diffs, forms)
    return diff / np.fmax(scale, 1.0)


def _cosine_gram(shape: AlgebraShape, z, tol: float, gens) -> list[tuple]:
    """The cosine-Gram check on each member of a stack of points, one (T, n, k, k)
    array per block, with the probe of member t drawn from generator t of ``gens``."""
    T, n = z[0].shape[:2]
    _require_commuting_points(shape, z)
    # cos z_j and sin z_j of every trial in one call
    cos_z, sin_z = _trig_stack(z, np.cos, np.sin)
    A = _cosine_matrices(z)
    # probe vectors: the all-units vector plus cos(alpha_j z_j) + sin(beta_j z_j),
    # which stay inside the commutative subalgebra the z generate
    (normals,) = _normals(gens, [(2, n)])
    coefs = normals.transpose(0, 2, 1).astype(np.complex128)[..., None, None]
    cosines, sines = _trig_stack([coefs * s[:, :, None] for s in z], np.cos, np.sin)
    mixed = tuple(c[:, :, 0] + s[:, :, 1] for s, c in zip(sines, cosines))
    residuals = [_gram_residuals(A, cos_z, sin_z, y) for y in (_units(shape, (T, n)), mixed)]
    verdicts = _oracle(AMatrix._wrap(shape, A), tol)
    outcomes = []
    for t, verdict in enumerate(verdicts):
        worst_residual = _largest(float(r[t]) for r in residuals)
        # rescaled so that margin >= -tol, the pass and witness rule, means residual <= 1e-10
        margin = _worst([verdict.margin, -worst_residual * (tol / ORACLE_TOL)])
        witness = None
        if not (verdict.is_positive and margin >= -tol):
            witness = {
                "points": _points_json(shape, tuple(b[t] for b in z)),
                "psd": verdict.report().to_json(),
                "gram_residual": worst_residual,
            }
        outcomes.append((margin, witness, {"gram_residual": worst_residual}))
    return outcomes


def _novak(shape: AlgebraShape, points, tol: float) -> tuple[AMatrix, list[tuple]]:
    """The Novak matrices of a stack of point arrays, one (T, n, d, k, k) array
    per block, and the outcome of ``novak_check``'s pipeline on each member."""
    T, n, d = points[0].shape[:3]
    _require_commuting_points(shape, tuple(b.reshape(T, n * d, *b.shape[3:]) for b in points))
    # the half-angle cosine matrices of every column in one call, column first
    steps = _cosine_matrices(tuple(complex(0.5) * np.moveaxis(b, 2, 0) for b in points))
    steps = [AMatrix._wrap(shape, tuple(s[l] for s in steps)) for l in range(d)]
    M = steps[0]
    for step in steps[1:]:
        M = schur_product(M, step)
    novak = schur_product(M, M) - (VYBIRAL_CONSTANT / n) * ones_matrix(shape, n)
    diag_residuals = _diag_residual(M).tolist()
    # per trial: the d cosine matrices, M, then the Novak matrix
    rows = zip(diag_residuals, _rows([*steps, M, novak], tol))
    outcomes = []
    for t, (diag_residual, (*cosines, verdict_m, verdict_final)) in enumerate(rows):
        step_margins = [verdict.margin for verdict in cosines]
        margin = _worst([*step_margins, verdict_m.margin, verdict_final.margin])
        ok = (
            all(m >= -tol for m in step_margins)
            and verdict_m.is_positive
            and diag_residual <= UNIT_DIAG_TOL
            and verdict_final.is_positive
        )
        witness = None
        if not ok:
            witness = {
                "points": _points_json(shape, tuple(b[t] for b in points)),
                "psd_final": verdict_final.report().to_json(),
                "diag_residual": diag_residual,
            }
        details = {
            "n": n,
            "d": d,
            "cosine_step_margins": step_margins,
            "diag_residual": diag_residual,
            "min_eigenvalue": verdict_final.min_eigenvalue,
        }
        outcomes.append((margin, witness, details))
    return novak, outcomes


def novak_check(
    points: list[list[Element]], tol: float = DEFAULT_TOL
) -> tuple[AMatrix, CheckReport]:
    """Verify the Novak-type positivity through its full proof pipeline.

    For self-adjoint commuting points x_{j,l} (n rows, d columns) the
    pipeline builds the half-angle cosine matrices
    M_l = [cos((x_{j,l} - x_{k,l}) / 2)], their left-nested Schur product M,
    and verdicts: every M_l positive, M positive, diag(M) the units, and

        M o M - (1/n) E_n >= 0.

    The left-hand side is the Novak matrix [prod_l (1 + cos(x_j - x_k))/2]
    shifted by -1/n; it is returned together with the report.
    """
    t0 = time.perf_counter()
    rows = [list(r) for r in points]
    n = len(rows)
    if n < 1 or any(not r for r in rows):
        raise StructureError("points must form a nonempty n x d array")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise StructureError("point rows have unequal length")
    points = _stack([p for r in rows for p in r])._reshape((1, n, d))
    novak, outcomes = _novak(points.shape, points.blocks, tol)
    report = _single("novak_conjecture", tol, t0, *outcomes[0])
    return novak._at(0), report


def _sin_cos(x: Element) -> tuple[Element, Element]:
    """sin and cos of each member of a batch, from one ``_trig_stack`` call."""
    return tuple(x._like(values) for values in _trig_stack(x.blocks, np.sin, np.cos))


def _trig_identities(x: Element, y: Element, tol: float, falsify: bool) -> list[tuple]:
    """The trig check on each member (x, y) of a batch: (margin, witness,
    details), from one ``_sin_cos`` call over every x, y, -x and x* and one
    over the x + y whose addition formulas are checked. With ``falsify``, a
    breakdown search's trial."""
    if x.shape != y.shape:
        raise StructureError("algebra shapes differ")
    # max(1, ||x||, ||y||); fmax, like Python's max, never takes a NaN norm
    scales = np.fmax(_norms(x.blocks, y.blocks), 1.0).max(axis=0)
    sines, cosines = _sin_cos(_stack([x, y, -x, x.adjoint()], 1))
    sx, sy, s_neg, s_adj = (sines._at(np.s_[:, i]) for i in range(4))
    cx, cy, c_neg, c_adj = (cosines._at(np.s_[:, i]) for i in range(4))
    residuals = {
        "sin_odd": s_neg + sx,
        "cos_even": c_neg - cx,
        "sin_adjoint": sx.adjoint() - s_adj,
        "cos_adjoint": cx.adjoint() - c_adj,
        "pythagorean": sx * sx + cx * cx - identity_element(x.shape),
    }
    columns = dict(zip(residuals, _norms(*(v.blocks for v in residuals.values()))))
    comms = commutator_norm(x, y)
    added = (comms <= COMMUTING_TOL * scales) | falsify
    sums = iter(())
    if added.any():
        s_sum, c_sum = _sin_cos((x + y)._at(added))
        sx, cx, sy, cy = (v._at(added) for v in (sx, cx, sy, cy))
        sin_add = s_sum - (sx * cy + cx * sy)
        cos_add = c_sum - (cx * cy - sx * sy)
        sums = zip(*_norms(sin_add.blocks, cos_add.blocks).tolist())
    columns = {key: column.tolist() for key, column in columns.items()}
    outcomes = []
    rows = zip(scales.tolist(), comms.tolist(), added.tolist())
    for t, (scale, comm, checked) in enumerate(rows):
        residuals = {key: column[t] for key, column in columns.items()}
        if checked:
            residuals["sin_addition"], residuals["cos_addition"] = next(sums)
        details = {"residuals": residuals, "commutator": comm, "addition_checked": checked}
        if falsify:
            gap = residuals["cos_addition"]
            margin, failed, shown = -gap, gap > BREAKDOWN_THRESHOLD, {"cos_addition_residual": gap}
            details["search"] = True
        else:
            # addition residuals are only present here for commuting pairs
            margin = -_largest(residuals.values()) / scale
            failed, shown = not margin >= -tol, {"residuals": residuals}
        witness = {"x": x._at(t).to_json(), "y": y._at(t).to_json(), **shown} if failed else None
        outcomes.append((margin, witness, details))
    return outcomes


def check_trig_identities(
    x: Element,
    y: Element,
    tol: float = TRIG_TOL,
    falsify: bool = False,
) -> CheckReport:
    """Seven residuals of the exponential-based trigonometry.

    Parity, adjoint compatibility, and the Pythagorean identity hold for all
    elements; the addition formulas need xy = yx and are skipped for
    noncommuting pairs unless ``falsify`` is set, in which case the check
    becomes a search for a breakdown beyond 1e-3 of the cosine addition
    formula.
    """
    t0 = time.perf_counter()
    outcome = _trig_identities(x._at(None), y._at(None), tol, falsify)[0]
    if not falsify:
        return _single("trig_identities", tol, t0, *outcome)
    margin, witness, details = outcome
    failures = int(witness is None)
    return _report(
        "trig_addition_breakdown", 1, failures, margin, BREAKDOWN_THRESHOLD, witness, details, t0
    )


def _preservers(coeffs: Element, degrees: list, M: AMatrix, tol, report_both: bool) -> list[tuple]:
    """The preserver check on each member M of a batch, with the series whose
    coefficients are the next degree + 1 members of ``coeffs``: (margin,
    witness, details); with ``report_both`` the details hold the all-units
    convention's verdict too."""
    if not M.shape.is_commutative:
        raise DomainError("the preserver check needs a commutative algebra")
    starts = np.cumsum([0] + degrees[:-1]) + np.arange(len(degrees))
    # coefficient q of every member at once; past its degree a member repeats
    # its last one, into partial sums that are never read
    series = [coeffs._at(starts + np.minimum(q, degrees)) for q in range(max(degrees) + 1)]
    picked = (np.arange(len(degrees)), degrees)
    conventions = ("identity", "ones") if report_both else ("identity",)
    mats = [M] + [_stack(_series_sums(series, M, c), 1)._at(picked) for c in conventions]
    coefficients = _oracle(_one_by_one(coeffs), tol)
    rows = zip(starts.tolist(), degrees, _rows(mats, tol))
    outcomes = []
    for t, (start, degree, (m, verdict, *ones)) in enumerate(rows):
        for q in range(degree + 1):
            coefficient = coefficients[start + q]
            if not coefficient.is_positive:
                raise DomainError(
                    "series coefficient is not positive",
                    index=q,
                    min_spectrum=coefficient.spectrum().min_spectrum,
                )
        _require_positive("M", m)
        margin = verdict.margin
        details = {"degree": degree}
        if report_both:
            details["ones_convention"] = {"is_positive": ones[0].is_positive, "margin": ones[0].margin}
        witness = _psd_witness(verdict, t, m=M)
        if witness is not None:
            series_t = SeriesSpec(tuple(coeffs._at(i) for i in range(start, start + degree + 1)))
            witness["series"] = series_t.to_json()
        outcomes.append((margin, witness, details))
    return outcomes


def check_preserver(
    series: SeriesSpec,
    M: AMatrix,
    tol: float = DEFAULT_TOL,
    report_both: bool = False,
) -> CheckReport:
    """Entrywise power series with positive coefficients preserve positivity.

    Commutative shapes only. The asserted verdict uses the identity-matrix
    convention for the zeroth Schur power; with ``report_both`` the
    all-units-matrix convention is evaluated as well and recorded.
    """
    t0 = time.perf_counter()
    coeffs = _stack(series.coefficients)
    outcome = _preservers(coeffs, [series.degree], M._at(None), tol, report_both)[0]
    return _single("schur_series_preserver", tol, t0, *outcome)


def _commuting_spectral(M, N, U, V, lam, mu, tol: float) -> list[tuple]:
    """The check on each member (M, N, U, V, lam, mu) of a batch drawn as
    ``random_commuting_spectral_pair`` draws it: (margin, witness). A member
    whose residuals' ``_norm_bound`` are within floors of their limits holds
    the hypothesis; the others' exact norms, in the order below, are taken
    before the oracle runs, and a settled witness's after it."""
    n = M.n
    ident = identity_matrix(M.shape, n)
    unitaries = [flatten(W @ W.adjoint() - ident) for W in (U, V)]
    defects = [flatten(X - W @ diag_matrix(d) @ W.adjoint()) for X, W, d in ((M, U, lam), (N, V, mu))]
    sample = [U.entry(0, 0), V.entry(0, 0), lam[0], mu[0]]
    if n > 1:
        sample += [U.entry(0, 1), V.entry(n - 1, 0), lam[n - 1]]
    points = _stack(sample, 1)
    pairs = np.array(list(combinations(range(len(sample)), 2)))
    x, y = (points._at(np.s_[:, ends]) for ends in pairs.T)
    commutators = [a @ b - b @ a for a, b in zip(x.blocks, y.blocks)]  # as commutator_norm
    bounded = [(R, UNITARY_TOL) for R in unitaries] + [(D, RECONSTRUCTION_TOL) for D in defects]
    settled = np.logical_and.reduce(
        [_norm_bound(f) <= limit for flats, limit in bounded for f in flats]
        + [(_norm_bound(c) <= FAMILY_COMMUTING_TOL).all(-1) for c in commutators]
    )

    def exact(rows) -> tuple:
        """The residuals of the members at ``rows``, one row each, and their hypothesis."""
        # each norm is taken once, M's and N's reused below
        values = (*unitaries, defects[0], flatten(M), defects[1], flatten(N))
        norms = _norms(*([f[rows] for f in x] for x in values))
        unitary = _first_of(list(norms[:2]), np.greater)
        defect_m, norm_m, defect_n, norm_n = norms[2:]
        # fmax, like Python's max, takes 1.0 over a NaN norm
        recon = _first_of([defect_m / np.fmax(norm_m, 1.0), defect_n / np.fmax(norm_n, 1.0)], np.greater)
        pair_norms = _first_of([_spectral_norm(c[rows]) for c in commutators], np.greater)
        comms = _first_of(list(pair_norms.T), np.greater)
        bound = FAMILY_COMMUTING_TOL * np.fmax(np.fmax(norm_m, 1.0), norm_n)
        hypothesis = (unitary <= UNITARY_TOL) & (recon <= RECONSTRUCTION_TOL) & (comms <= bound)
        return np.array([unitary, recon, comms]), hypothesis

    hypothesis, residuals = settled.copy(), np.full((3, len(settled)), np.nan)
    if not settled.all():
        residuals[:, ~settled], hypothesis[~settled] = exact(~settled)
    mats = {"m": M, "n": N, "product": schur_product(M, N)}
    outcomes = []
    for t, row in enumerate(_rows(list(mats.values()), tol)):
        taken = dict(zip(mats, row))
        margin = _worst([v.margin for v in taken.values()])
        witness = None
        if not (hypothesis[t] and all(v.is_positive for v in taken.values())):
            if settled[t]:
                residuals[:, [t]] = exact([t])[0]
            keys = ("unitary_residual", "reconstruction_residual", "commutator")
            witness = {
                **_matrix_payload(t, m=M, n=N),
                "psd": {k: v.report().to_json() for k, v in taken.items()},
                **dict(zip(keys, residuals[:, t].tolist())),
            }
        outcomes.append((margin, witness))
    return outcomes


# ---------------------------------------------------------------------------
# hit searches: run to the first witness, which is expected to exist
# ---------------------------------------------------------------------------


def _hit_search(check_id, cfg, count, threshold, trial, t0) -> CheckReport:
    """The report on trials 0 .. count - 1 of ``trial`` run as a search up to
    the first witness; failures = 0 exactly when one is found."""
    outcomes = _run_trials(trial, count, _chunk_size(cfg), search=True, stop=True)
    margins = [margin for margin, *_ in outcomes]
    witness = outcomes[-1][1] if outcomes else None
    found = None if witness is None else witness["trial"]
    details = {
        "search": True, "expect_hit": True, "threshold": threshold, "found_trial": found,
        "shape": list(cfg.shape.blocks),
    }
    worst, failures = _worst(margins), int(witness is None)
    return _report(check_id, len(margins), failures, worst, threshold, witness, details, t0)


def find_nonassociativity(
    cfg: GenConfig,
    trials: int,
    threshold: float = NONASSOC_THRESHOLD,
    window: _Window | None = None,
) -> CheckReport:
    """Search for (A o B) o C != A o (B o C); expected to succeed quickly
    over noncommutative shapes. Reports failures = 0 exactly when a witness
    beyond the threshold was found. A, B and C of trial t come from the
    substreams (t, 0), (t, 1) and (t, 2), whose rows the chunks take from
    ``window`` (by default, a new ``_Window`` over the trials)."""
    t0 = time.perf_counter()
    if cfg.shape.is_commutative:
        raise DomainError("the Schur product is associative over commutative shapes")
    if window is None:
        window = _Window(cfg, trials, range(3))

    def trial(chunk):
        drawn = _gaussian_stack(cfg, window(chunk), AMatrix)
        A, B, C = (drawn._at(np.s_[i::3]) for i in range(3))
        left = schur_product(schur_product(A, B), C)
        right = schur_product(A, schur_product(B, C))
        defects = mat_norm(left - right).tolist()
        outcomes = []
        for i, (seed, defect) in enumerate(zip(_seeds(cfg, chunk).tolist(), defects)):
            if defect > threshold:
                # the search ends at this trial: the later ones need no witness
                witness = {"seed": seed, "defect": defect, **_matrix_payload(i, a=A, b=B, c=C)}
                return outcomes + [(-defect, witness)]
            outcomes.append((-defect, None))
        return outcomes

    return _hit_search("schur_nonassociativity", cfg, trials, threshold, trial, t0)


def pauli_pair(shape: AlgebraShape) -> tuple[Element, Element]:
    """sigma_x, sigma_z embedded in the first block of size >= 2."""
    b = _first_big_block(shape)
    xs = [np.zeros((k, k), dtype=np.complex128) for k in shape.blocks]
    zs = [np.zeros((k, k), dtype=np.complex128) for k in shape.blocks]
    xs[b][0, 1] = xs[b][1, 0] = 1.0
    zs[b][0, 0] = 1.0
    zs[b][1, 1] = -1.0
    return Element._wrap(shape, tuple(xs)), Element._wrap(shape, tuple(zs))


def find_trig_breakdown(cfg: GenConfig, trials: int) -> CheckReport:
    """Exhibit a noncommuting self-adjoint pair where the cosine addition
    formula fails by more than 1e-3. Trial zero is the Pauli pair."""
    t0 = time.perf_counter()
    if cfg.shape.is_commutative:
        raise DomainError("addition formulas hold over commutative shapes")

    # trial 0 comes alone; x and y of trial t from the substreams (t, 0) and (t, 1)
    window = _Window(cfg, trials + 1, range(2))

    def trial(chunk):
        if chunk[0] == 0:
            x, y = (v._at(None) for v in pauli_pair(cfg.shape))
        else:
            drawn = _selfadjoint_stack(cfg, window(chunk), norm_cap=5.0)
            x, y = drawn._at(np.s_[0::2]), drawn._at(np.s_[1::2])
        return _trig_identities(x, y, TRIG_TOL, falsify=True)

    return _hit_search(
        "trig_addition_breakdown", cfg, trials + 1, BREAKDOWN_THRESHOLD, trial, t0
    )


# ---------------------------------------------------------------------------
# suite trials: the outcomes of a range of trials of a check, drawn and
# evaluated a chunk at a time; instance t comes from the substreams of
# base.derive(t) that the check's table entry names (``draws``), handed in
# as the chunk's rows of each, in that order
# ---------------------------------------------------------------------------

# the largest degree of the preserver's series: trial t draws its degree from
# (t), M from (t, 0) and coefficient q from (t, q + 1)
_MAX_DEGREE = 4


def _trial_schur(base, trials, o, pairs):
    # M and N from the substreams (t, 0) and (t, 1)
    M, N, _ = _random_pairs(base, trials, pairs)
    product = schur_product(M, N)
    verdicts = enumerate(_oracle(product, o.tol))
    return [(v.margin, _psd_witness(v, i, m=M, n=N, product=product)) for i, v in verdicts]


def _trial_spectral(base, trials, o, own):
    return _commuting_spectral(*_spectral_pair_stack(base, own), o.tol)


def _trial_trace_form(base, trials, o, streams):
    # M and N from the substreams (t, 0) and (t, 1), x from (t, 2)
    M, N, _ = _random_pairs(base, trials, streams[:, :2])
    x = _gaussian_stack(base, streams[:, 2], AVector)
    direct, trace_form = schur_quadratic_form_oracle(M, N, x)
    residual, scale = _norms((direct - trace_form).blocks, direct.blocks)
    residuals = residual / np.fmax(scale, 1.0)
    return [(-r, {"residual": r} if not -r >= -o.tol else None) for r in residuals.tolist()]


def _trial_oracle(base, trials, o, own):
    # kinds 0 and 1 draw a matrix from the trial's stream, kind 2 a vector
    matrix = np.asarray(trials) % 3 < 2
    R, M = _positive_stack(base, own[matrix])
    x = _gaussian_stack(base, own[~matrix], AVector)
    kinds = (M, 0.5 * (R + R.adjoint()), outer_product(x))
    matrices, vectors = iter(range(len(trials))), iter(range(len(trials)))
    instances = [kinds[t % 3]._at(next(vectors if t % 3 == 2 else matrices)) for t in trials]
    stacked = _stack(instances)
    verdicts = _oracle(stacked, o.tol)
    factored = _oracle(stacked, o.tol, _cholesky_stack)
    outcomes = []
    for t, verdict, chol in zip(trials, verdicts, factored):
        agree = verdict.is_positive == chol.is_positive
        witness = None
        if not agree:
            witness = {
                "kind": t % 3,
                "eig": verdict.report().to_json(),
                "cholesky": chol.report().to_json(),
            }
        outcomes.append((0.0 if agree else -1.0, witness))
    return outcomes


def _trial_row_sum(base, trials, o, own):
    # the bound never uses positivity of A, so alternate between positive
    # and general inputs and record the split
    G, M = _positive_stack(base, own)
    A = _stack([M, G], 1)._at((np.arange(len(trials)), np.asarray(trials) % 2))
    return [(m, w, {"inputs_positive": positive}) for m, w, positive in _row_sum_bounds(A, o.tol)]


def _trial_chain(base, trials, o, pairs):
    drawn = _gaussian_stack(base, pairs, AMatrix)
    return _schur_chains(drawn._at(np.s_[0::2]), drawn._at(np.s_[1::2]), o.tol)


def _trial_diag(base, trials, o, own):
    _, M = _positive_stack(base, own)
    return _diag_bounds(M, o.tol, positive=True)


def _trial_unit_diag(base, trials, o, own):
    M = _unit_diagonal_stack(base, own)
    return [(margin, witness) for margin, witness, _ in _unit_diag_checks(M, o.tol)]


def _trial_diag_probe(base, trials, o, own):
    # complex entries break the a = a* step of the diagonal-bound argument;
    # record how often without asserting anything
    _, M = _positive_stack(base, own)
    return _diag_bounds(M, o.tol)


def _trial_novak(base, trials, o, points):
    n, d = base.n, o.d
    points = _commuting_points(base, trials, n * d, streams=points)
    points = tuple(p.reshape(len(p), n, d, *p.shape[2:]) for p in points)
    return [(margin, witness) for margin, witness, _ in _novak(base.shape, points, o.tol)[1]]


def _trial_cosine_gram(base, trials, o, own, points=None):
    # each trial's probe comes from the stream of its own seed, and so do its
    # points over noncommutative shapes
    z = _commuting_points(base, trials, base.n, streams=own if points is None else points)
    return [(margin, witness) for margin, witness, _ in _cosine_gram(base.shape, z, o.tol, own)]


def _trial_trig(base, trials, o, streams):
    if base.shape.is_commutative:
        # x and y from the substreams (t, 0) and (t, 1)
        drawn = _selfadjoint_stack(base, streams, norm_cap=5.0)
        x, y = drawn._at(np.s_[0::2]), drawn._at(np.s_[1::2])
    else:
        family = _family_stack(base, streams, count=2, selfadjoint=True, norm_cap=5.0)
        x, y = family._at(np.s_[:, 0]), family._at(np.s_[:, 1])
    return [(margin, witness) for margin, witness, _ in _trig_identities(x, y, o.tol, False)]


def _trial_preserver(base, trials, o, own, series):
    degrees = [int(rng.integers(0, _MAX_DEGREE + 1)) for rng in own]
    _, M = _positive_stack(base, series[:, 0])
    counts = np.add(degrees, 1)
    members = np.repeat(np.arange(len(degrees)), counts)
    coefficients = np.concatenate([np.arange(1, count + 1) for count in counts])
    g = _gaussian_stack(base, series[members, coefficients], Element)
    # the report records only that the all-units convention was asked for
    outcomes = _preservers(g * g.adjoint(), degrees, M, o.tol, False)
    return [(margin, witness) for margin, witness, _ in outcomes]


def _trial_cauchy_schwarz(base, trials, o, pairs):
    vectors = _gaussian_stack(base, pairs, AVector)
    x, y = vectors._at(np.s_[0::2]), vectors._at(np.s_[1::2])
    gap = cauchy_schwarz_gap(x, y)
    verdicts = _psd_stack(_one_by_one(gap), o.tol)
    margins = verdicts.lowest_eigenvalues() / np.fmax(gap.norm(), 1.0)
    outcomes = []
    for i, (margin, selfadjoint) in enumerate(zip(margins.tolist(), verdicts.hermitian.tolist())):
        witness = None
        if not (selfadjoint and margin >= -o.tol):
            witness = {
                "x": x._at(i).to_json(),
                "y": y._at(i).to_json(),
                "min_spectrum": verdicts.spectrum(i).min_spectrum,
            }
        outcomes.append((margin, witness))
    return outcomes


def _trial_axioms(base, trials, o, streams):
    # x and y from the substreams (t, 0) and (t, 1), a from (t, 2)
    vectors = _gaussian_stack(base, streams[:, :2], AVector)
    a = _gaussian_stack(base, streams[:, 2], Element)
    x, y = vectors._at(np.s_[0::2]), vectors._at(np.s_[1::2])
    xy = inner_product(x, y)
    sym = xy - inner_product(y, x).adjoint()
    lin = inner_product(left_mul(a, x), y) - a * xy
    sym_res, lin_res, a_norm, xy_norm = _norms(sym.blocks, lin.blocks, a.blocks, xy.blocks)
    scale = np.fmax(a_norm * xy_norm, 1.0)
    xx = inner_product(x, x)
    verdicts = _psd_stack(_one_by_one(xx), o.tol)
    lowest = verdicts.lowest_eigenvalues()
    margins = _first_of(
        [-sym_res / scale, -lin_res / scale, lowest / np.fmax(xx.norm(), 1.0)], np.less
    )
    columns = zip(margins.tolist(), sym_res.tolist(), lin_res.tolist())
    return [(m, {"sym": sym, "lin": lin} if not m >= -o.tol else None) for m, sym, lin in columns]


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Options:
    """The run-wide settings every entry of a suite sees."""

    trials: int
    d: int
    tol: float
    entrywise_constant: bool


def _margin_report(
    check: "Check", base: GenConfig, o: _Options, first_streams: dict
) -> CheckReport:
    """Aggregate trials 0..trials-1 of a check at its ``tolerance``, which the
    evaluator reads as ``o.tol``: pass means margin >= -tol. A witnessed trial
    counts at most -2 tol, and every evaluator gives each trial that does not
    pass a witness, so a trial fails exactly when it carries one. The report
    keeps the first witness, with its ``trial`` t and the ``seed`` of its
    stream, ``base.derive(t)``.

    Without trials the check is reported as skipped: nothing was verified.
    """
    if o.trials < 1:
        return check.skipped(o, "no trials requested")
    t0 = time.perf_counter()
    o = replace(o, tol=check.tolerance(o))

    def evaluate(trials):
        # the first call, the first chunk, takes the rows the run hashed, and
        # frees them when it returns; the later calls find none and hash their own
        return check.trial(base, trials, o, first_streams.pop(check.check_id, None))

    outcomes = _run_trials(evaluate, o.trials, _chunk_size(base))
    details = check.details(o)
    if check.style:
        details["style"] = check.style
    margins = []
    witness = None
    for margin, trial_witness, *counts in outcomes:
        if trial_witness is not None:
            if witness is None:
                witness = {**trial_witness, "seed": _seeds(base, [trial_witness["trial"]]).item()}
            margin = min(margin, -2 * o.tol)
        margins.append(margin)
        for extra in counts:
            for key, value in extra.items():
                details[key] += value
    failures = sum(1 for m in margins if not (m >= -o.tol))
    return _report(
        check.check_id, o.trials, failures, _worst(margins), o.tol, witness, details, t0
    )


def _first_chunk(base: GenConfig, o: _Options) -> range:
    return range(min(o.trials, _chunk_size(base)))


def _draws(*indices) -> Callable:
    """The ``draws`` of a check whose trials draw from the one substream (t, *indices)."""
    return lambda base, o: (indices,)


def _novak_draws(base, o) -> tuple:
    # a point per substream (t, j, l) over commutative shapes, else a family from (t)
    return ((range(base.n), range(o.d)),) if base.shape.is_commutative else ((),)


def _cosine_gram_draws(base, o) -> tuple:
    # the probes from (t), and the points from (t, j) over commutative shapes
    return ((), (range(base.n),)) if base.shape.is_commutative else ((),)


def _trig_draws(base, o) -> tuple:
    return ((range(2),),) if base.shape.is_commutative else ((),)


def _nonassociativity_run(check, base, o, first_streams: dict) -> CheckReport:
    trials = max(o.trials, 1)
    return find_nonassociativity(base, trials, window=check.window(base, o, trials, first_streams))


def _commutative(cfg, o) -> bool:
    return cfg.shape.is_commutative


def _noncommutative(cfg, o) -> bool:
    return not cfg.shape.is_commutative


@dataclass(frozen=True)
class Check:
    """One entry of the check table; see the module docstring for the fields."""

    check_id: str
    suite: str
    evaluate: Callable | None = None
    applies: Callable = lambda cfg, o: True
    skip: str | None = None
    key: str | None = None
    style: str | None = None
    fallback: dict = field(default_factory=dict)
    draws: Callable = lambda base, o: ()
    first_trials: Callable = _first_chunk
    tol: float | None = None
    details: Callable = lambda o: {}
    run: Callable = _margin_report

    def base(self, cfg: GenConfig) -> GenConfig:
        base = cfg.derive(fnv1a64(self.key or self.check_id))
        if self.style:
            base = replace(base, style=self.style)
        if cfg.shape.is_commutative and self.fallback:
            base = replace(base, **self.fallback)
        return base

    def seeds(self, base: GenConfig, trials, o: _Options) -> list[np.ndarray]:
        """The seeds of the substreams ``draws`` names, for the given trials."""
        return [_seeds(base, trials, *indices) for indices in self.draws(base, o)]

    def trial(self, base: GenConfig, trials, o: _Options, streams=None) -> list:
        """The outcomes of the given trials, drawn from ``streams``, their rows
        of the substreams ``draws`` names, in its order; without them, these
        are hashed here, in one pass."""
        if streams is None:
            streams = _Streams._apart(self.seeds(base, trials, o))
        return self.evaluate(base, trials, o, *streams)

    def window(self, base: GenConfig, o: _Options, end: int, first_streams: dict) -> _Window:
        """The window of a hit search over trials 0 .. end - 1, on its one
        substream; it starts out holding the rows of the first trials, taken
        out of ``first_streams``, when the run hashed them."""
        (indices,) = self.draws(base, o)
        first = first_streams.pop(self.check_id, None)
        return _Window(base, end, *indices, held=None if first is None else first[0])

    def report(
        self, cfg: GenConfig, o: _Options, first_streams: dict | None = None
    ) -> CheckReport | None:
        """The check's report, or None when it is left out. ``first_streams``
        maps check ids to the rows of their first trials (``_first_streams``);
        the check takes its own out of the map when it first draws, so they
        are freed with the draws."""
        if self.applies(cfg, o):
            return self.run(self, self.base(cfg), o, {} if first_streams is None else first_streams)
        if self.skip is None:
            return None
        return self.skipped(o, self.skip)

    def tolerance(self, o: _Options) -> float:
        return self.tol or o.tol

    def skipped(self, o: _Options, reason: str) -> CheckReport:
        return CheckReport(self.check_id, 0, 0, 0.0, self.tolerance(o), None, {"skipped": reason}, 0.0)


def _first_streams(checks, cfg: GenConfig, o: _Options) -> dict:
    """The rows of the first trials of each of the checks that apply
    (``first_trials``: a margin check's first chunk, the nonassociativity
    search's trial 0), by check id, one ``_Streams`` per substream the check
    ``draws``: all of them from one hash."""
    seeds = {}
    for check in checks:
        if check.applies(cfg, o):
            base = check.base(cfg)
            first = check.first_trials(base, o)
            if len(first):
                seeds[check.check_id] = check.seeds(base, first, o)
    streams = iter(_Streams._apart([s for parts in seeds.values() for s in parts]))
    return {check_id: tuple(next(streams) for _ in parts) for check_id, parts in seeds.items()}


# the skip reason of the commutative-only checks
_COMM = "requires a commutative algebra"

CHECKS = (
    Check("schur_product_positive", "schur", _trial_schur, _commutative, draws=_draws(range(2))),
    Check("schur_product_probe", "schur", _trial_schur, _noncommutative,
          key="schur_product_positive", draws=_draws(range(2)),
          details=lambda o: {"probe": True, "note": "evidence on the open question"}),
    Check("commuting_spectral_schur", "schur", _trial_spectral, draws=_draws()),
    Check("schur_trace_form_agreement", "schur", _trial_trace_form, _commutative,
          draws=_draws(range(3)), tol=ORACLE_TOL),
    Check("psd_oracle_agreement", "schur", _trial_oracle, draws=_draws()),
    # associativity is exact over commutative shapes, so the witness search
    # falls back to the smallest noncommutative one; trial 0 comes alone
    Check("schur_nonassociativity", "schur", fallback={"shape": AlgebraShape((2,)), "n": 2},
          draws=_draws(range(3)), first_trials=lambda base, o: range(1),
          run=_nonassociativity_run),
    Check("gram_row_sum_bound", "lowerbound", _trial_row_sum, draws=_draws(),
          details=lambda o: {"inputs_positive": 0}),
    Check("schur_chain_bound", "lowerbound", _trial_chain, _commutative, _COMM,
          draws=_draws(range(2))),
    Check("diag_outer_bound", "corollaries", _trial_diag, _commutative, _COMM,
          style="real_commutative", draws=_draws()),
    Check("unit_diagonal_bound", "corollaries", _trial_unit_diag, _commutative, _COMM,
          style="real_commutative", draws=_draws()),
    Check("diag_outer_bound_complex_probe", "corollaries", _trial_diag_probe, _commutative,
          style="complex", draws=_draws(), details=lambda o: {"probe": True}),
    Check("novak_conjecture", "novak", _trial_novak, draws=_novak_draws,
          details=lambda o: {"d": o.d}),
    Check("cosine_gram", "novak", _trial_cosine_gram, draws=_cosine_gram_draws),
    Check("trig_identities", "trig", _trial_trig, draws=_trig_draws, tol=TRIG_TOL),
    Check("trig_addition_breakdown", "trig", fallback={"shape": AlgebraShape((2,))},
          run=lambda check, base, o, first_streams: find_trig_breakdown(base, o.trials)),
    Check("schur_series_preserver", "preserver", _trial_preserver, _commutative, _COMM,
          draws=lambda base, o: ((), (range(_MAX_DEGREE + 2),)),
          details=lambda o: {"entrywise_constant_reported": o.entrywise_constant}),
    Check("cauchy_schwarz_gap", "module", _trial_cauchy_schwarz, draws=_draws(range(2))),
    Check("inner_product_axioms", "module", _trial_axioms, draws=_draws(range(3)), tol=AXIOM_TOL),
)
