"""Check reports, the trial loop, the Schur counterexample search and the suite runner.

Every check produces a ``CheckReport`` whose ``worst_margin`` is a relative
quantity: eigenvalue checks report min-eigenvalue / max(1, scale), residual
checks report -residual / max(1, scale), so "pass" uniformly means
``worst_margin >= -tol``. Reports are bitwise reproducible from
(check_id, seed, config); wall-clock time is carried separately and kept out
of canonical JSON so reruns with different thread counts serialize
identically.

This module holds what the ``search`` command runs, and nothing it does
not: the check evaluators, the hit searches and the check table live in
``suites``, which ``run_suites`` imports when it first runs a suite. So a
process that only searches never compiles them.

``_run_trials`` evaluates a check's trials a chunk at a time, chunks of
about ``_CHUNK_ENTRIES`` complex entries per stacked block. numpy's stacked
products, einsums and linalg give each member the bits it gets alone, so
every report is the one that running each trial alone gives. When a chunk
raises, its trials are evaluated again one at a time, in order: the first
that raises alone raises, and if none does, the chunk's error is raised.

``counterexample_search`` hunts for positive M, N over a noncommutative
shape whose symmetrized Schur product is not positive, the open question of
the paper. It runs through ``_run_trials`` as a search, trial 0 (the
deterministic ``jordan_witness``) alone before the chunks; with
``stop_on_first`` it ends the run at the first trial with a witness, even
when a later trial of its chunk raises. It draws its pairs with ``_pairs``,
and the symmetrized products and the positivity oracle run once per chunk.
The streams of the pairs are hashed a window of ``_WINDOW_TRIALS`` trials at
a time, not a chunk at a time (``_Window``): the hash costs about as much
for a few seeds as for a thousand, and a chunk at n = 8 holds 32 trials.
Each chunk takes its generators as rows of the windows that hold its
trials, so the draws are those of each trial alone; the hit searches of
``suites`` draw the same way. ``run_suites`` hashes the substreams of the
first chunk of every check it runs at once (``suites._first_streams``), and
hands each check its rows: a hit search's window starts out holding them.
The report is a summary: every violating trial index, the violation rate
with a Wilson interval, a margin histogram, the stubs (trial, seed, margin,
smallest eigenvalue) of a few violations (the deterministic one and the
``_TOP_WITNESSES`` most negative random ones), and the matrices of only the
first violation. ``search_witness`` rebuilds the full record of any trial
alone, with the bits of its stub.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraShape, Element, identity_element
from .amatrix import AMatrix, diag_matrix, schur_product, _psd_stack
from .errors import DomainError, StructureError
from .generate import GenConfig, _positive_stack, _seeds, _streams, _Streams
from .module_an import AVector

# searches only count violations well clear of verification noise
VIOLATION_THRESHOLD = 1e-6

# the suites of ``suites.CHECKS``, in the order ``run_suites("all", ...)`` runs them
SUITES = (
    "schur",
    "lowerbound",
    "corollaries",
    "novak",
    "trig",
    "preserver",
    "module",
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: counts, the worst relative margin, a witness."""

    check_id: str
    trials: int
    failures: int
    worst_margin: float
    tol: float
    witness: dict | None
    details: dict
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "tol": self.tol,
            "witness": self.witness,
            "details": self.details,
        }


def _report(check_id, trials, failures, worst, tol, witness, details, t0) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        trials=trials,
        failures=failures,
        worst_margin=float(worst),
        tol=tol,
        witness=witness,
        details=dict(details or {}),
        elapsed=time.perf_counter() - t0,
    )


def _matrix_payload(t, **mats) -> dict:
    """The JSON of member t of each batch of matrices; t = () for one matrix."""
    return {name: m._at(t).to_json() for name, m in mats.items()}


def _worst(margins: list[float]) -> float:
    """The smallest margin; NaN if any margin is NaN, whatever its position."""
    if any(math.isnan(m) for m in margins):
        return math.nan
    return min(margins, default=0.0)


# ---------------------------------------------------------------------------
# the trial loop
# ---------------------------------------------------------------------------


def validate_threads(threads: int) -> None:
    """Reject a thread count below 1.

    The thread count is accepted for compatibility only: trials run one
    after another in the calling thread, so every valid value gives the
    same report.
    """
    if threads < 1:
        raise StructureError(f"threads must be >= 1, got {threads}")


def validate_trials(trials: int) -> None:
    """Reject a negative trial count; zero trials reports checks as skipped."""
    if trials < 0:
        raise StructureError(f"trials must be >= 0, got {trials}")


# Trials per stack: trials * (n * k_max)^2 stays near this many complex
# entries per stacked block, 32 trials at n = 8 and k_max = 2. The stacked
# LAPACK calls gain little from bigger stacks, and peak memory grows with them.
_CHUNK_ENTRIES = 8192


# Trials per window of a search: the search hashes the stream states of its
# trials (``generate._Streams``) this many trials at a time, and its chunks
# take their generators as rows of the window. On a 2-core x86 box the hash
# takes about 125 us for a few seeds and 250 us for the 2 048 seeds of a pair
# search's window, while a chunk at n = 8 and k_max = 2 holds 64 seeds.
_WINDOW_TRIALS = 1024


def _chunk_size(cfg: GenConfig) -> int:
    return max(1, _CHUNK_ENTRIES // (cfg.n * max(cfg.shape.blocks)) ** 2)


class _Window:
    """The streams of the substreams (t, *indices) of a run's trials t <
    ``end``, hashed ``_WINDOW_TRIALS`` trials at a time. Called on the
    ascending trials of a chunk, it returns their rows, (trial, index, ...):
    a trial t outside the window held starts a new one, [t, t +
    _WINDOW_TRIALS) cut at ``end``, or at the chunk's last trial when the
    chunk goes past ``end``. So the states held at once cover at most
    ``_WINDOW_TRIALS`` trials, and a chunk may take its rows from several
    windows. ``held`` holds the rows of trials 0 .. len - 1 when they are
    hashed already, as a suite run hashes them with its other checks'."""

    def __init__(self, cfg: GenConfig, end: int, *indices, held: _Streams | None = None):
        self.cfg, self.end, self.indices = cfg, end, indices
        self.held = held
        self.first, self.stop = 0, 0 if held is None else len(held.states)

    def __call__(self, trials) -> _Streams:
        trials = np.asarray(trials)
        rows, i = [], 0
        while i < len(trials):
            if not self.first <= trials[i] < self.stop:
                self.first = int(trials[i])
                last = max(self.end, int(trials[-1]) + 1)
                self.stop = min(self.first + _WINDOW_TRIALS, last)
                self.held = _streams(self.cfg, range(self.first, self.stop), *self.indices)
            taken = i + int(np.searchsorted(trials[i:], self.stop))
            rows.append(self.held.states[trials[i:taken] - self.first])
            i = taken
        return _Streams._of(np.concatenate(rows))


def _chunks(trials, size: int, search: bool = False, grow: bool = False):
    """The given ascending trials, a range or a list, ``size`` at a time; in a
    search, trial 0 comes alone first. With ``grow`` the chunks after it hold
    1, 2, 4, ... trials up to ``size``, so a run that stops at an early trial
    draws only about twice as many trials as it reaches."""
    alone = int(search and len(trials) > 0 and trials[0] == 0)
    if alone:
        yield trials[:1]
    first, step = alone, 1 if grow else size
    while first < len(trials):
        yield trials[first : first + step]
        first, step = first + step, min(2 * step, size)


def _run_trials(evaluate, count: int, size: int, search: bool = False, stop: bool = False) -> list:
    """The outcomes of trials 0 .. count - 1 in the chunks of ``_chunks``.

    ``evaluate(trials)`` returns the outcome ``(margin, witness, *extras)`` of
    each trial of a range; each witness gets the key ``trial``. With ``stop``
    the run ends at the first trial with a witness, and the outcomes may end
    there too; its chunks grow from one trial (``_chunks``' ``grow``), so a
    witness soon after trial 0 costs a few trials, not a whole chunk. A
    member of a stack gets its alone bits, so the schedule moves no outcome.
    When a chunk raises, its trials are evaluated again one at a
    time, in order: a trial that raises alone raises, unless ``stop`` ended
    the run at a witness before it, and if none does, the chunk's error is
    raised.
    """
    outcomes = []

    def take(trials, found) -> bool:
        # the outcomes of a chunk in one step; with stop, up to its first
        # witness, and True when that ends the run
        hits = [i for i, outcome in enumerate(found) if outcome[1] is not None]
        ended = stop and bool(hits)
        if ended:
            hits, found = hits[:1], found[: hits[0] + 1]
        start = len(outcomes)
        outcomes.extend(found)
        for i in hits:
            margin, witness, *extras = outcomes[start + i]
            outcomes[start + i] = (margin, {**witness, "trial": trials[i]}, *extras)
        return ended

    for chunk in _chunks(range(count), size, search, grow=stop):
        try:
            found = evaluate(chunk)
        except Exception:
            for t in chunk:
                if take([t], evaluate(range(t, t + 1))):
                    return outcomes
            raise
        if take(chunk, found):
            return outcomes
    return outcomes


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def _first_big_block(shape: AlgebraShape) -> int:
    b = next((i for i, k in enumerate(shape.blocks) if k >= 2), None)
    if b is None:
        raise DomainError("the witness needs a block of size >= 2")
    return b


def jordan_witness(shape: AlgebraShape, n: int = 1) -> tuple[AMatrix, AMatrix]:
    """The deterministic positivity violation: diagonal embeddings of
    M = diag(1, 0.01) and N = all-units, whose symmetrized product has an
    eigenvalue near -0.202."""
    b = _first_big_block(shape)
    m_blocks = [np.eye(k, dtype=np.complex128) for k in shape.blocks]
    n_blocks = [np.eye(k, dtype=np.complex128) for k in shape.blocks]
    m_blocks[b][1, 1] = 0.01
    n_blocks[b] = np.zeros((shape.blocks[b],) * 2, dtype=np.complex128)
    n_blocks[b][:2, :2] = 1.0
    m_elem = Element._wrap(shape, tuple(m_blocks))
    n_elem = Element._wrap(shape, tuple(n_blocks))
    unit = identity_element(shape)
    m_entries = [m_elem] + [unit] * (n - 1)
    n_entries = [n_elem] + [unit] * (n - 1)
    return (
        diag_matrix(AVector.from_elements(m_entries)),
        diag_matrix(AVector.from_elements(n_entries)),
    )


# Random violations a search report keeps as stubs, besides the
# deterministic one: the most negative margins, ties broken by trial.
_TOP_WITNESSES = 5

# Bin edges of the search's histogram of relative margins. Bin i counts the
# margins in [edges[i-1], edges[i]), with the ends open; the bins below
# -VIOLATION_THRESHOLD hold exactly the violations.
MARGIN_BIN_EDGES = (
    -1e-1, -1e-2, -1e-3, -1e-4, -1e-5, -VIOLATION_THRESHOLD,
    0.0, VIOLATION_THRESHOLD, 1e-4, 1e-2, 1e-1,
)

# the standard normal's 0.975 quantile, for two-sided 95 % intervals
_Z95 = 1.959963984540054


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """The 95 % Wilson score interval for a binomial rate hits / trials
    (Wilson 1927, JASA 22); (0, 1) when there are no trials."""
    if trials == 0:
        return 0.0, 1.0
    p = hits / trials
    w = _Z95 * _Z95 / trials
    center = (p + w / 2) / (1 + w)
    half = _Z95 / (1 + w) * math.sqrt(p * (1 - p) / trials + w / (4 * trials))
    # exact ends at 0 and 1, where rounding could leave p outside
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


def _margin_histogram(margins: list[float]) -> dict:
    """Counts of the margins over ``MARGIN_BIN_EDGES``, with NaN counted apart."""
    m = np.asarray(margins, dtype=float)
    nan = np.isnan(m)
    bins = np.searchsorted(MARGIN_BIN_EDGES, m[~nan], side="right")
    counts = np.bincount(bins, minlength=len(MARGIN_BIN_EDGES) + 1)
    return {"edges": list(MARGIN_BIN_EDGES), "counts": counts.tolist(), "nan": int(nan.sum())}


def _random_pairs(cfg: GenConfig, trials, streams=None):
    """(M, N, seeds) of the given trials, M and N batched: trial t draws M and
    N as ``random_positive_matrix`` on the substreams (t, 0) and (t, 1) of
    ``cfg``, through its chunk form. ``streams`` holds the trials' rows of
    those substreams, (trial, index), such as a window gives; without it they
    are hashed here."""
    if streams is None:
        streams = _streams(cfg, trials, range(2))
    # every derive(t, 0), then every derive(t, 1): the halves are M and N
    _, grams = _positive_stack(cfg, _Streams._of(streams.states.swapaxes(0, 1)))
    half = len(trials)
    return grams._at(np.s_[:half]), grams._at(np.s_[half:]), _seeds(cfg, trials).tolist()


def _pairs(cfg: GenConfig, trials, window: _Window | None = None):
    """The pairs of the search's trials as ``_random_pairs``, from their rows
    of ``window``; trial 0 is the deterministic witness and comes alone."""
    if trials[0] == 0:
        M, N = jordan_witness(cfg.shape, cfg.n)
        return M._at(None), N._at(None), [cfg.seed]
    return _random_pairs(cfg, trials, None if window is None else window(trials))


def _search_stub(trial, seed, margin, min_eigenvalue) -> dict:
    """What a search report keeps of a violating trial besides its index:
    its seed, margin and smallest eigenvalue (None when the product is not
    self-adjoint), as its ``PsdReport`` gives them."""
    return {
        "seed": seed,
        "margin": margin,
        "min_eigenvalue": min_eigenvalue,
        "deterministic_witness": trial == 0,
    }


def _search_record(trial, i, seed, M, N, product, verdicts) -> dict:
    """The full record of trial ``trial``, member i of a batch: its stub with
    its matrices and certificate."""
    rep = verdicts.report(i)
    return {
        **_matrix_payload(i, m=M, n=N, product=product),
        "psd": rep.to_json(),
        "trial": trial,
        **_search_stub(trial, seed, rep.margin, rep.min_eigenvalue),
    }


def _search_witnesses(cfg: GenConfig, trials: list[int], tol: float = DEFAULT_TOL):
    """The full records of the given ascending trials, in order, drawn as the
    search draws them and evaluated in stacks of at most a search chunk.
    A member of a stack gets the bits it gets alone, so each record is the
    report's witness when its trial is the first violation, and extends the
    stub the report keeps of it."""
    if trials and trials[0] < 0:
        raise StructureError(f"trial must be >= 0, got {trials[0]}")
    window = _Window(cfg, trials[-1] + 1 if trials else 0, range(2))
    for group in _chunks(trials, _chunk_size(cfg), search=True):
        M, N, seeds = _pairs(cfg, group, window)
        product = schur_product(M, N)
        verdicts = _psd_stack(product, tol)
        for i, t in enumerate(group):
            yield _search_record(t, i, seeds[i], M, N, product, verdicts)


def search_witness(cfg: GenConfig, trial: int, tol: float = DEFAULT_TOL) -> dict:
    """The full record of trial ``trial`` of ``counterexample_search``: the
    pair drawn as the search draws it, evaluated alone, which gives the bits
    it gets inside a chunk. Of a violating trial it is the report's witness
    when the trial is the first violation, and otherwise expands the trial's
    stub in ``violations``."""
    return next(_search_witnesses(cfg, [trial], tol))


def counterexample_search(
    cfg: GenConfig,
    trials: int,
    tol: float = DEFAULT_TOL,
    stop_on_first: bool = False,
) -> CheckReport:
    """Hunt for positive M, N over a noncommutative shape with M o N not positive.

    Trial zero is the deterministic witness above; trials 1..trials draw
    Gram-positive pairs from per-trial substreams. Violations are counted
    once the relative margin drops below -1e-6, comfortably beyond
    verification noise. Trials run through ``_run_trials`` as a search, in
    stacked chunks.

    The details summarize the violations: every violating trial
    (``violation_trials``), the random violation rate with a 95 % Wilson
    interval over the random trials attempted, and a histogram of all
    margins. ``violations`` holds the stubs (``_search_stub``: trial, seed,
    margin, smallest eigenvalue) of the deterministic witness, when it
    violates, and of the ``_TOP_WITNESSES`` most negative random violations,
    by margin and then by trial. The chunks read each trial's margin,
    smallest eigenvalue and self-adjointness from the stack's arrays, and
    the stubs are built from these arrays, only for the violations kept.
    Only the witness gets a ``PsdReport``: it is the full record of the
    first violation (``search_witness``), rebuilt once at the end with the
    bits of the chunks; ``search_witness`` expands any other stub the same
    way.
    """
    t0 = time.perf_counter()
    if cfg.shape.is_commutative:
        raise DomainError(
            "Schur products stay positive over commutative shapes; "
            "the search needs a noncommutative one"
        )
    validate_trials(trials)
    window = _Window(cfg, trials + 1, range(2))

    def evaluate(chunk):
        # a trial's outcome: its margin, a witness only where a stopping run
        # ends, and for a violation what its stub needs besides the margin,
        # read from the stack's arrays: the seed and the smallest eigenvalue
        # (None when the product is not self-adjoint)
        M, N, seeds = _pairs(cfg, chunk, window)
        verdicts = _psd_stack(schur_product(M, N), tol)
        margins = verdicts.margins()
        lowest, hermitian = verdicts.lowest_eigenvalues().tolist(), verdicts.hermitian.tolist()
        hits = np.flatnonzero(margins < -VIOLATION_THRESHOLD).tolist()
        stops, violations = [None] * len(seeds), [None] * len(seeds)
        for i in hits:
            violations[i] = seeds[i], lowest[i] if hermitian[i] else None
        if stop_on_first and hits:
            stops[hits[0]] = {}
        return list(zip(margins.tolist(), stops, violations))

    outcomes = _run_trials(evaluate, trials + 1, _chunk_size(cfg), search=True, stop=stop_on_first)
    margins, _, violations = zip(*outcomes)
    violation_trials = [t for t, v in enumerate(violations) if v is not None]
    deterministic = violation_trials[:1] == [0]
    drawn = violation_trials[1:] if deterministic else violation_trials
    # the most negative random margins; the stable sort gives ties to the earlier trial
    top = sorted(drawn, key=margins.__getitem__)[:_TOP_WITNESSES]
    kept = []
    for t in ([0] if deterministic else []) + top:
        seed, min_eigenvalue = violations[t]
        kept.append({**_search_stub(t, seed, margins[t], min_eigenvalue), "trial": t})
    first_witness = search_witness(cfg, violation_trials[0], tol) if violation_trials else None
    random_violations = len(violation_trials) - deterministic
    random_attempted = len(margins) - 1
    low, high = _wilson_interval(random_violations, random_attempted)
    details = {
        "search": True,
        "random_trials": trials,
        "trials_attempted": len(margins),
        "violation_threshold": VIOLATION_THRESHOLD,
        "random_violations": random_violations,
        "violation_trials": violation_trials,
        "violation_rate": {
            "rate": random_violations / max(1, random_attempted),
            "interval": [low, high],
            "confidence": 0.95,
        },
        "margin_histogram": _margin_histogram(margins),
        "violations": kept,
    }
    return _report(
        "schur_counterexample_search",
        len(margins),
        len(violation_trials),
        _worst(margins),
        tol,
        first_witness,
        details,
        t0,
    )


# ---------------------------------------------------------------------------
# the suite runner; the check table is in ``suites``
# ---------------------------------------------------------------------------


def _suite_options(
    trials: int = 200,
    d: int = 2,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
    entrywise_constant: bool = False,
):
    """The run-wide settings every check of a suite run sees, validated.
    ``threads`` is validated and otherwise unused (see ``validate_threads``)."""
    validate_trials(trials)
    validate_threads(threads)
    # the check table is compiled by the first suite run, never by a search
    from .suites import _Options

    return _Options(trials, d, tol, entrywise_constant)


def run_suite(name: str, cfg: GenConfig, **options) -> list[CheckReport]:
    """Run the one suite ``name`` and return its reports in ``suites.CHECKS``
    order: ``run_suites`` on that name alone, so ``"all"`` is not a name here."""
    return run_suites((name,), cfg, **options)


def run_suites(names, cfg: GenConfig, **options) -> list[CheckReport]:
    """Run ``"all"`` suites, one named suite, or a sequence of names, and return
    their reports in order, each suite's in ``suites.CHECKS`` order.

    ``options`` are ``trials`` (default 200), ``d`` (2), ``tol``, ``threads``
    (1) and ``entrywise_constant`` (False), as ``_suite_options`` takes them.
    The rows of the first chunks of all the checks run are hashed together,
    once, before the first suite (``suites._first_streams``); an unknown name
    matches no check, and raises when its turn comes."""
    if isinstance(names, str):
        names = SUITES if names == "all" else (names,)
    o = _suite_options(**options)
    from .suites import CHECKS, _first_streams

    first = _first_streams([check for check in CHECKS if check.suite in names], cfg, o)
    reports = []
    for name in names:
        if name not in SUITES:
            raise StructureError(f"unknown suite {name!r}; choose from {SUITES}")
        found = (check.report(cfg, o, first) for check in CHECKS if check.suite == name)
        reports += [r for r in found if r is not None]
    return reports


def counts_as_failure(report: CheckReport) -> bool:
    """Probe checks record evidence without affecting the verdict."""
    if report.details.get("probe"):
        return False
    return report.failures > 0
