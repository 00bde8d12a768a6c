"""Schur products of positive matrices over finite-dimensional C*-algebras.

The package certifies positivity of symmetrized entrywise (Schur/Hadamard)
products, verifies 1/n lower bounds of row-sum type, runs the commutative
cosine-matrix pipeline behind the Novak-type positivity statement, and
searches for counterexamples to the noncommutative positivity question.
"""

from .algebra import (
    AlgebraShape,
    Element,
    SpectrumReport,
    classify,
    commutator_norm,
    hermitian_defect,
    identity_element,
    scalar_element,
)
from .amatrix import (
    AMatrix,
    PsdReport,
    cholesky_psd_check,
    diag_matrix,
    diag_vector,
    element_scale,
    flatten,
    identity_matrix,
    mat_norm,
    ones_matrix,
    outer_product,
    psd_check,
    row_sums,
    schur_product,
    schur_quadratic_form_oracle,
    unflatten,
    zero_matrix,
)
from .calculus import SeriesSpec, elem_cos, elem_exp, elem_sin, schur_series_apply
from .errors import DomainError, NumericalError, RangeError, StructureError
from .generate import (
    GenConfig,
    derive_seed,
    fnv1a64,
    haar_unitary,
    mix64,
    random_commuting_family,
    random_commuting_spectral_pair,
    random_element,
    random_matrix,
    random_positive_matrix,
    random_selfadjoint_element,
    random_selfadjoint_points,
    random_unit_diagonal_positive,
    random_vector,
)
from .module_an import (
    AVector,
    cauchy_schwarz_gap,
    inner_product,
    left_mul,
    ones_vector,
)
from .verify import (
    CheckReport,
    SUITES,
    counterexample_search,
    jordan_witness,
    run_suite,
    run_suites,
)

# Defined in ``suites``, which is imported on first access (PEP 562), so that
# ``import cstar_schur.cli`` for a search does not compile the suite code.
_SUITE_NAMES = frozenset({
    "check_preserver",
    "check_trig_identities",
    "find_nonassociativity",
    "find_trig_breakdown",
    "novak_check",
    "pauli_pair",
})


def __getattr__(name: str):
    if name in _SUITE_NAMES:
        from . import suites

        value = globals()[name] = getattr(suites, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
