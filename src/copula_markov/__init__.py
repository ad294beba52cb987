"""Algebra of bivariate copulas under the Markov product.

Exact checkerboard carriers, closed-form families, stochastic-monotonicity
checks, idempotent decomposition into ordinal sums of independence, and
the correspondence with Markov operators on step functions.
"""

from .core import (
    Copula,
    CopulaError,
    DomainError,
    GridCopula,
    IndependenceCopula,
    IntervalFamily,
    InvariantError,
    LowerFrechetCopula,
    StepFunction,
    TransposedCopula,
    UpperFrechetCopula,
)
from .families import (
    ArchimedeanCopula,
    ArchimedeanGenerator,
    ExtremeValueCopula,
    InconclusiveError,
    OrdinalSumCopula,
    PickandsFunction,
    archimedean_copula,
    clayton_generator,
    comonotone_pickands,
    extreme_value_copula,
    frank_generator,
    gumbel_generator,
    gumbel_pickands,
    independence_generator,
    independence_pickands,
    is_si_archimedean,
    ordinal_sum,
    tabulated_generator,
)
from .algebra import (
    DEFAULT_RESOLUTION,
    DecompositionError,
    IdempotenceVerdict,
    IterateReport,
    NotStochasticallyIncreasingError,
    PiDecomposition,
    ResolutionCapError,
    extract_pi_ordinal_structure,
    is_idempotent,
    iterate_to_limit,
    markov_product,
    power,
    quadrature_markov_product,
    si_sd_involution,
    transpose,
)
from .monotonicity import (
    CompleteDependenceVerdict,
    DominanceVerdict,
    EmpiricalSIReport,
    MonotonicityVerdict,
    QuadrantVerdict,
    check_complete_dependence,
    check_dominance,
    check_quadrant_dependence,
    check_si,
    empirical_si_check,
    operator_preserves_monotone,
)
from .operators import (
    DiscreteMarkovOperator,
    conditional_expectation_form,
    copula_of,
    fixed_sigma_field,
    operator_of,
)
from .metrics import (
    NqdVerdict,
    d1_metric,
    d_inf,
    nqd_idempotent_check,
    sobolev_diagonal,
)
from .serialize import (
    SpecError,
    copula_from_spec,
    load_copula,
    save_copula,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
