"""Alternating row/column scaling of positive matrices, in exact rational
and floating-point arithmetic: the iteration engine, closed-form 2x2 and
bordered-family limits, and the exact finite-termination classifier."""

from .classify import (
    OrderComparison,
    StochasticOneStepForm,
    Termination,
    TerminationClass,
    classify_2x2,
    classify_both_orders,
    reconstruct,
    stochastic_one_step_forms,
)
from .closed_form import (
    BorderedLimit,
    ExactLimit2x2,
    Limit2x2,
    SymmetricLimit2x2,
    bordered_limit,
    bordered_limit_triangular,
    bordered_matrix,
    limit_2x2,
    limit_2x2_exact,
    limit_2x2_symmetric,
)
from .engine import (
    DEFAULT_MAX_STEPS_APPROX,
    DEFAULT_MAX_STEPS_EXACT,
    IterationConfig,
    SearchHit,
    SinkhornResult,
    StartSide,
    Status,
    TraceRecord,
    finite_termination_search,
    scaling_invariance_check,
    sinkhorn,
    termination_length_2x2,
    trace_csv,
)
from .matrices import (
    DEFAULT_TOLERANCE,
    DiagonalScaling,
    DimensionError,
    MarginTarget,
    NonFiniteEntryError,
    NonPositiveEntryError,
    PositiveMatrix,
    RegimeError,
    apply_left,
    apply_right,
    col_scaling,
    col_sums,
    is_col_stochastic,
    is_doubly_stochastic,
    is_row_stochastic,
    row_scaling,
    row_sums,
    transpose,
)
from .numerics import (
    format_rational,
    is_perfect_square,
    is_rational_square,
    is_triangular_number,
    parse_rational,
    rational_sqrt,
)

__all__ = [name for name in dir() if not name.startswith("_")]
