"""Rigorous cross-verification of the odd infinite product for the cosine.

The library evaluates the classical identity

    cos(pi / 2n) = prod_{k>=1} (1 - 1/((2k-1)^2 n^2)),    n > 1,

by three independent routes (truncated product, coefficient series through
the exponential, halved cosine), each carried with a proven absolute
error bound, together with the exact-rational machinery behind the series
route: the quadratic coefficient recurrence, its Bernoulli and tangent
oracles, and the formal power-series fixed point.
"""

from .arith import (
    BoundedReal,
    DomainError,
    PrecisionError,
    WorkBudgetError,
    pi_constant,
    real_from_rational,
)
from .recurrence import (
    bernoulli_numbers,
    lambda_closed_form,
    lambda_coefficients,
    tangent_coefficients,
)
from .series import (
    OddSeries,
    ode_residual,
    picard_fixed_point,
)
from .analytic import (
    IdentityReport,
    LambdaEstimate,
    PartialProductResult,
    RearrangementReport,
    cos_approx,
    exp_approx,
    lambda_direct,
    lambda_direct_table,
    neg_log_product_series,
    product_trace,
    rearrangement_check,
    verify_identity,
)

__all__ = [
    "BoundedReal",
    "DomainError",
    "IdentityReport",
    "LambdaEstimate",
    "OddSeries",
    "PartialProductResult",
    "PrecisionError",
    "RearrangementReport",
    "WorkBudgetError",
    "bernoulli_numbers",
    "cos_approx",
    "exp_approx",
    "lambda_closed_form",
    "lambda_coefficients",
    "lambda_direct",
    "lambda_direct_table",
    "neg_log_product_series",
    "ode_residual",
    "pi_constant",
    "picard_fixed_point",
    "product_trace",
    "real_from_rational",
    "rearrangement_check",
    "tangent_coefficients",
    "verify_identity",
]

__version__ = "0.1.0"
