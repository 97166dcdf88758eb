"""Exact degenerate and probabilistic Stirling-type number families.

The package computes, in exact rational arithmetic, truncated power series
and the special-number families built from them: degenerate Stirling
triangles of both kinds, Lah numbers, rising-factorial connection
coefficients, partial Bell polynomials, higher-order Bernoulli / Daehee /
Cauchy numbers, and the probabilistic analogues of all of these driven by
the moment series of a random variable.  A verification layer recomputes
every supported identity through independent paths and compares exactly.
"""

from .series import (
    OrderMismatchError,
    Series,
    as_delta,
    cache_stats,
    clear_caches,
    coeff_egf,
    lagrange_extract,
)
from .special import (
    Triangle,
    bell_triangle,
    bernoulli_pade_a2,
    binom,
    deg_exp,
    deg_log,
    falling_factorial,
    frobenius_euler,
    hetero_bell,
    lah_bell,
    log_deg_exp,
    order_numbers,
    partial_bell,
    rising_factorial,
    triangle,
    triangle_from_base,
)
from .randomvars import RandomVar, builtin_random_vars
from .prob import (
    ProbBundle,
    bundle,
    mgf_deg,
    mgf_deg_neg,
    moment,
    prob_log,
    prob_order_numbers,
    prob_triangle,
    schlomilch_s1,
    schlomilch_sum,
    sj_moment,
)
from .closedforms import NumericResult, closed_form, uniform_first_kind
from .verify import (
    DEFAULT_GAMMAS,
    DEFAULT_LAMBDA_GRID,
    IdentityRecord,
    MCEstimate,
    VerificationReport,
    check_orthogonality,
    identity_suite,
    limit_suite,
    mc_check,
    moment_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "OrderMismatchError", "Series", "as_delta", "cache_stats", "clear_caches",
    "coeff_egf", "lagrange_extract",
    "Triangle", "bell_triangle", "bernoulli_pade_a2", "binom", "deg_exp", "deg_log",
    "falling_factorial", "frobenius_euler", "hetero_bell", "lah_bell",
    "log_deg_exp", "order_numbers", "partial_bell", "rising_factorial",
    "triangle", "triangle_from_base",
    "RandomVar", "builtin_random_vars",
    "ProbBundle", "bundle", "mgf_deg", "mgf_deg_neg", "moment", "prob_log",
    "prob_order_numbers", "prob_triangle", "schlomilch_s1", "schlomilch_sum",
    "sj_moment",
    "NumericResult", "closed_form", "uniform_first_kind",
    "DEFAULT_GAMMAS", "DEFAULT_LAMBDA_GRID", "IdentityRecord", "MCEstimate",
    "VerificationReport", "check_orthogonality", "identity_suite",
    "limit_suite", "mc_check", "moment_oracle",
    "__version__",
]
