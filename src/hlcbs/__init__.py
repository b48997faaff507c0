"""Exact and arbitrary-precision computation kit for Hurwitz-Lerch type
central binomial series.

The brute-force series (:mod:`hlcbs.series`) is the numeric ground truth;
hypergeometric and polynomial closed forms (:mod:`hlcbs.closedform`) and the
exact special values in Q + Q*sqrt3 + Q*pi + Q*sqrt3*pi are all machine
checked against it by the :mod:`hlcbs.verify` registry.
"""

from .exact import (
    BiPoly,
    DomainError,
    MultiplicationOutOfBasis,
    PiExtValue,
    UniPoly,
)
from .floats import BigFloat, BudgetExceeded, NoConvergence
from .closedform import (
    ZetaStructured,
    phi_neg_closed,
    phi_neg_hyper,
    phi_one_closed,
    phi_pos_hyper,
    euler_transform_defect,
    zeta_exact,
    zeta_structured,
)
from .hyper import (
    LowerParamPole,
    PFQParams,
    PoleError,
    exact_gamma_ratio,
    incomplete_beta_exact,
    incomplete_beta_numeric,
    pfq_eval,
    piext_to_float,
    pochhammer,
    real_central_binomial,
)
from .polyfam import (
    alpha,
    bm_p_poly,
    bm_q_poly,
    eulerian,
    eulerian_gf_oracle,
    p_a_poly,
    p_from_eulerian,
    p_poly,
    poly_bernoulli,
    poly_bernoulli_gf_oracle,
    q_poly,
    stirling2,
)
from .report import CheckReport
from .series import (
    SeriesQuery,
    phi_numeric,
    phi_terms,
    zeta_hcb_numeric,
)
from .verify import UnknownCheck, VerifyConfig, run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "BigFloat",
    "BiPoly",
    "BudgetExceeded",
    "CheckReport",
    "DomainError",
    "LowerParamPole",
    "MultiplicationOutOfBasis",
    "NoConvergence",
    "PFQParams",
    "PiExtValue",
    "PoleError",
    "SeriesQuery",
    "UniPoly",
    "UnknownCheck",
    "VerifyConfig",
    "ZetaStructured",
    "alpha",
    "bm_p_poly",
    "bm_q_poly",
    "eulerian",
    "eulerian_gf_oracle",
    "exact_gamma_ratio",
    "incomplete_beta_exact",
    "incomplete_beta_numeric",
    "p_a_poly",
    "p_from_eulerian",
    "p_poly",
    "pfq_eval",
    "phi_neg_closed",
    "phi_neg_hyper",
    "phi_numeric",
    "phi_one_closed",
    "phi_pos_hyper",
    "phi_terms",
    "piext_to_float",
    "pochhammer",
    "poly_bernoulli",
    "poly_bernoulli_gf_oracle",
    "q_poly",
    "real_central_binomial",
    "run_all",
    "run_check",
    "stirling2",
    "euler_transform_defect",
    "zeta_exact",
    "zeta_hcb_numeric",
    "zeta_structured",
]
