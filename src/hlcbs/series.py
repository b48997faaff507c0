"""Direct summation of the Hurwitz-Lerch type central binomial series.

This is the kit's brute-force numeric oracle: every closed form elsewhere is
compared against the sums computed here.  The series is

    Phi(s, a, z) = sum_{n>=0} (2z)^(2(n+a)) / ( C(2(n+a), n+a) (n+a)^s ),

with the real-argument binomial C(x,y) = Gamma(x+1)/(Gamma(y+1) Gamma(x-y+1)).
Each term is built from this definition, never from a closed form: the
power of 2z times the reciprocal binomial, updated by (2z)^2 r(nu+1)/r(nu) =
(2z)^2 (nu+1)/(2(2nu+1)), and nu^-s.  The term ratio tends to z^2, which
yields a provable geometric tail bound; the one summation kernel,
:func:`hlcbs.floats.tail_bounded_sum`, owns the stop target and the budget
error (:class:`~hlcbs.floats.BudgetExceeded`), stops on the bound and states
it.  Each term carries its count of roundings, in units 2^-prec relative to
itself: the first lead's count comes from its ball (the ball rule and the
trust rule, as everywhere), and each later rounding adds 1.  Where the
series is defined is :func:`hlcbs.hyper.check_domain`'s call alone.  This
module only sums; the checks on the series live in :mod:`hlcbs.verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, as_fraction
from .floats import BigFloat, context, tail_bounded_sum, to_mpf
from .floats import BudgetExceeded  # noqa: F401  (re-exported for callers of the oracle)
from .hyper import central_binomial_reciprocal_seed, check_domain, rational_power, rational_power_units

DEFAULT_MAX_TERMS = 10_000


@dataclass(frozen=True)
class SeriesQuery:
    """One evaluation request; z = 1/2 is the zeta-series case."""

    s: Fraction
    a: Fraction
    z: Fraction
    precision_bits: int = 128
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        s = as_fraction(self.s)
        a, z = check_domain(self.a, self.z)
        if a < 0 and s.denominator != 1:
            raise DomainError("negative a needs integer s (negative bases in (n+a)^s)")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")
        context(self.precision_bits)  # rejects a precision below MIN_PRECISION_BITS
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "z", z)


def _phi_terms(ctx, s, a, z, n_start=0):
    """Yield (T_n, units_n, rho_n) for n >= n_start, T_n built from the definition.

    A caller that knows every term before n_start is 0 (a half-integer
    a <= 0, whose reciprocal binomial sits on gamma poles) starts there.
    The lead (2z)^(2 nu)/C(2 nu, nu) starts from hyper's split power and seed
    at nu = a + n_start and steps by the exact ratio (2z)^2 (nu+1)/(2(2nu+1)),
    rounded once; T_n is the lead times nu^-s.  For nu = n + a > 0 past the
    first term, |T_{m+1}/T_m| for m >= n is capped by
    z^2 (1 + 1/(2 nu + 1)) max(1, (nu/(nu+1))^s): both factors are monotone.
    The count of T_n starts from the lead's ball, adds 2 per step (the ratio
    and the product), then nu^-s's count and 1 for the product.
    """
    z_sq = to_mpf(ctx, z * z)
    two_z_sq = 2 * z * z
    lead = rational_power(ctx, 2 * z, 2 * (a + n_start)) * central_binomial_reciprocal_seed(ctx, a + n_start)
    lead, units = lead.value, lead.units()
    for n in itertools.count(n_start):
        nu = a + n
        rho = None
        if nu > 0 and n > n_start:
            rho = z_sq * to_mpf(ctx, (4 * nu + 4) / (4 * nu + 2))
            if s < 0:
                rho *= ctx.power(to_mpf(ctx, nu / (nu + 1)), to_mpf(ctx, s))
        power, power_units = rational_power_units(ctx, nu, -s)
        yield lead * power, units + power_units + 1, rho
        lead *= to_mpf(ctx, two_z_sq * (nu + 1) / (2 * nu + 1))
        units += 2


def phi_numeric(query: SeriesQuery) -> BigFloat:
    """Brute-force sum of Phi(s, a, z) with a guaranteed error bound."""
    ctx = context(query.precision_bits)
    return tail_bounded_sum(ctx, _phi_terms(ctx, query.s, query.a, query.z), query.max_terms)[0]


def phi_terms(query: SeriesQuery, count: int):
    """First ``count`` series terms as mpf values (diagnostic/monotonicity aid)."""
    terms = _phi_terms(context(query.precision_bits), query.s, query.a, query.z)
    return [term for term, _, _ in itertools.islice(terms, count)]


def zeta_hcb_numeric(s, a, precision_bits: int = 128, max_terms: int = DEFAULT_MAX_TERMS) -> BigFloat:
    """zeta(s, a): the z = 1/2 slice of the series."""
    return phi_numeric(SeriesQuery(s, a, Fraction(1, 2), precision_bits, max_terms))
