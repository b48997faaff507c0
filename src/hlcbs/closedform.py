"""Closed-form evaluation of the series at integer first argument.

Numeric paths cover general parameters through hypergeometric
representations; on the integer/half-integer lattice the zeta-type values
are assembled exactly in the {1, sqrt3, pi, sqrt3*pi} basis from two alpha
values, the exact gamma ratio and the exact incomplete beta chain; the
polynomial ladders serve only :func:`phi_neg_closed`, at a general z, where
they, (1-z^2)^k and the rational weights are evaluated exactly and rounded
once.  Every gamma ratio and power in a comes from :mod:`hlcbs.hyper`,
which splits a = floor(a) + a0 and hands only a0 in [0, 1) to mpmath.

Each numeric closed form is one expression in :class:`~hlcbs.floats.BigFloat`
balls and exact rationals, so its error bound follows from the ball rule and
the trust rule alone; no rounding is counted by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, PiExtValue, as_fraction
from .floats import BigFloat, context, rational
from .hyper import (
    PFQParams,
    central_binomial_reciprocal_seed,
    check_domain,
    exact_gamma_ratio,
    incomplete_beta_exact,
    incomplete_beta_numeric,
    lattice,
    pfq_eval,
    rational_power,
)
from .polyfam import alpha, p_a_ladder, q_poly


def _prefactor(ctx, a: Fraction, z) -> BigFloat:
    """4^a z^(2a) / C(2a, a) = (2z)^(2a) g(a), the series' first term at s = 0."""
    return rational_power(ctx, 2 * z, 2 * a) * central_binomial_reciprocal_seed(ctx, a)


def _phi_hyper(s: int, a, z, precision_bits: int) -> BigFloat:
    """Phi(s, a, z) for integer s: the (k+1)Fk form of :func:`phi_pos_hyper`
    for s >= 1 and its a <-> a+1 mirror, :func:`phi_neg_hyper`, for s <= 0.
    Either way the prefactor is 4^a a^(-s) z^(2a) / C(2a, a)."""
    a, z = check_domain(a, z)
    if s >= 1:
        upper, lower, copies = a, a + 1, s
    else:
        upper, lower, copies = a + 1, a, 1 - s
    params = PFQParams((Fraction(1),) + (upper,) * copies, (a + Fraction(1, 2),) + (lower,) * (copies - 1), z * z)
    return _prefactor(context(precision_bits), a, z) * a**-s * pfq_eval(params, precision_bits + 16)


def phi_pos_hyper(k: int, a, z, precision_bits: int = 128) -> BigFloat:
    """Phi(k, a, z) for k >= 1 via the (k+1)Fk representation.

    Phi(k,a,z) = 4^a/(C(2a,a) a^k) z^(2a)
                 * F(1, a,...,a ; a+1/2, a+1,...,a+1 ; z^2)
    with k upper copies of a and k-1 lower copies of a+1.
    """
    if k < 1:
        raise DomainError(f"phi_pos_hyper needs k >= 1, got {k}")
    return _phi_hyper(k, a, z, precision_bits)


def phi_neg_hyper(k: int, a, z, precision_bits: int = 128) -> BigFloat:
    """Phi(1-k, a, z) for k >= 1 via the mirrored (k+1)Fk representation.

    Phi(1-k,a,z) = 4^a a^(k-1)/C(2a,a) z^(2a)
                   * F(1, a+1,...,a+1 ; a+1/2, a,...,a ; z^2),
    the a <-> a+1 mirror of :func:`phi_pos_hyper`.
    """
    if k < 1:
        raise DomainError(f"phi_neg_hyper needs k >= 1, got {k}")
    return _phi_hyper(1 - k, a, z, precision_bits)


def phi_one_closed(a, z, precision_bits: int = 128) -> BigFloat:
    """Phi(1, a, z) through the Euler-transformed Gauss series.

    Phi(1,a,z) = 4^a/(C(2a,a) a) * z^(2a)/sqrt(1-z^2)
                 * 2F1(1/2, a-1/2; a+1/2; z^2),
    which is :func:`phi_neg_closed` at k = 0.
    """
    return phi_neg_closed(0, a, z, precision_bits)


def phi_neg_closed(k: int, a, z, precision_bits: int = 128) -> BigFloat:
    """Phi(1-k, a, z) for k >= 0 from the polynomial ladder formula.

    2^(k-1) Phi(1-k,a,z) = 4^a z^(2a) / (2a C(2a,a) (1-z^2)^(k+1/2))
        * ( (2a-1) sqrt(1-z^2) p_{k-1}(a, z^2)
            + 2F1(1/2, a-1/2; a+1/2; z^2) q_{k-1}(z^2) ).
    At k = 0 (p_{-1} = 0, q_{-1} = 1) this is :func:`phi_one_closed`.
    """
    if k < 0:
        raise DomainError(f"phi_neg_closed needs k >= 0, got {k}")
    a, z = check_domain(a, z)
    ctx = context(precision_bits)
    f = pfq_eval(PFQParams((Fraction(1, 2), a - Fraction(1, 2)), (a + Fraction(1, 2),), z * z), precision_bits + 16)
    # the ladders and (1-z^2)^k are exact rationals:
    # value = (2z)^(2a) g(a) (p_part + q_part F / sqrt(1-z^2))
    x = z * z
    weight = Fraction(2) ** (1 - k) / (2 * a * (1 - x) ** k)
    p_part = weight * (2 * a - 1) * p_a_ladder(k - 1, a)(x)
    q_part = rational(ctx, weight * q_poly(k - 1)(x)) / rational(ctx, 1 - x).sqrt()
    return _prefactor(ctx, a, z) * (p_part + q_part * f)


def euler_transform_defect(n: int, a) -> Fraction:
    """Coefficient that must vanish for the Euler-transformed Gauss form.

    Returns, exactly in rational arithmetic,

        sum_{m=0}^{n} (-1/2)_m (1/2-a-n)_m / ((1-a-n)_m m!)
        - (1/2)_n (a-1/2)_n / ((a)_n n!),

    which is identically zero for every n >= 0 and off-lattice a.  (The
    subtracted closed form carries (a)_n, as the inductive evaluation shows.)
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    a = as_fraction(a)
    if (2 * a).denominator == 1:
        raise DomainError("a on the half-integer lattice makes a denominator vanish")
    total, closed = _euler_sides(n, a)
    return total - closed


def _euler_sides(n: int, a: Fraction):
    """The two sides of :func:`euler_transform_defect`, each one Fraction of
    integer products.  With a = c/d the sum's term ratio is
    r_m = (2m-1)(d-2c+2d(m-n)) / (4(d-c+d(m-n))(m+1)), summed by Horner from
    the inside, and the closed side is prod_{l<n} (2l+1)(2c-d+2dl) / (4(c+dl)(l+1))."""
    c, d = a.numerator, a.denominator
    num, den = 1, 1
    for m in range(n - 1, -1, -1):
        top, bottom = (2 * m - 1) * (d - 2 * c + 2 * d * (m - n)), 4 * (d - c + d * (m - n)) * (m + 1)
        num, den = bottom * den + top * num, bottom * den
    closed_num = math.prod((2 * l + 1) * (2 * c - d + 2 * d * l) for l in range(n))
    closed_den = math.prod(4 * (c + d * l) * (l + 1) for l in range(n))
    return Fraction(num, den), Fraction(closed_num, closed_den)


# ---------------------------------------------------------------------------
# exact and structured zeta values


@dataclass(frozen=True)
class ZetaStructured:
    """Exact rational ingredients of zeta(1-k, a) per the ladder formula.

    The value reassembles as
        (2a-1) Gamma(a+1)^2 / (a Gamma(2a+1)) * (2/3)^k
        * ( rational_part + 4^(a-1) * (2/sqrt3) * B(1/4; a-1/2, 1/2) * q_part )
    with rational_part = p_{k-1}(a, 1/4) and q_part = q_{k-1}(1/4), from alpha.
    """

    rational_part: Fraction
    q_part: Fraction


def _ladders_at_quarter(k: int, a: Fraction):
    """(p_{k-1}(a, 1/4), q_{k-1}(1/4)) = (3/2)^(k-1) (alpha_{k-1}(a), alpha_{k-1}(0)),
    and (0, 1) at k = 0."""
    if k == 0:
        return Fraction(0), Fraction(1)
    scale = Fraction(3, 2) ** (k - 1)
    return scale * alpha(k - 1, a), scale * alpha(k - 1, 0)


def zeta_exact(k: int, a) -> PiExtValue:
    """Exact zeta(1-k, a) on the lattice a in {1/2, 1, 3/2, 2, ...}.

    zeta(1-k, a) = (2/3)^k (g (2a-1)/a p_{k-1}(a, 1/4) + q_{k-1}(1/4) zeta(1, a)),
    g = Gamma(a+1)^2/Gamma(2a+1), zeta(1, a) = g B(1/4; a-1/2, 1/2) (2/sqrt3)
    (2a-1)/a 2^(2a-2), and zeta(1, 1/2) = pi/sqrt3.  Integer a lands in
    Q + Q*sqrt3*pi, half-integer a in Q*pi + Q*sqrt3*pi.
    """
    if k < 0:
        raise DomainError(f"zeta_exact needs k >= 0, got {k}")
    a = lattice(a)
    p_val, q_val = _ladders_at_quarter(k, a)
    gamma_ratio = exact_gamma_ratio(a)
    weight = (2 * a - 1) / a
    if a == Fraction(1, 2):
        zeta_one = PiExtValue(c_sqrt3pi=Fraction(1, 3))  # pi/sqrt3 = sqrt3*pi/3
    else:
        beta = incomplete_beta_exact(a - Fraction(1, 2))
        zeta_one = (gamma_ratio * beta).scale(0, Fraction(2, 3) * weight * Fraction(2) ** int(2 * a - 2))
    return (gamma_ratio.scale(weight * p_val) + zeta_one.scale(q_val)).scale(Fraction(2, 3) ** k)


def zeta_structured(k: int, a, precision_bits: int = 128):
    """Exact rational skeleton plus numeric value of zeta(1-k, a), a > 1/2.

    Returns ``(ZetaStructured, BigFloat)``.  The incomplete beta factor needs
    a - 1/2 > 0, so a <= 1/2 is rejected (the numeric series path still
    covers those parameters).
    """
    if k < 0:
        raise DomainError(f"zeta_structured needs k >= 0, got {k}")
    a = as_fraction(a)
    if a <= Fraction(1, 2):
        raise DomainError(f"zeta_structured needs a > 1/2, got {a}")
    rational_part, q_part = _ladders_at_quarter(k, a)
    record = ZetaStructured(rational_part, q_part)

    ctx = context(precision_bits)
    beta = incomplete_beta_numeric(Fraction(1, 4), a - Fraction(1, 2), Fraction(1, 2), precision_bits + 16)
    pre = (2 * a - 1) / a * Fraction(2, 3) ** k * central_binomial_reciprocal_seed(ctx, a)
    beta_weight = rational_power(ctx, 4, a - 1) * 2 / rational(ctx, 3).sqrt()
    return record, pre * (rational_part + beta_weight * beta * q_part)
