"""Closed-form evaluation of the series at integer first argument.

Numeric paths cover general parameters through hypergeometric
representations.  Every value at s = 1-k comes from one ladder formula,
:func:`_ladder`, one expression that runs in balls or in exact values.
:func:`phi_neg_closed` hands it the polynomial ladders at a general z, with
the 2F1 from the pFq evaluator; :func:`zeta_structured` hands it the same
balls at z = 1/2, with the two ladder values read off alpha; and
:func:`zeta_exact` hands it those alpha values with every factor exact in
the {1, sqrt3, pi, sqrt3*pi} basis, the 2F1 from the exact incomplete beta
chain.  The ladder values, (1-z^2)^k and the rational weights are exact
rationals, rounded once where the value is a ball.  Every gamma ratio and
power in a comes from :mod:`hlcbs.hyper`, which splits a = floor(a) + a0
and sums the seed at a0 in [0, 1) as an incomplete beta; every power and
the root 1/sqrt(1-z^2) are proven roots of exact rationals
(:func:`~hlcbs.floats.rational_root`).  The ladder's k-free balls, the
prefactor and F/sqrt(1-z^2), are memoised per (a, z, precision)
(:func:`_ladder_balls`), as :mod:`hlcbs.hyper` memoises the seed per
(a0, precision), so every k at one point shares one 2F1.

Each numeric closed form is one expression in :class:`~hlcbs.floats.BigFloat`
balls and exact rationals, so its error bound follows from the ball rule, the
proven roots and the kernel's sums alone, pi and the seed among them; no
rounding is counted by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, PiExtValue, as_fraction
from .floats import BigFloat, context, rational_root
from .hyper import (
    PFQParams,
    central_binomial_reciprocal_seed,
    check_domain,
    exact_gamma_ratio,
    incomplete_beta_exact,
    lattice,
    pfq_eval,
    rational_power,
)
from .polyfam import alpha, p_a_ladder, q_poly

_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


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


def _ladder(k: int, a: Fraction, x: Fraction, p, q, prefactor, f_over_root):
    """Phi(1-k, a, z) by the ladder formula, x = z^2:

    2^(k-1) Phi(1-k,a,z) = (2z)^(2a) g(a) / (2a (1-x)^k)
        * ( (2a-1) p_{k-1}(a, x) + q_{k-1}(x) F / sqrt(1-x) ),
    F = 2F1(1/2, a-1/2; a+1/2; x), g(a) = Gamma(a+1)^2/Gamma(2a+1).

    p and q are the exact ladder values, ``prefactor`` is (2z)^(2a) g(a) and
    ``f_over_root`` is F / sqrt(1-x), both balls or both exact values in the
    :class:`PiExtValue` basis; the same expression serves either.
    """
    weight = Fraction(2) ** (1 - k) / (2 * a * (1 - x) ** k)
    return prefactor * (weight * (2 * a - 1) * p + f_over_root * (weight * q))


@lru_cache(maxsize=256)
def _ladder_balls(a: Fraction, z: Fraction, precision_bits: int):
    """The k-free balls of :func:`_ladder` at z, once per (a, z, precision):
    the prefactor from :mod:`hlcbs.hyper`, and F from the pFq evaluator,
    32 bits deeper than the result, times the proven root of 1/(1-x)."""
    ctx = context(precision_bits)
    x = z * z
    f = pfq_eval(PFQParams((_HALF, a - _HALF), (a + _HALF,), x), precision_bits + 32)
    return _prefactor(ctx, a, z), f * rational_root(ctx, x.denominator, x.denominator - x.numerator, 2)


def phi_neg_closed(k: int, a, z, precision_bits: int = 128) -> BigFloat:
    """Phi(1-k, a, z) for k >= 0 from the polynomial ladder formula
    (:func:`_ladder`), with p_{k-1}(a, z^2) and q_{k-1}(z^2) from the ladders
    and the 2F1 summed 32 bits deep.
    At k = 0 (p_{-1} = 0, q_{-1} = 1) this is :func:`phi_one_closed`.
    """
    if k < 0:
        raise DomainError(f"phi_neg_closed needs k >= 0, got {k}")
    a, z = check_domain(a, z)
    x = z * z
    return _ladder(k, a, x, p_a_ladder(k - 1, a)(x), q_poly(k - 1)(x), *_ladder_balls(a, z, precision_bits))


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
    """Exact rational ingredients of zeta(1-k, a) = Phi(1-k, a, 1/2): the
    ladder values at x = 1/4 that :func:`_ladder` takes, read off alpha,
    rational_part = p_{k-1}(a, 1/4) and q_part = q_{k-1}(1/4).
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

    :func:`_ladder` at z = 1/2 with every factor exact: (2z)^(2a) = 1,
    g(a) from :func:`exact_gamma_ratio`, 1/sqrt(3/4) = (2/3) sqrt3, and
    F = 1 at a = 1/2, F = (a-1/2) 2^(2a-1) B(1/4; a-1/2, 1/2) above it.
    Integer a lands in Q + Q*sqrt3*pi, half-integer a in Q*pi + Q*sqrt3*pi.
    """
    if k < 0:
        raise DomainError(f"zeta_exact needs k >= 0, got {k}")
    a = lattice(a)
    f = 1 if a == _HALF else incomplete_beta_exact(a - _HALF).scale((a - _HALF) * Fraction(2) ** int(2 * a - 1))
    root = PiExtValue(c_sqrt3=Fraction(2, 3))  # 1/sqrt(1 - 1/4)
    return _ladder(k, a, _QUARTER, *_ladders_at_quarter(k, a), exact_gamma_ratio(a), root * f)


def zeta_structured(k: int, a, precision_bits: int = 128):
    """Exact rational skeleton plus numeric value of zeta(1-k, a) for any a
    in :func:`check_domain`'s domain.

    Returns ``(ZetaStructured, BigFloat)``; the number is
    :func:`phi_neg_closed` at z = 1/2, taking its ladder values from the
    record rather than from the polynomial ladders.
    """
    if k < 0:
        raise DomainError(f"zeta_structured needs k >= 0, got {k}")
    a, _ = check_domain(a)
    record = ZetaStructured(*_ladders_at_quarter(k, a))
    return record, _ladder(k, a, _QUARTER, record.rational_part, record.q_part, *_ladder_balls(a, _HALF, precision_bits))
