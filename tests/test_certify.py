"""Certifier: every public numeric entry point's error bound must hold.

Each result is compared with an independent mpmath reference at 200 extra
bits: a direct sum of the series with mpmath's own gamma and power (stopped
on a relative tail bound, so tiny values such as zeta(-1, 1000/3) ~ 3e-197
keep full relative accuracy), ``mpmath.hyper``, ``mpmath.betainc`` or a
gamma quotient.  None of them touches the kit's code.  The draws span
k <= 80, |a| <= 1000 (negative a off the half-integer lattice) and 32 to 512
bits; Hypothesis runs derandomized with a fixed budget, so the file is
deterministic.  The explicit examples are points where a bound used to fail.
"""

from fractions import Fraction as F

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcbs import closedform, hyper, series
from hlcbs.hyper import piext_to_float

EXTRA_BITS = 200
CERTIFY = settings(max_examples=15, derandomize=True, deadline=None, database=None)


def _ctx(precision):
    c = mpmath.mp.clone()
    c.prec = precision + EXTRA_BITS
    return c


def _mp(c, x):
    x = F(x)
    return c.mpf(x.numerator) / x.denominator


def ref_phi(s, a, z, precision):
    """Phi(s, a, z) summed term by term in mpmath, with mpmath's gamma at a."""
    c = _ctx(precision)
    s = F(s)
    zf, nu, sf = _mp(c, z), _mp(c, a), _mp(c, s)
    lead = c.power(2 * zf, 2 * nu) * c.gamma(nu + 1) ** 2 / c.gamma(2 * nu + 1)
    eps = c.ldexp(1, -(precision + 100))
    total = c.mpf(0)
    while True:
        term = lead * (nu ** -int(s) if s.denominator == 1 else c.power(nu, -sf))
        total += term
        if nu > 0:
            # the term ratio from here on is capped by rho (each factor is monotone)
            rho = zf * zf * (2 * nu + 2) / (2 * nu + 1) * max(1, (nu / (nu + 1)) ** sf)
            if rho < 1 and abs(term) * rho / (1 - rho) <= eps * abs(total):
                return total
        lead *= 4 * zf * zf * (nu + 1) / (2 * (2 * nu + 1))
        nu += 1


def assert_certified(out, reference):
    assert abs(out.value - reference) <= out.error_bound, float(abs(out.value - reference) / out.error_bound)


# ---------------------------------------------------------------------------
# draws


@st.composite
def rationals(draw, lo, hi, max_den=12):
    d = draw(st.integers(1, max_den))
    return F(draw(st.integers(lo * d, hi * d)), d)


def _off_poles(a):
    return not ((2 * a).denominator == 1 and a <= 0)


A_ANY = rationals(-1000, 1000).filter(_off_poles)
A_POS = rationals(0, 1000).filter(lambda a: a > 0)
PRECISION = st.sampled_from([32, 64, 128, 256, 512])


@st.composite
def unit_z(draw, a, high=F(9, 10)):
    """z in [0, high]; 0 only at a > 0, since at a < 0 the first term (2z)^(2a)
    diverges as z -> 0."""
    w = draw(st.integers(2, 100))
    return F(draw(st.integers(0 if a > 0 else 1, max(1, int(high * w)))), w)


def a_and_z(a_draws):
    """(a, z): a from ``a_draws``, then z from :func:`unit_z` at that a."""
    return a_draws.flatmap(lambda a: st.tuples(st.just(a), unit_z(a)))


@st.composite
def k_a_z(draw, k_min):
    """k up to 80 where z <= 1/2; up to 12 nearer 1, where (k+1)Fk sums run long."""
    a, z = draw(a_and_z(A_ANY))
    return draw(st.integers(k_min, 80 if z <= F(1, 2) else 12)), a, z


# ---------------------------------------------------------------------------
# one test per entry point


@CERTIFY
@given(s=st.integers(-80, 80), az=a_and_z(A_ANY), precision=PRECISION)
@example(s=72, az=(F(-140, 3), F(1, 50)), precision=32)
def test_phi_numeric_integer_s(s, az, precision):
    a, z = az
    assert_certified(series.phi_numeric(series.SeriesQuery(s, a, z, precision)), ref_phi(s, a, z, precision))


@CERTIFY
@given(s=rationals(-20, 20), az=a_and_z(A_POS), precision=PRECISION)
@example(s=F(-7, 2), az=(F(1, 3), F(99, 100)), precision=128)
@example(s=F(3, 2), az=(F(1, 3), F(1, 2)), precision=2048)
def test_phi_numeric_rational_s(s, az, precision):
    a, z = az
    assert_certified(series.phi_numeric(series.SeriesQuery(s, a, z, precision)), ref_phi(s, a, z, precision))


@CERTIFY
@given(kaz=k_a_z(1), precision=PRECISION)
@example(kaz=(2, F(-1000, 3), F(1, 2)), precision=128)
@example(kaz=(2, F(1000, 3), F(9, 10)), precision=128)
@example(kaz=(2, F(-1000, 3), F(9, 10)), precision=128)
def test_phi_pos_hyper(kaz, precision):
    k, a, z = kaz
    assert_certified(closedform.phi_pos_hyper(k, a, z, precision), ref_phi(k, a, z, precision))


@CERTIFY
@given(kaz=k_a_z(1), precision=PRECISION)
def test_phi_neg_hyper(kaz, precision):
    k, a, z = kaz
    assert_certified(closedform.phi_neg_hyper(k, a, z, precision), ref_phi(1 - k, a, z, precision))


@CERTIFY
@given(k=st.integers(0, 80), az=a_and_z(A_ANY), precision=PRECISION)
@example(k=40, az=(F(7, 2), F(9, 10)), precision=128)
@example(k=80, az=(F(7, 2), F(9, 10)), precision=128)
@example(k=80, az=(F(7, 2), F(9, 10)), precision=64)
def test_phi_neg_closed(k, az, precision):
    a, z = az
    assert_certified(closedform.phi_neg_closed(k, a, z, precision), ref_phi(1 - k, a, z, precision))


@CERTIFY
@given(az=a_and_z(A_ANY), precision=PRECISION)
def test_phi_one_closed(az, precision):
    a, z = az
    assert_certified(closedform.phi_one_closed(a, z, precision), ref_phi(1, a, z, precision))


@CERTIFY
@given(k=st.integers(0, 80), a=A_ANY, precision=PRECISION)
@example(k=2, a=F(400, 3), precision=128)
@example(k=2, a=F(1000, 3), precision=128)
@example(k=5, a=F(1, 2), precision=128)
@example(k=40, a=F(-1000, 3), precision=128)
def test_zeta_structured(k, a, precision):
    _, out = closedform.zeta_structured(k, a, precision)
    assert_certified(out, ref_phi(1 - k, a, F(1, 2), precision))


@CERTIFY
@given(k=st.integers(0, 80), m=st.integers(1, 40), precision=PRECISION)
def test_exact_zeta_to_float(k, m, precision):
    a = F(m, 2)
    assert_certified(piext_to_float(closedform.zeta_exact(k, a), precision), ref_phi(1 - k, a, F(1, 2), precision))


@CERTIFY
@given(a=A_ANY, precision=PRECISION)
@example(a=F(100001, 7), precision=128)
def test_real_central_binomial(a, precision):
    c = _ctx(precision)
    af = _mp(c, a)
    assert_certified(hyper.real_central_binomial(a, precision), c.gamma(2 * af + 1) / c.gamma(af + 1) ** 2)


@CERTIFY
@given(alpha_z=a_and_z(A_POS), beta=rationals(0, 10).filter(lambda b: b > 0), precision=PRECISION)
@example(alpha_z=(F(1000, 3), F(9, 10)), beta=F(1, 2), precision=128)
def test_incomplete_beta_numeric(alpha_z, beta, precision):
    alpha, z = alpha_z
    c = _ctx(precision)
    reference = c.betainc(_mp(c, alpha), _mp(c, beta), 0, _mp(c, z))
    assert_certified(hyper.incomplete_beta_numeric(z, alpha, beta, precision), reference)


@CERTIFY
@given(
    upper=st.lists(rationals(-10, 10), min_size=1, max_size=4),
    lower=st.lists(rationals(-10, 10).filter(lambda l: not (l.denominator == 1 and l <= 0)), min_size=3, max_size=3),
    z=rationals(-9, 9, max_den=10).map(lambda x: x / 10),
    precision=PRECISION,
)
def test_pfq_eval(upper, lower, z, precision):
    lower = lower[: len(upper) - 1]
    c = _ctx(precision)
    reference = c.hyper([_mp(c, u) for u in upper], [_mp(c, l) for l in lower], _mp(c, z))
    assert_certified(hyper.pfq_eval(hyper.PFQParams(upper, lower, z), precision), reference)
