"""Hypergeometric evaluator, incomplete beta, and gamma-ratio lattice values."""

import itertools
import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcbs import hyper
from hlcbs.exact import DomainError, PiExtValue
from hlcbs.hyper import (
    LowerParamPole,
    NoConvergence,
    PFQParams,
    PoleError,
    _pfq_factors,
    central_binomial_reciprocal_seed,
    exact_gamma_ratio,
    gamma_ratio_shift,
    incomplete_beta_exact,
    incomplete_beta_numeric,
    pfq_eval,
    piext_to_float,
    pochhammer,
    rational_power,
    real_central_binomial,
)
from hlcbs.floats import Ratios, context

from conftest import is_pair


def beta_quadrature_oracle(ctx, z, alpha, beta):
    """Independent oracle: quadrature of the defining integral.

    Substituting x = t^2 removes the endpoint singularity for alpha >= 1/2:
    B(z;a,b) = 2 int_0^sqrt(z) t^(2a-1) (1-t^2)^(b-1) dt.
    """
    a = ctx.mpf(alpha.numerator) / alpha.denominator
    b = ctx.mpf(beta.numerator) / beta.denominator
    upper = ctx.sqrt(ctx.mpf(z.numerator) / z.denominator)
    return 2 * ctx.quad(lambda t: t ** (2 * a - 1) * (1 - t * t) ** (b - 1), [0, upper])


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(7, 3), 0) == 1

    def test_half_case(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)

    @given(st.integers(min_value=0, max_value=12))
    @settings(deadline=None)
    def test_factorial_case(self, n):
        assert pochhammer(F(1), n) == math.factorial(n)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            pochhammer(F(1), -1)


class TestPFQ:
    def test_param_validation(self):
        with pytest.raises(DomainError):
            PFQParams((1, 2, 3), (1,), F(1, 2))
        with pytest.raises(LowerParamPole):
            PFQParams((1, F(1, 2)), (0,), F(1, 2))
        with pytest.raises(LowerParamPole):
            PFQParams((1, F(1, 2)), (-3,), F(1, 2))

    def test_no_convergence_outside_disc(self):
        with pytest.raises(NoConvergence):
            pfq_eval(PFQParams((1, F(1, 2)), (F(3, 2),), F(1)))

    def test_z_zero_is_one(self):
        out = pfq_eval(PFQParams((F(5, 4), F(1, 2)), (F(3, 2),), F(0)))
        assert out.value == 1

    def test_zero_upper_parameter_truncates(self):
        # an upper parameter 0 kills every term past n = 0
        for z in (F(1, 4), F(16, 25)):
            out = pfq_eval(PFQParams((F(1, 2), F(0)), (F(1),), z))
            assert out.value == 1
            assert out.error_bound < mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("z", [F(1, 10), F(1, 4), F(1, 2), F(81, 100)])
    def test_binomial_series_case(self, z, ctx):
        # F(1, 1/2; 1; z) = (1-z)^(-1/2)
        out = pfq_eval(PFQParams((F(1), F(1, 2)), (F(1),), z), 192)
        expected = 1 / ctx.sqrt(1 - ctx.mpf(z.numerator) / z.denominator)
        assert abs(out.value - expected) < ctx.mpf(2) ** -190

    def test_golden_value(self, ctx):
        out = pfq_eval(PFQParams((F(1), F(1, 2)), (F(1),), F(1, 4)), 128)
        assert abs(out.value - ctx.mpf("1.1547005383792515290182975610039149112952")) < ctx.mpf(10) ** -38

    @pytest.mark.parametrize("z", [F(1, 10), F(1, 4), F(1, 2), F(81, 100)])
    @pytest.mark.parametrize(
        "upper,lower",
        [
            ((F(1), F(3, 2)), (F(2),)),
            ((F(1), F(2), F(2)), (F(5, 2), F(3)),),
            ((F(1, 2), F(1, 2)), (F(3, 2),)),
            ((F(1), F(3), F(3)), (F(7, 2), F(2)),),
        ],
    )
    def test_error_bounds_honest(self, upper, lower, z):
        # doubling the precision moves the value by less than the first bound
        lo = pfq_eval(PFQParams(upper, lower, z), 96)
        hi = pfq_eval(PFQParams(upper, lower, z), 192)
        assert abs(lo.value - hi.value) <= lo.error_bound


class TestPFQFactors:
    """pFq hands the kernel its exact term ratios, z folded in."""

    @pytest.mark.parametrize(
        "upper,lower,z",
        [
            ((F(-4), F(1, 2)), (F(3, 2),), F(3, 4)),  # terminates after n = 4
            ((F(-5, 2), F(1)), (F(-7, 2),), F(-1, 3)),  # n_safe = 5: no cap before n = 5
            ((F(1, 2), F(3, 4)), (F(7, 4),), F(9, 10)),
        ],
    )
    def test_factors_are_the_pochhammer_ratios(self, upper, lower, z):
        def term(n):
            t = z**n / math.factorial(n)
            for u in upper:
                t *= pochhammer(u, n)
            for l in lower:
                t /= pochhammer(l, n)
            return t

        head, run = _pfq_factors(PFQParams(upper, lower, z))  # t_0, then the run; the head has no cap
        assert isinstance(run, Ratios)
        pairs, caps = [head, *run.leaves(1, 40)], [None, *map(run.cap, range(1, 40))]
        assert all(is_pair(f) for f in pairs) and all(cap is None or is_pair(cap) for cap in caps)
        factors, caps = [F(*f) for f in pairs], [cap and F(*cap) for cap in caps]
        assert factors[0] == 1
        for n in itertools.takewhile(lambda n: term(n), range(39)):
            assert factors[n + 1] == term(n + 1) / term(n)
        live = list(itertools.takewhile(lambda f: f, factors))  # up to the zero factor, if any
        assert all(cap is None or all(abs(f) <= cap for f in live[n + 1 :]) for n, cap in enumerate(caps))

    def test_caps_start_at_n_safe(self):
        _, run = _pfq_factors(PFQParams((F(-5, 2), 1), (F(-7, 2),), F(1, 3)))
        caps = [run.cap(n) for n in range(1, 8)]  # n_safe = 5
        assert caps[:4] == [None] * 4 and None not in caps[4:]

    def test_exact_terms_keep_bound_zero(self):
        # a zero upper parameter leaves t_0 = 1 alone; z = 0 likewise
        for out in (pfq_eval(PFQParams((0, F(5, 4)), (F(7, 4),), F(1, 2))), pfq_eval(PFQParams((F(1, 3), F(2, 3)), (F(3, 2),), 0))):
            assert (out.value, out.error_bound) == (1, 0)


def _mp(ctx, x):
    return ctx.mpf(x.numerator) / x.denominator


class TestPFQAgainstMpmath:
    """mpmath.hyper at 64 extra bits as an outside opinion on the kernel."""

    @pytest.mark.parametrize(
        "upper,lower,z,precision",
        [
            ((F(1), F(1, 2)), (F(3, 2),), F(1, 4), 128),
            ((F(1), F(5, 4), F(5, 4)), (F(7, 4), F(9, 4)), F(1, 4), 512),
            ((F(1), F(7, 2), F(7, 2), F(7, 2)), (F(4), F(9, 2), F(9, 2)), F(81, 100), 128),
            ((F(1, 2), F(1, 2)), (F(1),), F(-1, 3), 192),
            # terminating: an upper parameter 0 or a negative integer
            ((F(0), F(5, 4)), (F(7, 4),), F(1, 2), 128),
            ((F(-3), F(1, 2)), (F(3, 2),), F(9, 10), 128),
            ((F(-7), F(2, 3), F(1, 5)), (F(3, 7), F(5, 2)), F(-2, 3), 256),
            # n_safe > 1: a negative non-integer parameter keeps early ratios non-monotone
            ((F(-5, 2), F(1)), (F(1, 3),), F(1, 2), 128),
            ((F(1), F(1)), (F(-3, 2),), F(1, 3), 128),
            ((F(-9, 4), F(3, 2)), (F(-7, 3),), F(3, 5), 256),
        ],
    )
    def test_contains_mpmath_hyper(self, upper, lower, z, precision):
        out = pfq_eval(PFQParams(upper, lower, z), precision)
        ref_ctx = mpmath.mp.clone()
        ref_ctx.prec = precision + 64
        ref = ref_ctx.hyper([_mp(ref_ctx, u) for u in upper], [_mp(ref_ctx, l) for l in lower], _mp(ref_ctx, z))
        assert abs(out.value - ref) <= out.error_bound
        assert out.error_bound <= abs(ref) * ref_ctx.ldexp(1, -precision)


class TestIncompleteBetaNumeric:
    def test_empty_integral(self):
        for alpha in (F(1, 2), F(1, 3)):
            out = incomplete_beta_numeric(F(0), alpha, F(1, 2))
            assert (out.value, out.error_bound) == (0, 0)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            incomplete_beta_numeric(F(1, 4), F(0), F(1, 2))
        with pytest.raises(DomainError):
            incomplete_beta_numeric(F(3, 2), F(1), F(1, 2))

    def test_anchor_values(self, ctx):
        b = incomplete_beta_numeric(F(1, 4), F(1, 2), F(1, 2), 160)
        assert abs(b.value - ctx.pi / 3) < ctx.mpf(10) ** -45
        b = incomplete_beta_numeric(F(1, 4), F(1), F(1, 2), 160)
        assert abs(b.value - (2 - ctx.sqrt(3))) < ctx.mpf(10) ** -45

    @pytest.mark.parametrize("z", [F(1, 4), F(1, 2)])
    @pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(3, 2), F(5, 2)])
    def test_against_quadrature_oracle(self, z, alpha, ctx):
        series_route = incomplete_beta_numeric(z, alpha, F(1, 2), 160)
        integral_route = beta_quadrature_oracle(ctx, z, alpha, F(1, 2))
        assert abs(series_route.value - integral_route) < ctx.mpf(10) ** -20


class TestIncompleteBetaExact:
    def test_anchors(self):
        assert incomplete_beta_exact(F(1, 2)) == PiExtValue(c_pi=F(1, 3))
        assert incomplete_beta_exact(F(1)) == PiExtValue(c_one=2, c_sqrt3=-1)

    def test_one_recursion_step(self):
        # B(1/4; 2, 1/2) = (2/3)(2 - sqrt3) - sqrt3/12 = 4/3 - (3/4) sqrt3
        assert incomplete_beta_exact(F(2)) == PiExtValue(c_one=F(4, 3), c_sqrt3=F(-3, 4))

    def test_lattice_validation(self):
        for bad in (F(0), F(-1, 2), F(3, 4)):
            with pytest.raises(DomainError):
                incomplete_beta_exact(bad)

    @pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 2), F(4), F(9, 2)])
    def test_matches_numeric(self, alpha, ctx):
        exact = piext_to_float(incomplete_beta_exact(alpha), 160)
        numeric = incomplete_beta_numeric(F(1, 4), alpha, F(1, 2), 160)
        assert abs(exact.value - numeric.value) < ctx.mpf(10) ** -20

    @pytest.mark.parametrize("a", [F(1), F(3, 2), F(2), F(5, 2), F(3)])
    def test_gauss_beta_identity(self, a, ctx):
        # 2F1(1/2, a-1/2; a+1/2; 1/4) = 4^(a-1) (2a-1) B(1/4; a-1/2, 1/2)
        lhs = pfq_eval(PFQParams((F(1, 2), a - F(1, 2)), (a + F(1, 2),), F(1, 4)), 160)
        beta = incomplete_beta_numeric(F(1, 4), a - F(1, 2), F(1, 2), 160)
        four_pow = ctx.power(ctx.mpf(4), ctx.mpf(a.numerator) / a.denominator - 1)
        rhs = four_pow * (2 * ctx.mpf(a.numerator) / a.denominator - 1) * beta.value
        assert abs(lhs.value - rhs) < ctx.mpf(10) ** -20


class TestCentralBinomial:
    def test_exact_integer(self, ctx):
        # the exact shift from a0 = 0 is 1/C(2a, a), so the value holds math.comb
        for a in range(1, 40):
            out = real_central_binomial(F(a), 128)
            assert abs(out.value - math.comb(2 * a, a)) <= out.error_bound, a

    def test_integer_matches_numeric(self, ctx):
        out = real_central_binomial(F(2), 128)
        assert abs(out.value - 6) < ctx.mpf(10) ** -35

    def test_half_integer_values(self, ctx):
        out = real_central_binomial(F(1, 2), 160)
        assert abs(out.value - ctx.mpf("1.27323954473516268615107010698011489627568")) < ctx.mpf(10) ** -40
        out = real_central_binomial(F(3, 2), 160)
        assert abs(out.value - ctx.mpf("3.39530545262710049640285361861363972340181")) < ctx.mpf(10) ** -40

    def test_poles_rejected(self):
        for a in (F(0), F(-1, 2), F(-1), F(-7, 2)):
            with pytest.raises(PoleError):
                real_central_binomial(a)

    def test_generic_rational(self, ctx):
        out = real_central_binomial(F(5, 4), 160)
        af = ctx.mpf(5) / 4
        expected = ctx.gamma(2 * af + 1) / ctx.gamma(af + 1) ** 2
        assert abs(out.value - expected) < ctx.mpf(10) ** -40


class TestExactGammaRatio:
    def test_integer_cases(self):
        assert exact_gamma_ratio(F(1)) == PiExtValue(c_one=F(1, 2))
        assert exact_gamma_ratio(F(3)) == PiExtValue(c_one=F(1, 20))

    def test_half_integer_cases(self):
        assert exact_gamma_ratio(F(1, 2)) == PiExtValue(c_pi=F(1, 4))
        assert exact_gamma_ratio(F(3, 2)) == PiExtValue(c_pi=F(3, 32))

    def test_half_integer_matches_double_factorial(self):
        # Gamma(m+3/2) = (2m+1)!! sqrt(pi) / 2^(m+1)
        for m in range(60):
            double_factorial = math.prod(range(1, 2 * m + 2, 2))
            expected = F(double_factorial**2, 4 ** (m + 1) * math.factorial(2 * m + 1))
            assert exact_gamma_ratio(m + F(1, 2)) == PiExtValue(c_pi=expected), m

    def test_against_float_gamma(self, ctx):
        for a in (F(5, 2), F(7, 2), F(4)):
            exact = piext_to_float(exact_gamma_ratio(a), 160)
            af = ctx.mpf(a.numerator) / a.denominator
            expected = ctx.gamma(af + 1) ** 2 / ctx.gamma(2 * af + 1)
            assert abs(exact.value - expected) < ctx.mpf(10) ** -40

    def test_off_lattice_rejected(self):
        for a in (F(5, 4), F(0), F(-1, 2)):
            with pytest.raises(DomainError):
                exact_gamma_ratio(a)


class TestSplitAtFloor:
    """a = floor(a) + a0: the integer part exact, only a0 in [0, 1) in the seed's sum."""

    @pytest.mark.parametrize("a", [F(0), F(1, 2), F(7, 3), F(-5, 4), F(-140, 3), F(1000, 3), F(100001, 7)])
    def test_shift_is_the_gamma_quotient(self, a, ctx):
        a0, num, den = gamma_ratio_shift(a)
        assert 0 <= a0 < 1 and a - a0 == math.floor(a)

        def g(x):
            x = ctx.mpf(x.numerator) / x.denominator
            return ctx.gamma(x + 1) ** 2 / ctx.gamma(2 * x + 1)

        assert abs(g(a0) * num / den / g(a) - 1) < ctx.mpf(10) ** -50

    def test_negative_half_integer_is_the_pole(self):
        for a in (F(-1, 2), F(-3, 2), F(-9, 2)):
            assert gamma_ratio_shift(a)[1] == 0
            seed = central_binomial_reciprocal_seed(context(64), a)
            assert seed.value == 0 and seed.error_bound == 0

    def test_lattice_seed_is_the_exact_ratio(self):
        work = context(128)
        ulp = work.ldexp(1, 1 - work.prec)
        for a in (F(1), F(3, 2), F(40), F(81, 2)):
            exact = piext_to_float(exact_gamma_ratio(a), 128)
            seed = central_binomial_reciprocal_seed(work, a)
            assert abs(seed.value / exact.value - 1) <= 2 * ulp
            assert abs(seed.value - exact.value) <= seed.error_bound + exact.error_bound

    @pytest.mark.parametrize("a", [F(1), F(3, 2), F(40), F(81, 2), F(5, 4), F(-140, 3), F(1, 1000), F(999, 1000)])
    def test_seed_contains_the_gamma_quotient(self, a):
        _, num, den = gamma_ratio_shift(a)
        for precision in (32, 128, 2048):
            seed = central_binomial_reciprocal_seed(context(precision), a)
            ref = mpmath.mp.clone()
            ref.prec = precision + 332
            x = ref.mpf(a.numerator) / a.denominator
            assert abs(seed.value - ref.gamma(x + 1) ** 2 / ref.gamma(2 * x + 1)) <= seed.error_bound
            # g(a0) within 1.1 units, and one unit more for each rounding of
            # the shift: the product by num and the quotient by den
            assert seed.units() <= (1.1 if num == den == 1 else 3.1)

    @staticmethod
    def _reflection_holds(x, precision):
        """Gamma's reflection formula as balls: g(x) g(-x) = pi x cot(pi x),
        exact in the PiExtValue basis at x = 1/4, 1/3 and 1/6."""
        work = context(precision)
        rhs = {F(1, 4): PiExtValue(c_pi=F(1, 4)), F(1, 3): PiExtValue(c_sqrt3pi=F(1, 9)), F(1, 6): PiExtValue(c_sqrt3pi=F(1, 6))}[x]
        lhs = central_binomial_reciprocal_seed(work, x) * central_binomial_reciprocal_seed(work, -x)
        exact = piext_to_float(rhs, precision)
        return abs(lhs.value - exact.value) <= lhs.error_bound + exact.error_bound

    @pytest.mark.parametrize("precision", [128, 512, 2048])
    @pytest.mark.parametrize("x", [F(1, 4), F(1, 3), F(1, 6)])
    def test_seed_reflection(self, x, precision):
        # covers a0 = x and 1 - x: 1/4, 3/4, 1/3, 2/3, 1/6 and 5/6
        assert self._reflection_holds(x, precision)

    @pytest.mark.parametrize("precision", [128, 512, 2048])
    def test_seed_reflection_sees_a_seed_fault(self, monkeypatch, precision):
        # a relative fault of 2^-60 in g(1/3), which every closed-vs-oracle
        # check of verify cancels, breaks the reflection formula
        seed = hyper._beta_seed

        def faulty(a0, precision_bits):
            g = seed(a0, precision_bits)
            return g * (1 + F(1, 2**60)) if a0 == F(1, 3) else g

        monkeypatch.setattr(hyper, "_beta_seed", faulty)
        assert not self._reflection_holds(F(1, 3), precision)
        assert self._reflection_holds(F(1, 4), precision)

    @pytest.mark.parametrize(
        "q,e",
        [(F(9, 5), F(2000, 3)), (F(1, 25), F(-280, 3)), (F(4), F(397, 3)), (F(1, 4), F(5, 2)), (F(-3, 2), F(-7)), (F(3001, 3004), F(-77, 50)), (F(0), F(7, 3))],
    )
    def test_rational_power_within_its_count(self, q, e, ctx):
        work = context(128)
        got = rational_power(work, q, e)
        expected = ctx.power(ctx.mpf(q.numerator) / q.denominator, ctx.mpf(e.numerator) / e.denominator)
        assert abs(got.value - expected) <= got.error_bound
        # rational_root's proven bound, 1 unit at every v, or 1 unit rounded
        # up at 30 bits for q^e rounded once at integer e; 0^e is exact
        assert got.error_bound <= work.ldexp(abs(got.value), -work.prec) * (1 + work.ldexp(1, -29))

    def test_rational_power_refuses_a_wide_exact_power(self, monkeypatch):
        # |u| (b - 1) bits against the limit: at 100 bits, (3/4)^(50/7) is
        # formed and (3/4)^(51/7) refused; at 2^27, 2^27 + 1 bits are refused
        # at once, the exponent named
        monkeypatch.setattr(hyper, "_POWER_BITS", 100)
        assert rational_power(context(64), F(3, 4), F(50, 7)).value > 0
        with pytest.raises(DomainError, match="the exponent 51/7 "):
            rational_power(context(64), F(3, 4), F(51, 7))
        monkeypatch.undo()
        with pytest.raises(DomainError, match=f"the exponent {2**27 + 1}/{2**27} "):
            rational_power(context(64), F(1, 2), F(2**27 + 1, 2**27))

    @pytest.mark.parametrize("e", [F(1, 2), F(2000, 3), F(-7, 3), F(5)])
    def test_rational_power_of_one_is_exact(self, e):
        got = rational_power(context(128), 1, e)
        assert got.value == 1 and got.error_bound == 0
