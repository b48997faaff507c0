"""Brute-force series oracle: domain checks, known values, honest bounds,
and the two verify checks on the series itself."""

import math
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcbs import floats, series
from hlcbs.exact import DomainError
from hlcbs.floats import BigFloat, Ratios, Roots, context
from hlcbs.hyper import gamma_ratio_shift
from hlcbs.report import Tally
from hlcbs.series import (
    BudgetExceeded,
    SeriesQuery,
    _phi_factors,
    phi_numeric,
    phi_terms,
    zeta_hcb_numeric,
)
from hlcbs.verify import _DIFF_POINTS, VerifyConfig, _euler_operator_point, run_all, run_check

from conftest import is_pair

# frozen 40-digit values, computed from the arcsine closed form and from
# 200+ term direct summation (both independent of phi_numeric's code path)
ZETA_GOLDEN = {
    (1, F(1)): "0.604599788078072616864692752547385244094689",
    (-3, F(2)): "4.49038460436212494992545421068542622455581",
    (1, F(3, 2)): "0.243003037439321231362756566002404290185482",
    (-2, F(7, 2)): "0.581060590253834173095897278982982455873399",
    (0, F(5, 4)): "0.56143602803876795774452611249646112297446",
}
PHI_1_1_03 = "0.191642813438939351784190339294186017698027"


class TestSeriesQuery:
    def test_domain_validation(self):
        with pytest.raises(DomainError):
            SeriesQuery(1, F(-1, 2), F(1, 4))
        with pytest.raises(DomainError):
            SeriesQuery(1, F(0), F(1, 4))
        with pytest.raises(DomainError):
            SeriesQuery(1, F(-3), F(1, 4))
        with pytest.raises(DomainError):
            SeriesQuery(1, F(1), F(1))
        with pytest.raises(DomainError):
            SeriesQuery(1, F(1), F(-1, 10))
        with pytest.raises(DomainError):
            SeriesQuery(F(1, 2), F(-1, 4), F(1, 4))  # negative a needs integer s
        with pytest.raises(DomainError):
            SeriesQuery(1, F(1), F(1, 4), precision_bits=8)

    def test_float_parameters_rejected(self):
        # s, a and z must be exact, as everywhere else in the kit
        from hlcbs.closedform import phi_pos_hyper
        from hlcbs.hyper import incomplete_beta_numeric

        with pytest.raises(TypeError):
            SeriesQuery(1, F(1), 0.25)
        with pytest.raises(TypeError):
            SeriesQuery(0.1, F(5, 4), F(1, 5))
        with pytest.raises(TypeError):
            phi_pos_hyper(1, F(1), 0.25)
        with pytest.raises(TypeError):
            incomplete_beta_numeric(0.25, F(1, 2), F(1, 2))

    def test_negative_a_with_integer_s_allowed(self):
        q = SeriesQuery(0, F(-1, 4), F(1, 4))
        assert phi_numeric(q).value != 0


class TestPhiNumeric:
    def test_arcsine_closed_form(self, ctx):
        q = SeriesQuery(1, F(1), F(3, 10), 160)
        out = phi_numeric(q)
        assert abs(out.value - ctx.mpf(PHI_1_1_03)) < ctx.mpf(10) ** -40
        zf = ctx.mpf(3) / 10
        closed = 2 * zf * ctx.asin(zf) / ctx.sqrt(1 - zf * zf)
        assert abs(out.value - closed) <= out.error_bound + ctx.mpf(10) ** -45

    @pytest.mark.parametrize("z", [F(1, 10), F(1, 4), F(2, 5), F(3, 5), F(4, 5)])
    def test_arcsine_closed_form_grid(self, z, ctx):
        out = phi_numeric(SeriesQuery(1, F(1), z, 128))
        zf = ctx.mpf(z.numerator) / z.denominator
        closed = 2 * zf * ctx.asin(zf) / ctx.sqrt(1 - zf * zf)
        assert abs(out.value - closed) < ctx.mpf(10) ** -36

    def test_z_zero(self):
        # 0^e is exact at a non-integer e, as at an integer one
        for out in (phi_numeric(SeriesQuery(1, F(1), F(0))), phi_numeric(SeriesQuery(F(7, 3), F(1, 3), F(0)))):
            assert (out.value, out.error_bound) == (0, 0)
        # at a < 0 the first term (2z)^(2a) diverges as z -> 0
        with pytest.raises(DomainError):
            phi_numeric(SeriesQuery(1, F(-1, 3), F(0)))

    def test_leading_term_dominates_near_zero(self, ctx):
        # at tiny z the n = 0 term carries the whole sum
        a, s, z = F(3, 2), 1, F(1, 1000)
        out = phi_numeric(SeriesQuery(s, a, z, 128))
        first, second = phi_terms(SeriesQuery(s, a, z, 128), 2)
        assert abs(out.value - first) <= 2 * abs(second)

    def test_zeta_golden_values(self, ctx):
        for (s, a), digits in ZETA_GOLDEN.items():
            out = zeta_hcb_numeric(s, a, 160)
            assert abs(out.value - ctx.mpf(digits)) < ctx.mpf(10) ** -40, (s, a)

    def test_error_bounds_honest(self):
        for (s, a) in [(1, F(1)), (-3, F(2)), (0, F(5, 4)), (2, F(1, 2))]:
            lo = zeta_hcb_numeric(s, a, 96)
            hi = zeta_hcb_numeric(s, a, 224)
            assert abs(lo.value - hi.value) <= lo.error_bound

    @pytest.mark.parametrize("s", [F(2), F(3, 2), F(-3)])
    @pytest.mark.parametrize("a", [F(1, 2), F(5, 4)])
    def test_terms_match_gamma_terms(self, s, a):
        # at z = 1/2 the n-th term is g(nu) nu^-s, nu = a + n, formed here as
        # the conftest's brute_force_zeta forms it, from mpmath's gamma at 256 bits
        ref = mpmath.mp.clone()
        ref.prec = 256
        terms = phi_terms(SeriesQuery(s, a, F(1, 2), 128), 20)
        assert len(terms) == 20
        for n, term in enumerate(terms):
            nu = ref.mpf((a + n).numerator) / (a + n).denominator
            want = ref.gamma(nu + 1) ** 2 / ref.gamma(2 * nu + 1) / nu ** (ref.mpf(s.numerator) / s.denominator)
            assert abs(ref.mpf(term) - want) <= ref.ldexp(abs(want), -128), n

    def test_terms_end_at_the_first_zero_term(self):
        assert phi_terms(SeriesQuery(2, F(1, 2), F(0), 128), 20) == []

    def test_monotone_partial_sums(self):
        # all terms positive for s <= 1, a > 0, 0 < z < 1
        for (s, a, z) in [(1, F(1), F(1, 2)), (0, F(3, 2), F(1, 4)), (-2, F(5, 4), F(7, 10))]:
            terms = phi_terms(SeriesQuery(s, a, z), 40)
            assert all(t > 0 for t in terms)

    def test_shift_in_a(self, ctx):
        # zeta(s, a+1) = zeta(s, a) - 1/(C(2a,a) a^s)
        for a in (F(1), F(3, 2), F(2)):
            for s in (-2, -1, 0, 1):
                big = zeta_hcb_numeric(s, a, 128)
                small = zeta_hcb_numeric(s, a + 1, 128)
                af = ctx.mpf(a.numerator) / a.denominator
                step = ctx.gamma(af + 1) ** 2 / ctx.gamma(2 * af + 1) / af**s
                assert abs(small.value - (big.value - step)) < ctx.mpf(10) ** -30

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            phi_numeric(SeriesQuery(1, F(1), F(1, 2), 128, max_terms=3))


def _caps_hold(factors, caps):
    """Each cap bounds every later factor of the window; a factor or cap
    given as an int pair is compared as its Fraction."""
    factors = [F(*f) if type(f) is tuple else f for f in factors]
    caps = [F(*cap) if type(cap) is tuple else cap for cap in caps]
    return all(cap is None or all(abs(f) <= cap for f in factors[n + 1 :]) for n, cap in enumerate(caps))


class TestOracleFactors:
    """The oracle hands the kernel the definition's term ratios, never a closed form."""

    @pytest.mark.parametrize("s", [-2, 0, 1, 3])
    @pytest.mark.parametrize("z", [F(1, 3), F(1, 2)])
    @pytest.mark.parametrize("a", [1, 2])
    def test_factors_are_the_exact_term_ratios(self, s, a, z, ctx):
        def term(n):  # T_n from the definition; nu = n + a is an integer here
            nu = n + a
            return (2 * z) ** (2 * nu) / math.comb(2 * nu, nu) / F(nu) ** s

        head, run = _phi_factors(context(128), F(s), F(a), z)
        assert isinstance(run, Ratios)
        rest = list(zip(run.leaves(1, 31), map(run.cap, range(1, 31))))
        lead = ctx.mpf(term(0).numerator) / term(0).denominator
        assert isinstance(head, BigFloat) and abs(head.value - lead) <= head.error_bound
        for n, (factor, cap) in enumerate(rest):  # factor n + 1 is T_{n+1}/T_n
            assert is_pair(factor) and F(*factor) == term(n + 1) / term(n)
            assert cap is None or is_pair(cap)
        assert _caps_hold([f for f, _ in rest], [cap for _, cap in rest])

    @pytest.mark.parametrize("s", [F(-5, 2), F(-1, 3), F(3, 2), F(7, 3)])
    def test_non_integer_s_factors_are_balls_with_rational_caps(self, s, ctx):
        # after the head one Roots run, whose leaves (p, q, num, den) make
        # balls rational_root(num, den, v) p/q, as phi_terms forms them,
        # that hold the ratio: the exact part
        # p/q = 2z^2 (nu+1)/(2nu+1) (nu/(nu+1))^floor(s) apart from the
        # root of num/den = (nu/(nu+1))^u, whose integers do not grow with v
        a, z = F(5, 4), F(1, 2)
        u, v = (s - math.floor(s)).numerator, s.denominator  # a = 5/4: nu = (5 + 4n)/4 in lowest terms

        def mp(q):
            return ctx.mpf(q.numerator) / q.denominator

        def ratio(nu):  # T_{n+1}/T_n at nu = a + n, in 256-bit mpmath
            x = mp(nu)
            return 2 * mp(z) ** 2 * (x + 1) / (2 * x + 1) * (x / (x + 1)) ** mp(s)

        _, run = _phi_factors(context(128), s, a, z)
        assert isinstance(run, Roots) and run.v == v
        rest = list(zip(run.leaves(1, 31), map(run.cap, range(1, 31))))
        for n, ((p, q, num, den), cap) in enumerate(rest):
            nu = a + n
            assert F(p, q) == 2 * z * z * (nu + 1) / (2 * nu + 1) * (nu / (nu + 1)) ** math.floor(s)
            assert (num, den) == (nu.numerator**u, (nu + 1).numerator ** u)
            ball = floats.rational_root(context(128), num, den, v) * F(p, q)
            assert abs(ball.value - ratio(nu)) <= ball.error_bound
            assert cap is None or is_pair(cap)
        # the caps, Bernoulli's at s < 0, bound the exact ratios
        assert _caps_hold([ratio(a + n) for n in range(30)], [cap and mp(F(*cap)) for _, cap in rest])

    @pytest.mark.parametrize("s", [F(-5, 2), F(1, 2), F(5, 2)])
    @pytest.mark.parametrize("precision", [32, 2048])
    def test_half_integer_s_ratios_are_isqrt_brackets(self, s, precision):
        # each ratio, a leaf of the Roots run, is r sqrt(nu/(nu+1)) with
        # r = 2z^2 (nu+1)/(2nu+1) (nu/(nu+1))^floor(s) in the definition's
        # integers, and the root, proved at any precision P, is bit for bit
        # the isqrt bracket (y + 1/2) 2^-k with radius 2^-(k+1),
        # y = isqrt(floor(num 4^k / den))
        a, z, whole = F(3, 2), F(9, 10), math.floor(s)
        ctx = context(precision)
        _, run = _phi_factors(ctx, s, a, z)
        assert run.v == 2
        for n, leaf in enumerate(run.leaves(1, 31)):
            p, d, two_z_sq = a.numerator + n * a.denominator, a.denominator, 2 * z * z
            rise, fall = (p, p + d) if whole >= 0 else (p + d, p)
            r_num = two_z_sq.numerator * (p + d) * rise ** abs(whole)
            r_den = two_z_sq.denominator * (2 * p + d) * fall ** abs(whole)
            assert leaf == (r_num, r_den, p, p + d)
            for work in (context(32), ctx):
                k = (2 * work.prec + (p + d).bit_length() - p.bit_length()) // 2
                y = math.isqrt((p << 2 * k) // (p + d) if k >= 0 else p // ((p + d) << -2 * k))
                root = floats.rational_root(work, p, p + d, 2)
                value, radius = (F(x.man_exp[0]) * F(2) ** x.man_exp[1] for x in (root.value, root.error_bound))
                assert (value, radius) == ((2 * y + 1) * F(2) ** (-k - 1), F(2) ** (-k - 1))

    def test_caps_are_tight_at_integer_s(self):
        # at s < 0 the cap is the next ratio itself, not a rounded-up power
        _, run = _phi_factors(context(128), F(-3), F(2), F(1, 2))
        factors = list(zip(run.leaves(1, 11), map(run.cap, range(1, 11))))
        assert all(F(*cap) == F(*factors[n + 1][0]) for n, (_, cap) in enumerate(factors[:-1]) if cap is not None)


def reference_phi(s, a, z, precision):
    """Phi(s, a, z) in mpmath at precision + 200 bits, from the definition
    alone: the first term by mpmath's gamma, each later one by the term ratio
    with (nu/(nu+1))^(u/v) as mpmath's root, up to the first term below
    2^-(precision + 220) of the sum.  For the points drawn here (z <= 9/10,
    |s| <= 4) the ratios stay below 0.9 from there on, so what is left out is
    far below the 2^-(precision + 180) of the sum that the tests allow."""
    ref = mpmath.mp.clone()
    ref.prec = precision + 200

    def mp(q):
        return ref.mpf(q.numerator) / q.denominator

    nu, whole = mp(a), math.floor(s)
    u, v = (s - whole).numerator, s.denominator
    term = (2 * mp(z)) ** (2 * nu) * ref.gamma(nu + 1) ** 2 / ref.gamma(2 * nu + 1) / ref.root(nu ** (whole * v + u), v)
    total, n = term, 0
    while term and abs(term) > ref.ldexp(abs(total), -precision - 220):
        x = mp(a + n)
        term *= 2 * mp(z) ** 2 * (x + 1) / (2 * x + 1) * (x / (x + 1)) ** whole * ref.root((x / (x + 1)) ** u, v)
        total += term
        n += 1
    return total


ROOT_SUMS = settings(max_examples=30, derandomize=True, deadline=None, database=None)


def full_width(width: int, least: list):
    """floats._root_step with K held at full width: the same recurrence, its
    root taken as if the term still had ``width`` bits, appending to
    ``least`` the bits of |t| + err that the least K is read from."""

    def step(t, err, p, q, num, den, v):
        least.append((abs(t) + err).bit_length())
        k = max(least[-1], width) + p.bit_length() - q.bit_length() + 1
        return (t * p * floats._root_floor(num, den, v, k) >> k) // q, -(-err * abs(p) // q) + 2

    return step


class TestRootSums:
    """At non-integer s the terms are summed in fixed point, each root taken
    at the least K its term allows, falling with it; the radius carries
    every unit those steps lose."""

    @ROOT_SUMS
    @given(
        s=st.tuples(st.integers(-8, 8), st.sampled_from([2, 3])).filter(lambda kv: kv[0] % kv[1]).map(lambda kv: F(*kv)),
        a=st.fractions(F(1, 10), 4, max_denominator=12).filter(bool),
        z=st.fractions(0, F(9, 10), max_denominator=20),
        precision=st.sampled_from([32, 64, 128, 512, 2048]),
        floor=st.booleans(),
    )
    # the CI's long sum, with every root at the least K and with K held at full width
    @example(s=F(5, 2), a=F(3, 2), z=F(9, 10), precision=2048, floor=False)
    @example(s=F(5, 2), a=F(3, 2), z=F(9, 10), precision=2048, floor=True)
    @example(s=F(-1, 3), a=F(1, 3), z=F(1, 2), precision=128, floor=True)
    def test_ball_holds_the_reference(self, s, a, z, precision, floor):
        # with floor, every root is taken at the least K, as the kernel takes
        # it; without, at full width: the radius must hold either way
        step = floats._root_step if floor else full_width(context(precision).prec + 8, [])
        with mock.patch.object(floats, "_root_step", step):
            out = phi_numeric(SeriesQuery(s, a, z, precision))
        want = reference_phi(s, a, z, precision)
        assert abs(out.value - want) <= out.error_bound + mpmath.ldexp(abs(want), -precision - 180)

    @pytest.mark.parametrize(
        "s,a,z,precision",
        [(F(5, 2), F(3, 2), F(9, 10), 512), (F(7, 3), F(1, 3), F(9, 10), 512), (F(-1, 3), F(5, 4), F(1, 2), 2048), (F(1, 2), F(1), F(1, 5), 128), (F(3, 2), F(5, 4), F(1, 2), 2048)],
    )
    def test_radius_within_twice_the_full_precision_sum(self, s, a, z, precision):
        # the same sum with K held at full width
        width, least = context(precision).prec + 8, []
        query = SeriesQuery(s, a, z, precision)
        falling = phi_numeric(query)
        with mock.patch.object(floats, "_root_step", full_width(width, least)):
            whole = phi_numeric(query)
        assert min(least) < width  # the least K did fall
        assert whole.error_bound / 2 <= falling.error_bound <= 2 * whole.error_bound
        assert abs(falling.value - whole.value) <= falling.error_bound + whole.error_bound


def assert_fault_edge(monkeypatch, precision, point):
    """The lowered side Phi(s-1, a, z) scaled by 1 + 2^-e fails the finite
    difference at e = floor(2P/3) - 8 and passes it at floor(2P/3) + 8."""
    s, a, z = point
    phi = series.phi_numeric

    def passes(e):
        def faulty(query):
            value = phi(query)
            return value * (1 + F(1, 2**e)) if query.s == s - 1 else value

        tally = Tally()
        with monkeypatch.context() as patch:
            patch.setattr(series, "phi_numeric", faulty)
            _euler_operator_point(tally, s, a, z, precision)
        return tally.passed

    edge = 2 * precision // 3
    assert not passes(edge - 8)
    assert passes(edge + 8)


class TestBuiltInChecks:
    """half_shift and diff_relation, which live in the verify registry."""

    @pytest.mark.parametrize("s,m,z", [(1, 1, F(2, 5)), (0, 2, F(1, 4)), (2, 3, F(1, 2))])
    def test_half_integer_shift(self, s, m, z):
        report = run_check("half_shift")
        assert report.passed
        # the m exact zero terms at each of m = 1, 2, 3
        assert report.comparisons == 6
        assert report.max_abs_deviation == report.tolerance == "exact"
        assert "m in [1, 2, 3]" in report.parameter_grid
        # at this point exactly the first m shifts vanish: term m is the a = 1/2 term 0
        a = F(1, 2) - m
        assert [gamma_ratio_shift(a + n)[1] == 0 for n in range(m + 1)] == [True] * m + [False]
        assert gamma_ratio_shift(a + m) == gamma_ratio_shift(F(1, 2))
        # which is why the oracle refuses this a at any (s, z)
        with pytest.raises(DomainError):
            phi_numeric(SeriesQuery(s=s, a=a, z=z))

    def test_euler_operator_lattice(self):
        tally = Tally()
        _euler_operator_point(tally, 1, F(1), F(1, 4), 128)
        assert tally.passed
        # one finite-difference comparison plus 20 exact term-ratio ones
        assert tally.comparisons == 21
        assert tally.max_dev < mpmath.mpf(10) ** -20

    def test_euler_operator_more_points(self):
        for (s, a, z) in [(0, F(3, 2), F(3, 10)), (2, F(2), F(1, 2))]:
            tally = Tally()
            _euler_operator_point(tally, s, a, z, 128)
            assert tally.passed, (s, a, z)

    def test_euler_operator_off_lattice_checks_exact_part(self):
        # the oracle's term ratios are Fractions at any rational a
        tally = Tally()
        _euler_operator_point(tally, 1, F(5, 4), F(1, 4), 128)
        assert tally.passed
        assert tally.comparisons == 21

    def test_euler_operator_points_meet_the_bound_premise(self):
        # the truncation bound holds for a >= 1 alone: every nu = a + n >= 1
        assert all(a >= 1 for _, a, _ in _DIFF_POINTS)

    @pytest.mark.parametrize("precision", [128, 512])
    @pytest.mark.parametrize("point", _DIFF_POINTS, ids=lambda p: f"s={p[0]},a={p[1]},z={p[2]}")
    def test_euler_operator_sees_a_fault_near_two_thirds_precision(self, monkeypatch, precision, point):
        assert_fault_edge(monkeypatch, precision, point)

    @pytest.mark.parametrize("point", _DIFF_POINTS, ids=lambda p: f"s={p[0]},a={p[1]},z={p[2]}")
    def test_euler_operator_sees_one_wrong_ratio(self, monkeypatch, point):
        # leaf 7 of the s-stream at the point's own z takes rise^(power + 1)
        # for rise^power: one exact comparison fails, and the sums, which read
        # the s-stream only at z +- h, still agree
        s, a, z = point
        factors = series._phi_factors

        def faulty(ctx, s_at, a_at, z_at):
            head, run = factors(ctx, s_at, a_at, z_at)
            if (s_at, z_at) != (s, z):
                return head, run

            def leaves(n0, n1):
                out = run.leaves(n0, n1)
                if n0 <= 7 < n1:  # factor 7 is the ratio at nu = a + 6 = p/d
                    p, d = a.numerator + 6 * a.denominator, a.denominator
                    num, den = out[7 - n0]
                    out[7 - n0] = num * (p if s >= 0 else p + d), den
                return out

            return head, run._replace(leaves=leaves)

        monkeypatch.setattr(series, "_phi_factors", faulty)
        tally = Tally()
        _euler_operator_point(tally, s, a, z, 128)
        assert (tally.exact_failures, tally.numeric_failures, tally.comparisons) == (1, 0, 21)

    def test_euler_operator_fault_edge_after_a_full_pass(self, monkeypatch):
        # diff_relation sums its own points, past the verify oracle's memo,
        # so a pass that fills the memo leaves the fault as visible
        run_all(VerifyConfig(precision_bits=128))
        for point in _DIFF_POINTS:
            assert_fault_edge(monkeypatch, 128, point)

    def test_diff_relation_check(self):
        # 4 finite differences plus 20 exact term-ratio comparisons at each of the 4 points
        report = run_check("diff_relation")
        assert report.passed
        assert report.comparisons == 84

    def test_diff_relation_tightens_with_precision(self):
        low = run_check("diff_relation", VerifyConfig(precision_bits=128))
        high = run_check("diff_relation", VerifyConfig(precision_bits=512))
        assert high.passed
        assert high.tolerance < low.tolerance
        assert low.tolerance < mpmath.mpf(10) ** -20
        assert high.tolerance < mpmath.mpf(10) ** -90
