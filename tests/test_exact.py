"""Exact layer: polynomials, the {1, sqrt3, pi, sqrt3*pi} value type, text forms."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcbs.exact import (
    BiPoly,
    DomainError,
    MultiplicationOutOfBasis,
    PiExtValue,
    UniPoly,
)
from hlcbs.hyper import piext_to_float
from hlcbs.polyfam import p_a_poly

from conftest import brute_force_zeta

# 50-digit reference digits for the two constants, cross-checked below
PI_DIGITS = "3.1415926535897932384626433832795028841971693993751"
SQRT3_DIGITS = "1.7320508075688772935274463415058723669428052538104"

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
a_polys = st.lists(rationals, max_size=4).map(UniPoly)
bipolys = st.lists(a_polys, max_size=5).map(BiPoly)


class TestUniPoly:
    def test_derivative_of_q2(self):
        q2 = UniPoly((1, 10, 4))  # 4x^2 + 10x + 1
        assert q2.derivative() == UniPoly((10, 8))

    def test_add_zero_identity(self):
        p = UniPoly((F(1, 2), 3, 0, 7))
        assert p + UniPoly() == p
        assert UniPoly() + p == p

    def test_trailing_zeros_stripped(self):
        assert UniPoly((1, 2, 0, 0)).coeffs == (F(1), F(2))
        assert UniPoly((0, 0)).is_zero()
        assert UniPoly().degree == -1

    def test_pow_and_mul(self):
        x_plus_1 = UniPoly((1, 1))
        assert x_plus_1**3 == UniPoly((1, 3, 3, 1))
        assert x_plus_1 * UniPoly() == UniPoly()

    @pytest.mark.parametrize(
        "poly",
        [UniPoly((0, 0, F(-2, 3))), UniPoly((5,)), UniPoly(), BiPoly((0, 0, UniPoly((1, 2)))), BiPoly((UniPoly((0, 1)), 0, 2))],
    )
    def test_monomial_power_is_the_repeated_product(self, poly):
        # a monomial c x^k is raised as c^n x^(kn), one coefficient list; any
        # other polynomial by squaring
        for n in range(5):
            product = type(poly).const(1)
            for _ in range(n):
                product = product * poly
            assert poly**n == product and (poly**n).to_text() == product.to_text()

    def test_eval_exact(self):
        p = UniPoly((1, 36, 60, 8))
        assert p(F(1, 4)) == F(1) + 9 + F(60, 16) + F(8, 64)

    def test_eval_product_seeded_sweep(self):
        # eval(P*Q, r) == eval(P, r) * eval(Q, r), degrees up to 12
        rng = random.Random(1729)
        for _ in range(12):
            p = UniPoly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 13))])
            q = UniPoly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 13))])
            for _ in range(20):
                r = F(rng.randint(-30, 30), rng.randint(1, 12))
                assert (p * q)(r) == p(r) * q(r)

    @given(st.lists(rationals, max_size=8), st.lists(rationals, max_size=8), rationals)
    @settings(max_examples=60, deadline=None)
    def test_mul_eval_homomorphism(self, ps, qs, r):
        p, q = UniPoly(ps), UniPoly(qs)
        assert (p * q)(r) == p(r) * q(r)
        assert (p + q)(r) == p(r) + q(r)

    def test_coefficients_stay_as_given_and_floats_are_refused(self):
        p = UniPoly((1, F(1, 2), "3/4"))
        assert [type(c) for c in p.coeffs] == [int, F, F]
        assert [type(c) for c in (p * 4).coeffs] == [int, F, F]
        assert UniPoly((2, 3)) == UniPoly((F(2), F(3)))
        assert hash(UniPoly((2, 3))) == hash(UniPoly((F(2), F(3))))
        with pytest.raises(TypeError):
            UniPoly((0.5,))

    def test_evaluation_is_at_rationals_only(self, ctx):
        p = UniPoly((1, 2))
        assert p(3) == 7 and type(p(3)) is F
        for point in (0.5, ctx.mpf(1) / 3):
            with pytest.raises(TypeError):
                p(point)

    def test_text_round_trip(self):
        q3 = UniPoly((1, 36, 60, 8))
        assert q3.to_text() == "8*x^3 + 60*x^2 + 36*x + 1"
        assert UniPoly.parse(q3.to_text()) == q3
        tricky = UniPoly((F(-1, 3), 0, 1, -1))
        assert UniPoly.parse(tricky.to_text()) == tricky
        assert UniPoly.parse("x**2 - x") == UniPoly((0, -1, 1))
        assert UniPoly().to_text() == "0"

    @pytest.mark.parametrize("text", ["", "x^-1", "1.5", "y", "f(x)", "x/x", "1/0"])
    def test_parse_refuses_what_is_not_exact_text(self, text):
        with pytest.raises(ValueError):
            UniPoly.parse(text)

    def test_long_sum_round_trips(self):
        # a sum nests one syntax-tree level per term; the reader walks it in a loop
        p = UniPoly(tuple((-1) ** d * (d + 1) for d in range(2500)))
        assert UniPoly.parse(p.to_text()) == p

    def test_text_past_the_parser_limit_is_refused(self):
        with pytest.raises(ValueError):
            UniPoly.parse(UniPoly(tuple(range(1, 5001))).to_text())


class TestBiPoly:
    def test_substitute_matches_coefficientwise(self):
        b = p_a_poly(2)
        assert b.substitute_a(F(1, 2)) == UniPoly((3, 11, 1))  # from the k=2 row at a=1/2

    def test_substitute_then_eval_commutes(self):
        rng = random.Random(99)
        for k in range(9):
            b = p_a_poly(k)
            for _ in range(10):
                a = F(rng.randint(-12, 12), rng.randint(1, 8))
                x = F(rng.randint(-12, 12), rng.randint(1, 8))
                direct = b(a, x)
                coefficientwise = sum(c(a) * x**d for d, c in enumerate(b.coeffs))
                assert direct == coefficientwise

    def test_round_trip_to_unipoly(self):
        p = UniPoly((1, 2, 3))
        assert BiPoly.from_x_poly(p).to_unipoly() == p
        with pytest.raises(DomainError):
            p_a_poly(1).to_unipoly()

    def test_arithmetic(self):
        b = p_a_poly(1)
        assert b - b == BiPoly()
        assert (b * BiPoly.const(2)).substitute_a(1) == 2 * b.substitute_a(1)

    def test_arithmetic_is_bound_in_the_class_dict(self):
        # perfbench's tracer wraps BiPoly.__add__ and __mul__ by class dict
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            assert vars(BiPoly)[name] is vars(UniPoly)[name]

    @given(bipolys, bipolys, a_polys, rationals)
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    def test_arithmetic_commutes_with_substitution(self, p, q, c, a):
        def at(b):
            return b.substitute_a(a)

        assert at(p + q) == at(p) + at(q)
        assert at(p - q) == at(p) - at(q)
        assert at(p * q) == at(p) * at(q)
        assert at(p.derivative()) == at(p).derivative()
        # a UniPoly operand is a coefficient, a polynomial in a, on either side
        assert type(c * p) is type(c - p) is BiPoly
        assert at(p * c) == at(c * p) == at(p) * c(a)
        assert at(p + c) == at(p) + c(a)
        assert at(c - p) == c(a) - at(p)


class TestPiExtValue:
    def test_scale_basis_relations(self):
        pi = PiExtValue(c_pi=1)
        assert pi.scale(0, 1) == PiExtValue(c_sqrt3pi=1)  # sqrt3 * pi
        sqrt3pi = PiExtValue(c_sqrt3pi=1)
        assert sqrt3pi.scale(F(1, 3)) == PiExtValue(c_sqrt3pi=F(1, 3))  # pi/sqrt3
        assert PiExtValue(c_sqrt3=1).scale(0, 1) == PiExtValue(c_one=3)  # sqrt3*sqrt3 = 3

    def test_addition(self):
        third = PiExtValue(c_pi=F(1, 3))
        two_thirds = PiExtValue(c_pi=F(2, 3))
        assert third + two_thirds == PiExtValue(c_pi=1)

    def test_out_of_basis_products(self):
        pi = PiExtValue(c_pi=1)
        with pytest.raises(MultiplicationOutOfBasis):
            pi * pi
        with pytest.raises(MultiplicationOutOfBasis):
            PiExtValue(c_sqrt3pi=1) * pi
        assert PiExtValue(c_one=2, c_sqrt3=1) * pi == PiExtValue(c_pi=2, c_sqrt3pi=1)

    @given(*(st.tuples(rationals, rationals, rationals, rationals) for _ in range(2)))
    @settings(max_examples=80, deadline=None)
    def test_add_sub_round_trip(self, v_parts, w_parts):
        v = PiExtValue(*v_parts)
        w = PiExtValue(*w_parts)
        assert (v + w) - w == v
        assert v.scale(F(3, 7)).scale(F(7, 3)) == v

    def test_text_golden(self):
        v = PiExtValue(F(17, 6), 0, 0, F(74, 243))
        assert v.to_text() == "17/6 + 74/243*sqrt3*pi"
        assert PiExtValue().to_text() == "0"
        assert PiExtValue(c_pi=F(-1, 2), c_sqrt3pi=F(1, 3)).to_text() == "-1/2*pi + 1/3*sqrt3*pi"

    @given(st.tuples(rationals, rationals, rationals, rationals))
    @settings(max_examples=80, deadline=None)
    def test_text_round_trip(self, parts):
        v = PiExtValue(*parts)
        assert PiExtValue.parse(v.to_text()) == v

    @pytest.mark.parametrize("text", ["", "pi^-1", "1.5", "e", "sqrt(3)", "pi*pi", "1/pi"])
    def test_parse_refuses_what_is_not_exact_text(self, text):
        with pytest.raises(ValueError):
            PiExtValue.parse(text)


class TestPiExtToFloat:
    def test_reference_constants_cross_check(self, ctx):
        # the hardcoded digit strings must agree with mpmath's computation
        assert abs(ctx.mpf(PI_DIGITS) - ctx.pi) < ctx.mpf(10) ** -48
        assert abs(ctx.mpf(SQRT3_DIGITS) - ctx.sqrt(3)) < ctx.mpf(10) ** -48

    def test_zero_is_exact(self):
        out = piext_to_float(PiExtValue(), 64)
        assert out.value == 0
        assert out.error_bound == 0

    def test_pi_over_3sqrt3(self, ctx):
        # pi/(3 sqrt3) represented as (1/9) sqrt3 pi
        out = piext_to_float(PiExtValue(c_sqrt3pi=F(1, 9)), 128)
        expected = ctx.mpf(PI_DIGITS) / (3 * ctx.mpf(SQRT3_DIGITS))
        assert abs(out.value - expected) < ctx.mpf(10) ** -38
        assert abs(out.value - expected) <= out.error_bound + ctx.mpf(10) ** -48

    def test_example_value_against_series_oracle(self, ctx):
        # 17/6 + 74 pi/(81 sqrt3), checked against 200-term direct summation
        oracle = brute_force_zeta(ctx, -3, F(2), terms=200)
        out = piext_to_float(PiExtValue(F(17, 6), 0, 0, F(74, 243)), 160)
        assert abs(out.value - oracle) < ctx.mpf(10) ** -45

    def test_relative_error_contract(self, ctx):
        v = PiExtValue(F(-935, 2048), 0, F(10, 27), F(1, 7))
        for bits in (32, 64, 128, 192):
            out = piext_to_float(v, bits)
            reference = piext_to_float(v, bits + 96)
            assert abs(out.value - reference.value) <= ctx.mpf(2) ** (-bits + 2) * abs(reference.value)
            # each basis element alone, built without the others, holds its exact value
            for i, basis in enumerate((1, ctx.sqrt(3), ctx.pi, ctx.sqrt(3) * ctx.pi)):
                single = piext_to_float(PiExtValue(*(F(-935, 2048) if j == i else 0 for j in range(4))), bits)
                assert abs(single.value - basis * -935 / 2048) <= single.error_bound
        # pi, the kernel's 2F1 sum, holds mpmath's pi at 300 bits more, within 1.1 units
        for bits in (32, 128, 2048, 8192):
            pi = piext_to_float(PiExtValue(c_pi=1), bits)
            reference = mpmath.mp.clone()
            reference.prec = bits + 332
            assert abs(pi.value - reference.pi) <= pi.error_bound
            assert pi.units() <= 1.1

    def test_precision_validation(self):
        with pytest.raises(DomainError):
            piext_to_float(PiExtValue(c_one=1), 16)
