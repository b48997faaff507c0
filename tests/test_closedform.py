"""Closed forms against the brute-force oracle; exact zeta assembly."""

import json
import math
import os
import random
from fractions import Fraction as F

import pytest

from hlcbs import closedform
from hlcbs.exact import DomainError, PiExtValue
from hlcbs.closedform import (
    phi_neg_closed,
    phi_neg_hyper,
    phi_one_closed,
    phi_pos_hyper,
    euler_transform_defect,
    zeta_exact,
    zeta_structured,
)
from hlcbs.hyper import PoleError, exact_gamma_ratio, incomplete_beta_exact, lattice, piext_to_float, pochhammer
from hlcbs.series import SeriesQuery, phi_numeric, zeta_hcb_numeric

EXAMPLE_VALUES = [
    (0, F(1), PiExtValue(c_sqrt3pi=F(1, 9))),
    (4, F(2), PiExtValue(c_one=F(17, 6), c_sqrt3pi=F(74, 243))),
    (0, F(3, 2), PiExtValue(c_pi=F(-1, 2), c_sqrt3pi=F(1, 3))),
    (3, F(7, 2), PiExtValue(c_pi=F(-935, 2048), c_sqrt3pi=F(10, 27))),
]


def tol(ctx, exp):
    return ctx.mpf(10) ** exp


class TestHypergeometricForms:
    @pytest.mark.parametrize("a", [F(1), F(3, 2), F(2)])
    @pytest.mark.parametrize("z", [F(1, 5), F(1, 2)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ladder_consistency(self, k, a, z, ctx):
        pos = phi_pos_hyper(k, a, z)
        neg = phi_neg_hyper(k, a, z)
        one = phi_one_closed(a, z)
        closed = phi_neg_closed(k, a, z)
        ser_pos = phi_numeric(SeriesQuery(k, a, z))
        ser_neg = phi_numeric(SeriesQuery(1 - k, a, z))
        ser_one = phi_numeric(SeriesQuery(1, a, z))
        assert abs(pos.value - ser_pos.value) < tol(ctx, -20)
        assert abs(neg.value - ser_neg.value) < tol(ctx, -20)
        assert abs(one.value - ser_one.value) < tol(ctx, -20)
        assert abs(closed.value - ser_neg.value) < tol(ctx, -20)

    def test_pos_hyper_requires_positive_k(self):
        with pytest.raises(DomainError):
            phi_pos_hyper(0, F(1), F(1, 4))
        with pytest.raises(DomainError):
            phi_neg_hyper(0, F(1), F(1, 4))

    def test_z_zero(self):
        assert phi_pos_hyper(2, F(1), F(0)).value == 0
        assert phi_neg_hyper(2, F(2), F(0)).value == 0
        assert phi_one_closed(F(1), F(0)).value == 0
        assert phi_neg_closed(3, F(5, 2), F(0)).value == 0
        # at a < 0 the first term (2z)^(2a) diverges as z -> 0
        for at_zero in (
            lambda a: phi_pos_hyper(2, a, F(0)),
            lambda a: phi_neg_hyper(2, a, F(0)),
            lambda a: phi_one_closed(a, F(0)),
            lambda a: phi_neg_closed(3, a, F(0)),
        ):
            with pytest.raises(DomainError):
                at_zero(F(-1, 3))

    def test_phi_one_arcsine_case(self, ctx):
        out = phi_one_closed(F(1), F(3, 10), 160)
        assert abs(out.value - ctx.mpf("0.191642813438939351784190339294186017698027")) < tol(ctx, -40)

    def test_phi_one_a_half_degenerates(self, ctx):
        # the Gauss factor is 1, leaving pi*z/sqrt(1-z^2) at a = 1/2
        out = phi_one_closed(F(1, 2), F(2, 5), 160)
        zf = ctx.mpf(2) / 5
        assert abs(out.value - ctx.pi * zf / ctx.sqrt(1 - zf * zf)) < tol(ctx, -40)

    def test_neg_closed_reduces_at_k_zero(self, ctx):
        for (a, z) in [(F(1), F(1, 4)), (F(5, 4), F(1, 2))]:
            assert abs(phi_neg_closed(0, a, z).value - phi_one_closed(a, z).value) < tol(ctx, -35)

    def test_neg_closed_example_value(self, ctx):
        out = phi_neg_closed(4, F(2), F(1, 2), 160)
        assert abs(out.value - ctx.mpf("4.49038460436212494992545421068542622455581")) < tol(ctx, -40)

    def test_neg_closed_mixed_point(self, ctx):
        out = phi_neg_closed(2, F(3, 2), F(7, 20))
        ser = phi_numeric(SeriesQuery(-1, F(3, 2), F(7, 20)))
        assert abs(out.value - ser.value) < tol(ctx, -20)

    def test_neg_hyper_spot_point(self, ctx):
        out = phi_neg_hyper(2, F(2), F(1, 4))
        ser = phi_numeric(SeriesQuery(-1, F(2), F(1, 4)))
        assert abs(out.value - ser.value) < tol(ctx, -20)


class TestVanishingCoefficient:
    def test_sweep_small(self):
        for a in (F(1, 3), F(5, 4), F(-3, 7)):
            for n in range(0, 16):
                assert euler_transform_defect(n, a) == 0

    def test_each_side_is_the_pochhammer_form(self):
        # the defect is always 0, so each side is pinned on its own
        half = F(1, 2)
        rng = random.Random(31)
        for _ in range(60):
            n, a = rng.randint(0, 30), F(rng.randint(-40, 40), rng.randint(2, 12))
            if (2 * a).denominator == 1:
                continue
            total = sum(
                pochhammer(-half, m) * pochhammer(half - a - n, m) / (pochhammer(1 - a - n, m) * math.factorial(m))
                for m in range(n + 1)
            )
            closed = pochhammer(half, n) * pochhammer(a - half, n) / (pochhammer(a, n) * math.factorial(n))
            assert closedform._euler_sides(n, a) == (total, closed), (n, a)

    def test_lattice_rejected(self):
        with pytest.raises(DomainError):
            euler_transform_defect(3, F(1, 2))
        with pytest.raises(DomainError):
            euler_transform_defect(-1, F(1, 3))


class TestZetaExact:
    @pytest.mark.parametrize("k,a,expected", EXAMPLE_VALUES)
    def test_example_block(self, k, a, expected):
        assert zeta_exact(k, a) == expected

    def test_a_half_branch(self):
        # zeta(1, 1/2) = pi/sqrt3, and q_1(1/4) = 3/2 drives k = 2
        assert zeta_exact(0, F(1, 2)) == PiExtValue(c_sqrt3pi=F(1, 3))
        assert zeta_exact(2, F(1, 2)) == PiExtValue(c_sqrt3pi=F(4, 9) * F(3, 2) / 3)

    def test_membership_shapes(self):
        for k in range(6):
            integer_val = zeta_exact(k, F(3))
            assert integer_val.c_sqrt3 == 0 and integer_val.c_pi == 0
            half_val = zeta_exact(k, F(5, 2))
            assert half_val.c_one == 0 and half_val.c_sqrt3 == 0

    @pytest.mark.parametrize("a", [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 2), F(4)])
    @pytest.mark.parametrize("k", range(0, 9))
    def test_matches_series(self, k, a, ctx):
        exact = piext_to_float(zeta_exact(k, a), 160)
        numeric = zeta_hcb_numeric(1 - k, a, 160)
        assert abs(exact.value - numeric.value) < tol(ctx, -30)

    def test_shift_relation_exact(self):
        for a in (1, 2, 3):
            for k in range(6):
                step = F(a) ** (k - 1) * exact_gamma_ratio(F(a)).c_one
                assert zeta_exact(k, F(a + 1)) == zeta_exact(k, F(a)) - PiExtValue.rational(step)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            zeta_exact(-1, F(1))
        for a in (F(5, 4), F(0), F(-1, 2)):
            with pytest.raises(DomainError):
                zeta_exact(0, a)


@pytest.mark.parametrize("a", [F(0), F(-1, 2), F(5, 4)])
def test_exact_values_share_one_lattice(a):
    for exact in (exact_gamma_ratio, incomplete_beta_exact, lambda b: zeta_exact(2, b)):
        with pytest.raises(DomainError):
            exact(a)
    with pytest.raises(DomainError):
        lattice(a)


def test_lattice_gives_the_fraction():
    assert lattice(3) == 3 and type(lattice(3)) is F
    assert lattice("5/2") == F(5, 2)


class TestZetaStructured:
    def test_rational_ingredients(self):
        record, _ = zeta_structured(0, F(5, 4))
        assert record.rational_part == 0  # p_{-1} = 0
        assert record.q_part == 1
        record, _ = zeta_structured(3, F(5, 4))
        assert record.q_part == q_at_quarter(2)

    def test_numeric_assembly(self, ctx):
        for (k, a) in [(0, F(5, 4)), (1, F(5, 4)), (2, F(7, 4)), (4, F(9, 8))]:
            _, assembled = zeta_structured(k, a, 160)
            numeric = zeta_hcb_numeric(1 - k, a, 160)
            assert abs(assembled.value - numeric.value) < tol(ctx, -30), (k, a)

    def test_matches_exact_on_lattice(self, ctx):
        _, assembled = zeta_structured(2, F(3, 2), 160)
        exact = piext_to_float(zeta_exact(2, F(3, 2)), 160)
        assert abs(assembled.value - exact.value) < tol(ctx, -30)

    def test_domain_validation(self):
        with pytest.raises(PoleError):
            zeta_structured(0, F(-1, 2))
        with pytest.raises(DomainError):
            zeta_structured(-2, F(5, 4))

    @pytest.mark.parametrize("a", [F(1, 2), F(5, 4), F(-7, 3), F(3)])
    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_number_is_phi_neg_closed_at_one_half(self, k, a):
        for precision in (64, 128):
            _, numeric = zeta_structured(k, a, precision)
            closed = phi_neg_closed(k, a, F(1, 2), precision)
            assert (numeric.value, numeric.error_bound) == (closed.value, closed.error_bound), (k, a, precision)

    @pytest.mark.parametrize("k", [0, 1, 2, 7])
    def test_contains_exact_at_one_half(self, k):
        _, numeric = zeta_structured(k, F(1, 2), 128)
        exact = piext_to_float(zeta_exact(k, F(1, 2)), 256)
        assert abs(numeric.value - exact.value) <= numeric.error_bound + exact.error_bound
        assert exact.error_bound < numeric.error_bound / 2**100


with open(os.path.join(os.path.dirname(__file__), "data", "zeta_exact_parity.json")) as _fh:
    ZETA_PARITY = json.load(_fh)


class TestAlphaRoute:
    """``data/zeta_exact_parity.json`` was recorded while zeta_exact and
    zeta_structured still built the bivariate p_{k-1}(a, x) and q_{k-1}(x);
    they now read both values at x = 1/4 off the alpha recursion."""

    def test_exact_values_unchanged(self):
        for k, a, text in ZETA_PARITY["zeta_exact"]:
            assert zeta_exact(k, F(a)).to_text() == text, (k, a)

    def test_stored_text_round_trips(self):
        for k, a, text in ZETA_PARITY["zeta_exact"]:
            assert PiExtValue.parse(text).to_text() == text, (k, a)

    def test_structured_parts_exact_and_numbers_within_bounds(self, ctx):
        # the parts are exact; the number now takes the split seed and power,
        # so it must agree with the stored one within both bounds, as in
        # test_parity, and its bound may at most double
        for k, a, rational_part, q_part, value, bound in ZETA_PARITY["zeta_structured"]:
            record, numeric = zeta_structured(k, F(a), 128)
            assert (str(record.rational_part), str(record.q_part)) == (rational_part, q_part), (k, a)
            stored = ctx.mpf((int(value[0]), value[1]))
            stored_bound = ctx.mpf((int(bound[0]), bound[1]))
            assert abs(numeric.value - stored) <= numeric.error_bound + stored_bound, (k, a)
            assert numeric.error_bound <= 2 * stored_bound, (k, a)

    def test_no_polynomial_ladder_on_the_zeta_path(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("zeta values must not build a polynomial ladder")

        monkeypatch.setattr(closedform, "p_a_ladder", refuse)
        monkeypatch.setattr(closedform, "q_poly", refuse)
        expected = {(k, a): text for k, a, text in ZETA_PARITY["zeta_exact"]}
        assert zeta_exact(32, F(7, 2)).to_text() == expected[(32, "7/2")]
        row = next(r for r in ZETA_PARITY["zeta_structured"] if r[:2] == [16, "5/4"])
        record, _ = zeta_structured(16, F(5, 4))
        assert (str(record.rational_part), str(record.q_part)) == tuple(row[2:4])


def q_at_quarter(k):
    from hlcbs.polyfam import q_poly

    return q_poly(k)(F(1, 4))
