"""Polynomial/number family generators against their known small members
and against independent generating-function oracles."""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction as F

import pytest

from hlcbs.exact import BiPoly, DomainError, UniPoly
from hlcbs.hyper import incomplete_beta_exact
from hlcbs.polyfam import (
    alpha,
    binomial,
    bm_p_poly,
    bm_q_poly,
    eulerian,
    eulerian_gf_oracle,
    p_a_ladder,
    p_a_poly,
    p_from_eulerian,
    p_poly,
    poly_bernoulli,
    poly_bernoulli_gf_oracle,
    q_poly,
    stirling2,
)

# reference values for the first family members: q_n, p_n, and p_n(a,x)
Q_TABLE = {
    -1: UniPoly((1,)),
    0: UniPoly((1,)),
    1: UniPoly((1, 2)),
    2: UniPoly((1, 10, 4)),
    3: UniPoly((1, 36, 60, 8)),
}
P_TABLE = {
    -1: UniPoly(),
    0: UniPoly((1,)),
    1: UniPoly((3,)),
    2: UniPoly((7, 8)),
    3: UniPoly((15, 70, 20)),
}
# x-degree -> UniPoly in a
PA_TABLE = {
    -1: BiPoly(),
    0: BiPoly.const(1),
    1: BiPoly((UniPoly((1, 2)), UniPoly((2, -2)))),  # 2(1-a)x + 2a+1
    2: BiPoly(
        (
            UniPoly((1, 2, 4)),  # 4a^2 + 2a + 1
            UniPoly((10, 6, -8)),  # -2(4a^2 - 3a - 5)
            UniPoly((4, -8, 4)),  # 4(1-a)^2
        )
    ),
    3: BiPoly(
        (
            UniPoly((1, 2, 4, 8)),  # (2a+1)(4a^2+1)
            UniPoly((36, 42, 16, -24)),  # -2(12a^3 - 8a^2 - 21a - 18)
            UniPoly((60, -20, -44, 24)),  # 4(6a^3 - 11a^2 - 5a + 15)
            UniPoly((8, -24, 24, -8)),  # 8(1-a)^3
        )
    ),
}

PB_REFERENCE = [
    [1, 1, 1, 1, 1],
    [1, 2, 4, 8, 16],
    [1, 4, 14, 46, 146],
    [1, 8, 46, 230, 1066],
    [1, 16, 146, 1066, 6902],
]


class TestLadders:
    @pytest.mark.parametrize("k", sorted(Q_TABLE))
    def test_q_small_cases(self, k):
        assert q_poly(k) == Q_TABLE[k]

    @pytest.mark.parametrize("k", sorted(P_TABLE))
    def test_p_small_cases(self, k):
        assert p_poly(k) == P_TABLE[k]

    @pytest.mark.parametrize("k", sorted(PA_TABLE))
    def test_p_a_small_cases(self, k):
        assert p_a_poly(k) == PA_TABLE[k]

    def test_domain_errors(self):
        for fn in (q_poly, p_poly, p_a_poly):
            with pytest.raises(DomainError):
                fn(-2)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_interpolation_endpoints(self, n):
        assert p_a_poly(n).substitute_a(0) == q_poly(n)
        assert p_a_poly(n).substitute_a(1) == p_poly(n)

    def test_integer_ladders_keep_integer_coefficients(self):
        for family in (q_poly(30), p_poly(30)):
            assert all(type(c) is int for c in family.coeffs)
        for family in (p_a_poly(10), eulerian(10)):
            assert all(type(c) is int for coeff in family.coeffs for c in coeff.coeffs)

    def test_a_one_holds_from_the_start(self):
        assert p_a_poly(-1).substitute_a(1) == p_poly(-1)


class TestEulerian:
    def test_small_cases(self):
        y = UniPoly((0, 1))
        assert eulerian(0) == BiPoly.const(1)
        assert eulerian(1) == BiPoly.from_a_poly(y)
        assert eulerian(2) == BiPoly((y * y, y))  # y^2 + x y
        # y^3 + 3 x y^2 + x^2 y + x y
        assert eulerian(3) == BiPoly((y * y * y, 3 * y * y + y, y))

    def test_normalization_invariants(self):
        for n in range(1, 9):
            e = eulerian(n)
            # E_n(0, y) = y^n
            assert e.coeffs[0] == UniPoly([0] * n + [1])
            # total y-degree is n
            assert max(c.degree for c in e.coeffs) == n

    @pytest.mark.parametrize("n", range(0, 9))
    def test_recursion_matches_generating_function(self, n):
        assert eulerian(n) == eulerian_gf_oracle(n)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eulerian(-1)
        with pytest.raises(DomainError):
            eulerian_gf_oracle(-1)


class TestPolyBernoulli:
    def test_reference_grid(self):
        for k in range(5):
            for n in range(5):
                assert poly_bernoulli(n, -k) == PB_REFERENCE[k][n]

    @pytest.mark.parametrize("k", range(-4, 3))
    def test_against_generating_function(self, k):
        oracle = poly_bernoulli_gf_oracle(10, k)
        for n in range(11):
            assert poly_bernoulli(n, k) == oracle[n]

    def test_positive_k_values_are_fractions(self):
        assert poly_bernoulli(1, 1) == F(1, 2)
        assert poly_bernoulli(2, 2) == F(-1, 36)

    def test_stirling_and_binomial_basics(self):
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1
        assert stirling2(3, 5) == 0
        assert binomial(5, 2) == 10
        assert binomial(5, 7) == 0

    def test_stirling_satisfies_its_recurrence(self):
        for n in range(1, 30):
            for m in range(1, n + 1):
                assert stirling2(n, m) == m * stirling2(n - 1, m) + stirling2(n - 1, m - 1), (n, m)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            poly_bernoulli(-1, 0)


class TestAlpha:
    def test_initial_value(self):
        for a in (F(0), F(1), F(-7, 3)):
            assert alpha(0, a) == 1

    def test_worked_value(self):
        # (2/3)^3 p_3(1/4) with the weights sum 1+4+4+1 = 10
        assert alpha(3, F(1)) == 10
        assert sum(poly_bernoulli(3 - k, -k) for k in range(4)) == 10

    def test_half_parameter(self):
        # evaluate the k=2 reference row at a=1/2, x=1/4
        assert alpha(2, F(1, 2)) == F(4, 9) * PA_TABLE[2](F(1, 2), F(1, 4))
        assert alpha(2, F(1, 2)) == F(31, 12)

    def test_matches_polynomial_family(self):
        rng = random.Random(5)
        for _ in range(10):
            a = F(rng.randint(-30, 30), rng.randint(1, 10))
            for n in range(9):
                assert alpha(n, a) == F(2, 3) ** n * p_a_poly(n).substitute_a(a)(F(1, 4))

    def test_integer_run_matches_the_fraction_recursion(self):
        # 3 alpha_n = 2 alpha_{n-1} + sum_l C(n,l) alpha_l + 3 a^n, in Fractions
        for a in (F(0), F(2), F(1, 3), F(5, 4), F(-7, 5)):
            seq = [F(1)]
            for n in range(1, 31):
                total = 3 * a**n + sum(binomial(n, l) * seq[l] for l in range(n))
                seq.append((total + 2 * seq[n - 1]) / 3)
            assert [alpha(n, a) for n in range(31)] == seq, a

    def test_domain_error(self):
        with pytest.raises(DomainError):
            alpha(-1, F(1))


def test_p_a_ladder_is_p_a_poly_at_one_a():
    for a in (F(0), F(1), F(7, 2), F(-5, 3)):
        for k in range(-1, 10):
            assert p_a_ladder(k, a) == p_a_poly(k).substitute_a(a), (k, a)


class TestEulerianRepresentations:
    def test_base_case(self):
        assert p_from_eulerian(0) == BiPoly.const(1)

    def test_hand_expanded_first_case(self):
        # only three (j, l) terms with E_1(z, 1/2) = 1/2 contribute at n = 1
        assert p_from_eulerian(1) == PA_TABLE[1]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_recursion_family(self, n):
        assert p_from_eulerian(n) == p_a_poly(n)

    def test_inner_binomial_variant_rejected(self):
        # the variant with the binomial indexed by the inner summation
        # disagrees with the recursion already at n = 2
        e_half = [eulerian(m).substitute_a(F(1, 2)) for m in range(3)]
        a_minus_1 = UniPoly((-1, 1))
        one_minus_z = UniPoly((1, -1))
        n = 2
        total = BiPoly()
        for j in range(n + 1):
            for l in range(j + 1):
                c = binomial(n + 1, l + 1) * binomial(j, l)
                z_part = (one_minus_z ** (j - l)) * e_half[n - j] * e_half[l] * c
                total = total + BiPoly.from_x_poly(z_part) * BiPoly.from_a_poly(a_minus_1 ** (j - l))
        assert total * F(4) != p_a_poly(2)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_convolution_identity(self, n):
        assert bm_p_poly(n) == p_poly(n)

    @pytest.mark.parametrize("n", range(0, 10))
    def test_companion_identity(self, n):
        assert bm_q_poly(n) == q_poly(n - 1)

    def test_golden_companion_case(self):
        assert bm_q_poly(3) == UniPoly((1, 10, 4))  # 2^3 E_3(x,1/2) = q_2

    def test_weighted_diagonal_sum(self):
        # (2/3)^n p_n(1/4) equals the antidiagonal poly-Bernoulli sum
        for n in range(11):
            lhs = F(2, 3) ** n * p_poly(n)(F(1, 4))
            rhs = sum(poly_bernoulli(n - k, -k) for k in range(n + 1))
            assert lhs == rhs

    def test_domain_errors(self):
        for fn in (p_from_eulerian, bm_p_poly, bm_q_poly):
            with pytest.raises(DomainError):
                fn(-1)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "fn,args",
    [
        (q_poly, (50,)),
        (p_poly, (50,)),
        (p_a_poly, (50,)),
        (eulerian, (50,)),
        (alpha, (50, F(5, 4))),
        (stirling2, (50, 25)),
        (incomplete_beta_exact, (F(101, 2),)),
    ],
    ids=["q_poly", "p_poly", "p_a_poly", "eulerian", "alpha", "stirling2", "incomplete_beta_exact"],
)
def test_cold_call_needs_few_stack_frames(fn, args):
    """Each memoized recursion fills its cache bottom-up, so a cold call at
    index 50 runs under 40 spare frames; the index is not limited by depth."""
    for family in (q_poly, p_poly, p_a_poly, eulerian, alpha, stirling2, incomplete_beta_exact):
        family.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        fn(*args)
    finally:
        sys.setrecursionlimit(limit)


with open(os.path.join(os.path.dirname(__file__), "data", "poly_text_parity.json")) as _fh:
    TEXT_PARITY = json.load(_fh)

FAMILIES = {"q_poly": q_poly, "p_poly": p_poly, "p_a_poly": p_a_poly, "eulerian": eulerian}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_text_parity(name):
    """``data/poly_text_parity.json`` was recorded while UniPoly turned every
    coefficient into a Fraction and BiPoly had arithmetic of its own: to_text()
    of q_n and p_n for n <= 40, of p_n(a, x) and E_n for n <= 12, and the
    SHA-256 of each family's n = 32 and n = 79 texts."""
    family = FAMILIES[name]
    for n, text in TEXT_PARITY["text"][name]:
        assert family(n).to_text() == text, n
    for n, digest in TEXT_PARITY["sha256"][name]:
        assert hashlib.sha256(family(n).to_text().encode()).hexdigest() == digest, n


@pytest.mark.parametrize("name", ["p_poly", "q_poly"])
def test_stored_text_round_trips(name):
    for n, text in TEXT_PARITY["text"][name]:
        assert UniPoly.parse(text).to_text() == text, n
