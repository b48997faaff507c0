"""Registry of named, parameter-swept identity checks.

This module holds every check.  Each compares an exact or numeric left side
against the corresponding right side over a fixed grid and yields a
:class:`CheckReport`.  A closed form compared with the series oracle is judged
by :meth:`Tally.agree`: the tolerance is twice the sum of both sides' reported
error bounds, so honest bounds make every such check self-calibrating.  A
closed side is a :class:`~hlcbs.floats.BigFloat` expression, its bound formed
by the ball rule, the proven roots of :func:`~hlcbs.floats.rational_root` and
the kernel's sums, the seed and pi among them; the arcsine of ``lehmer1`` and
``lehmer2`` is the kernel's z 2F1(1/2, 1/2; 3/2; z^2), and their
sqrt(1 - z^2) one proven root.  The finite difference of ``diff_relation``
is a ball too, widened by a proved bound on its truncation error, so
:meth:`Tally.agree` is the one rule; rational-arithmetic checks have no
tolerance at all.  Random rational sweeps draw from a seeded generator whose
seed is recorded in the report.

The checks' grids overlap, so every plain oracle value goes through
:func:`_oracle`, which sums each distinct (s, a, z, precision) once and
hands a repeated query the same ball: a pass at one precision sums 137
series.  The arcsines that ``lehmer1`` and ``lehmer2`` share go through
:func:`_asin_and_cos` likewise.  ``diff_relation`` calls the oracle itself,
as its sums at P + 64 bits and z +- h are never repeated.  The memos are
bounded, and emptying them (the benchmark does, at the start of each pass)
leaves every report as a fresh process gives it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import closedform, polyfam, series
from .exact import PiExtValue
from .floats import BigFloat, context, rational, rational_root
from .hyper import PFQParams, central_binomial_reciprocal_seed, exact_gamma_ratio, gamma_ratio_shift, pfq_eval, piext_to_float, rational_power
from .report import CheckReport, Tally, sci


class UnknownCheck(KeyError):
    """Requested check id is not in the registry."""


@dataclass
class VerifyConfig:
    precision_bits: int = 128
    seed: int = 20240811

    def __post_init__(self):
        context(self.precision_bits)  # rejects a precision below MIN_PRECISION_BITS, as the user gave it


def _random_rationals(rng, count, lattice_free=True):
    """Random small rationals; optionally excluding the half-integer lattice."""
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(-40, 40), rng.randint(2, 12))
        if lattice_free and (2 * a).denominator == 1:
            continue
        out.append(a)
    return out


_HALF = Fraction(1, 2)


@lru_cache(maxsize=512)
def _oracle(s, a, z, precision_bits: int):
    """The series oracle's ball of Phi(s, a, z), once per query: ``zenka``
    covers ``prop1_neg``'s grid, and ``shift`` and ``examples`` re-read
    ``zetatokushu``'s z = 1/2 values."""
    return series.phi_numeric(series.SeriesQuery(s, a, z, precision_bits))


@lru_cache(maxsize=64)
def _asin_and_cos(z: Fraction, precision_bits: int):
    """(arcsin z, cos(arcsin z) = sqrt(1 - z^2)) as balls, once per (z,
    precision): ``lehmer2`` re-reads ``lehmer1``'s z = 1/4 and 1/2.  arcsin z
    is z 2F1(1/2, 1/2; 3/2; z^2), summed by the kernel 16 bits past the
    precision as the closed forms sum theirs."""
    arcsin = z * pfq_eval(PFQParams((_HALF, _HALF), (3 * _HALF,), z * z), precision_bits + 16)
    return arcsin, rational_root(context(precision_bits), z.denominator**2 - z.numerator**2, z.denominator**2, 2)


# ---------------------------------------------------------------------------
# individual checks; each returns (grid description, Tally)


def _check_lehmer1(cfg):
    """Series against 2z arcsin(z)/sqrt(1-z^2) at a = 1, s = 1."""
    zs = [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(13, 20), Fraction(4, 5)]
    tally = Tally()
    for z in zs:
        arcsin, root = _asin_and_cos(z, cfg.precision_bits)
        tally.agree(_oracle(1, Fraction(1), z, cfg.precision_bits), 2 * z * arcsin / root)
    return f"z in {{{', '.join(str(z) for z in zs)}}}", tally


def _check_lehmer2(cfg):
    """sum_{n>=1} (2n)^(k-1) (2z)^(2n) / C(2n,n) against the arcsine polynomial
    ladder; exact zeta membership."""
    ks = [0, 1, 2, 3, 4]
    zs = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)]
    tally = Tally()
    for z in zs:
        x = z * z
        arcsin, root = _asin_and_cos(z, cfg.precision_bits)
        for k in ks:
            # the weighted series is exactly 2^(k-1) Phi(1-k, 1, z)
            phi = _oracle(1 - k, Fraction(1), z, cfg.precision_bits)
            rhs = z / (1 - x) ** k / root * (z * root * polyfam.p_poly(k - 1)(x) + arcsin * polyfam.q_poly(k - 1)(x))
            tally.agree(phi * Fraction(2) ** (k - 1), rhs)
    # zeta_CB(1-k) = (2/3)^k ( p_{k-1}(1/4)/2 + q_{k-1}(1/4) * pi/(3 sqrt3) ), exactly;
    # zeta_exact reads p and q off alpha, so this cross-checks the ladders
    for k in range(0, 7):
        expected = PiExtValue(
            c_one=Fraction(2, 3) ** k * polyfam.p_poly(k - 1)(Fraction(1, 4)) / 2,
            c_sqrt3pi=Fraction(2, 3) ** k * polyfam.q_poly(k - 1)(Fraction(1, 4)) / 9,
        )
        tally.exact(closedform.zeta_exact(k, Fraction(1)) == expected)
    return f"k in {ks}, z in {{{', '.join(str(z) for z in zs)}}}; exact membership k <= 6", tally


def _closed_vs_series(cfg, closed, s_of_k, grid):
    """closed(k, a, z) against the series at s = s_of_k(k) over a k x a x z grid."""
    tally = Tally()
    ks, az, zs = grid["k"], grid["a"], grid["z"]
    for k in ks:
        for a in az:
            for z in zs:
                lhs = closed(k, a, z, cfg.precision_bits)
                rhs = _oracle(s_of_k(k), a, z, cfg.precision_bits)
                tally.agree(lhs, rhs)
    return f"k in {ks}, a in {{{', '.join(str(a) for a in az)}}}, z in {{{', '.join(str(z) for z in zs)}}}", tally


_PROP1_GRID = dict(k=[1, 2, 3], a=[Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)], z=[Fraction(1, 5), Fraction(1, 2)])


def _check_prop1_pos(cfg):
    return _closed_vs_series(cfg, closedform.phi_pos_hyper, lambda k: k, _PROP1_GRID)


def _check_prop1_neg(cfg):
    return _closed_vs_series(cfg, closedform.phi_neg_hyper, lambda k: 1 - k, _PROP1_GRID)


_DIFF_POINTS = [
    (1, Fraction(1), Fraction(1, 4)),
    (0, Fraction(3, 2), Fraction(3, 10)),
    (2, Fraction(5, 4), Fraction(2, 5)),
    (-1, Fraction(2), Fraction(2, 5)),
]


def _check_diff_relation(cfg):
    """Euler-operator lowering: finite differences plus exact term-wise form."""
    tally = Tally()
    for s, a, z in _DIFF_POINTS:
        _euler_operator_point(tally, s, a, z, cfg.precision_bits)
    return "; ".join(f"(s={s}, a={a}, z={z})" for s, a, z in _DIFF_POINTS), tally


def _euler_operator_point(tally, s: int, a: Fraction, z: Fraction, precision_bits: int):
    """Check (1/2) z d/dz Phi(s,a,z) = Phi(s-1,a,z) at one point, two ways.

    Numerically by a central difference at step h = 2^-floor((P+2)/3), its
    sums at P + 64 bits to absorb the cancellation, with a proved bound on
    its truncation error.  With f = Phi(s,a,.), the difference is off from
    f'(z) by at most (h^2/6) max f''' on [z-h, z+h].  The premise is a >= 1:
    then every nu = a+n >= 1, so the n-th term's factor
    2nu (2nu-1) (2nu-2) in f''' lies in [0, 8 nu^3], and as the series has
    positive terms, 0 <= f'''(x) <= 8 Phi(s-3,a,x)/x^3
    <= 8 Phi(s-3,a,z+h)/(z-h)^3 there.  So the ball of
    (1/2) z (f(z+h) - f(z-h))/(2h), widened by
    W = (2z h^2/3) Phi(s-3,a,z+h)/(z-h)^3, one oracle sum at P bits, holds
    Phi(s-1,a,z), and :meth:`Tally.agree` judges the two.  Exactly on the
    oracle's own term ratios f_n = T_n/T_{n-1}, int pairs at integer s:
    applying (1/2) z d/dz to the n-th summand multiplies it by nu_n = a+n,
    which is precisely the s -> s-1 term, so f_n(s-1) (a+n-1) = f_n(s) (a+n)
    for n = 1..20.
    """
    h = Fraction(1, 2 ** ((precision_bits + 2) // 3))

    def phi_at(s_val, z_val, prec=precision_bits + 64):
        return series.phi_numeric(series.SeriesQuery(s_val, a, z_val, prec))

    ctx = context(precision_bits)
    fd = (phi_at(s, z + h) - phi_at(s, z - h)) * (z / (4 * h))
    # theta W for some theta in [-1, 1]: the ball rule rounds |W| and its radius up
    truncation = phi_at(s - 3, z + h, precision_bits) * (2 * z * h * h / (3 * (z - h) ** 3)) * BigFloat(ctx.zero, precision_bits, ctx.one)
    tally.agree(fd + truncation, phi_at(s - 1, z))

    (_, run), (_, lowered) = series._phi_factors(ctx, s, a, z), series._phi_factors(ctx, s - 1, a, z)
    for n, f_s, f_lowered in zip(range(1, 21), run.leaves(1, 21), lowered.leaves(1, 21)):
        tally.exact(Fraction(*f_lowered) * (a + n - 1) == Fraction(*f_s) * (a + n))


def _check_thm31(cfg):
    """Euler-transformed Gauss form vs series; exact coefficient vanishing."""
    tally = Tally()
    az = [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 2)]
    zs = [Fraction(1, 5), Fraction(1, 2), Fraction(7, 10)]
    for a in az:
        for z in zs:
            lhs = closedform.phi_one_closed(a, z, cfg.precision_bits)
            rhs = _oracle(1, a, z, cfg.precision_bits)
            tally.agree(lhs, rhs)
    rng = random.Random(cfg.seed)
    sweep_a = _random_rationals(rng, 10, lattice_free=True)
    n_max = 30
    for a in sweep_a:
        for n in range(n_max + 1):
            tally.exact(closedform.euler_transform_defect(n, a) == 0)
    return (
        f"numeric a x z grid ({len(az)}x{len(zs)}); exact sweep n <= {n_max}, "
        f"10 rationals from seed {cfg.seed}"
    ), tally


def _check_ode_phi1(cfg):
    """First-order ODE for the s = 1 slice.

    (1-z^2) z Phi'(1,a,z) - Phi(1,a,z) = (2a-1) z^(2a) * 4^a/(a C(2a,a)):
    the prefactor normalizes the plain hypergeometric solution to Phi.  With
    z Phi'(s) = 2 Phi(s-1), which diff_relation proves term by term, the left
    side is (1-z^2) 2 Phi(0,a,z) - Phi(1,a,z): two oracle sums, no step.
    """
    tally = Tally()
    az = [Fraction(1), Fraction(3, 2), Fraction(2)]
    zs = [Fraction(1, 5), Fraction(2, 5)]
    ctx = context(cfg.precision_bits)
    for a in az:
        for z in zs:
            phi0 = _oracle(0, a, z, cfg.precision_bits)
            phi1 = _oracle(1, a, z, cfg.precision_bits)
            zf = rational(ctx, z)
            rhs = (2 * a - 1) / a * rational_power(ctx, 2 * z, 2 * a) * central_binomial_reciprocal_seed(ctx, a)
            tally.agree((1 - zf * zf) * 2 * phi0 - phi1, rhs)
    return f"a in {{{', '.join(str(a) for a in az)}}}, z in {{{', '.join(str(z) for z in zs)}}}", tally


_ZENKA_GRID = dict(
    k=[0, 1, 2, 3, 4],
    a=[Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 2)],
    z=[Fraction(1, 5), Fraction(1, 2)],
)


def _check_zenka(cfg):
    """Polynomial-ladder closed form vs series at mixed (k, a, z)."""
    return _closed_vs_series(cfg, closedform.phi_neg_closed, lambda k: 1 - k, _ZENKA_GRID)


def _check_ptoE(cfg):
    tally = Tally()
    n_max = 8
    for n in range(n_max + 1):
        tally.exact(polyfam.p_from_eulerian(n) == polyfam.p_a_poly(n))
    return f"n <= {n_max}, exact coefficient-wise", tally


def _check_bm_pq(cfg):
    """Eulerian convolution for p_n and the companion q identity, exact."""
    tally = Tally()
    n_max = 8
    for n in range(n_max + 1):
        tally.exact(polyfam.bm_p_poly(n) == polyfam.p_poly(n))
    for n in range(n_max + 2):
        tally.exact(polyfam.bm_q_poly(n) == polyfam.q_poly(n - 1))
    return f"p identity n <= {n_max}; q identity n <= {n_max + 1}, exact", tally


def _check_bm1(cfg):
    """(2/3)^n p_n(1/4) = sum_k B_{n-k}^{(-k)}, exact."""
    tally = Tally()
    n_max = 10
    for n in range(n_max + 1):
        lhs = Fraction(2, 3) ** n * polyfam.p_poly(n)(Fraction(1, 4))
        rhs = sum(polyfam.poly_bernoulli(n - k, -k) for k in range(n + 1))
        tally.exact(lhs == rhs)
    return f"n <= {n_max}, exact", tally


def _check_p_interp(cfg):
    """p_n(0,x) = q_n(x) and p_n(1,x) = p_n(x), exact."""
    tally = Tally()
    n_max = 8
    for n in range(n_max + 1):
        tally.exact(polyfam.p_a_poly(n).substitute_a(0) == polyfam.q_poly(n))
    for n in range(-1, n_max + 1):
        tally.exact(polyfam.p_a_poly(n).substitute_a(1) == polyfam.p_poly(n))
    return f"n <= {n_max} (a=0 from n=0, a=1 from n=-1), exact", tally


def _check_alpha_rec(cfg):
    tally = Tally()
    rng = random.Random(cfg.seed)
    sweep_a = _random_rationals(rng, 10, lattice_free=False)
    n_max = 8
    for a in sweep_a:
        for n in range(n_max + 1):
            lhs = polyfam.alpha(n, a)
            rhs = Fraction(2, 3) ** n * polyfam.p_a_poly(n).substitute_a(a)(Fraction(1, 4))
            tally.exact(lhs == rhs)
    return f"n <= {n_max}, 10 rationals from seed {cfg.seed}, exact", tally


def _check_zetatokushu(cfg):
    """Exact/structured zeta values against the series oracle."""
    tally = Tally()
    ks = [0, 1, 2, 3, 4, 5]
    lattice = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(4)]
    for k in ks:
        for a in lattice:
            num = _oracle(1 - k, a, _HALF, cfg.precision_bits)
            tally.agree(piext_to_float(closedform.zeta_exact(k, a), cfg.precision_bits), num)
    for k in [0, 1, 2]:
        for a in [Fraction(5, 4), Fraction(7, 4)]:
            num = _oracle(1 - k, a, _HALF, cfg.precision_bits)
            tally.agree(closedform.zeta_structured(k, a, cfg.precision_bits)[1], num)
    return f"exact: k in {ks} x lattice a <= 4; structured: k <= 2, a in {{5/4, 7/4}}", tally


def _check_shift(cfg):
    """zeta(1-k, a+1) = zeta(1-k, a) - a^(k-1)/C(2a,a): exact and numeric."""
    tally = Tally()
    ctx = context(cfg.precision_bits)
    for a in [1, 2, 3]:
        for k in range(0, 6):
            step = Fraction(a) ** (k - 1) * exact_gamma_ratio(Fraction(a)).c_one
            lhs = closedform.zeta_exact(k, Fraction(a + 1))
            rhs = closedform.zeta_exact(k, Fraction(a)) - PiExtValue.rational(step)
            tally.exact(lhs == rhs)
    for a in [Fraction(1), Fraction(3, 2), Fraction(2)]:
        for s in [-2, -1, 0, 1]:
            big = _oracle(s, a, _HALF, cfg.precision_bits)
            small = _oracle(s, a + 1, _HALF, cfg.precision_bits)
            tally.agree(small, big - central_binomial_reciprocal_seed(ctx, a) * a**-s)
    return "exact: integer a in {1,2,3}, k <= 5; numeric: a in {1, 3/2, 2}, s in -2..1", tally


def _check_half_shift(cfg):
    """Phi(s, 1/2 - m, z) = Phi(s, 1/2, z) for integer m >= 1, exactly.

    From n = m on, the term at nu = 1/2 - m + n is the a = 1/2 term at
    n - m, so past index arithmetic the identity asserts only that the
    first m terms vanish, at every s and z: the reciprocal real binomial
    hits gamma poles, which is why :func:`hlcbs.hyper.check_domain` refuses
    this a.  Exactly, the shift of :func:`~hlcbs.hyper.gamma_ratio_shift`
    has numerator 0 at each of them.
    """
    tally = Tally()
    ms = [1, 2, 3]
    for m in ms:
        for n in range(m):
            tally.exact(gamma_ratio_shift(Fraction(1 - 2 * m, 2) + n)[1] == 0)
    return f"m in {ms}, first m terms, exact", tally


def _check_examples(cfg):
    """The four worked special values, exact and numeric."""
    expected = [
        (0, Fraction(1), PiExtValue(c_sqrt3pi=Fraction(1, 9))),
        (4, Fraction(2), PiExtValue(c_one=Fraction(17, 6), c_sqrt3pi=Fraction(74, 243))),
        (0, Fraction(3, 2), PiExtValue(c_pi=Fraction(-1, 2), c_sqrt3pi=Fraction(1, 3))),
        (3, Fraction(7, 2), PiExtValue(c_pi=Fraction(-935, 2048), c_sqrt3pi=Fraction(10, 27))),
    ]
    tally = Tally()
    for k, a, value in expected:
        tally.exact(closedform.zeta_exact(k, a) == value)
        tally.agree(piext_to_float(value, cfg.precision_bits), _oracle(1 - k, a, _HALF, cfg.precision_bits))
    return "zeta(1,1), zeta(-3,2), zeta(1,3/2), zeta(-2,7/2)", tally


# ---------------------------------------------------------------------------
# registry

_REGISTRY = [
    ("lehmer1", _check_lehmer1),
    ("lehmer2", _check_lehmer2),
    ("prop1_pos", _check_prop1_pos),
    ("prop1_neg", _check_prop1_neg),
    ("diff_relation", _check_diff_relation),
    ("thm31", _check_thm31),
    ("ode_phi1", _check_ode_phi1),
    ("zenka", _check_zenka),
    ("ptoE", _check_ptoE),
    ("bm_pq", _check_bm_pq),
    ("bm1", _check_bm1),
    ("p_interp", _check_p_interp),
    ("alpha_rec", _check_alpha_rec),
    ("zetatokushu", _check_zetatokushu),
    ("shift", _check_shift),
    ("half_shift", _check_half_shift),
    ("examples", _check_examples),
]

_CHECKS = dict(_REGISTRY)

# alternate names for the merged pair-checks
ALIASES = {
    "bm_p": "bm_pq",
    "bm_q": "bm_pq",
    "p0_is_q": "p_interp",
    "p1_is_p": "p_interp",
}


def check_ids():
    return [check_id for check_id, _ in _REGISTRY]


def resolve_check_id(check_id: str) -> str:
    check_id = ALIASES.get(check_id, check_id)
    if check_id not in _CHECKS:
        raise UnknownCheck(f"unknown check id {check_id!r}; known: {', '.join(check_ids())}")
    return check_id


def run_check(check_id: str, config: VerifyConfig | None = None) -> CheckReport:
    """Run one registered check; deterministic for a fixed config."""
    config = config or VerifyConfig()
    check_id = resolve_check_id(check_id)
    started = time.perf_counter()
    grid, tally = _CHECKS[check_id](config)
    return tally.report(check_id, grid, time.perf_counter() - started)


def run_all(config: VerifyConfig | None = None, ids=None) -> list:
    """Run every registered check (or the given subset), in registry order."""
    config = config or VerifyConfig()
    if ids is None:
        selected = check_ids()
    else:
        selected = [resolve_check_id(i) for i in ids]
        selected = [cid for cid in check_ids() if cid in set(selected)]
    return [run_check(cid, config) for cid in selected]


def summarize(reports) -> str:
    lines = []
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        dev = rep.max_abs_deviation
        dev_text = dev if isinstance(dev, str) else f"max dev {sci(dev, 3)}"
        lines.append(f"{rep.check_id:<14} {status}  [{rep.comparisons} comparisons, {dev_text}, {rep.elapsed_seconds * 1000:.0f} ms]")
    total = len(reports)
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines)
