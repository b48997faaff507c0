"""The three workloads: seeded request generators, how one op runs, and how
its result is judged.

Each workload is a stream of cycles.  Every cycle of a workload holds the
same mix of requests, with the seed drawing the parameters that do not set
an op's cost and the order, so runs with different seeds, and runs that fit
a different number of cycles, put the same load on the kit; the timed phase
runs whole cycles.

* ``verify``: the 17 identity checks at 128 bits, then at 512 bits
  (the paper's reproduction: many short sums at low precision).
* ``numeric-deep``: single evaluations at 2048 and 8192 bits (big-operand
  kernel arithmetic and mpmath gamma seeds off the half-integer lattice).
* ``exact-cold``: one fresh ``python -m hlcbs.cli`` process per request
  (polynomial families and exact rational arithmetic, paid cold).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath

import reference

WORKLOADS = ("verify", "numeric-deep", "exact-cold")

F = Fraction
LATTICE_A = (F(1), F(3, 2), F(2), F(7, 2))
OFF_A = (F(1, 3), F(5, 4), F(7, 4))
NUMERIC_FUNCTIONS = (
    "phi_numeric",
    "phi_pos_hyper",
    "phi_neg_hyper",
    "phi_one_closed",
    "phi_neg_closed",
    "pfq_eval",
    "incomplete_beta_numeric",
)
# z = 9/10 only at 2048 bits: at 8192 bits phi_numeric would need about
# 27,000 terms, past its documented default budget of 10,000
Z_BY_PRECISION = {2048: (F(1, 5), F(1, 2), F(9, 10)), 8192: (F(1, 5), F(1, 2))}
NON_INTEGER_S = (F(3, 2), F(5, 2))

EXACT_ZETA_A = tuple(F(n, 2) for n in range(2, 10))  # 1 .. 9/2; a = 1/2 is its own cell
STRUCTURED_A = (F(3, 4), F(4, 3), F(5, 4), F(5, 3), F(7, 4))
ALPHA_A = (F(1, 3), F(1), F(5, 4), F(3, 2), F(7, 4), F(2))

VERIFY_PRECISIONS = (128, 512)
# warm-up precisions of each in-process workload (one op per seed route each)
WARMUP_PRECISIONS = {"verify": VERIFY_PRECISIONS, "numeric-deep": (2048, 8192), "exact-cold": ()}
WARMUP_A = {"lattice": F(3, 2), "gamma": F(5, 4)}


# ---------------------------------------------------------------------------
# generators


def verify_cycle(check_ids):
    ops = []
    for precision in VERIFY_PRECISIONS:
        for i, check_id in enumerate(check_ids):
            ops.append({"kind": "verify", "id": check_id, "P": precision, "fresh": i == 0})
    return ops


def numeric_cycle(rng):
    """Every function at both precisions, plus non-integer s at 2048 bits.

    The z, seed route and k of each cell are fixed, so every cycle has the
    same cost mix whatever the seed; the seed draws the value of a within
    its route and the order of the cycle.
    """
    ops = []
    for precision, zs in Z_BY_PRECISION.items():
        cells = [(fn, None) for fn in NUMERIC_FUNCTIONS]
        if precision == 2048:
            cells += [("phi_numeric", s) for s in NON_INTEGER_S]
        for i, (fn, s) in enumerate(cells):
            route = ("lattice", "gamma")[i % 2]
            a = rng.choice(LATTICE_A if route == "lattice" else OFF_A)
            k = 1 + i % 4
            if s is None and fn == "phi_numeric":
                s = F(k)
            ops.append({"kind": "numeric", "fn": fn, "P": precision, "k": k, "a": a, "z": zs[i % len(zs)], "s": s})
    rng.shuffle(ops)
    return ops


def exact_cycle(rng):
    """Fixed k and indices across their ranges; the seed draws a and the order.

    The costliest requests (about 0.7 s each: zeta --exact and --structured
    at k = 32, poly pa 32) make up over a quarter of the cycle, so op_p90_ms
    falls inside that group rather than in the gap below one lone costlier
    op, where it moved by a quarter from run to run; likewise op_p50_ms falls
    among the many requests of 0.2 to 0.3 s.  zeta(1-k, 1/2) needs no
    p_a polynomial, so it stays cheap at k = 48 and is a cell of its own
    rather than a draw that would make one cycle much cheaper than another.
    """
    ops = [{"kind": "zeta_exact", "k": k, "a": rng.choice(EXACT_ZETA_A)} for k in (16, 24, 32, 32)]
    ops.append({"kind": "zeta_exact", "k": 48, "a": F(1, 2)})
    for n in (8, 16, 32):
        ops.append({"kind": "zeta_structured", "k": n, "a": rng.choice(STRUCTURED_A)})
        ops.append({"kind": "poly_alpha", "n": n, "a": rng.choice(ALPHA_A)})
    for n in (16, 32):
        ops.append({"kind": "poly_pa", "n": n})
        ops.append({"kind": "poly_eulerian", "n": n})
    rng.shuffle(ops)
    return ops


def cycles(workload: str, seed: int):
    """Endless stream of cycles (lists of ops) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        from hlcbs import verify

        check_ids = verify.check_ids()
    while True:
        if workload == "verify":
            yield verify_cycle(check_ids)
        elif workload == "numeric-deep":
            yield numeric_cycle(rng)
        else:
            yield exact_cycle(rng)


def op_key(op) -> str:
    return json.dumps({k: str(v) for k, v in sorted(op.items()) if k != "fresh"})


# ---------------------------------------------------------------------------
# running one op


def _pfq_params(op):
    upper, lower = reference.phi_hyper_params(op["k"], op["a"])
    return upper, lower, op["z"] * op["z"]


def call_numeric(op):
    """One numeric-deep evaluation; returns the kit's BigFloat."""
    from hlcbs import closedform, hyper, series

    fn, precision, k, a, z = op["fn"], op["P"], op["k"], op["a"], op["z"]
    if fn == "phi_numeric":
        return series.phi_numeric(series.SeriesQuery(op["s"], a, z, precision))
    if fn == "phi_pos_hyper":
        return closedform.phi_pos_hyper(k, a, z, precision)
    if fn == "phi_neg_hyper":
        return closedform.phi_neg_hyper(k, a, z, precision)
    if fn == "phi_one_closed":
        return closedform.phi_one_closed(a, z, precision)
    if fn == "phi_neg_closed":
        return closedform.phi_neg_closed(k, a, z, precision)
    if fn == "pfq_eval":
        return hyper.pfq_eval(hyper.PFQParams(*_pfq_params(op)), precision)
    if fn == "incomplete_beta_numeric":
        return hyper.incomplete_beta_numeric(z, a, F(1, 2), precision)
    raise ValueError(f"unknown function {fn}")


def numeric_ref_spec(op):
    """What the independent reference must compute for a numeric op."""
    fn, k, a, z = op["fn"], op["k"], op["a"], op["z"]
    if fn == "phi_numeric":
        return ("phi", op["s"], a, z)
    if fn == "phi_pos_hyper":
        return ("phi", k, a, z)
    if fn in ("phi_neg_hyper", "phi_neg_closed"):
        return ("phi", 1 - k, a, z)
    if fn == "phi_one_closed":
        return ("phi", 1, a, z)
    if fn == "pfq_eval":
        return ("pfq",) + _pfq_params(op)
    return ("beta", z, a, F(1, 2))


def cli_argv(op):
    kind = op["kind"]
    if kind == "zeta_exact":
        return ["zeta", "--exact", "--k", str(op["k"]), "--a", str(op["a"])]
    if kind == "zeta_structured":
        return ["zeta", "--structured", "--k", str(op["k"]), "--a", str(op["a"])]
    if kind == "poly_pa":
        return ["poly", "pa", str(op["n"])]
    if kind == "poly_eulerian":
        return ["poly", "eulerian", str(op["n"])]
    return ["poly", "alpha", str(op["n"]), "--a", str(op["a"])]


def child_env(root: str) -> dict:
    """Kit sources first on the path; fixed string hashing, so set and dict
    layouts, and the work that depends on them, repeat from run to run."""
    src = os.path.join(root, "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""), PYTHONHASHSEED="0")


def run_cli(root: str, argv, traced=False):
    """One fresh command-line process; returns (returncode, stdout, stderr)."""
    if traced:
        cmd = [sys.executable, os.path.join(root, "perfbench", "tracecli.py")]
    else:
        cmd = [sys.executable, "-m", "hlcbs.cli"]
    proc = subprocess.run(cmd + list(argv) + ["--json"], capture_output=True, text=True, env=child_env(root), cwd=root, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def execute(op, seed: int, root: str, traced=False):
    """Run one op; returns ("ok", result) or ("error", message).

    Every failure is recorded rather than raised, so one bad op counts
    against fail_ratio instead of ending the run.
    """
    try:
        if op["kind"] == "verify":
            from hlcbs import verify

            return "ok", verify.run_check(op["id"], verify.VerifyConfig(precision_bits=op["P"], seed=seed))
        if op["kind"] == "numeric":
            return "ok", call_numeric(op)
        code, out, err = run_cli(root, cli_argv(op), traced)
        if code != 0:
            return "error", f"exit {code}: {err.strip()[-300:]}"
        return "ok", (out, err)
    except Exception as exc:  # the run must go on; the failure is counted
        return "error", f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# judging results


class Gate:
    """Judges op results against independent references, computed once per
    distinct request and only after the timed phase."""

    def __init__(self):
        self._refs = {}
        self._cli_verdicts = {}

    def _ref(self, spec, bits):
        key = (repr(spec), bits)
        if key not in self._refs:
            self._refs[key] = reference.reference(spec, bits)
        return self._refs[key]

    def judge(self, op, status, result):
        """(passed, cert) where cert is log2(|value|/bound)/bits or None."""
        if status != "ok":
            return False, None
        kind = op["kind"]
        if kind == "verify":
            tol = result.tolerance
            cert = None if isinstance(tol, str) or tol <= 0 else -float(mpmath.log(tol, 2)) / op["P"]
            return bool(result.passed), cert
        if kind == "numeric":
            precision = op["P"]
            ref = self._ref(numeric_ref_spec(op), precision + reference.EXTRA_BITS)
            passed, _ = reference.containment(result.value, result.error_bound, ref, precision)
            return passed, reference.cert_bits(result.value, result.error_bound, precision)
        key = (op_key(op), result[0])  # a repeated request with the same output
        if key not in self._cli_verdicts:
            self._cli_verdicts[key] = self._judge_cli(op, json.loads(result[0].strip().splitlines()[-1]))
        return self._cli_verdicts[key]

    def _judge_cli(self, op, record):
        from hlcbs.exact import PiExtValue

        kind = op["kind"]
        if kind == "zeta_exact":
            return reference.check_zeta_exact(op["k"], op["a"], PiExtValue.parse(record["value"])), None
        if kind == "zeta_structured":
            k, a, precision = op["k"], op["a"], int(record["precision"])
            parts_ok = reference.check_structured_parts(k, a, F(record["rational_part"]), F(record["q_part"]))
            ctx = reference.make_ctx(precision + reference.EXTRA_BITS + 32)
            value, bound = ctx.mpf(record["value"]), ctx.mpf(record["error_bound"])
            ref = self._ref(("phi", 1 - k, a, F(1, 2)), precision + reference.EXTRA_BITS)
            # the printed value is rounded to its last digit on top of the kit's bound
            inside, _ = reference.containment(value, bound + reference.printed_rounding(record["value"]), ref, precision)
            return parts_ok and inside, reference.cert_bits(value, bound, precision)
        text = record["value"]
        n = op["n"]
        if kind == "poly_pa":
            return reference.check_p_a_poly(n, lambda a, x: reference.evaluate_text(text, {"a": a, "x": x})), None
        if kind == "poly_eulerian":
            return reference.check_eulerian(n, lambda x, y: reference.evaluate_text(text, {"x": x, "y": y})), None
        return reference.check_alpha(n, op["a"], F(text)), None
