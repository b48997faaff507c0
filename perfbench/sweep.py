"""Growth sweep: each layer's public functions against precision, k and z,
timed warm (in this process) and cold (first call in a fresh process).

    python3 perfbench/sweep.py --out perfbench/results/sweep.json

Before every timed call the kit's memo caches are emptied, so a memoized
family is timed computing, not looking up.  "Warm" then means mpmath's
per-precision caches and the interpreter are warm; "cold" is the first call
of a fresh process, which also pays mpmath's cache builds and imports
(reported apart as import_ms).  Not part of the contract runs: it takes
several minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

PRECISIONS = (128, 512, 2048, 8192)
KS = (10, 20, 40)
ZS = {128: (F(1, 2), F(9, 10), F(99, 100)), 512: (F(1, 2), F(9, 10))}
A = F(5, 4)

# warm ms at 128 / 512 / 2048 / 8192 bits measured when the roadmap was
# re-anchored, for the sweep to be checked against
REANCHOR_MS = {
    "series.phi_numeric": (6, 26, 146, 1608),
    "closedform.phi_pos_hyper": (5, 17, 72, 714),
}


def _pfq(k, z, precision):
    import reference
    from hlcbs import hyper

    upper, lower = reference.phi_hyper_params(k, A)
    return hyper.pfq_eval(hyper.PFQParams(upper, lower, z * z), precision)


def _seed(a, precision):
    from hlcbs import floats, hyper

    return hyper.central_binomial_reciprocal_seed(floats.context(precision), a)


def _call(fn, k, z, precision):
    """Call one public function at a growth point."""
    from hlcbs import closedform, floats, hyper, polyfam, series, verify

    table = {
        "series.phi_numeric": lambda: series.phi_numeric(series.SeriesQuery(k, A, z, precision)),
        "closedform.phi_pos_hyper": lambda: closedform.phi_pos_hyper(k, A, z, precision),
        "closedform.phi_neg_hyper": lambda: closedform.phi_neg_hyper(k, A, z, precision),
        "closedform.phi_one_closed": lambda: closedform.phi_one_closed(A, z, precision),
        "closedform.phi_neg_closed": lambda: closedform.phi_neg_closed(k, A, z, precision),
        "closedform.zeta_structured": lambda: closedform.zeta_structured(k, A, precision),
        "closedform.zeta_exact": lambda: closedform.zeta_exact(k, F(7, 2)),
        "closedform.euler_transform_defect": lambda: closedform.euler_transform_defect(k, A),
        "hyper.pfq_eval": lambda: _pfq(k, z, precision),
        "hyper.incomplete_beta_numeric": lambda: hyper.incomplete_beta_numeric(z, A, F(1, 2), precision),
        "hyper.central_binomial_reciprocal_seed.gamma": lambda: _seed(A, precision),
        "hyper.central_binomial_reciprocal_seed.lattice": lambda: _seed(F(3, 2), precision),
        "floats.context": lambda: floats.context(precision),
        "polyfam.q_poly": lambda: polyfam.q_poly(k),
        "polyfam.p_a_poly": lambda: polyfam.p_a_poly(k),
        "polyfam.eulerian": lambda: polyfam.eulerian(k),
        "polyfam.alpha": lambda: polyfam.alpha(k, A),
    }
    if fn.startswith("verify."):
        return verify.run_check(fn.split(".", 1)[1], verify.VerifyConfig(precision_bits=precision))
    return table[fn]()


def points():
    """(function, growth parameter, k, z, precision) of every sweep point."""
    out = []
    by_precision = [
        "series.phi_numeric", "closedform.phi_pos_hyper", "closedform.phi_neg_hyper",
        "closedform.phi_one_closed", "closedform.phi_neg_closed", "closedform.zeta_structured",
        "hyper.pfq_eval", "hyper.incomplete_beta_numeric", "hyper.central_binomial_reciprocal_seed.gamma",
        "hyper.central_binomial_reciprocal_seed.lattice", "floats.context",
    ]
    for fn in by_precision:
        out += [(fn, "precision", 2, F(1, 2), p) for p in PRECISIONS]
    by_k = [
        "polyfam.q_poly", "polyfam.p_a_poly", "polyfam.eulerian", "polyfam.alpha", "closedform.zeta_exact",
        "closedform.zeta_structured", "closedform.euler_transform_defect", "closedform.phi_pos_hyper",
        "closedform.phi_neg_closed",
    ]
    for fn in by_k:
        out += [(fn, "k", k, F(1, 2), 128) for k in KS]
    by_z = [
        "series.phi_numeric", "closedform.phi_pos_hyper", "closedform.phi_one_closed", "hyper.pfq_eval",
        "hyper.incomplete_beta_numeric",
    ]
    for fn in by_z:
        out += [(fn, "z", 2, z, p) for p, zs in ZS.items() for z in zs]
    from hlcbs import verify

    out += [(f"verify.{cid}", "precision", 2, F(1, 2), p) for p in (128, 512) for cid in verify.check_ids()]
    return out


def timed_call(point):
    import tracer

    fn, _, k, z, precision = point
    tracer.clear_kit_caches()
    start = time.perf_counter()
    _call(fn, k, z, precision)
    return (time.perf_counter() - start) * 1000.0


def warm_ms(point, budget_ms=1500.0):
    timed_call(point)  # warm-up
    samples = [timed_call(point)]
    while len(samples) < 5 and sum(samples) < budget_ms:
        samples.append(timed_call(point))
    return statistics.median(samples)


def cold_ms(index):
    """First call of point ``index`` in a fresh process: (import ms, call ms)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cold", str(index)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here (default: standard output)")
    parser.add_argument("--cold", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.cold is not None:
        start = time.perf_counter()
        import hlcbs  # noqa: F401
        import tracer  # noqa: F401

        import_ms = (time.perf_counter() - start) * 1000.0
        print(json.dumps({"import_ms": import_ms, "cold_ms": timed_call(points()[args.cold])}))
        return 0

    import run

    rows = []
    for index, point in enumerate(points()):
        fn, growth, k, z, precision = point
        cold = cold_ms(index)
        row = {"fn": fn, "growth": growth, "k": k, "z": str(z), "precision": precision, "warm_ms": warm_ms(point), **cold}
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    reanchor = []
    for fn, expected in REANCHOR_MS.items():
        for precision, then in zip(PRECISIONS, expected):
            now = next(r["warm_ms"] for r in rows if r["fn"] == fn and r["growth"] == "precision" and r["precision"] == precision)
            reanchor.append({"fn": fn, "precision": precision, "reanchor_ms": then, "warm_ms": now, "ratio": now / then})
    payload = {"env": run.environment(), "fixed": {"a": str(A), "k": 2, "z": "1/2"}, "rows": rows, "reanchor_check": reanchor}
    text = json.dumps(payload, indent=1)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
