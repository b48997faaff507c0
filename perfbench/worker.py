"""One benchmark client: set up, then run one workload in a closed loop.

Started by run.py, never by hand.  It prints ``ready`` once its set-up is
done (run.py times set-up from process start to that line); with
``--probe`` it exits there.  Otherwise it runs the timed phase (or, with
``--trace 1``, the traced comparison), judges every result and prints one
JSON line for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def import_kit():
    import hlcbs

    expected = os.path.join(ROOT, "src", "hlcbs")
    if os.path.dirname(os.path.abspath(hlcbs.__file__)) != expected:
        sys.exit(f"hlcbs imported from {hlcbs.__file__}, not from {expected}")


def setup(workload: str):
    """Import plus one warm-up op per (precision, seed route).

    Returns the time of the first seed call at each precision: the first
    gamma call at a new precision builds mpmath's coefficient caches.
    """
    import_kit()
    from hlcbs import closedform, floats, hyper

    first_call_ms = {}
    for precision in workloads.WARMUP_PRECISIONS[workload]:
        start = time.perf_counter()
        hyper.central_binomial_reciprocal_seed(floats.context(precision), workloads.WARMUP_A["gamma"])
        first_call_ms[precision] = (time.perf_counter() - start) * 1000.0
        for a in workloads.WARMUP_A.values():
            closedform.phi_pos_hyper(1, a, workloads.F(1, 5), precision)
    if workload == "exact-cold":
        code, _, err = workloads.run_cli(ROOT, ["poly", "q", "1"])
        if code != 0:
            sys.exit(f"warm-up command failed: {err}")
    return first_call_ms


def run_ops(ops, seed, traced=False):
    """Closed loop: each op starts when the previous one has returned.

    Returns (records, wall seconds); a record is (op, seconds, status, result).
    """
    records = []
    start = time.perf_counter()
    for op in ops:
        if op.get("fresh"):
            tracer.clear_kit_caches()
        t0 = time.perf_counter()
        status, result = workloads.execute(op, seed, ROOT, traced)
        records.append((op, time.perf_counter() - t0, status, result))
    return records, time.perf_counter() - start


def judge_all(records):
    """Failures and certification ratios of every record; the references are
    computed here, after the clock has stopped."""
    gate = workloads.Gate()
    failures, certs = [], []
    for op, _, status, result in records:
        reason = result if status != "ok" else "wrong or uncontained result"
        try:
            passed, cert = gate.judge(op, status, result)
        except Exception as exc:  # an unreadable result is a failed op
            passed, cert, reason = False, None, f"{type(exc).__name__}: {exc}"
        if not passed:
            failures.append(f"{workloads.op_key(op)}: {reason}")
        if cert is not None:
            certs.append(cert)
    return failures, certs


def pass_times(records):
    """Wall time of each complete verify pass, by precision."""
    from hlcbs import verify

    out = {p: [] for p in workloads.VERIFY_PRECISIONS}
    n_checks = len(verify.check_ids())
    current, total, count = None, 0.0, 0
    for op, seconds, _, _ in records:
        if op["fresh"]:
            current, total, count = op["P"], 0.0, 0
        total += seconds
        count += 1
        if count == n_checks:
            out[current].append(total)
    return out


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "exact-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed(workload, seed, seconds):
    """Whole cycles, back to back; a cycle starts only if one more cycle as
    long as the last one ends within ``seconds`` (the first always runs)."""
    records, last = [], 0.0
    start = time.perf_counter()
    for cycle in workloads.cycles(workload, seed):
        if records and time.perf_counter() - start + last > seconds:
            break
        cycle_records, last = run_ops(cycle, seed)
        records += cycle_records
    wall = time.perf_counter() - start
    rss = peak_rss_mb(workload)
    failures, certs = judge_all(records)
    latencies = [r[1] * 1000.0 for r in records]
    out = {
        "attempted": len(records),
        "failures": failures,
        "latencies_ms": latencies,
        "wall_s": wall,
        "certs": certs,
        "peak_rss_mb": rss,
    }
    if workload == "verify":
        out["pass_s"] = pass_times(records)
    return out


def cli_startup_ms(samples=5):
    """Median wall time of the cheapest command in a fresh process."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        code, _, _ = workloads.run_cli(ROOT, ["poly", "q", "0"])
        times.append((time.perf_counter() - start) * 1000.0)
        if code != 0:
            sys.exit("cli start-up probe failed")
    return statistics.median(times)


def traced(workload, seed, first_call_ms):
    """One cycle untraced, then the same cycle traced, from the same cache state."""
    cycle = next(workloads.cycles(workload, seed))
    tracer.clear_kit_caches()
    plain, plain_wall = run_ops(cycle, seed)
    trace = tracer.Tracer()
    tracer.clear_kit_caches()
    trace.install()
    try:
        with_trace, traced_wall = run_ops(cycle, seed, traced=True)
        snapshot = trace.snapshot()
    finally:
        trace.uninstall()
    if workload == "exact-cold":
        children = [json.loads(r[3][1].strip().splitlines()[-1]) for r in with_trace if r[2] == "ok"]
        snapshot = tracer.merge(children)
    failures, _ = judge_all(plain + with_trace)
    out = {
        "attempted": len(plain) + len(with_trace),
        "failures": failures,
        "snapshot": snapshot,
        "untraced_s": plain_wall,
        "traced_s": traced_wall,
        "first_call_ms": first_call_ms,
        "cli_startup_ms": cli_startup_ms(),
    }
    if workload == "verify":
        out["check_ms"] = {f"{op['id']}.{op['P']}": s * 1000.0 for op, s, _, _ in plain}
        out["pass_s"] = pass_times(plain)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    first_call_ms = setup(args.workload)
    print("ready", flush=True)
    if args.probe:
        return 0
    if args.trace:
        result = traced(args.workload, args.seed, first_call_ms)
    else:
        result = timed(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
