"""hlcbs benchmark: one workload, one closed-loop client, every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Set-up is timed in several fresh client processes (the last of which goes on
to run the workload) and reported as the median.  The client runs ops back
to back for ``--seconds`` seconds and judges every result against an
independent reference after the clock stops.  ``--trace 1`` instead runs
one cycle of the workload untraced and then traced, and reports per-layer
call counts and self times.  The last line of standard output is the JSON
result; the lines before it are the same figures for people, with the
environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# set-up is timed in at least MIN_SETUPS fresh processes, and in more (up
# to MAX_SETUPS) while their total stays under SETUP_BUDGET_S seconds
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 2.0
SEED_PRECISIONS = (128, 512, 2048, 8192)
WORKER_TIMEOUT_S = 170

# name, unit, better; the contract file BENCHMARK.json lists the same
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("cert_ratio", "bit/bit", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def per_layer():
    """(name, unit, better) of every metric the traced run emits."""
    from hlcbs import verify

    specs = []
    for module, path in tracer.TARGETS:
        name = tracer.metric_name(module, path)
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
        if name == tracer.SEED:
            specs += [(f"{name}.calls.lattice", "count", "higher"), (f"{name}.calls.gamma", "count", "lower")]
    specs += [(f"polyfam.{fn}.cache_hit_ratio", "ratio", "higher") for fn in tracer.CACHED]
    for precision in workloads.VERIFY_PRECISIONS:
        specs += [(f"verify.{cid}.ms.{precision}", "ms", "lower") for cid in verify.check_ids()]
        specs.append((f"verify.pass_s.{precision}", "s", "lower"))
    specs.append(("cli.startup_ms", "ms", "lower"))
    specs += [(f"seed.first_call_ms.{p}", "ms", "lower") for p in SEED_PRECISIONS]
    specs += [
        ("trace.untraced_s", "s", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def start_worker(args, probe: bool):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=workloads.child_env(ROOT))


def run_worker(args):
    """Set up in fresh processes; the last one runs the workload.

    Returns (set-up seconds of each process, the worker's result).
    """
    samples = []
    while True:
        last = args.trace or (len(samples) + 1 >= MIN_SETUPS and (sum(samples) >= SETUP_BUDGET_S or len(samples) + 1 >= MAX_SETUPS))
        started = time.perf_counter()
        proc = start_worker(args, probe=not last)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            if line.strip() != "ready":
                raise RuntimeError("client did not finish set-up")
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"client exited with {proc.returncode}")
        if last:
            return samples, json.loads(out.strip().splitlines()[-1])


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    It weights every sample by a beta kernel around rank p(n+1) instead of
    reading one or two order statistics, so with a few dozen ops it moves
    far less between runs than the plain sample quantile does.
    """
    import mpmath

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end_metrics(setup, result):
    lat = result["latencies_ms"]
    if len(lat) < 2 or not result["certs"]:
        raise RuntimeError("too few ops in the timed phase to report percentiles")
    done = result["attempted"] - len(result["failures"])
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": done / result["wall_s"],
        "op_p50_ms": quantile(lat, 0.5),
        "op_p90_ms": quantile(lat, 0.9),
        "cert_ratio": statistics.median(result["certs"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(result):
    snap = result["snapshot"]
    values = {}
    for module, path in tracer.TARGETS:
        name = tracer.metric_name(module, path)
        values[f"{name}.calls"] = snap["calls"].get(name, 0)
        values[f"{name}.self_ms"] = snap["self_ms"].get(name, 0.0)
    for route, count in snap["seed_routes"].items():
        values[f"{tracer.SEED}.calls.{route}"] = count
    for fn in tracer.CACHED:
        hits, misses = snap["cache"].get(fn, (0, 0))
        values[f"polyfam.{fn}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    from hlcbs import verify

    check_ms = result.get("check_ms", {})
    pass_s = result.get("pass_s", {})
    for precision in workloads.VERIFY_PRECISIONS:
        for cid in verify.check_ids():
            values[f"verify.{cid}.ms.{precision}"] = check_ms.get(f"{cid}.{precision}", 0.0)
        passes = pass_s.get(str(precision), [])
        values[f"verify.pass_s.{precision}"] = statistics.median(passes) if passes else 0.0
    for precision in SEED_PRECISIONS:
        values[f"seed.first_call_ms.{precision}"] = result["first_call_ms"].get(str(precision), 0.0)
    values["cli.startup_ms"] = result["cli_startup_ms"]
    values["trace.untraced_s"] = result["untraced_s"]
    values["trace.traced_s"] = result["traced_s"]
    values["trace.overhead_ratio"] = result["traced_s"] / result["untraced_s"] - 1.0
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hlcbs", "__init__.py")):
        print(f"error: no hlcbs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        setup, result = run_worker(args)
        if args.trace:
            values, specs = per_layer_metrics(result), per_layer()
        else:
            values, specs = end_to_end_metrics(setup, result), END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failures = result["attempted"], result["failures"]
    print(f"# env {json.dumps(environment())}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, one client, no threads")
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    print(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    if not args.trace:
        print(f"# setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}")
        print(f"# latency samples: {len(result['latencies_ms'])} ops in {result['wall_s']:.2f} s")
        for precision, passes in result.get("pass_s", {}).items():
            text = f"{statistics.median(passes):.4f} s (median of {len(passes)})" if passes else "n/a (no complete pass)"
            print(f"verify_pass_s.{precision} {text}")
    metrics = {}
    for name, unit, _ in specs:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
