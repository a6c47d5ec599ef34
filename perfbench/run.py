"""The hmap benchmark: one command for every workload.

    python3 perfbench/run.py --workload radius-scan --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; nothing needs installing, the
command puts ``src`` on the path of every process it starts.  The last line
of its output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("radius-scan", "verify-all", "cli-cold")
SETUP_REPEATS = 3

# cli-cold: one round is every call once, in a seeded order
CLI_CALLS = {
    "radius": ["radius", "--function", "F", "--kind", "convex"],
    "classify": ["classify", "--function", "F", "--check", "m-alpha"],
    "convolve": ["convolve", "--left", "L", "--right", "L", "--emit", "coeffs"],
    "plot": ["plot", "--function", "example22", "--radii", "0.5,0.9", "--out", "curves.csv"],
    "verify": ["verify", "--suite", "coefficients", "--out", "report.json"],
}

# (metric, unit, tracer key, field); field "self_s" is the time spent in the
# layer's own code, "incl_s" the whole time of its outermost calls
LAYERS = [
    ("series.horner_calls", "count", "series.horner", "calls"),
    ("series.horner_points", "count", "series.horner", "points"),
    ("series.horner_terms", "count", "series.horner", "terms"),
    ("series.horner_s", "s", "series.horner", "self_s"),
    ("harmonic.eval_calls", "count", "harmonic.eval", "calls"),
    ("harmonic.eval_points", "count", "harmonic.eval", "points"),
    ("harmonic.eval_s", "s", "harmonic.eval", "self_s"),
    ("harmonic.angular_derivatives_s", "s", "harmonic.angular_derivatives", "self_s"),
    ("radius.searches", "count", "radius.search", "calls"),
    ("radius.circle_tests", "count", "radius.circle_test", "calls"),
    ("radius.circle_tests_per_search", "count", None, None),
    ("radius.circle_test_s", "s", "radius.circle_test", "self_s"),
    ("classifiers.kaplan_integral_calls", "count", "classifiers.kaplan_integral", "calls"),
    ("classifiers.kaplan_integrand_calls", "count", "classifiers.kaplan_integrand", "calls"),
    ("classifiers.kaplan_integral_s", "s", "classifiers.kaplan_integral", "incl_s"),
    ("classifiers.family_bounds_s", "s", "classifiers.family_bounds", "incl_s"),
    ("convolution.hadamard_calls", "count", "convolution.hadamard", "calls"),
    ("convolution.hadamard_s", "s", "convolution.hadamard", "incl_s"),
    ("convolution.tilde_check_s", "s", "convolution.tilde_check", "incl_s"),
    ("catalog.build_calls", "count", "catalog.build", "calls"),
    ("catalog.build_s", "s", "catalog.build", "incl_s"),
    ("verify.coefficients_s", "s", "verify.coefficients", "incl_s"),
    ("verify.bounds_s", "s", "verify.bounds", "incl_s"),
    ("verify.radii_s", "s", "verify.radii", "incl_s"),
    ("verify.convolution_s", "s", "verify.convolution", "incl_s"),
    ("verify.claims", "count", None, None),
    ("plotting.sample_curves_s", "s", "plotting.sample_curves", "incl_s"),
    ("cli.import_hmap_s", "s", "import hmap", "incl_s"),
    ("cli.import_scipy_integrate_s", "s", "import scipy.integrate", "incl_s"),
    ("cli.import_scipy_optimize_s", "s", "import scipy.optimize", "incl_s"),
    ("cli.dispatch_s", "s", "cli.dispatch", "incl_s"),
    ("trace.overhead_s", "s", None, None),
]
# on radius-scan the evaluation stack is also reported per input kind
ROUTES = (".closed", ".series")
PER_LAYER = [(name + route, unit)
             for name, unit, *_ in LAYERS
             for route in ("",) + (ROUTES if name.split(".")[0] in ("series", "harmonic", "radius") else ())]
IMPORTS = ("hmap", "scipy.integrate", "scipy.optimize")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HMAP_TRUNC_ORDER", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """One finished process: exit code, output, wall time and peak RSS."""

    def __init__(self, argv: list[str], cwd: Path):
        with tempfile.TemporaryFile(dir=cwd) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - t0
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        self.stdout = out.decode(errors="replace")
        self.rss_kb = usage.ru_maxrss

    def failure(self) -> str | None:
        if self.code == 0:
            return None
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {self.code}: {tail[0]}"


# -- cli-cold ------------------------------------------------------------------------


def _check_call(name: str, child: Child, work: Path, radius_ref) -> str | None:
    import checks

    failure = child.failure()
    if failure:
        return f"{name}: {failure}"
    if name == "radius":
        failure = checks.check_cli_radius(child.stdout, radius_ref)
    elif name == "classify":
        failure = checks.check_cli_membership(child.stdout)
    elif name == "convolve":
        failure = checks.check_cli_convolve(child.stdout)
    elif name == "plot":
        failure = checks.check_cli_plot((work / "curves.csv").read_text())
    else:
        failure = checks.check_cli_verify((work / "report.json").read_text(), "coefficients")
    return failure and f"{name}: {failure}"


def _import_times(stderr: str) -> dict[str, dict]:
    """Cumulative import times from ``-X importtime``, as tracer totals."""
    found = {}
    for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", stderr, re.M):
        if m.group(2) in IMPORTS:
            found[f"import {m.group(2)}"] = {"incl_s": int(m.group(1)) * 1e-6}
    return found


def run_cli_cold(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import numpy as np

    import checks
    import reference as ref
    import tracer
    from calibrate import Calibration

    cal = Calibration()
    radius_ref = checks.RadiusReference(ref.f_alpha(1), "convexity")
    tally = checks.Tally()
    problem = checks.reference_self_check()
    if problem:
        tally.problems.append(problem)
    rng = np.random.default_rng(seed)
    rss = []
    op_times, costs, walls, traced_walls = [], [], [], []
    totals: dict[str, dict] = {}
    trace_file = work / "trace.json"
    start = time.perf_counter()
    while True:
        passes = [False, True] if trace else [False]
        order = list(rng.permutation(list(CLI_CALLS)))
        for traced in passes:
            calls, windows = [], []
            for name in order:
                for stale in ("trace.json", "curves.csv", "report.json"):  # outputs of earlier calls
                    (work / stale).unlink(missing_ok=True)
                if traced:
                    argv = [sys.executable, "-X", "importtime", str(BENCH / "worker.py"), "cli",
                            str(trace_file), *CLI_CALLS[name]]
                else:
                    argv = [sys.executable, "-m", "hmap.cli", *CLI_CALLS[name]]
                mark = cal.mark()
                child = Child(argv, work)
                end = cal.mark()
                tally.record(_check_call(name, child, work, radius_ref))
                if traced:
                    if trace_file.exists():
                        tracer.add_totals(totals, json.loads(trace_file.read_text())["layers"])
                    tracer.add_totals(totals, _import_times(child.stderr))
                else:
                    rss.append(child.rss_kb)
                    cal.slice(max(0.1 * child.wall, 0.05))
                    windows.append((mark, end))
                calls.append(child.wall)
            (traced_walls if traced else walls).append(sum(calls))
            if not traced:
                op_times.append(statistics.fmean(calls))
                costs.append(statistics.fmean(cal.cost(*w) for w in windows))
        # stop at the whole round that ends nearest to the deadline
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(walls) >= seconds:
            break
    result = {**tally.summary(), "rounds": len(walls), "op_s": statistics.median(op_times),
              "op_cost": statistics.median(costs), "rss_kb": max(rss)}
    if trace:
        result["layers"] = tracer.per_round(totals, len(traced_walls))
        result["overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return result


# -- assembling the result -----------------------------------------------------------


def per_layer_metrics(result: dict) -> dict:
    layers = result["layers"]

    def get(key, field, route=""):
        routes = (route,) if route else ("",) + ROUTES  # a plain name totals every route
        return sum(float(layers.get(key + r, {}).get(field, 0)) for r in routes)

    def value(name, key, field, route):
        if name == "radius.circle_tests_per_search":
            searches = get("radius.search", "calls", route)
            return get("radius.circle_test", "calls", route) / searches if searches else 0.0
        if name == "verify.claims":
            return float(result.get("claims", 0))
        if name == "trace.overhead_s":
            return result["overhead_s"]
        return get(key, field, route)

    units = dict(PER_LAYER)
    metrics = {}
    for name, unit, key, field in LAYERS:
        for route in ("",) + ROUTES:
            if name + route in units:
                metrics[name + route] = {"value": value(name, key, field, route), "unit": unit}
    return metrics


def measure_setup(workload: str, seed: int, work: Path) -> tuple[float, list[int]]:
    """Median wall time of a fresh process that imports hmap and builds the inputs."""
    if workload == "cli-cold":
        argv = [sys.executable, "-c", "import hmap"]
    else:
        argv = [sys.executable, str(BENCH / "worker.py"), "setup", workload, str(seed)]
    runs = [Child(argv, work) for _ in range(SETUP_REPEATS)]
    for child in runs:
        if child.failure():
            raise RuntimeError(f"set-up failed: {child.failure()}\n{child.stderr}")
    return statistics.median(c.wall for c in runs), [c.rss_kb for c in runs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hmap" / "__init__.py").is_file():
        print(f"perfbench: no hmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))

    work = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        setup_s, setup_rss = (None, []) if args.trace else measure_setup(args.workload, args.seed, work)
        if args.workload == "cli-cold":
            result = run_cli_cold(args.seed, args.seconds, bool(args.trace), work)
        else:
            child = Child([sys.executable, str(BENCH / "worker.py"), "run", args.workload, str(args.seed),
                           repr(args.seconds), str(args.trace)], work)
            if child.failure():
                print(child.stderr, file=sys.stderr)
                raise RuntimeError(f"{args.workload} worker failed: {child.failure()}")
            result = json.loads(child.stdout.strip().splitlines()[-1])
            result["rss_kb"] = child.rss_kb
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(result)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_cost": {"value": result["op_cost"], "unit": "rep"},
            "peak_rss_mb": {"value": max([result["rss_kb"], *setup_rss]) / 1024, "unit": "MB"},
        }
    routes = "".join(f", {r} {t:.4f} s" for r, t in result.get("route_s", {}).items())
    print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, median operation {result['op_s']:.4f} s{routes}")
    for m in metrics.values():  # no operation succeeded: no figure, and the run is incorrect
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
