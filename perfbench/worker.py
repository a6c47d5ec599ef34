"""Runs hmap inside one process for run.py.

    worker.py setup <workload> <seed>
        import hmap and build the workload's inputs, then exit
    worker.py run <workload> <seed> <seconds> <trace>
        run whole rounds of the workload and print one JSON line
    worker.py cli <report.json> <hmap arguments...>
        one traced CLI call: dispatch under the tracer, totals to report.json

``src`` must be on PYTHONPATH.  hmap is imported before anything else so that
``-X importtime`` charges numpy and scipy to it, as a plain CLI call would.
"""

import hmap

import json
import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
from hmap import catalog, radius, verify
from hmap.defaults import DEFAULT_ORDER
from hmap.series import make_generator

import checks
from calibrate import Calibration

RADIUS_TOL = 1e-6
KINDS = ("convexity", "starlikeness")
SUITES = ("coefficients", "bounds", "radii", "convolution")
SEEDED_CLOSED = 2
SEEDED_TWINS = 3


@dataclass
class Solve:
    label: str
    f: hmap.HarmonicMap
    kind: str
    ref: tuple  # reference map: (name, parameter)
    known_fault: bool = False


def seeded_alphas(rng, n: int) -> list[complex]:
    """alpha with 0.45 <= |alpha| <= 0.75 and |arg alpha| <= 80 degrees.

    There every radius hmap brackets lies on its closed-form route (starlike
    radii 0.75-0.89, above the 0.7 switch) or well inside the disk
    (convexity radii 0.3-0.45), so no seed lands on a fault.
    """
    rho = rng.uniform(0.45, 0.75, n)
    phi = np.deg2rad(rng.uniform(-80, 80, n))
    return [complex(round(a.real, 6), round(a.imag, 6)) for a in rho * np.exp(1j * phi)]


def _warm(f: hmap.HarmonicMap) -> None:
    # first evaluation fills the map's cached derivative series
    z = np.array([0.1 + 0.1j])
    for m in ("h_at", "g_at", "dh_at", "dg_at", "d2h_at", "d2g_at"):
        getattr(f, m)(z)


def build_radius_scan(seed: int) -> list[Solve]:
    """Solves on maps with closed forms, then on series-only maps."""
    rng = np.random.default_rng(seed)
    maps = [
        ("F", catalog.map_F(), ("f_alpha", 1)),
        ("L", catalog.map_L(), ("f_alpha", -1)),
        ("example21", catalog.example21(), ("example21", None)),
        ("example22", catalog.example22(), ("example22", None)),
        ("l_hadamard_l", catalog.l_hadamard_l(), ("square", None)),
    ]
    for a in seeded_alphas(rng, SEEDED_CLOSED):
        maps.append((f"f_alpha({a})", catalog.f_alpha(a), ("f_alpha", a)))
    ops = [Solve(label, f, kind, r) for label, f, r in maps for kind in KINDS]

    # series-only: no closed form, every point goes through Horner
    mix = 0.5 * (make_generator("half_plane_l", DEFAULT_ORDER) + make_generator("koebe_k", DEFAULT_ORDER))
    ops.append(Solve("conv(L,L)", catalog.parse_function("conv(L,L)"), "starlikeness", ("square", None)))
    for a in seeded_alphas(rng, SEEDED_TWINS):
        ops.append(Solve(f"twin f_alpha({a})", catalog.make_M_alpha_member(mix, a), "convexity", ("f_alpha", a)))
    # fail every time: no truncation guard on series-only maps near |z| = 0.8
    ops.append(Solve("twin L", catalog.make_M_alpha_member(mix, -1.0), "starlikeness",
                     ("f_alpha", -1), known_fault=True))
    ops.append(Solve("twin example22", catalog.make_M_alpha_member(make_generator("half_plane_l", DEFAULT_ORDER), 1.0),
                     "starlikeness", ("example22", None), known_fault=True))
    for op in ops:
        _warm(op.f)
    return ops


BUILDERS = {
    "radius-scan": build_radius_scan,
    "verify-all": lambda seed: None,  # the suites build their own maps
}


# -- rounds ---------------------------------------------------------------------------


class Outcome(checks.Tally):
    def __init__(self):
        super().__init__()
        self.claims = 0  # verify claim records judged in the last round
        self.route_s: dict[str, list[float]] = {"closed": [], "series": []}  # radius solves that did not fail


def _references(ops: list[Solve]) -> dict:
    import reference as ref

    forms = {"f_alpha": ref.f_alpha, "example21": lambda _: ref.example21(),
             "example22": lambda _: ref.example22(), "square": lambda _: ref.half_plane_square()}
    refs = {}
    for op in ops:
        key = (op.ref, op.kind)
        if key not in refs:
            refs[key] = checks.RadiusReference(forms[op.ref[0]](op.ref[1]), op.kind)
    return refs


def radius_round(ops: list[Solve], refs: dict, outcome: Outcome, rng, cal, tracer=None):
    """Solve every operation once.

    Returns the wall times and calibration windows of the solves that did
    not fail, and the wall time of all of them.
    """
    spent, windows, total = [], [], 0.0
    for op in ops:
        route = "series" if op.f.exact is None else "closed"
        if tracer is not None:
            tracer.tag = f".{route}"
        mark = cal.mark()
        t0 = time.perf_counter()
        try:
            res = radius.radius_search(op.f, op.kind, tol=RADIUS_TOL)
        except (ValueError, RuntimeError) as exc:
            failure = f"{op.label} {op.kind}: {type(exc).__name__}: {exc}"
        else:
            failure = refs[(op.ref, op.kind)].check(res.r_lo, res.r_hi, RADIUS_TOL, res.upper_limit_hit)
            failure = failure and f"{op.label} {op.kind}: {failure}"
        dt = time.perf_counter() - t0
        total += dt
        if failure is None:
            spent.append(dt)
            windows.append([(mark, cal.mark())])
            if tracer is None:
                outcome.route_s[route].append(dt)
        outcome.record(failure, op.known_fault)
    if tracer is not None:
        tracer.tag = ""
    return spent, windows, total


def verify_round(_ops, _refs, outcome: Outcome, rng, cal, tracer=None):
    """One operation: the four verify suites in process, in a seeded order."""
    spent = 0.0
    records, windows = [], []
    for name in rng.permutation(SUITES):
        mark = cal.mark()
        t0 = time.perf_counter()
        report = verify.run_suite(str(name))
        spent += time.perf_counter() - t0
        windows.append((mark, cal.mark()))
        records.extend(r.to_dict() for r in report.records)
    failed, problems = checks.check_records(records, headline=True)
    outcome.problems.extend(problems)
    outcome.record(f"{failed} verify claims fail" if failed else None)
    outcome.claims = len(records)
    return ([spent], [windows], spent) if not failed else ([], [], spent)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = BUILDERS[workload](seed)
    outcome = Outcome()
    problem = checks.reference_self_check()
    if problem:
        outcome.problems.append(problem)
    if workload == "verify-all":
        refs, one_round = {}, verify_round
    else:
        refs, one_round = _references(ops), radius_round
    rng = np.random.default_rng(seed)

    cal = Calibration()
    tracer = None
    if trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
    op_times, costs, walls, traced_walls, totals = [], [], [], [], {}
    start = time.perf_counter()
    while True:
        round_seed = int(rng.integers(2**63))
        with cal.ticking():
            ticks = cal.mark()[1]
            spent, windows, wall = one_round(ops, refs, outcome, np.random.default_rng(round_seed), cal)
            wall -= cal.mark()[1] - ticks
            cal.slice(0.05)  # samples after the last operation
        op_times.append(statistics.fmean(spent) if spent else math.nan)
        op_costs = [sum(cal.cost(*w) for w in op) for op in windows]
        costs.append(statistics.fmean(op_costs) if op_costs else math.nan)
        walls.append(wall)
        if tracer is not None:
            # every untraced round is followed by the same round traced
            tracer.install()
            try:
                _, _, wall = one_round(ops, refs, outcome, np.random.default_rng(round_seed), cal, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            tracer_module.add_totals(totals, tracer.collect())
        # stop at the whole round that ends nearest to the deadline
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(walls) >= seconds:
            break
    result = {
        **outcome.summary(),
        "rounds": len(walls),
        "op_s": statistics.median(op_times),
        "op_cost": statistics.median(costs),
    }
    if workload == "radius-scan":
        result["route_s"] = {r: statistics.median(t) for r, t in outcome.route_s.items() if t}
    if tracer is not None:
        result["layers"] = tracer_module.per_round(totals, len(traced_walls))
        result["claims"] = outcome.claims
        result["overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return result


def cli(report_path: str, argv: list[str]) -> int:
    import hmap.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.dispatch", hmap.cli.dispatch, (argv,))
    finally:
        tracer.uninstall()
    with open(report_path, "w", encoding="ascii") as fh:
        json.dump({"exit": code, "layers": tracer.collect()}, fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        BUILDERS[argv[1]](int(argv[2]))
        return 0
    if mode == "run":
        print(json.dumps(run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")))
        return 0
    if mode == "cli":
        return cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
