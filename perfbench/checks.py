"""Checks of hmap outputs against values computed in reference.py.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.  None of them compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

import reference as ref

# hmap's documented acceptance threshold on the sampled circle margin
# (defaults.CIRCLE_MIN_TOL): a circle passes while its minimum turning rate
# is >= -1e-9, so a correct bracket may sit up to 1e-9 / |margin'(r*)| above
# the root of the margin.
CIRCLE_MIN_TOL = 1e-9
# hmap's documented accuracy of its truncated-series route (defaults
# SERIES_ABS_TOL), which evaluates h and g at |z| <= 0.7 (EXACT_SWITCH_RADIUS)
# even when a closed form exists.
SERIES_ABS_TOL = 1e-9
SERIES_ROUTE_RADIUS = 0.7


class Tally:
    """Operations attempted and failed in one run, and the unexpected failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # any entry makes the run incorrect

    def record(self, failure: str | None, known_fault: bool = False) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if not known_fault:
                self.problems.append(failure)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems[:5]}


class RadiusReference:
    """True transition radius of one map and how far a passing circle may overshoot it."""

    def __init__(self, cf: ref.ClosedForm, kind: str):
        self.kind = kind
        self.radius = ref.true_radius(cf, kind)
        h = 1e-6
        slope = (ref.margin(cf, kind, self.radius + h) - ref.margin(cf, kind, self.radius - h)) / (2 * h)
        self.overshoot = CIRCLE_MIN_TOL / abs(slope)

    def check(self, r_lo: float, r_hi: float, tol: float, upper_limit_hit: bool = False) -> str | None:
        if upper_limit_hit:
            return f"no {self.kind} transition found; true radius {self.radius:.9f}"
        if r_hi - r_lo > tol:
            return f"bracket [{r_lo:.9f}, {r_hi:.9f}] is wider than {tol}"
        if r_lo > self.radius + self.overshoot or r_hi < self.radius:
            return f"bracket [{r_lo:.9f}, {r_hi:.9f}] misses the true {self.kind} radius {self.radius:.9f}"
        return None


def reference_self_check() -> str | None:
    """The reference radii of F must reproduce the paper's closed forms."""
    F = ref.f_alpha(1)
    for kind, exact in (("convexity", ref.R_CONVEX_F), ("starlikeness", ref.R_STAR_F)):
        got = ref.true_radius(F, kind)
        if abs(got - exact) > 1e-12:
            return f"reference {kind} radius of F is {got!r}, expected {exact!r}"
    return None


# -- verify records ----------------------------------------------------------------

_HEADLINE_EXPECTED = {
    "radii.convexity_constant": ref.R_CONVEX_F,
    "radii.starlikeness_constant": ref.R_STAR_F,
    "radii.p_root_at_minus_one": ref.R_CONVEX_F,
    "bounds.area_min[1.0]": math.pi * (1 - 1.0 ** 2 / 2),
    "bounds.area_min[0.6]": math.pi * (1 - 0.6 ** 2 / 2),
    "bounds.area_floor": math.pi * (1 - 0.7 ** 2 / 2),
    "bounds.kernel_mass": 2 * math.pi,
}


def judge(record: dict) -> bool:
    """Pass or fail of one claim record, decided from its own numbers."""
    c, e, t = record["computed"], record["expected"], record["tolerance"]
    kind = record["comparison"]
    if kind == "abs_diff":
        return abs(c - e) <= t
    if kind == "at_least":
        return c >= e - t
    if kind == "at_most":
        return c <= e + t
    raise ValueError(f"unknown comparison {kind!r}")


def check_records(records: list[dict], headline: bool) -> tuple[int, list[str]]:
    """Re-judge claim records; return (failed claims, problems found).

    With ``headline`` the records must also carry the paper's constants,
    recomputed here: 2 - sqrt(3), the sharp starlike radius of F, 4 sqrt(2) - 5
    (through the ordering claim) and the area floor pi (1 - |alpha|^2 / 2).
    """
    problems = []
    failed = 0
    by_id = {r["claim_id"]: r for r in records}
    for r in records:
        verdict = judge(r)
        if verdict != r["passed"]:
            problems.append(f"{r['claim_id']} reports passed={r['passed']} but its numbers say {verdict}")
        failed += not verdict
    if headline:
        for cid, value in _HEADLINE_EXPECTED.items():
            if cid not in by_id:
                problems.append(f"claim {cid} is missing")
            elif abs(by_id[cid]["expected"] - value) > 1e-14 * max(1.0, abs(value)):
                problems.append(f"{cid} expects {by_id[cid]['expected']!r}, recomputed {value!r}")
        order = by_id.get("radii.ordering")
        gap = ref.R_STAR_F - ref.R_CLASS_STAR
        if order is None or abs(order["computed"] - gap) > 1e-9:
            problems.append(f"radii.ordering should compute r_star - (4 sqrt 2 - 5) = {gap!r}")
    return failed, problems


# -- CLI outputs ---------------------------------------------------------------------


def check_cli_radius(stdout: str, target: RadiusReference) -> str | None:
    m = re.search(r"bracket \[([0-9.]+), ([0-9.]+)\]", stdout)
    if not m:
        return f"no bracket in radius output {stdout!r}"
    lo, hi = float(m.group(1)), float(m.group(2))
    rounding = 5e-10  # printed with 9 decimals
    return target.check(lo - rounding, hi + rounding, 1e-6 + 2 * rounding)


def check_cli_membership(stdout: str) -> str | None:
    m = re.search(r"\[(PASS|FAIL)\] membership: relation residual (\S+), curvature grid min (\S+) ", stdout)
    if not m:
        return f"no membership line in {stdout!r}"
    status, residual, cmin = m.group(1), float(m.group(2)), float(m.group(3))
    # F = f_alpha(1): 1 + z h''/h' = (1 + 2z)/(1 - z), smallest real part on
    # |z| <= 0.99 at z = -0.99
    exact = (1 - 2 * 0.99) / (1 + 0.99)
    if status != "PASS" or residual > 1e-10 or abs(cmin - exact) > 1e-6:
        return f"membership of F: status {status}, residual {residual}, grid min {cmin} (true {exact:.6f})"
    return None


def check_cli_convolve(stdout: str) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["n", "a_re", "a_im", "b_re", "b_im"] or len(rows) < 10:
        return "convolve output is not the coefficient table"
    for row in rows[1:]:
        n = int(row[0])
        a_re, a_im, b_re, b_im = map(float, row[1:])
        want_a = ((n + 1) / 2) ** 2 if n >= 1 else 0.0
        want_b = ((n - 1) / 2) ** 2 if n >= 1 else 0.0
        if (a_re, a_im, b_re, b_im) != (want_a, 0.0, want_b, 0.0):
            return f"coefficient {n} of L*L is ({a_re}, {b_re}), expected ({want_a}, {want_b})"
    return None


def _half_digit(x: np.ndarray) -> np.ndarray:
    """Largest rounding error of x printed to 12 significant digits."""
    ax = np.abs(x)
    return np.where(ax > 0, 0.5 * 10.0 ** (np.floor(np.log10(np.where(ax > 0, ax, 1.0))) - 11), 0.0)


def check_cli_plot(text: str, radii=(0.5, 0.9), rays: int = 12, samples: int = 256) -> str | None:
    """Sampled example22 curves must match its closed form to 12 digits.

    The CSV prints the curve parameters to 12 digits as well, so each point
    is allowed the change of f that rounding r and theta there can cause.
    Points with |z| <= 0.7 come from hmap's series route, whose documented
    accuracy is SERIES_ABS_TOL for each of h and g; they are held to that.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["curve_id", "kind", "param", "t", "u", "v"]:
        return "plot output is not the curve CSV"
    body = rows[1:]
    if len(body) != (len(radii) + rays) * samples:
        return f"plot has {len(body)} points, expected {(len(radii) + rays) * samples}"
    circle = np.array([r[1] == "circle" for r in body])
    param, t, u, v = (np.array([float(r[i]) for r in body]) for i in (2, 3, 4, 5))
    r, theta = np.where(circle, param, t), np.where(circle, t, param)
    z = r * np.exp(1j * theta)
    cf = ref.example22()
    w = ref.value(cf, z)
    moved = (_half_digit(r) + r * _half_digit(theta)) * (np.abs(cf.dh(z)) + np.abs(cf.dg(z)))
    series = np.where(r <= SERIES_ROUTE_RADIUS, 2 * SERIES_ABS_TOL, 0.0)
    allowed = 1e-11 * np.maximum(1, np.abs(w)) + moved + series
    err = np.abs(u + 1j * v - w)
    k = int(np.argmax(err - allowed))
    if err[k] > allowed[k]:
        return f"plot point z = {z[k]:.6f} is off the closed form by {err[k]:.3e}"
    if sorted(set(param[circle])) != sorted(radii):
        return "plot circles are not the requested radii"
    return None


def check_cli_verify(report_text: str, suite: str) -> str | None:
    report = json.loads(report_text)
    if report.get("suite") != suite or not report.get("records"):
        return f"verify report is not a {suite} report"
    failed, problems = check_records(report["records"], headline=False)
    if problems:
        return problems[0]
    if failed or not report["passed"]:
        return f"{failed} {suite} claims fail"
    return None
