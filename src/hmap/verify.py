"""One-shot verification suites.

Each suite re-derives a batch of numerical claims from scratch and reports
them as machine-readable records: an identifier, a plain-language statement
of the claim, the computed and expected values, the tolerance, and pass or
fail.  The CLI surfaces these through ``hmap verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog, classifiers, convolution, radius
from .defaults import DEFAULT_ORDER, SUITES
from .harmonic import HarmonicMap, evaluate_f, jacobian, sense_preserving_check
from .report import Report
from .series import _GENERATORS, ClosedForm, TruncatedSeries, make_generator


@dataclass(frozen=True)
class ClaimRecord(Report):
    claim_id: str
    claim: str
    computed: float
    expected: float
    tolerance: float
    comparison: str  # "abs_diff", "at_least", "at_most"
    passed: bool


@dataclass(frozen=True)
class VerificationReport(Report):
    suite: str
    passed: bool = field(init=False)
    records: tuple[ClaimRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "passed", all(r.passed for r in self.records))

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.claim_id}: {r.claim} "
                         f"(computed {r.computed:.6g}, expected {r.expected:.6g})")
        lines.append(f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
                     f"({sum(r.passed for r in self.records)}/{len(self.records)})")
        return lines


def _abs_diff(cid: str, claim: str, computed: float, expected: float, tol: float) -> ClaimRecord:
    return ClaimRecord(cid, claim, float(computed), float(expected), tol, "abs_diff",
                       bool(abs(computed - expected) <= tol))


def _at_least(cid: str, claim: str, computed: float, floor: float, tol: float = 0.0) -> ClaimRecord:
    return ClaimRecord(cid, claim, float(computed), float(floor), tol, "at_least",
                       bool(computed >= floor - tol))


def _at_most(cid: str, claim: str, computed: float, ceil: float, tol: float = 0.0) -> ClaimRecord:
    return ClaimRecord(cid, claim, float(computed), float(ceil), tol, "at_most",
                       bool(computed <= ceil + tol))


def _area_quadrature(f: HarmonicMap) -> float:
    """The Jacobian of f integrated over the unit disk: the double integral of J(r e^{i theta}) r.

    Gauss-Legendre in r on 16 nodes, its nodes and weights from the
    Golub-Welsch eigenproblem mapped to [0, 1], and the periodic trapezoid
    rule on 64 angles in theta.  Exact, up to rounding, when J r is a
    polynomial of degree below 32 in r and a trigonometric polynomial of
    degree below 64 in theta: so for every polynomial map of degree up to 16.
    """
    k = np.arange(1.0, 16)
    beta = k / np.sqrt(4 * k * k - 1)  # the Jacobi matrix of the Legendre polynomials
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    # the weights on [0, 1] are the squares of the eigenvectors' first row,
    # which has norm 1; dividing by its computed norm takes out eigh's few-ulp error
    r, weight = (x + 1) / 2, v[0] ** 2 / np.sum(v[0] ** 2)
    jac = jacobian(f, r[:, None] * np.exp(2j * np.pi / 64 * np.arange(64)))
    return float(2 * np.pi / 64 * np.sum(weight * r * jac.sum(axis=1)))


# -- suites -----------------------------------------------------------------------


def suite_coefficients(order: int = DEFAULT_ORDER) -> list[ClaimRecord]:
    recs: list[ClaimRecord] = []
    n = np.arange(order + 1, dtype=float)
    for alpha in (1, -1, 1j, 0.5):
        f = catalog.f_alpha(alpha, order)
        dev_a = np.max(np.abs(np.abs(f.h.coeffs[2:]) - (n[2:] + 1) / 2))
        dev_b = np.max(np.abs(np.abs(f.g.coeffs[2:]) - (n[2:] - 1) * abs(alpha) / 2))
        recs.append(_abs_diff(
            f"coeff.extremal[{alpha}]",
            "extremal member attains |a_n| = (n+1)/2 and |b_n| = (n-1)|alpha|/2",
            max(dev_a, dev_b), 0.0, 1e-12))
        recs.append(_abs_diff(
            f"coeff.b1[{alpha}]", "co-analytic part has b_1 = 0",
            abs(f.g.coefficient(1)), 0.0, 1e-15))

    ex22 = catalog.example22(order)
    dev = np.max(np.abs(ex22.g.coeffs[1:] - (1 - 1 / np.maximum(n[1:], 1))))
    recs.append(_abs_diff("coeff.sheared_half_plane", "sheared half-plane map has b_n = 1 - 1/n",
                          dev, 0.0, 1e-12))

    member = catalog.make_M_alpha_member(make_generator("half_plane_l", order), 1.0)
    dev = np.max(np.abs(member.g.coeffs - ex22.g.coeffs))
    recs.append(_abs_diff("coeff.recurrence_roundtrip",
                          "termwise recurrence from h = z/(1-z) rebuilds b_n = 1 - 1/n",
                          dev, 0.0, 1e-12))

    quarter = _QUARTER.series(order)
    qmap = catalog.make_M_alpha_member(quarter, 0.0)
    rep1, _ = classifiers.coefficient_sum_orders(qmap)
    recs.append(_abs_diff("coeff.order_linear", "h = z + z^2/4 classifies fully starlike of order 2/5",
                          rep1.order_starlike, 0.4, 1e-15))

    t2 = classifiers.analytic_part_classify(quarter, 0.0, power=2)
    recs.append(_abs_diff("coeff.order_squared", "squared-sum classifier gives order 2/5 at alpha = 0",
                          t2.order_starlike, 0.4, 1e-15))

    eighth = TruncatedSeries(np.array([0, 1, 0.125] + [0] * (order - 2), dtype=complex))
    t3 = classifiers.analytic_part_classify(eighth, 2 / 11, power=3)
    recs.append(_abs_diff("coeff.order_cubed_star", "cubed-sum classifier: starlike order 2/5 at |alpha| = 2/11",
                          t3.order_starlike, 0.4, 1e-12))
    recs.append(_abs_diff("coeff.order_cubed_convex", "cubed-sum classifier: convex order 0 at |alpha| = 2/11",
                          t3.order_convex, 0.0, 1e-12))
    return recs


# (h, alpha, label): the M(alpha) members of the growth claims, built at the
# suite's degree; they evaluate their closed forms, so the degree reaches no
# record.  mix = (l + k)/2 is f_alpha's h, and quarter is also the
# coefficient suite's h
_QUARTER = ClosedForm((0, 1, 0.25))
_BOUNDS_MEMBERS = [
    (_GENERATORS["half_plane_l"], 1.0, "half-plane, alpha=1"),
    (_GENERATORS["half_plane_l"], -0.3, "half-plane, alpha=-0.3"),
    (catalog._FORMS["f_alpha"], 1j, "mix, alpha=i"),
    (catalog._FORMS["f_alpha"], 0.5, "mix, alpha=0.5"),
    (_QUARTER, 0.8, "quarter, alpha=0.8"),
    (_QUARTER, -1j, "quarter, alpha=-i"),
    (_GENERATORS["identity"], 1.0, "identity, alpha=1"),
    (_GENERATORS["identity"], 0.6j, "identity, alpha=0.6i"),
]


def suite_bounds(order: int = DEFAULT_ORDER) -> list[ClaimRecord]:
    recs: list[ClaimRecord] = []
    for h, a, label in _BOUNDS_MEMBERS:
        m = catalog._closed_map(h, order, label, a)
        rep = classifiers.family_bounds_check(m, a, samples=2000)
        recs.append(_at_least(
            f"bounds.growth[{label}]",
            "modulus stays below |z|/(1-|z|)^2 [1 - (1-|alpha|)|z|/2]",
            rep.growth_min_slack, 0.0, 1e-9))

    F = catalog.map_F(order)
    rr = np.linspace(0.05, 0.9, 40)
    eq_dev = np.max(np.abs(np.abs(evaluate_f(F, rr + 0j)) - rr / (1 - rr) ** 2))
    recs.append(_abs_diff("bounds.growth_equality",
                          "growth bound is attained on the real axis at alpha = 1",
                          eq_dev, 0.0, 1e-9))

    for alpha in (1.0, 0.6):
        g = catalog.g_alpha(alpha, order)
        area = classifiers.area_series(g, alpha)
        recs.append(_abs_diff(f"bounds.area_min[{alpha}]",
                              "minimal image area pi (1 - |alpha|^2/2) for h = z",
                              area, math.pi * (1 - alpha ** 2 / 2), 1e-12))
        recs.append(_abs_diff(f"bounds.area_quadrature[{alpha}]",
                              "coefficient area formula matches the polar Jacobian integral",
                              _area_quadrature(g) / area, 1.0, 1e-4))

    fa = catalog.f_alpha(0.7, order)
    recs.append(_at_least("bounds.area_floor",
                          "family member area is at least pi (1 - |alpha|^2/2)",
                          classifiers.area_series(fa, 0.7), math.pi * (1 - 0.49 / 2), 1e-9))

    # periodic trapezoid rule: for zeta = 0.5 its error is about 0.5^256
    nk = 256
    pk = 2 * np.pi / nk * float(np.sum(classifiers.poisson_kernel(0.5, 2 * np.pi * np.arange(nk) / nk)))
    recs.append(_abs_diff("bounds.kernel_mass", "harmonic-measure kernel integrates to 2 pi",
                          pk, 2 * math.pi, 1e-9))
    recs.append(_abs_diff("bounds.kernel_point", "kernel at zeta = 0.5, theta = 0 equals 3",
                          classifiers.poisson_kernel(0.5, 0.0), 3.0, 1e-14))

    eps_sweep = np.exp(2j * np.pi * np.arange(16) / 16)
    for r in (0.5, 0.9):
        # one sampling of the circle for all 16 epsilon serves both records
        sweep = classifiers._kaplan_sweep(F, eps_sweep, r)
        worst_dev = max(abs(full - 2 * math.pi) for full, _, _ in sweep)
        worst_arc = min(worst for _, worst, _ in sweep)
        recs.append(_abs_diff(f"bounds.arc_full_period[r={r}]",
                              "full-period arc integral of Re(1 + z Fe''/Fe') equals 2 pi",
                              worst_dev, 0.0, 1e-6))
        recs.append(_at_least(f"bounds.arc_minimum[r={r}]",
                              "every sub-arc integral stays above -pi",
                              worst_arc, -math.pi, 0.0))
    return recs


def suite_radii(order: int = DEFAULT_ORDER) -> list[ClaimRecord]:
    recs: list[ClaimRecord] = []
    special = radius.solve_special_radii()
    r_convex_exact = 2 - math.sqrt(3)
    r_star_exact = math.sqrt((37 - 8 * math.sqrt(10)) / 3) / 3
    recs.append(_abs_diff("radii.convexity_constant",
                          "root of 1 - 4r + r^2 equals 2 - sqrt(3)",
                          special.r_convex, r_convex_exact, 1e-12))
    recs.append(_abs_diff("radii.starlikeness_constant",
                          "root of the starlike margin equals (1/3) sqrt((37 - 8 sqrt(10))/3)",
                          special.r_star, r_star_exact, 1e-10))
    recs.append(_at_least("radii.ordering",
                          "class starlikeness bound 4 sqrt(2) - 5 lies below the sharp radius",
                          special.r_star - special.r_close_to_convex_star, 0.0))

    F = catalog.map_F(order)
    res_c = radius.radius_search(F, "convexity", tol=1e-6)
    recs.append(_at_most("radii.convexity_bracket",
                         "first-loss bracket of width <= 1e-6 contains 2 - sqrt(3)",
                         max(res_c.r_lo - r_convex_exact, r_convex_exact - res_c.r_hi,
                             res_c.r_hi - res_c.r_lo - 1e-6), 0.0))
    res_s = radius.radius_search(F, "starlikeness", tol=1e-6)
    recs.append(_at_most("radii.starlikeness_bracket",
                         "first-loss bracket of width <= 1e-6 contains the sharp starlike radius",
                         max(res_s.r_lo - r_star_exact, r_star_exact - res_s.r_hi,
                             res_s.r_hi - res_s.r_lo - 1e-6), 0.0))

    rng = np.random.default_rng(42)
    rs = rng.uniform(0.001, 0.999, 100)
    dev_p = np.max(np.abs(radius.polynomial_p(rs, -1.0) - (1 + rs) ** 6 * (1 - 4 * rs + rs * rs)))
    recs.append(_abs_diff("radii.p_endpoint", "p(r, -1) factors as (1+r)^6 (1 - 4r + r^2)",
                          dev_p, 0.0, 1e-12))
    dev_q = max(np.max(np.abs(radius.polynomial_q(rs, -1.0) - (1 + rs) ** 4)),
                np.max(np.abs(radius.polynomial_q(rs, 1.0) - (1 - rs) ** 4)))
    recs.append(_abs_diff("radii.q_endpoints", "q(r, -1) = (1+r)^4 and q(r, 1) = (1-r)^4",
                          dev_q, 0.0, 1e-12))

    res = radius.identity_check_tangent(np.linspace(0.05, 0.95, 20)[:, None], np.linspace(-0.95, 0.95, 20))
    recs.append(_at_most("radii.tangent_identities",
                         "closed-form tangent-derivative identities hold on the (r, u) grid",
                         max(res.convex, res.starlike), 1e-5))

    roots = [radius.p_root_in_radius(u) for u in np.linspace(-1.0, 0.95, 40)]
    recs.append(_at_least("radii.p_root_monotone",
                          "the radius where p first vanishes increases with u on a 40-point grid",
                          float(np.min(np.diff(roots))), 0.0))
    recs.append(_abs_diff("radii.p_root_at_minus_one",
                          "at u = -1 the vanishing radius is the convexity constant",
                          roots[0], r_convex_exact, 1e-12))

    ug = np.linspace(-1, 1, 2001)
    recs.append(_at_least("radii.p_positive_below",
                          "p stays nonnegative just below the convexity radius",
                          float(np.min(radius.polynomial_p(r_convex_exact - 1e-3, ug))), 0.0))
    recs.append(_at_most("radii.p_negative_above",
                         "p goes negative just above the convexity radius",
                         float(np.min(radius.polynomial_p(r_convex_exact + 1e-3, ug))), 0.0))
    recs.append(_at_least("radii.q_positive_below",
                          "q stays nonnegative just below the starlikeness radius",
                          float(np.min(radius.polynomial_q(r_star_exact - 1e-3, ug))), 0.0))
    recs.append(_at_most("radii.q_negative_above",
                         "q goes negative just above the starlikeness radius",
                         float(np.min(radius.polynomial_q(r_star_exact + 1e-3, ug))), 0.0))
    return recs


def suite_convolution(order: int = DEFAULT_ORDER) -> list[ClaimRecord]:
    recs: list[ClaimRecord] = []
    n = np.arange(order + 1, dtype=float)
    L = catalog.map_L(order)
    LL = convolution.hadamard(L, L)
    dev_a = np.max(np.abs(LL.h.coeffs[1:] - ((n[1:] + 1) / 2) ** 2))
    dev_b = np.max(np.abs(LL.g.coeffs[1:] - ((n[1:] - 1) / 2) ** 2))
    recs.append(_abs_diff("conv.square_coefficients",
                          "self-product of the half-plane map has a_n = ((n+1)/2)^2, b_n = ((n-1)/2)^2",
                          max(dev_a, dev_b), 0.0, 0.0))

    for alpha in (1, -1, 1j):
        fa = catalog.f_alpha(alpha, order)
        fc = catalog.f_alpha(np.conj(alpha), order)
        prod = convolution.hadamard(fa, fc)
        dev = max(np.max(np.abs(prod.h.coeffs - LL.h.coeffs)),
                  np.max(np.abs(prod.g.coeffs - LL.g.coeffs)))
        recs.append(_abs_diff(f"conv.conjugate_pair[{alpha}]",
                              "extremal member times its conjugate twin equals the half-plane square",
                              dev, 0.0, 0.0))

    F = catalog.map_F(order)
    ones = TruncatedSeries(np.concatenate([[0], np.ones(order)]).astype(complex))
    ident_map = convolution.hadamard(F, HarmonicMap(ones, ones))
    dev = max(np.max(np.abs(ident_map.h.coeffs - F.h.coeffs)),
              np.max(np.abs(ident_map.g.coeffs - F.g.coeffs)))
    recs.append(_abs_diff("conv.identity_element",
                          "all-ones coefficients act as the convolution identity",
                          dev, 0.0, 0.0))

    comb = convolution.convex_combination_convolve(ones, 1.0, F)
    dev = max(np.max(np.abs(comb.h.coeffs - F.h.coeffs)),
              np.max(np.abs(comb.g.coeffs - F.g.coeffs)))
    recs.append(_abs_diff("conv.combination_identity",
                          "combination product with phi = z/(1-z), beta = 1 reproduces the map",
                          dev, 0.0, 0.0))
    recs.append(_at_most("conv.combination_origin",
                         "|G'(0)| < |H'(0)| after the combination product",
                         abs(comb.g.coefficient(1)), abs(comb.h.coefficient(1)) - 1e-12))

    fa = catalog.f_alpha(1, order)
    sq = convolution.hadamard(fa, fa)
    recs.append(_at_least("conv.self_product_escapes",
                          "self-product coefficient |a_3| = 4 exceeds the family bound (3+1)/2 = 2",
                          float(abs(sq.h.coefficient(3))), 2.0 + 1e-9))

    for npow in (1, 2):
        for theta in (0.0, math.pi / 3, math.pi):
            rep = convolution.tilde_dilatation_check(npow, theta)
            recs.append(_at_most(f"conv.dilatation_bounded[n={npow},theta={theta:.4f}]",
                                 "product dilatation stays inside the unit circle on the grid",
                                 rep.max_abs, 1.0 - 1e-12))
            recs.append(_at_most(f"conv.dilatation_crosscheck[n={npow},theta={theta:.4f}]",
                                 "closed-form dilatation matches the product-series dilatation",
                                 rep.cross_check_max_err, 1e-6))

    # whole-disk starlikeness substitute: sampled image points must stay off
    # the boundary slit (-inf, -1/4], i.e. near-real values keep Re f > -1/4
    ll = catalog.l_hadamard_l(order)
    rng = np.random.default_rng(3)
    z = rng.uniform(0, 0.99, 4000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4000))
    z = np.concatenate([z, -np.linspace(0.01, 0.99, 200) + 0j])
    w = evaluate_f(ll, z)
    near_real = np.abs(w.imag) < 1e-9
    min_re = float(np.min(w.real[near_real])) if np.any(near_real) else 0.0
    recs.append(_at_least("conv.square_slit_avoidance",
                          "real image values of the half-plane square stay right of -1/4",
                          min_re, -0.25))
    sp = sense_preserving_check(ll, 0.99)
    recs.append(_at_least("conv.square_sense_preserving",
                          "half-plane square keeps a positive Jacobian on the sampled disk",
                          sp.worst_value, 0.0))
    return recs


_SUITE_FUNCS = {
    "coefficients": suite_coefficients,
    "bounds": suite_bounds,
    "radii": suite_radii,
    "convolution": suite_convolution,
}


def run_suite(name: str, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Run one named suite (or all of them) and collect the records."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    if name == "all":
        return VerificationReport("all", tuple(rec for suite in _SUITE_FUNCS.values() for rec in suite(order)))
    return VerificationReport(name, tuple(_SUITE_FUNCS[name](order)))
