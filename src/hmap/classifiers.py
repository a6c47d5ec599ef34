"""Coefficient-condition classifiers and analytic-family verifiers.

Two kinds of result live here:

* order classifiers driven by absolute-coefficient sums, which certify that a
  map is fully starlike / fully convex of an explicit order when the sum is
  small enough, and
* sampled verifiers for the one-parameter family with dilatation alpha*z
  (coefficient recurrence, curvature-type grid condition, coefficient and
  growth bounds, image area, Kaplan arc integrals on the circle tests' grid
  rule, down to the worst sub-arc).

Coefficient sums run over the stored truncation; every report records the
truncation degree so callers can reason about the neglected tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import CURVE_VANISH_TOL, RELATION_ABS_TOL
from .harmonic import (_START_THETA_POINTS, HarmonicMap, _check_alpha, _chop_and_double, _phase_steps, _polar_grid,
                       _polar_routes, _require_nonzero, _require_radius, _unit_circle, evaluate_f)
from .report import Report
from .series import TruncatedSeries, _require_inside

_ONE_MINUS = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class ClassificationReport(Report):
    """Which coefficient condition fired, and the orders it certifies."""

    condition_name: str
    condition_value: float
    threshold: float = field(default=1.0, init=False)
    passed: bool
    order_starlike: float | None = None
    order_convex: float | None = None
    close_to_convex: bool | None = None
    degenerate: bool = False
    truncation_order: int = 0


def _capped_order(value: float) -> tuple[float, bool]:
    # orders live in [0, 1); the value 1.0 occurs only for the identity map
    if value >= 1.0:
        return _ONE_MINUS, True
    return value, False


def order_starlike_from_linear_sum(lam: float) -> float:
    """Starlike order certified by sum n (|a_n| + |b_n|) <= lam <= 1."""
    return 2 * (1 - lam) / (2 + lam)


def order_starlike_from_quadratic_sum(lam: float) -> float:
    """Starlike order certified by sum n^2 (|a_n| + |b_n|) <= lam <= 1."""
    return 2 * (2 - lam) / (4 + lam)


def order_convex_from_quadratic_sum(lam: float) -> float:
    """Convex order certified by sum n^2 (|a_n| + |b_n|) <= lam <= 1."""
    return 2 * (1 - lam) / (2 + lam)


def _weighted_terms(f: HarmonicMap, power: int) -> np.ndarray:
    """The terms c_n = n^power (|a_n| + |b_n|), n = 2, 3, ..., of every stored coefficient.

    Their sum is the weighted coefficient sum of :func:`coefficient_sum_orders`.
    The dilation f(rz)/r has coefficients a_n r^(n-1) and b_n r^(n-1), so its
    sum is sum_n c_n r^(n-1) (``radius._certified_radius``).  h and g may be
    stored to different degrees: the missing coefficients of the shorter one
    are zeros.
    """
    top = max(f.h.order, f.g.order)
    mags = np.zeros(top - 1)
    for s in (f.h, f.g):
        mags[: s.order - 1] += np.abs(s.coeffs[2:])
    return np.arange(2, top + 1, dtype=float) ** power * mags


def coefficient_sum_orders(f: HarmonicMap) -> tuple[ClassificationReport, ClassificationReport]:
    """Classify via the two weighted coefficient sums (weights n and n^2).

    Requires b_1 = 0.  The linear sum certifies full starlikeness; the
    quadratic sum certifies full starlikeness of a higher order plus full
    convexity.  Both run over every stored coefficient (:func:`_weighted_terms`).
    """
    if abs(f.g.coefficient(1)) > 1e-14:
        raise ValueError("classifier requires b_1 = g'(0) = 0")
    order = f.order
    lam1, lam2 = (float(np.sum(_weighted_terms(f, power))) for power in (1, 2))

    if lam1 <= 1.0:
        v, degen = _capped_order(order_starlike_from_linear_sum(lam1))
        rep1 = ClassificationReport("linear_coefficient_sum", lam1, True,
                                    order_starlike=v, degenerate=degen, truncation_order=order)
    else:
        rep1 = ClassificationReport("linear_coefficient_sum", lam1, False, truncation_order=order)

    if lam2 <= 1.0:
        vs, dg1 = _capped_order(order_starlike_from_quadratic_sum(lam2))
        vc, dg2 = _capped_order(order_convex_from_quadratic_sum(lam2))
        rep2 = ClassificationReport("quadratic_coefficient_sum", lam2, True,
                                    order_starlike=vs, order_convex=vc,
                                    degenerate=dg1 or dg2, truncation_order=order)
    else:
        rep2 = ClassificationReport("quadratic_coefficient_sum", lam2, False, truncation_order=order)
    return rep1, rep2


def analytic_part_classify(h: TruncatedSeries, alpha: complex, power: int) -> ClassificationReport:
    """Classify a map built from h with dilatation alpha*z via sum n^power |a_n|.

    power = 2: sum <= 1 and |alpha| <= 1 gives close-to-convexity; |alpha| <= 1/3
    additionally gives full starlikeness of order 2(1-3|alpha|)/(5+3|alpha|).

    power = 3: sum <= 1 and |alpha| <= 2/11 gives full starlikeness of order
    2(6-11|alpha|)/(18+11|alpha|) and full convexity of order
    2(2-11|alpha|)/(10+11|alpha|).

    alpha must be a finite number (ValueError otherwise); a finite |alpha| > 1
    is no usage error, and reports close_to_convex = False.
    """
    if power not in (2, 3):
        raise ValueError("power must be 2 or 3")
    if abs(h.coefficient(0)) > 1e-14 or abs(h.coefficient(1) - 1) > 1e-14:
        raise ValueError("h must be normalized")
    a = abs(alpha)
    if not a < math.inf:  # nan fails too
        raise ValueError(f"alpha must be a finite number, got {alpha!r}")
    order = h.order
    n = np.arange(2, order + 1, dtype=float)
    total = float(np.sum(n ** power * np.abs(h.coeffs[2 : order + 1])))
    name = "cubed_coefficient_sum" if power == 3 else "squared_coefficient_sum"

    if total > 1.0:
        return ClassificationReport(name, total, False, truncation_order=order)

    if power == 2:
        ctc = a <= 1.0
        if a <= 1 / 3:
            v, degen = _capped_order(2 * (1 - 3 * a) / (5 + 3 * a))
            return ClassificationReport(name, total, True, order_starlike=v,
                                        close_to_convex=ctc, degenerate=degen, truncation_order=order)
        return ClassificationReport(name, total, ctc, close_to_convex=ctc, truncation_order=order)

    if a <= 2 / 11:
        vs, d1 = _capped_order(2 * (6 - 11 * a) / (18 + 11 * a))
        vc, d2 = _capped_order(2 * (2 - 11 * a) / (10 + 11 * a))
        return ClassificationReport(name, total, True, order_starlike=vs, order_convex=vc,
                                    degenerate=d1 or d2, truncation_order=order)
    return ClassificationReport(name, total, False, truncation_order=order)


# -- dilatation-family checks ----------------------------------------------------


def coefficient_relation_residual(f: HarmonicMap, alpha: complex) -> float:
    """Max residual of (n+1) b_{n+1} - n alpha a_n over the truncation."""
    order = f.order
    n = np.arange(1, order, dtype=float)
    lhs = (n + 1) * f.g.coeffs[2 : order + 1]
    rhs = n * alpha * f.h.coeffs[1:order]
    res = np.abs(lhs - rhs)
    res = np.append(res, abs(f.g.coefficient(1)))  # b_1 must vanish
    return float(np.max(res))


def _require_member(f: HarmonicMap, alpha: complex, why: str) -> None:
    """ValueError unless |alpha| <= 1 and f satisfies g' = alpha z h' to RELATION_ABS_TOL; ``why`` ends the message.

    The family rule every bound on its members needs; :func:`m_alpha_check`
    reports the residual instead of raising on it.
    """
    _check_alpha(alpha, "a family member")
    if not coefficient_relation_residual(f, alpha) <= RELATION_ABS_TOL:
        raise ValueError(f"coefficient recurrence fails; {why}")


@dataclass(frozen=True)
class MAlphaReport(Report):
    """Outcome of the membership test for the dilatation-alpha*z family."""

    condition_name: str = field(default="dilatation_family_membership", init=False)
    alpha: complex
    relation_residual: float
    relation_passed: bool
    curvature_grid_min: float
    curvature_passed: bool
    passed: bool
    r_max: float
    grid: tuple[int, int]
    truncation_order: int
    check_kind: str = field(default="necessary", init=False)


_CURVATURE_GRID = (64, 256)  # the polar grid of the curvature condition, radii x angles


def m_alpha_check(f: HarmonicMap, alpha: complex, r_max: float = 0.99) -> MAlphaReport:
    """Test membership in the family g' = alpha z h' with bounded curvature term.

    Part (a) checks the coefficient recurrence exactly (tolerance 1e-10).
    Part (b) samples Re(1 + z h''/h') > -1/2 on a 64 x 256 polar grid up to
    r_max; being an open condition it can only be falsified, never
    certified, by sampling.  h' and h'' come from
    :func:`~hmap.harmonic._polar_routes`: the closed forms on the grid's
    points, or, on a series-only map, one inverse FFT per circle of the
    grid, exact at any degree.
    """
    _check_alpha(alpha, "m_alpha_check")
    _require_radius(r_max, "r_max")
    residual = coefficient_relation_residual(f, alpha)
    relation_ok = residual <= RELATION_ABS_TOL

    z = _polar_grid(r_max, *_CURVATURE_GRID)
    hp, hpp = _polar_routes(f, ("dh", "d2h"), r_max, *_CURVATURE_GRID)
    _require_nonzero(hp, z)
    curv = np.real(1 + z * hpp / hp)
    cmin = float(np.min(curv))
    curv_ok = cmin > -0.5
    return MAlphaReport(
        alpha=complex(alpha),
        relation_residual=residual,
        relation_passed=relation_ok,
        curvature_grid_min=cmin,
        curvature_passed=curv_ok,
        passed=relation_ok and curv_ok,
        r_max=r_max,
        grid=_CURVATURE_GRID,
        truncation_order=f.order,
    )


@dataclass(frozen=True)
class BoundsReport(Report):
    """Coefficient and growth bound verification for a family member."""

    condition_name: str = field(default="coefficient_and_growth_bounds", init=False)
    alpha: complex
    coeff_slack_a: float
    coeff_slack_b: float
    coeff_passed: bool
    growth_min_slack: float
    growth_passed: bool
    passed: bool
    samples: int
    r_max: float
    truncation_order: int


def growth_bound(alpha: complex, z) -> np.ndarray:
    """Sharp modulus bound |z|/(1-|z|)^2 [1 - (1-|alpha|)|z|/2] for the family; |alpha| <= 1 (ValueError otherwise)."""
    _check_alpha(alpha, "growth_bound")
    r = np.abs(z)
    return r / (1 - r) ** 2 * (1 - 0.5 * (1 - abs(alpha)) * r)


def family_bounds_check(
    f: HarmonicMap,
    alpha: complex,
    samples: int = 1000,
    r_max: float = 0.9,
) -> BoundsReport:
    """Verify |a_n| <= (n+1)/2, |b_n| <= (n-1)|alpha|/2 and the growth bound.

    Coefficient slack is reported as bound - |coefficient| (minimum over n,
    allowed down to -1e-12); the growth bound is sampled at random points
    with |z| <= r_max, drawn from seed 7 (slack allowed down to -1e-9).
    ``r_max`` must lie in (0, 1), ``samples`` be at least 1, and f be a
    member of the family for ``alpha``: |alpha| <= 1 and the recurrence
    (n+1) b_{n+1} = n alpha a_n within 1e-10 (ValueError otherwise).
    """
    _require_radius(r_max, "r_max")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    _require_member(f, alpha, "bounds only apply to family members")
    order = f.order
    n = np.arange(2, order + 1, dtype=float)
    slack_a = float(np.min((n + 1) / 2 - np.abs(f.h.coeffs[2 : order + 1])))
    slack_b = float(np.min((n - 1) / 2 * abs(alpha) - np.abs(f.g.coeffs[2 : order + 1])))
    coeff_ok = slack_a >= -1e-12 and slack_b >= -1e-12

    rng = np.random.default_rng(7)
    z = rng.uniform(0, r_max, samples) * np.exp(1j * rng.uniform(0, 2 * np.pi, samples))
    slack = growth_bound(alpha, z) - np.abs(evaluate_f(f, z))
    gmin = float(np.min(slack))
    growth_ok = gmin >= -1e-9
    return BoundsReport(
        alpha=complex(alpha),
        coeff_slack_a=slack_a,
        coeff_slack_b=slack_b,
        coeff_passed=coeff_ok,
        growth_min_slack=gmin,
        growth_passed=growth_ok,
        passed=coeff_ok and growth_ok,
        samples=samples,
        r_max=float(r_max),
        truncation_order=order,
    )


def area_series(f: HarmonicMap, alpha: complex) -> float:
    """Image area of a family member from its coefficients.

    A = pi (1 - |alpha|^2/2) + pi sum_{n>=2} (n - n^2 |alpha|^2/(n+1)) |a_n|^2.

    Every summand is nonnegative for |alpha| <= 1, so the minimum pi(1 -
    |alpha|^2/2) is attained exactly when h is the identity.  ValueError
    unless f is a member for ``alpha``, |alpha| <= 1 included.
    """
    _require_member(f, alpha, "area formula needs g' = alpha z h'")
    a2 = abs(alpha) ** 2
    order = f.order
    n = np.arange(2, order + 1, dtype=float)
    weights = n - n * n * a2 / (n + 1)
    return float(np.pi * (1 - a2 / 2) + np.pi * np.sum(weights * np.abs(f.h.coeffs[2 : order + 1]) ** 2))


def poisson_kernel(zeta: complex, theta) -> float | np.ndarray:
    """Harmonic-measure density (1 - |zeta|^2) / |e^{i theta} - zeta|^2; ValueError unless |zeta| < 1."""
    _require_inside(zeta)
    th = np.asarray(theta, dtype=float)
    val = (1 - abs(zeta) ** 2) / np.abs(np.exp(1j * th) - zeta) ** 2
    return float(val) if np.isscalar(theta) else val


_FE_ROUTES = ("dh", "dg", "d2h", "d2g")


def _fe_circle(f: HarmonicMap, epsilon, r: float, theta: np.ndarray, on_grid: bool = False):
    """Re(1 + z Fe''/Fe') and i z Fe' at z = r e^{i theta}, one row per epsilon.

    With Fe = h + epsilon g, the integrand is the convexity rate Im(d2/d1) of
    the analytic map Fe on the circle, d1 = i z Fe' and d2 = -(z Fe' + z^2 Fe''),
    and d1 is the curve whose argument it differentiates.  h', g', h'' and
    g'' come through the map's own routes, once for every epsilon: on the
    uniform grid of theta.size angles (``on_grid``) from
    ``harmonic._polar_routes``, elsewhere from ``HarmonicMap._eval_routes``.
    Raises :class:`SingularPointError` where Fe' vanishes.
    """
    _require_radius(r)
    if on_grid:
        z = _polar_grid(r, 1, theta.size)[0]
        dh, dg, d2h, d2g = (v[0] for v in _polar_routes(f, _FE_ROUTES, r, 1, theta.size))
    else:
        z = r * np.exp(1j * theta)
        dh, dg, d2h, d2g = f._eval_routes(_FE_ROUTES, z)
    zhp, zgp, e = z * dh, z * dg, np.atleast_1d(epsilon)[:, None]
    d1 = 1j * (zhp + e * zgp)
    _require_nonzero(d1, z, tol=CURVE_VANISH_TOL)
    # a copy: the float view would keep the whole complex quotient alive
    return (-(zhp + z * z * d2h + e * (zgp + z * z * d2g)) / d1).imag.copy(), d1


def kaplan_integrand(f: HarmonicMap, epsilon: complex, r: float, theta):
    """Re(1 + z Fe''/Fe') on |z| = r, where Fe = h + epsilon g."""
    th = np.asarray(theta, dtype=float)
    return _fe_circle(f, epsilon, r, th.ravel())[0][0].reshape(th.shape)


def kaplan_integral_check(
    f: HarmonicMap,
    epsilon: complex,
    r: float,
    theta1: float,
    theta2: float,
) -> float:
    """Arc integral of Re(1 + z Fe''/Fe') over theta in [theta1, theta2].

    The integrand is the theta-derivative of arg(z Fe'(z)) on |z| = r, so the
    integral is the increase of that argument along the arc: the sum of its
    steps between nodes at the density the circles' grid rule picks for Fe
    (:func:`_kaplan_steps`).  The circle tests' branch guard checks every
    step against the trapezoid of the integrand and raises ``ValueError``
    instead of returning a value that may sit on the wrong branch.  The
    close-to-convexity criterion asks for every such integral to stay above
    -pi.  A full period (theta2 - theta1 = 2 pi) gives 2 pi times the number
    of zeros of z Fe' inside |z| < r, so exactly 2 pi when Fe' has none.
    """
    if not 0 < theta2 - theta1 <= 2 * np.pi + 1e-12:
        raise ValueError("need 0 < theta2 - theta1 <= 2 pi")
    if not abs(abs(epsilon) - 1) <= 1e-12:
        raise ValueError("epsilon must be unimodular")
    n = _kaplan_steps(f, np.atleast_1d(epsilon), r)[0]
    theta = np.linspace(theta1, theta2, math.ceil(n * (theta2 - theta1) / (2 * np.pi)) + 1)
    rate, curve = _fe_circle(f, epsilon, r, theta)
    steps, ok = _phase_steps(curve, rate, theta[1] - theta[0])
    if not ok.all():
        raise ValueError(f"phase is ambiguous on {theta.size - 1} steps: a step of the "
                         "argument strays more than pi/2 from the trapezoid of its rate")
    return float(np.sum(steps))


def _kaplan_steps(f: HarmonicMap, epsilons: np.ndarray, r: float) -> tuple[int, np.ndarray]:
    """The grid of the circles' rule (``harmonic._chop_and_double``) for all Fe = h + epsilon g on |z| = r.

    Returns it and the guarded phase steps of each z Fe', closed at 2 pi, one
    row per epsilon; raises ValueError where the guard still fails at the cap.
    """
    def sample(n: int, first: int):
        # every epsilon in one row: the grid must resolve them all
        rate, curve = _fe_circle(f, epsilons, r, _unit_circle(n)[0], on_grid=True)
        return rate[None], tuple(np.concatenate([a, a[:, :1]], axis=1)[None] for a in (curve, rate))

    n, _, _, steps, ok, *_ = next(_chop_and_double(sample, _START_THETA_POINTS))
    if not ok[0]:
        raise ValueError(f"phase of z Fe' is ambiguous on |z| = {r} even on {n} angles")
    return n, steps[0]


def _kaplan_sweep(f: HarmonicMap, epsilons: np.ndarray, r: float):
    """(full-period integral, least sub-arc integral, that arc) per epsilon, from :func:`_kaplan_steps`.

    At grid nodes the phase differences are the exact arc integrals, so
    :func:`kaplan_integral_check` on the arc gives the same value.
    """
    n, steps = _kaplan_steps(f, epsilons, r)
    phase = np.concatenate([np.zeros((len(steps), 1)), np.cumsum(steps, axis=1)], axis=1)
    nodes = np.append(_unit_circle(n)[0], 2 * np.pi)
    return [(float(p[-1]), *_worst_subarc(nodes, p)) for p in phase]


def _worst_subarc(theta: np.ndarray, phase: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Least phase increase over node-to-node arcs shorter than a full turn, and that arc.

    ``phase`` holds the phase at the nodes ``theta`` = 0 .. 2 pi.  The least
    arc from node i to a later node j starts at the running maximum of the
    phase before j (past node 0 for j = n: 0 to 2 pi is the full turn).  An
    arc from node i on through theta = 0 to node j, 0 < j < i < n, gains
    phase[n] - phase[i] + phase[j], least at the backward running maximum
    after j.  The arc is (theta1, theta2), theta1 < theta2 <= theta1 + 2 pi.
    """
    inside = phase[1:] - np.maximum.accumulate(phase[:-1])  # the least gains ending at j = 1 .. n
    inside[-1] = phase[-1] - phase[1:-1].max()
    through = phase[-1] + phase[1:-2] - np.maximum.accumulate(phase[-2:1:-1])[::-1]  # past 0, j = 1 .. n-2
    j, k = int(np.argmin(inside)) + 1, int(np.argmin(through)) + 1
    if through[k - 1] < inside[j - 1]:
        i = k + 1 + int(np.argmax(phase[k + 1 : -1]))
        return float(through[k - 1]), (float(theta[i]), float(theta[k] + 2 * np.pi))
    i = int(np.argmax(phase[:j])) if j < len(theta) - 1 else 1 + int(np.argmax(phase[1:-1]))
    return float(inside[j - 1]), (float(theta[i]), float(theta[j]))
