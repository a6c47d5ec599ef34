"""Radii of convexity and starlikeness via angular-derivative scans.

A circle |z| = r maps to a convex curve exactly when the tangent direction
arg(df/dtheta) is nondecreasing in theta, and to a curve starlike about the
origin exactly when arg f itself is nondecreasing.  Both rates are
quotients of theta-derivatives of f,

    d/dtheta arg(df/dtheta) = Im( d2f / d1f ),
    d/dtheta arg f          = Im( d1f / f ),

sampled at the angles theta(s) of a grid uniform in s that each test
chooses by the circles' rule (``harmonic._chop_and_double``: from 128
nodes, doubled until the Fourier tail of g(s) = rate(theta(s)) chops and the
branch guard below passes, up to 65536).  On most maps theta(s) = s.  Every
map whose closed forms have a pole or a log (all at z = 1, the one singular
point of every catalog map) has rates with a peak of width about 1 - r
there, which a uniform grid must resolve at every angle.  Its circles from
r = 1/2 on take the Moebius-clustered angles e^{i theta(s)} = (e^{is} + rho)
/ (1 + rho e^{is}) (Tee & Trefethen, SISC 2006; Hale & Trefethen, SINUM
2008), with rho a function of r and the map's forms (:func:`_cluster`):
the nodes crowd at theta = 0 by (1 - rho)/(1 + rho) and thin out at theta =
pi.  Starlikeness of L at r = 0.87185 then chops on 1024 nodes, not 8192,
and that of f_alpha(-0.75) at its first loss, r = 0.99790034, on 4096 (tail
3e-13), where 65536 uniform angles left a tail of 1.3e-2.  The test works
in s: the chop rule and ``drop`` read g(s), whose least value is the rate's;
the winding does not depend on the parametrization; the branch guard weighs
the rate by theta'(s).  The spectrum bounds how far g can dip between nodes
below its least sample g_min, by ``drop``.  Where g_min - drop stays at or
above -CIRCLE_MIN_TOL the circle passes the margin whatever the rate does
between nodes, and the margin is left at g_min.  Every other margin, and
every margin a caller reads as a number (the public tests, the search for a
dip between scan points), is sharpened by parabolic steps in s from the
grid minimum through exact values of the rate until the gain they predict
is below rounding, so that transitions are resolved well below the search
tolerance.  A rate may still stay unresolved at the cap (a series-only map
near the boundary); a sharpened margin is then still an exact rate value,
but a dip narrower than the grid may go unseen.  The total turning guards
against irregular curves: a simple closed regular curve must turn by
exactly 2 pi.  It is read as the winding of the samples the test already
holds (df for convexity, f for starlikeness), the sum of the arguments of
consecutive sample ratios, so it is an integer multiple of 2 pi up to
rounding.  A branch guard (``harmonic._phase_steps``) checks every step
against the trapezoid of theta'(s) times the rate and fails the circle if
one may have slipped a branch.

Each circle test samples its map once per grid, on its own path
(``harmonic._circle_derivatives``).  A map with f(conj z) = conj f(z) has
circle images that mirror in the real axis, and on an even grid its tests
sample only the nodes 0 <= theta <= pi (theta(s) is odd, so the nodes
0 <= s <= pi).  Kaplan's arc integrals in
``hmap.classifiers`` share the grid rule and the guard, not the sampler:
they read h', g', h'' and g'' through the map's own routes.

Circle tests at many radii run together (:func:`_circle_tests`): the curves
of the radii are the rows of one sampled array per grid, and the grid rule
and the branch guard judge each row.  On n angles the leading rows that chop
and pass the guard settle; the first row that does not, and every row after
it, are sampled again on 2n angles.  Each row thus ends on the grid, with
the margin and the winding, that a test of that radius alone would give,
started on the largest grid reached before it.  The rows are judged in
order up to the first that fails; the rows sampled past it are dropped.  A
single circle test is the one-row case, and every circle is tested through
this one call: the public tests, and each circle of ``radius_search``, its
scan, its dip search, its confirming pair and its bisection.

The radius of convexity (or starlikeness) is the first r where the test
fails.  ``radius_search`` scans r upward to the first failing circle, in
one batched call of the circle tests, starting where the coefficient sums
of the dilation f(rz)/r, those of ``hmap.classifiers``, stop certifying
every circle.  It then roots the margin, the refined minimum of the rate,
which is continuous in r, between the last pass and that failure.  Near
the root only the minimum that the failing circle found matters, and its
angle moves continuously with r, so the root is taken on that minimum
tracked in single values of the rate, a few per radius instead of a whole
circle, and confirmed by one batched pair of circle tests; where the
tracker gives up or the pair disagrees, bisection on pass/fail takes over,
one circle test per radius.  Margins that dip between scan points are
searched for a failing band narrower than the scan step.  Each circle test
starts on the finest grid a test of the search reached before it.

For the horizontally sheared half-plane map F = f_alpha(1) the transition
radii admit exact descriptions through two polynomials in u = cos(theta).
With Psi and Phi the tangent and radial direction angles of the image of
|z| = r,

    [(1 - 6r^2 + r^4) + 2r(1 + r^2) u]^2 (1 - u^2) d/dtheta tan Psi = p(r, u)
    [(1 + r^2) u - 2r]^2                           d/dtheta tan Phi = q(r, u).

Multiplied through by the squared denominators of the two tangents, with
z = r e^{i theta} and d1, d2 the theta-derivatives of F, they read

    r^2 p(r, u) = |1 - z|^12 Im(conj(d1) d2)
    r^2 q(r, u) = |1 - z|^8  Im(conj(F) d1),

which hold everywhere, u = +-1 and the poles of the tangents included.  The
circle tests' rates are Im(d2/d1) = Im(conj(d1) d2) / |d1|^2 and Im(d1/F) =
Im(conj(F) d1) / |F|^2, so on every circle F's rates have the signs of p and
q.  The circle images stay convex while p >= 0 on [-1, 1] (equivalently
r <= 2 - sqrt(3), from p(r, -1) = (1+r)^6 (1 - 4r + r^2)) and starlike while
q >= 0 (equivalently r below the root of q evaluated at its interior
minimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .defaults import CIRCLE_MIN_TOL, CURVE_VANISH_TOL, TURNING_TOL
from .catalog import map_F
from .classifiers import _weighted_terms
from .harmonic import (_START_THETA_POINTS, HarmonicMap, _angular, _chop_and_double, _circle_derivatives,
                       _circle_grid, _clustered_angle, _require_radius, _unit_circle)
from .report import Report


class CircleTest(NamedTuple):
    """One circle test: the verdict, the margin, the winding and the grid that decided them.

    ``min_derivative`` is the margin, the least sampled value of the rate,
    and ``theta_min`` the angle theta it was sampled at; ``total_turning``
    is the winding of the sampled curve (nan where the branch guard failed).
    ``grid_theta`` is the number of nodes of the full-circle grid the test
    ended on, uniform in s (clustered in theta where :func:`_cluster` gives
    rho > 0), and ``tail`` the largest Fourier coefficient of the rate
    sampled there at k >= 3n/8, relative to the largest; tests that do not
    report them leave 0, nan and nan.

    A margin is refined (:func:`_refined_min`) only where the verdict may
    depend on it.  Elsewhere it is the least grid value g, at its grid
    angle, and ``drop`` bounds how far the rate dips below g between the
    nodes (``harmonic._chop_and_double``); ``left`` and ``right`` are the
    grid values on either side of g, one step of s away, from which
    :func:`_finished` takes the parabolic steps later.  A refined test has
    drop 0 and nan neighbours.
    """

    passed: bool
    min_derivative: float
    total_turning: float
    grid_theta: int = 0
    tail: float = math.nan
    theta_min: float = math.nan
    drop: float = 0.0
    left: float = math.nan
    right: float = math.nan


@dataclass(frozen=True)
class RadiusResult(Report):
    """Bracketing interval for a geometric transition radius.

    The test passes at ``r_lo`` and at every circle the search tested below
    it, and fails at ``r_hi`` (unless the property survived to the search
    cap, flagged by ``upper_limit_hit``), so the bracket holds the first
    loss the search found.  ``r_certified`` is the radius up to which the
    coefficient sums certify every circle (:func:`_certified_radius`, 0 when
    they certify none); scan circles below it are not tested.  ``grid_theta``
    is the finest full-circle grid the search used: each circle test doubles
    its grid until the rate is resolved, and the next test starts on the
    largest grid reached so far.  ``circle_tests`` counts the circle tests,
    each a whole sampled circle; ``point_evals`` counts the single values of
    the rate at one radius and one angle that the tracked margin of the root
    search took (:func:`_tracked_root`).  The few such values inside each
    circle test, its parabolic steps, are part of that test.
    """

    kind: str
    r_lo: float
    r_hi: float
    grid_theta: int
    tol: float
    circle_tests: int
    point_evals: int
    r_certified: float
    upper_limit_hit: bool


_REFINE_STEPS = 12  # parabolic steps from the grid minimum at most; the gain rule stops them first
_REFINE_GAIN = 1e-13  # a parabolic step that predicts less, relative to the margin, is not taken
# points of one batched sampling call (more only when one circle is larger).
# Fewer calls save numpy's per-call cost, but rows sampled past the first
# loss are wasted; 2048 measured best on the radius-scan solves, and keeps
# every complex temporary of a call at or below 128 KiB, glibc's mmap
# threshold, past which each allocation faults in fresh pages
_BATCH_POINTS = 2048


def _refined_min(
    t0: float,
    left: tuple[float, float],
    mid: tuple[float, float],
    right: tuple[float, float],
    fn: Callable[[float], float],
) -> tuple[float, float]:
    """The least of three rate values, improved by successive parabolic steps until they converge.

    ``left``, ``mid`` and ``right`` are (offset from the parameter ``t0``,
    rate value) pairs in increasing offset, ``mid`` the least, and ``fn``
    evaluates the rate at one parameter, a scalar.  The first parabola runs
    through the three; each step samples the rate at the vertex and keeps
    the three least values for the next.  It stops where the gain the
    parabola predicts is below rounding, 1e-13 of the least value or of 1,
    and early where the parabola is not convex or its vertex leaves (left,
    right), and after 12 steps at most.  A fixed few steps stop short where
    the rate is far from a parabola across the grid's step: three left the
    starlikeness margin of conv(L,L) at r = 0.25 1.8e-10 above the least
    value on 2^18 angles, enough to give a margin near a root the wrong
    sign.  Returns the least rate value sampled and its
    parameter, an actual value at an actual point.  Circle tests start it
    from the grid minimum and its two neighbours in s (:func:`_finished`),
    the tracked margin of :func:`radius_search` from the end of a downhill
    walk in theta (:func:`_tracked_min`).
    """
    points = [mid, left, right]
    for _ in range(_REFINE_STEPS):
        (a, fa), (b, fb), (c, fc) = sorted(points)
        slope = (fb - fa) / (b - a)
        curvature = ((fc - fb) / (c - b) - slope) / (c - a)
        if not curvature > 0:
            break
        x = 0.5 * (a + b - slope / curvature)
        best, least = points[0]
        if not left[0] < x < right[0] or curvature * (x - best) ** 2 <= _REFINE_GAIN * max(1.0, abs(least)):
            break
        points = sorted(points + [(x, float(fn(t0 + x)))], key=lambda p: p[1])[:3]
    best, least = points[0]
    return least, t0 + best


def _cluster(f: HarmonicMap, r: float) -> float:
    """The rho of the grid that circle tests of f at radius r sample on (``harmonic._circle_grid``).

    A map whose closed forms have a pole or a log at z = 1 has rates with a
    peak of width about 1 - r there.  Its angles cluster at z = 1 by
    rho = 1 - 2^-j, with j = floor(log2(1 / (1 - r))) for a pole of order
    k >= 2 (from r = 1/2 on), so that 1 - rho lies within a factor 2 of
    1 - r, and one level less for a simple pole or a log, whose peak stands
    lower above the rest of the rate (from r = 3/4 on).  The few levels share
    cached grids.  Every other map, and j = 0, keeps rho = 0, the uniform grid.
    """
    order = f._pole_order
    j = math.floor(math.log2(1 / (1 - r))) - (order < 2)
    return 1 - 2.0 ** -j if order and j > 0 else 0.0


def _rate_at(f: HarmonicMap, r: float, m: int, theta: float, curve_name: str) -> float:
    """The rate Im(d^{m+1} f / d^m f) at one radius and one angle; ValueError where the curve vanishes."""
    upper, curve = _circle_derivatives(f, r, m, theta, False)
    if abs(curve) < CURVE_VANISH_TOL:
        raise ValueError(f"{curve_name} vanishes on |z| = {r}")
    return (upper / curve).imag


def _verdict(margin: float, turning: float) -> bool:
    """A circle passes iff its margin stays above -CIRCLE_MIN_TOL and its curve winds once, within TURNING_TOL."""
    return margin >= -CIRCLE_MIN_TOL and abs(turning - 2 * np.pi) <= TURNING_TOL


def _finished(test: CircleTest, f: HarmonicMap, r: float, m: int, curve_name: str) -> CircleTest:
    """``test`` of the circle |z| = r with its margin refined, where :func:`_circle_tests` left it on the grid.

    The parabolic steps start from the grid minimum and its two neighbours,
    the inputs a circle test refines from, so a finished test equals one
    refined when it was sampled, bit for bit.  They run in s, the parameter
    the grid is uniform in, through the rate at theta(s) (:func:`_cluster`
    gives the grid's rho again), and the refined angle is theta at the
    refined s.  A refined test comes back as it is.
    """
    if math.isnan(test.left):
        return test
    step, rho = float(_unit_circle(test.grid_theta)[0][1]), _cluster(f, r)
    if rho:  # the steps run in s, on which the grid is uniform; the inverse of theta(s; rho) is theta(s; -rho)
        start, angle = float(_clustered_angle(test.theta_min, -rho)), lambda s: float(_clustered_angle(s, rho))
    else:
        start, angle = test.theta_min, lambda s: s
    mn, at = _refined_min(start, (-step, test.left), (0.0, test.min_derivative), (step, test.right),
                          lambda s: _rate_at(f, r, m, angle(s), curve_name))
    return test._replace(passed=_verdict(mn, test.total_turning), min_derivative=mn, theta_min=angle(at),
                         drop=0.0, left=math.nan, right=math.nan)


def _circle_tests(f: HarmonicMap, radii, m: int, n_theta: int, curve_name: str) -> list[CircleTest]:
    """Circle tests at the increasing radii ``radii`` in scan order, up to the first that fails.

    The rate Im(d^{m+1} f / d^m f) of arg d^m f and the curve d^m f are
    sampled for many radii at once, one row per radius of one array per
    grid (``harmonic._circle_derivatives`` on a column of radii), on the
    grids that ``harmonic._chop_and_double`` picks row by row: the first row
    starts on ``n_theta`` angles and each later one on the largest grid
    reached before it, as if the radii were tested one at a time.  Each row
    takes the angles of its radius's rho (:func:`_cluster`), and one
    sampling call covers consecutive rows of the same rho, at most
    _BATCH_POINTS (2048) points, and more only when one row is larger, so
    never more than one circle at the cap.  The branch guard reads the rate
    times theta'(s), the derivative of arg d^m f in s.  Each
    row that settles is judged in scan order: it passes iff the minimum of
    its rate stays above -CIRCLE_MIN_TOL and the winding of its curve equals
    2 pi within TURNING_TOL.  The first failing row ends the list; the rows
    sampled past it are dropped unjudged.  ValueError is raised where the
    curve of a row that the list reaches vanishes, and not for a row past
    the first failure.

    A row whose least grid value g stays at least its ``drop`` above
    -CIRCLE_MIN_TOL passes the margin however the rate dips between its
    nodes, so no rate value can move its verdict: it keeps g and its grid
    angle, with the grid values either side, unrefined.  Every other row is
    refined on the spot (:func:`_finished`), its margin an actual rate value
    at an actual angle.  A caller that reads an unrefined margin itself, not
    only the verdict, finishes the test first.

    On a map with f(conj z) = conj f(z) and an even grid it samples only the
    nodes 0 <= theta <= pi.  The curve at -theta is the conjugate of that at
    theta, up to sign, and the rate is even in theta, as theta'(s) is in s:
    the vanishing check holds by symmetry, every step of the second half
    repeats one of the first, so the winding is twice the half, and the
    spectrum, the grid minimum and its neighbours read the rate mirrored
    back onto the whole grid.
    """
    radii = [float(r) for r in radii]
    for r in radii:
        _require_radius(r)
    column, rhos = np.array(radii)[:, None], [_cluster(f, r) for r in radii]
    def half(n: int) -> bool:
        return n % 2 == 0 and f._conjugate_symmetric

    def sample(n: int, first: int):
        (thetas, _, weights), mirrored, rho = _circle_grid(n, rhos[first]), half(n), rhos[first]
        th = thetas[: n // 2 + 1] if mirrored else thetas
        last = first + 1  # the rows of one call share the grid
        while last < min(len(radii), first + _BATCH_POINTS // th.size) and rhos[last] == rho:
            last += 1
        upper, curve = _circle_derivatives(f, column[first:last], m, th, (n, rho))
        small = abs(curve) < CURVE_VANISH_TOL
        if small.any():
            # the first row is reached and raises; a later one ends this call's
            # rows and comes back as the first row of a later call, if any
            j = int(np.argmax(small.any(axis=1)))
            if j == 0:
                raise ValueError(f"{curve_name} vanishes on |z| = {radii[first]}")
            upper, curve = upper[:j], curve[:j]
        rate = (upper / curve).imag
        slope = rate if weights is None else rate * weights[: th.size]  # the guard's rate: d/ds arg, in s
        if mirrored:
            return np.concatenate([rate, rate[:, -2:0:-1]], axis=1), (curve, slope)
        return rate, (np.concatenate([curve, curve[:, :1]], axis=1), np.concatenate([slope, slope[:, :1]], axis=1))

    tests = []
    for n, first, rates, steps, oks, tails, drops in _chop_and_double(sample, n_theta, len(radii)):
        windings = ((2 if half(n) else 1) * steps.sum(-1)).tolist()
        for rate, r, rho, winding, ok, tail, drop in zip(rates, radii[first:], rhos[first:], windings, oks, tails,
                                                         drops):
            k = int(rate.argmin())
            least, turning = float(rate[k]), winding if ok else math.nan
            test = CircleTest(_verdict(least, turning), least, turning, n, tail, float(_circle_grid(n, rho)[0][k]),
                              drop, float(rate[k - 1]), float(rate[(k + 1) % n]))
            if not least - drop >= -CIRCLE_MIN_TOL:  # the margin may dip below the threshold between nodes
                test = _finished(test, f, r, m, curve_name)
            tests.append(test)
            if not test.passed:
                return tests
        del rates, steps, rate  # as in _chop_and_double: freed before the next rows are sampled
    return tests


def convex_test_at_radius(f: HarmonicMap, r: float) -> CircleTest:
    """Is the image of |z| = r convex?  Tests min d/dtheta arg(df/dtheta) >= 0.

    Fails fast if d1f vanishes on the circle (the curve would not be
    regular).  Passes iff the sampled minimum stays above -1e-9 and the
    tangent d1f winds once, by 2 pi within 1e-3.  The grid starts on 128
    angles and doubles as the rate needs (:func:`_circle_tests`, the one-row
    case).
    """
    return _finished(_circle_tests(f, [r], 1, _START_THETA_POINTS, "tangent vector")[0], f, r, 1, "tangent vector")


def starlike_test_at_radius(f: HarmonicMap, r: float) -> CircleTest:
    """Is the image of |z| = r starlike about 0?  Tests min d/dtheta arg f >= 0.

    Reads only f and d1f on the circle: four evaluations per set of angles
    on a map with closed forms.  Passes iff the sampled minimum stays above
    -1e-9 and f winds once about the origin, by 2 pi within 1e-3.  The grid
    starts on 128 angles, as for :func:`convex_test_at_radius`.
    """
    return _finished(_circle_tests(f, [r], 0, _START_THETA_POINTS, "map")[0], f, r, 0, "map")


def _dip_fails(test: Callable[[float], CircleTest], a: float, b: float, tol: float) -> bool:
    """Golden-section search for the least margin on [a, b], to ``tol``.

    Stops, returning True, at the first circle that fails.
    """
    shrink = (math.sqrt(5) - 1) / 2
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    tc, td = test(c), test(d)
    while tc.passed and td.passed:
        if b - a <= tol:
            return False
        if tc.min_derivative < td.min_derivative:
            b, d, td = d, c, tc
            c = b - shrink * (b - a)
            tc = test(c)
        else:
            a, c, tc = c, d, td
            d = a + shrink * (b - a)
            td = test(d)
    return True


_TRUSTED_LAST_TERM = 1e-16  # a map with closed forms certifies no radius where its last stored term is larger


def _certified_radius(f: HarmonicMap, kind: str) -> float:
    """Radius up to which the coefficient sums certify every circle test of ``kind``.

    With p = 1 for starlikeness and p = 2 for convexity,

        lambda_p(r) = sum_{n>=2} n^p (|a_n| + |b_n|) r^(n-1)

    is the classifiers' sum (:func:`classifiers._weighted_terms`) on the
    dilation f(rz)/r, and it increases with r.  With b_1 = 0,
    lambda_p(r) <= 1 makes f(rz)/r fully starlike (p = 1) or fully convex
    (p = 2), so every circle |z| = s <= r passes.  Returns the root of
    lambda_p = 1 (moved below it by the root's tolerance where it lands
    above), or the top of the range where lambda_p stays at most 1 there.

    A series-only map is the polynomial of its coefficients: its sum is
    exact and the range is [0, 1].  A map with closed forms goes on past its
    last stored term t_N: it adds the geometric estimate t_N q / (1 - q) of
    the rest, with q = t_N / t_{N-1} from its last two stored terms, and
    certifies nothing where t_N > 1e-16 or q >= 1 (nor where only one of the
    two is zero).  Maps with b_1 != 0 get 0: the sums do not apply.
    """
    if abs(f.g.coefficient(1)) > 1e-14:
        return 0.0
    c = _weighted_terms(f, 1 if kind == "starlikeness" else 2)
    k = np.arange(1.0, c.size + 1)  # the powers of r, n - 1
    ratio, top = 0.0, 1.0  # a polynomial: no tail
    if f.forms is not None and np.any(c[-2:]):
        if c.size < 2 or not np.all(c[-2:]):
            return 0.0
        ratio = float(c[-1] / c[-2])
        top = min((_TRUSTED_LAST_TERM / float(c[-1])) ** (1 / c.size), (1 - 1e-12) / ratio, 1.0)

    def excess(r: float) -> float:
        powers = r ** k
        tail = c[-1] * powers[-1] * ratio * r / (1 - ratio * r) if ratio else 0.0
        return float(c @ powers + tail - 1)

    if excess(top) <= 0:
        return top
    x = _bracketed_root(excess, 0.0, top, xtol=1e-12)
    return x if excess(x) <= 0 else x - 2e-12


def radius_search(f: HarmonicMap, kind: str, tol: float = 1e-6) -> RadiusResult:
    """Bracket the first radius where the circle-image property is lost.

    The scan grid is 50 radii from 0.01 to the cap 0.999, and the property
    must hold at the lowest radius it tests (otherwise there is no inner
    radius to report).  The coefficient sums of the dilation f(rz)/r certify
    every circle up to a radius r_cert (:func:`_certified_radius`, 0 for maps
    with b_1 != 0), so the scan tests the largest grid radius <= r_cert
    once, or 0.01 where there is none, and goes on upward from there; it
    stops at the first failing circle.  A failing certified circle
    contradicts the certificate and raises ValueError.  The skipped circles
    cannot fail, so the first loss and the bracket are those of a scan of
    the whole grid.  For F the sums certify convexity up to 0.0903 and
    starlikeness up to 0.1649, which spares 3 and 7 scan circles.
    Where the margins scanned below the first loss dip to a local minimum, a
    golden-section search of the two neighbouring steps looks for a failing
    band narrower than the step; a failure found there is the first loss.
    The lowest circle tested has no scanned neighbour below it, so a dip
    there is not searched.  Between the last pass and the first fail the
    margin plus CIRCLE_MIN_TOL, which is continuous in r and changes sign
    exactly where the circle test does, is rooted on the tracked margin:
    the minimum of the rate that the two circles found, followed in r
    through single values of the rate (:func:`_tracked_root`), counted in
    ``point_evals``.  The bracket [x - 0.45 tol, x + 0.45 tol] around its
    root x is confirmed by one batched pair of circle tests.  A lost walk,
    a tracked margin without a sign change, a pair that disagrees and a
    winding failure (margin above threshold) fall back to bisection on
    pass/fail.  For F the tracker takes 13 and 29 tests, with 15 and 29
    rate values; where it gives up at once, bisection takes 26 and 42.
    Radii above the first loss where the property holds again are not
    searched.  If the property still holds at the cap the result carries
    ``upper_limit_hit`` and the bracket degenerates to [0.999, 1); a map the
    sums certify up to the cap gets there after one circle test.  ``tol``
    must be finite and at least 1e-12, or ValueError is raised.

    Every circle is tested through :func:`_circle_tests`.  The upward scan
    is one call: its circles are sampled together, as rows of one array per
    grid, judged in order up to the first failure, and a row past it is
    neither counted nor raises.  The confirming pair is a second such call,
    and the dip search and the bisection make one call per radius.  The
    scan, the pair and the bisection read only verdicts, so their circles
    keep the grid margins that cannot fail (:func:`_circle_tests`), and the
    tracker starts from the grid angle of such a circle.  The check for a
    dip, the dip search and the reads of the first loss's margin finish the
    circles they read first (:func:`_finished`).  The check finishes the
    three circles about a scan point only where their grid values and drop
    leave room for a dip: a finished margin lies between its grid value less
    its drop and its grid value, so the check fires exactly where one on
    finished margins would.  Each circle test chooses its own grid: the
    first starts on 128 angles and each later one on the largest grid any
    test reached so far, in the batch as in a call of its own; the result
    reports that finest grid.  A first
    loss that still fails only on the branch guard (turning nan, margin
    above threshold) on the 65536-angle cap says that the grid is too coarse
    for the curve there, not that the property is lost, and raises
    ValueError.
    """
    _require_tol(tol)
    if kind == "convexity":
        m, name = 1, "tangent vector"
    elif kind == "starlikeness":
        m, name = 0, "map"
    else:
        raise ValueError("kind must be 'convexity' or 'starlikeness'")

    r_cert = _certified_radius(f, kind)
    seen: dict[float, CircleTest] = {}
    grid, points = _START_THETA_POINTS, 0

    def tests(radii: list[float]) -> None:
        nonlocal grid
        results = _circle_tests(f, radii, m, grid, name)
        grid = max([grid] + [t.grid_theta for t in results])
        seen.update(zip(radii, results))

    def test(r: float) -> CircleTest:
        if r not in seen:
            tests([r])
        return seen[r]

    def margin(r: float) -> CircleTest:
        """The circle test at r, finished: for the reads of the margin itself, not only of the verdict."""
        seen[r] = _finished(test(r), f, r, m, name)
        return seen[r]

    def rate(r: float, theta: float) -> float:
        nonlocal points
        points += 1
        return _rate_at(f, r, m, theta, name)

    def first_loss() -> tuple[float, float]:
        hi = min(r for r, t in seen.items() if not t.passed)
        return max(r for r, t in seen.items() if t.passed and r < hi), hi

    def result(lo: float, hi: float) -> RadiusResult:
        loss = margin(hi) if hi in seen else None  # none above the cap
        if loss and math.isnan(loss.total_turning) and loss.min_derivative >= -CIRCLE_MIN_TOL:
            raise ValueError(f"{kind} circle at r = {hi} fails only on the branch guard on "
                             f"{grid} angles; the curve needs a finer grid than the cap")
        return RadiusResult(kind, lo, hi, grid, tol, len(seen), points, r_cert, upper_limit_hit=hi == 1.0)

    radii = np.linspace(0.01, 0.999, 50)
    scan = [float(r) for r in radii[max(int(np.searchsorted(radii, r_cert, side="right")) - 1, 0):]]
    tests(scan)
    if not seen[scan[0]].passed:
        if scan[0] <= r_cert:
            raise ValueError(f"{kind} fails at r = {scan[0]}, below the radius {r_cert} "
                             "that the coefficient sums certify")
        raise ValueError(f"{kind} already fails at r = {scan[0]}; nothing to bracket")

    # a failing band narrower than the scan step can hide where the margin
    # dips between passing scan points; rounding noise is no dip.  A margin
    # refines to at most its grid value and at least that less its drop, so
    # only where the grid values leave room for a dip are the three finished
    passing = [r for r in sorted(seen) if seen[r].passed]
    for i in range(1, len(passing) - 1):
        below, at, above = (seen[r] for r in passing[i - 1 : i + 2])
        if min(below.min_derivative, above.min_derivative) - (at.min_derivative - at.drop) > CIRCLE_MIN_TOL:
            below, at, above = (margin(r).min_derivative for r in passing[i - 1 : i + 2])
            if min(below, above) - at > CIRCLE_MIN_TOL and _dip_fails(margin, passing[i - 1], passing[i + 1], tol):
                break
    if all(t.passed for t in seen.values()):
        return result(scan[-1], 1.0)

    lo, hi = first_loss()
    if margin(hi).min_derivative + CIRCLE_MIN_TOL < 0:  # a margin failure, not a winding one: root the margin
        x = _tracked_root(rate, lo, hi, seen, xtol=0.4 * tol)
        if x is not None:
            # [x - 0.45 tol, x + 0.45 tol], tested as one batched pair, if it holds the first loss
            lo_x, hi_x = max(lo, x - 0.45 * tol), min(hi, x + 0.45 * tol)
            if pending := [r for r in (lo_x, hi_x) if r not in seen]:
                tests(pending)
            if seen[lo_x].passed and hi_x in seen and not seen[hi_x].passed and first_loss()[1] > lo_x:
                return result(lo_x, hi_x)
            lo, hi = first_loss()
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if test(mid).passed:
            lo = mid
        else:
            hi = mid
    return result(lo, hi)


def _require_tol(tol: float) -> None:
    """ValueError unless ``tol`` is finite and at least 1e-12.

    A smaller one would keep the bisection of :func:`radius_search` halving
    a bracket that adjacent floats cannot shrink, forever.
    """
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise ValueError(f"tol must be finite and at least 1e-12, got {tol}")


def _tracked_min(fn: Callable[[float], float], theta: float, step: float) -> tuple[float, float] | None:
    """The least value of the rate ``fn`` near the angle ``theta``, and its angle; None where the walk is lost.

    From theta - step, theta and theta + step the walk goes downhill, each
    stride twice the last, until the least of its last three points lies
    between the other two; :func:`_refined_min` then takes its parabolic
    steps from those three.  Where the walk moved, those steps ran on
    points up to two strides apart and may stop short, so the point they
    reach is bracketed again on ``step`` and walked from in the same way,
    until a walk stays where it starts.  Each walk ends lower than it
    started, so this ends.  A walk whose next stride would pass half a turn
    is lost, as is one that meets a nan.
    """
    left, mid, right = ((x, float(fn(theta + x))) for x in (-step, 0.0, step))
    while True:
        stride = step
        while not mid[1] <= min(left[1], right[1]):
            stride *= 2
            if stride > math.pi:
                return None
            if left[1] < right[1]:
                mid, right = left, mid
                left = (mid[0] - stride, float(fn(theta + mid[0] - stride)))
            else:
                left, mid = mid, right
                right = (mid[0] + stride, float(fn(theta + mid[0] + stride)))
        least, at = _refined_min(theta, left, mid, right, fn)
        if stride == step:
            return least, at
        theta, mid = at, (0.0, least)
        left, right = ((x, float(fn(theta + x))) for x in (-step, step))


class _LostBranch(Exception):
    """A tracked minimum walked off (:func:`_tracked_min`)."""


def _tracked_root(
    rate: Callable[[float, float], float],
    lo: float,
    hi: float,
    seen: dict[float, CircleTest],
    xtol: float,
) -> float | None:
    """Root of the tracked margin between the last pass ``lo`` and the first fail ``hi``; None where it gives up.

    The margin m(r) = min_theta rate(r, theta) needs, near the root, only
    the minimum that the failing circle found, followed in r: its angle
    theta*(r) moves continuously.  At a new radius the tracker starts from
    the angle of the nearest radius already evaluated, first the two
    circles' ``theta_min``, and finds the least rate near it from single
    values ``rate(r, theta)`` (:func:`_tracked_min`), on the spacing of the
    finest grid any circle test of the search reached.  Brent-Dekker
    (:func:`_bracketed_root`) roots that minimum plus CIRCLE_MIN_TOL to
    ``xtol``.  It gives up, returning None, where a circle reports no
    angle, where a walk is lost, or where the tracked margin does not pass
    at ``lo`` and fail at ``hi``.  A root of the tracked margin is only a
    candidate: :func:`radius_search` confirms it with one batched pair of
    circle tests, and bisects on pass/fail where it gives up or the pair
    disagrees.  The pair catches a root on the wrong branch: where the last
    pass and the first fail have their least rates on different minima, the
    nearest evaluated angle may start a radius on the other one.
    """
    angles = {lo: seen[lo].theta_min, hi: seen[hi].theta_min}
    if not all(math.isfinite(a) for a in angles.values()):
        return None
    step = 2 * math.pi / max(t.grid_theta for t in seen.values())
    values: dict[float, float] = {}

    def margin(r: float) -> float:
        if r not in values:
            start = angles[min(angles, key=lambda s: abs(s - r))]
            found = _tracked_min(lambda th: rate(r, th), start, step)
            if found is None:
                raise _LostBranch
            values[r], angles[r] = found[0] + CIRCLE_MIN_TOL, found[1]
        return values[r]

    try:
        if not margin(hi) < 0 <= margin(lo):
            return None
        return _bracketed_root(margin, lo, hi, xtol)
    except _LostBranch:
        return None


# -- sign polynomials of the horizontally sheared half-plane map F --------------


def polynomial_p(r, u) -> float | np.ndarray:
    """Convexity sign polynomial; nonnegative on u in [-1, 1] iff r <= 2 - sqrt(3).

    p(r, -1) factors as (1+r)^6 (1 - 4r + r^2), which is where the sign is
    lost first.  r and u may each be a float or an array, and broadcast
    against each other; Python floats r and u give a Python float.
    """
    r2 = r * r
    r4 = r2 * r2
    s = 1 + r2
    return (
        1 + 4 * r2 - 26 * r4 + 4 * r4 * r2 + r4 * r4
        - 6 * u * r * s * (1 + r4 - 6 * r2)
        - 12 * r2 * u * u * (s * s)
        + 4 * r * (u * u * u) * s * (1 + r4)
    )


def polynomial_q(r, u) -> float | np.ndarray:
    """Starlikeness sign polynomial; q(r, +-1) = (1 -+ r)^4 > 0, the interior
    minimum decides the sign.

    r and u may each be a float or an array, and broadcast against each
    other; Python floats r and u give a Python float.
    """
    r2 = r * r
    d = 1 - r2
    return d * d - 2 * r * u * (1 + r2) + 8 * r2 * u * u - 2 * r * (1 + r2) * (u * u * u)


def _bracketed_root(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by the Brent-Dekker method, to xtol + 4 eps |root|.

    f(a) and f(b) must differ in sign (ValueError otherwise); an end where f
    is exactly 0 is returned as is.  [b, c] is always a sign-change bracket
    with |f(b)| <= |f(c)|.  Each step tries inverse quadratic (or secant)
    interpolation and falls back to bisection unless the trial point lands
    well inside the bracket and the last steps shrank fast enough.
    """
    fa, fb = f(a), f(b)
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    if (fa > 0) == (fb > 0):
        raise ValueError(f"f({a}) and f({b}) must have different signs")
    c, fc, d = a, fa, b - a
    e = d
    while True:
        if (fb > 0) == (fc > 0):
            c, fc, d = a, fa, b - a
            e = d
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 0.5 * xtol + 2 * math.ulp(1.0) * abs(b)
        m = 0.5 * (c - b)
        if fb == 0 or abs(m) <= tol:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2 * m * s, 1 - s
            else:
                q, t = fa / fc, fb / fc
                p = s * (2 * m * q * (q - t) - (b - a) * (t - 1))
                q = (q - 1) * (t - 1) * (s - 1)
            p, q = abs(p), (-q if p > 0 else q)
            if 2 * p < min(3 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


def p_root_in_radius(u: float) -> float:
    """Smallest r in (0, 1] with p(r, u) = 0, for a fixed u in [-1, 1].

    p(0, u) = 1 and p(1, u) = -16 (1 - u)^3 <= 0, so a root exists for every
    u < 1.  Observed (and sampled by the radii verify suite, not proven
    here): this root increases with u, which is why the u = -1 endpoint
    alone decides where p stays nonnegative.
    """
    u = float(u)  # the polynomial then runs on Python floats, not numpy scalars
    if not -1 <= u < 1:
        raise ValueError("need -1 <= u < 1 (at u = 1 the polynomial has no root below 1)")
    return float(_bracketed_root(lambda r: polynomial_p(r, u), 0.0, 1.0, xtol=1e-14))


def _q_interior_min_location(r: float) -> float:
    """u in (-1, 1) where q(r, .) attains its local minimum.

    Real only for r >= 1/sqrt(3) (the discriminant -3 + 10r^2 - 3r^4 must be
    nonnegative); below that q has no interior critical point.
    """
    disc = -3 + 10 * r * r - 3 * r ** 4
    if disc < 0:
        raise ValueError("no interior minimum below r = 1/sqrt(3)")
    return (4 * r - math.sqrt(disc)) / (3 * (1 + r * r))


def _starlike_margin(r: float) -> float:
    """q at its interior minimum: positive iff every u in [-1,1] keeps q >= 0."""
    return float(polynomial_q(r, _q_interior_min_location(r)))


@dataclass(frozen=True)
class TangentIdentityResiduals:
    convex: float
    starlike: float


def identity_check_tangent(r, u) -> TangentIdentityResiduals:
    """Largest residuals of the two pole-free tangent identities over the points (r, u).

    r and u broadcast against each other.  At z = r (u + i sqrt(1 - u^2))
    the catalog's closed forms of F = f_alpha(1) give F and, through the
    formulas the circle tests sample (``harmonic._angular``), its
    theta-derivatives d1 and d2.  With |1 - z|^2 = 1 - 2ru + r^2 the residuals, in units of p and
    q, are

        convex   = max | |1 - z|^12 Im(conj(d1) d2) / r^2 - p(r, u) |
        starlike = max | |1 - z|^8  Im(conj(F) d1)  / r^2 - q(r, u) |.

    Every point with 0 < r < 1 and -1 <= u <= 1 is valid, u = +-1 and the
    poles of tan Psi and tan Phi included; ValueError otherwise.
    """
    r, u = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(u, dtype=float))
    if not (np.all((0 < r) & (r < 1)) and np.all(np.abs(u) <= 1)):
        raise ValueError("need 0 < r < 1 and -1 <= u <= 1")
    ex = map_F().exact
    z = r * (u + 1j * np.sqrt(1 - u * u))
    d1, d2 = _angular(z, ex["dh"], ex["dg"], ex["d2h"], ex["d2g"])
    f = ex["h"](z) + np.conj(ex["g"](z))
    rho = 1 - 2 * r * u + r * r
    convex = rho ** 6 * np.imag(np.conj(d1) * d2) / (r * r) - polynomial_p(r, u)
    starlike = rho ** 4 * np.imag(np.conj(f) * d1) / (r * r) - polynomial_q(r, u)
    return TangentIdentityResiduals(float(np.max(np.abs(convex))), float(np.max(np.abs(starlike))))


@dataclass(frozen=True)
class SpecialRadii(Report):
    """The package's flagship constants, solved numerically.

    r_convex                  root of 1 - 4r + r^2, equals 2 - sqrt(3)
    r_star                    root of the starlike margin, equals
                              (1/3) sqrt((37 - 8 sqrt(10)) / 3)
    r_close_to_convex_convex  class-level convexity bound, 2 - sqrt(3)
    r_close_to_convex_star    class-level starlikeness bound, 4 sqrt(2) - 5
    """

    r_convex: float
    r_star: float
    r_close_to_convex_star: float
    r_close_to_convex_convex: float


def solve_special_radii() -> SpecialRadii:
    """Solve for the transition radii instead of quoting them.

    The convexity radius is the smallest positive root of 1 - 4r + r^2; the
    starlikeness radius is the root of the starlike margin on the branch
    r >= 1/sqrt(3) where the interior minimum of q exists.  Both are found
    by the Brent-Dekker bracketing method to machine precision.
    """
    r_convex = _bracketed_root(lambda r: 1 - 4 * r + r * r, 0.0, 0.5, xtol=1e-15)
    lo = 1 / math.sqrt(3) + 1e-12
    r_star = _bracketed_root(_starlike_margin, lo, 0.9999, xtol=1e-15)
    return SpecialRadii(
        r_convex=r_convex,
        r_star=r_star,
        r_close_to_convex_star=4 * math.sqrt(2) - 5,
        r_close_to_convex_convex=2 - math.sqrt(3),
    )
