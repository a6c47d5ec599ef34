"""Planar harmonic mappings f = h + conj(g) on the unit disk.

The analytic part ``h`` and the co-analytic part ``g`` are both stored as
analytic power series (the conjugation is applied only at evaluation time),
because every coefficient relation used elsewhere in the package acts on the
analytic ``g``.  A map may carry closed forms (h, g, alpha), one
:class:`~hmap.series.ClosedForm` per part with g scaled by alpha; the catalog
builds each map, and its series, from them, and so does a Hadamard product of
two such maps, from the products of their forms.  The map compiles the
evaluators of h, g and their first two derivatives from the forms
(``HarmonicMap.exact``).  Each map has exactly one evaluation route: a map
with closed forms evaluates them on every point, so scans near the boundary
stay accurate; a map without them evaluates its truncated series.  The two
meet only once, when a map with closed forms is built and checked against its
series: all six closed forms at 20 fixed points in |z| <= 1/2 against one
matrix product of the powers of those points with the coefficients of the
six series (:func:`_check_exact_agreement`).  Pointwise operations that need
several of h, g and their derivatives at the same points (f itself, the
Jacobian, the dilatation) evaluate them together after one |z| < 1 guard
(``HarmonicMap._eval_routes``).

Circle tests (one radius, or the radii of a scan at once) sample a map on
their own path (:func:`_circle_derivatives`: closed forms at
z = r e^{i theta}, or one inverse FFT of the coefficients per derivative),
not through the ``*_at`` methods.  They read the argument of the sampled
curve through one per-step branch guard (:func:`_phase_steps`) on a grid
that one rule doubles, row by row, until the rate is resolved
(:func:`_chop_and_double`): uniform, or, on a map with a pole at z = 1,
uniform in a parameter s whose angles theta(s) cluster there
(:func:`_circle_grid`).  The polar-grid checks (the Jacobian, the curvature
of the M(alpha) membership test, the cross-check of the product dilatation,
and Kaplan's arc integrals on their uniform grid) read h, g and their
derivatives circle by circle (:func:`_polar_routes`); Kaplan's arcs read
other angles through ``HarmonicMap._eval_routes``, and share the grid rule
and the guard with the circle tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .defaults import COEFF_ABS_TOL, EXACT_AGREEMENT_POINTS, EXACT_AGREEMENT_TOL
from .report import Report
from .series import ClosedForm, TruncatedSeries, _require_inside


class SingularPointError(ValueError):
    """Raised when h'(z) vanishes where a dilatation is requested."""

    def __init__(self, z: complex):
        self.z = z
        super().__init__(f"h' vanishes at z = {z}")


_ROUTES = ("h", "g", "dh", "dg", "d2h", "d2g")

# Every power z^n of the agreement points (|z| <= 1/2) past this degree
# underflows to zero, so the agreement check's power table stops here
# however large the truncation degree.
_AGREEMENT_DEGREE = 1100


def _disk_samples(r_max: float, n: int) -> np.ndarray:
    # sunflower layout: quasi-uniform, deterministic
    k = np.arange(1, n + 1)
    rho = r_max * np.sqrt((k - 0.5) / n)
    ang = k * (np.pi * (3 - np.sqrt(5)))
    return rho * np.exp(1j * ang)


@lru_cache(maxsize=1)
def _agreement_points() -> np.ndarray:
    """The fixed sample points in |z| <= 1/2 where closed forms are checked, read-only."""
    z = _disk_samples(0.5, EXACT_AGREEMENT_POINTS)
    z.flags.writeable = False
    return z


@lru_cache(maxsize=1)
def _agreement_powers() -> np.ndarray:
    """z^0 .. z^_AGREEMENT_DEGREE at the agreement points, one row per point, read-only."""
    z = _agreement_points()
    table = np.ones((z.size, _AGREEMENT_DEGREE + 1), dtype=complex)
    table[:, 1:] = z[:, None]
    table = np.cumprod(table, axis=1)
    table.flags.writeable = False
    return table


def _check_exact_agreement(hmap: "HarmonicMap") -> None:
    """Compare each of the six closed forms with its series at the agreement points.

    All six series are evaluated by one matrix product: the powers
    z^0 .. z^N at the points times an (N+1) x 6 matrix whose columns hold
    the coefficients of h, g, h', g', h'', g'' (a_n, b_n, n a_n, n b_n,
    n(n-1) a_n, n(n-1) b_n, shifted down to the power they multiply).  N is
    the larger degree of h and g, cut at _AGREEMENT_DEGREE.  Each gap must
    stay within its allowance (:func:`_agreement_allowances`).
    """
    z = _agreement_points()
    deg = min(max(hmap.h.order, hmap.g.order), _AGREEMENT_DEGREE)
    n = np.arange(deg + 3, dtype=float)
    cols = np.zeros((deg + 1, 6), dtype=complex)
    for j, s in enumerate((hmap.h, hmap.g)):
        c = np.zeros(deg + 3, dtype=complex)
        c[: s.coeffs.size] = s.coeffs[: deg + 3]
        cols[:, j] = c[: deg + 1]
        cols[:, 2 + j] = (n[1:] * c[1:])[: deg + 1]
        cols[:, 4 + j] = n[2:] * n[1:-1] * c[2:]
    exact = np.empty((z.size, 6), dtype=complex)
    for j, name in enumerate(_ROUTES):
        exact[:, j] = hmap.exact[name](z)
    gaps = np.max(np.abs(exact - _agreement_powers()[:, : deg + 1] @ cols), axis=0)
    for name, gap, tol in zip(_ROUTES, gaps, _agreement_allowances(hmap)):
        series = hmap.h if name.endswith("h") else hmap.g
        if name.startswith("d2") and series.order < 2:
            raise ValueError(f"degree {series.order} too small for 2 derivatives")
        if not gap <= tol:
            raise ValueError(
                f"closed-form {name} disagrees with its series by {gap:.3e} "
                f"inside |z| <= 0.5 (allowed {tol:.3e})"
            )


_TAIL_TERMS = 80  # terms of a form's series past its degree that the tail sums; the next is below 2^-80 of them


def _agreement_allowances(hmap: "HarmonicMap") -> list[float]:
    """How far each of h, g, h', g', h'', g'' may stray from its series at the agreement points.

    A series of degree N leaves out sum_{n>N} n^p |c_n| |z|^(n-p) of its
    p-th derivative, at most the tail t_p = sum_{n>N} n^p |c_n| 2^(p-n) on
    |z| <= 1/2.  The forms (h, g, alpha) give the coefficients past N, so
    each route may stray EXACT_AGREEMENT_TOL plus 2 t_p, t_p summed over the
    80 terms past N (and scaled by |alpha| for g).
    """
    h, g, alpha = hmap.forms
    th, tg, scale = _form_tails(h, hmap.h.order), _form_tails(g, hmap.g.order), abs(alpha)
    return [EXACT_AGREEMENT_TOL + 2 * t for p in range(3) for t in (th[p], scale * tg[p])]


@lru_cache(maxsize=256)
def _form_tails(form: ClosedForm, order: int) -> tuple[float, float, float]:
    """t_p = sum_{n>order} n^p |c_n| 2^(p-n), p = 0, 1, 2, of ``form``'s coefficients, over the 80 terms past ``order``."""
    n, p = np.arange(order + 1, order + _TAIL_TERMS + 1, dtype=float), np.arange(3.0)[:, None]
    tails = n**p * 2.0 ** (p - n) @ np.abs(form.coefficients(order + _TAIL_TERMS)[order + 1 :])
    return tuple(tails.tolist())


def _require_radius(r: float, name: str = "r") -> None:
    """ValueError unless 0 < r < 1 (nan fails): the radius of every circle and disk a check samples."""
    if not 0 < r < 1:
        raise ValueError(f"need 0 < {name} < 1")


def _check_alpha(alpha: complex, name: str, symbol: str = "alpha") -> None:
    """ValueError unless |alpha| <= 1 (to 1e-12; nan fails), the dilatation bound of every alpha family.

    The one check of the family parameter, and of the convolutions' beta
    (``symbol`` names it in the message).
    """
    if not abs(alpha) <= 1 + 1e-12:
        raise ValueError(f"{name} requires |{symbol}| <= 1, got {abs(alpha)}")


def _require_nonzero(values, z, tol: float = 0.0) -> None:
    """Raise :class:`SingularPointError` at the first z where |values| <= tol."""
    small = np.abs(np.asarray(values)) <= tol
    if np.any(small):
        zf = np.broadcast_to(np.asarray(z, dtype=complex), small.shape)
        raise SingularPointError(complex(zf.ravel()[int(np.argmax(small.ravel()))]))


@dataclass(frozen=True, eq=False)
class HarmonicMap:
    """Sense-preserving candidate f = h + conj(g), normalized at the origin.

    Normalization ``h(0) = 0`` and ``h'(0) = 1`` is enforced; ``g`` is an
    arbitrary analytic series.  ``forms``, when given, is the triple
    (h_form, g_form, alpha) of :class:`~hmap.series.ClosedForm` parts, with
    h = h_form and g = alpha g_form: the map evaluates them on every point
    (:attr:`exact`), and is built only if they agree with its series
    (:func:`_check_exact_agreement`).  Without forms it is series-only.
    Instances are immutable and all operations on them are pure.
    """

    h: TruncatedSeries
    g: TruncatedSeries
    forms: tuple[ClosedForm, ClosedForm, complex] | None = None
    label: str = ""

    def __post_init__(self):
        if abs(self.h.coefficient(0)) > COEFF_ABS_TOL or abs(self.h.coefficient(1) - 1) > COEFF_ABS_TOL:
            raise ValueError("analytic part must satisfy h(0) = 0 and h'(0) = 1")
        if self.forms is not None:
            _check_exact_agreement(self)

    @property
    def order(self) -> int:
        return min(self.h.order, self.g.order)

    @cached_property
    def exact(self) -> Mapping[str, Callable] | None:
        """h, g, h', g', h'', g'' compiled from :attr:`forms`, a read-only mapping by route name; None without forms."""
        if self.forms is None:
            return None
        h, g, alpha = self.forms
        dh, dg = h.derivative, g.derivative
        return MappingProxyType(dict(zip(_ROUTES, (
            h.evaluator(), g.evaluator(alpha), dh.evaluator(), dg.evaluator(alpha),
            dh.derivative.evaluator(), dg.derivative.evaluator(alpha)))))

    def _series(self, which: str) -> TruncatedSeries:
        """The truncated series of one of h, g, h', g', h'', g''; a derivative is built at each call."""
        part = self.h if which.endswith("h") else self.g
        return part if len(which) == 1 else part.differentiate(2 if which.startswith("d2") else 1)

    @cached_property
    def _conjugate_symmetric(self) -> bool:
        """Does f(conj z) = conj f(z) hold, so that circle images mirror in the real axis?

        True when every coefficient of h and g is real and, on a map with
        forms, alpha is real: a form's numerator and log part are real, so
        each form F satisfies F(conj z) = conj F(z).  Worked out at the first
        circle test that asks, not when the map is built.
        """
        if np.any(self.h.coeffs.imag != 0) or np.any(self.g.coeffs.imag != 0):
            return False
        return self.forms is None or complex(self.forms[2]).imag == 0

    @cached_property
    def _pole_order(self) -> int:
        """The order of the map's singularity at z = 1: the largest k of its forms N(z)/(1 - z)^k + c log(1 - z).

        A form with only a log part counts 1, and a map with no singular form,
        or with no forms, counts 0.  Every form is singular at z = 1 only, so
        circle tests of a map with a pole cluster their angles there
        (``radius._cluster``).
        """
        return max(max(form.k, bool(form.log)) for form in self.forms[:2]) if self.forms else 0

    @cached_property
    def _circle_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The circle image sum_k c_k r^|k| e^{i k theta} of a series-only map, as arrays over k.

        Returns the frequencies k = 0 .. deg h, then -1 .. -deg g, each once;
        the same k as complex numbers, the exponents of e^{i theta} off the
        grid (numpy's complex power takes them without a cast); c_k = a_k
        for k >= 0 and conj(b_{-k}) for k < 0, with c_0 = a_0 + conj(b_0);
        and the weights W[p] = (ik)^p for p = 0, 1, 2, which a
        theta-derivative of order p multiplies in.  Built at the first
        circle test that samples the map from its coefficients.
        """
        k = np.concatenate([np.arange(self.h.order + 1), -np.arange(1, self.g.order + 1)])
        c = np.concatenate([self.h.coeffs, np.conj(self.g.coeffs[1:])])
        c[0] += np.conj(self.g.coeffs[0])
        ik = 1j * k
        return k, k.astype(complex), c, np.stack([np.ones_like(ik), ik, ik * ik])

    def _scaled_rows(self, r: float) -> np.ndarray:
        """The rows W[p] c_k r^|k|, p = 0, 1, 2, of :attr:`_circle_terms` at one radius, a float.

        The rows of the last radius asked for are kept: the refinement
        points of a circle test, and the tracked margin of a radius search,
        sample several angles at one radius.
        """
        last = vars(self).get("_last_rows")
        if last is None or last[0] != r:
            k, powers, c, weights = self._circle_terms
            last = vars(self)["_last_rows"] = (r, weights * (c * r ** np.abs(powers)))
        return last[1]

    # -- evaluation plumbing -------------------------------------------------

    def _eval(self, which: str, z):
        """Evaluate one of h, g, h', g', h'', g'' on the map's one route (see :meth:`_eval_routes`)."""
        return self._eval_routes((which,), z)[0]

    def _eval_routes(self, routes: tuple[str, ...], z) -> tuple:
        """Evaluate several of h, g, h', g', h'', g'' at the same points z, in that order.

        The points pass one |z| < 1 guard for all of them.  A map with closed
        forms evaluates them on every point, scalar or array; a map without
        them evaluates its truncated series by Horner's rule
        (:meth:`TruncatedSeries.evaluate`).  A scalar z gives Python complex
        values.  Circle tests on either route do not come here: they call the
        closed forms directly or read the coefficients by inverse FFT
        (:func:`_circle_derivatives`).  Polar-grid checks, Kaplan's uniform
        grids among them, come here on a map with closed forms only; a
        series-only map's grid is read by inverse FFT too
        (:func:`_polar_routes`).
        """
        zarr = np.asarray(z, dtype=complex)
        _require_inside(zarr)
        if self.exact is None:
            zz = zarr if zarr.ndim else z
            return tuple(self._series(which).evaluate(zz) for which in routes)
        if zarr.ndim:
            return tuple(self.exact[which](zarr) for which in routes)
        zc = complex(z)
        return tuple(complex(self.exact[which](zc)) for which in routes)

    def h_at(self, z):
        return self._eval("h", z)

    def g_at(self, z):
        return self._eval("g", z)

    def dh_at(self, z):
        return self._eval("dh", z)

    def dg_at(self, z):
        return self._eval("dg", z)

    def d2h_at(self, z):
        return self._eval("d2h", z)

    def d2g_at(self, z):
        return self._eval("d2g", z)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"HarmonicMap(order={self.order}{tag}, exact={self.exact is not None})"


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class GridCheckReport(Report):
    """Outcome of a sampled positivity check on a polar grid.

    A pass is a necessary condition only: the property was observed on the
    grid, not certified on the disk.
    """

    name: str = field(default="sense_preserving", init=False)
    passed: bool
    r_max: float
    grid: tuple[int, int]
    worst_value: float
    first_failure: complex | None = None
    check_kind: str = field(default="necessary", init=False)


@dataclass(frozen=True)
class CollisionReport(Report):
    """Outcome of the sampled injectivity check.

    ``collision`` is True when two sample points at domain distance at least
    ``min_separation`` land within ``collision_tol`` of each other.  Absence
    of a collision proves nothing; presence falsifies injectivity on the
    sampled disk.
    """

    passed: bool
    collision: bool
    min_image_distance: float
    witness: tuple[complex, complex] | None
    n_samples: int
    r_max: float
    min_separation: float = field(default=0.05, init=False)
    collision_tol: float = field(default=1e-8, init=False)
    check_kind: str = field(default="necessary", init=False)


# -- operations ----------------------------------------------------------------


def evaluate_f(f: HarmonicMap, z):
    """Value of the harmonic map: h(z) + conj(g(z))."""
    h, g = f._eval_routes(("h", "g"), z)
    return h + np.conj(g)


def dilatation(f: HarmonicMap, z):
    """Second complex dilatation w = g'/h'.

    Raises :class:`SingularPointError` where h' vanishes.
    """
    hp, gp = f._eval_routes(("dh", "dg"), z)
    _require_nonzero(hp, z)
    return gp / hp


def jacobian(f: HarmonicMap, z):
    """Jacobian determinant |h'|^2 - |g'|^2; positive iff sense-preserving at z."""
    hp, gp = f._eval_routes(("dh", "dg"), z)
    return np.abs(hp) ** 2 - np.abs(gp) ** 2


def angular_derivatives(f: HarmonicMap, r: float, theta):
    """First and second derivatives of f along the circle |z| = r.

    With z = r e^{i theta}:

        d1 = i (z h'(z) - conj(z g'(z)))
        d2 = -(z h' + z^2 h'') - conj(z g' + z^2 g'')

    Both follow from differentiating z(theta) = r e^{i theta} through the
    chain rule.  This is the public route through the ``*_at`` methods; the
    circle tests sample the same formulas on their own path
    (:func:`_circle_derivatives`).
    """
    _require_radius(r)
    z = r * np.exp(1j * np.asarray(theta, dtype=float))
    if np.isscalar(theta):
        z = complex(z)
    return _angular(z, f.dh_at, f.dg_at, f.d2h_at, f.d2g_at)


def _angular(z, dh, dg, d2h=None, d2g=None):
    """(d1, d2) at the points z from callables for h', g', h'' and g''.

    The one body of the formulas in :func:`angular_derivatives`.  z may be
    an array or a complex scalar; a scalar stays a scalar.  Without
    ``d2h`` and ``d2g`` it returns (d1, None): d1 alone needs only h' and g',
    so the starlikeness test evaluates two derivatives instead of four.
    """
    zhp = z * dh(z)
    zgp = z * dg(z)
    d1 = 1j * (zhp - zgp.conjugate())
    if d2h is None:
        return d1, None
    return d1, -(zhp + z * z * d2h(z)) - (zgp + z * z * d2g(z)).conjugate()


@lru_cache(maxsize=8)
def _unit_circle(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid theta_j = 2 pi j / n_theta and e^{i theta_j}, read-only.

    Every circle test on ``n_theta`` angles shares these two arrays.
    """
    theta = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    unit = np.exp(1j * theta)
    theta.flags.writeable = False
    unit.flags.writeable = False
    return theta, unit


def _clustered_angle(s, rho: float):
    """theta(s) = 2 arctan(((1 - rho)/(1 + rho)) tan(s/2)), the angle of (e^{is} + rho)/(1 + rho e^{is}).

    The boundary trace of the disk automorphism that moves 0 to rho: on
    uniform s it clusters angles at theta = 0 by theta'(0) = (1 - rho)/(1 + rho),
    and spreads them at theta = pi.  Odd in s, with theta(pi) = pi and
    theta(s + 2 pi) = theta(s) + 2 pi.  Written through arctan2, it rounds
    only a few times on -pi < s <= 2 pi, even where tan(s/2) has its pole,
    and maps [0, 2 pi) into [0, 2 pi).  With -rho it is the inverse.
    """
    half = 0.5 * np.asarray(s, dtype=float)
    return 2 * np.arctan2((1 - rho) / (1 + rho) * np.sin(half), np.cos(half))


@lru_cache(maxsize=16)
def _circle_grid(n_theta: int, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The angles theta(2 pi j / n_theta) of :func:`_clustered_angle`, e^{i theta} and theta', read-only.

    rho = 0 is the uniform grid of :func:`_unit_circle`, the same arrays,
    with no weights (theta' = 1).  Otherwise the angles cluster at
    theta = 0, and the weights theta'(s_j) = (1 - rho^2)/(1 + 2 rho cos s_j +
    rho^2) turn a rate in theta into one in s.  The second half mirrors the
    first, so that E(-s) = conj E(s) holds bit for bit: node n - j is the
    conjugate of node j, and on an even grid node n/2 is -1.  Every circle
    test on the same grid shares them.
    """
    if rho == 0:
        return (*_unit_circle(n_theta), None)
    s = _unit_circle(n_theta)[0]
    theta = _clustered_angle(s, rho)
    half = n_theta // 2 + 1
    if n_theta % 2 == 0:  # s = pi rounded; theta'(pi) = (1 + rho)/(1 - rho) would magnify that rounding
        theta[half - 1] = np.pi
    theta[half:] = 2 * np.pi - theta[n_theta - half : 0 : -1]
    unit = np.exp(1j * theta)
    if n_theta % 2 == 0:
        unit[half - 1] = -1.0
    unit[half:] = unit[n_theta - half : 0 : -1].conj()
    weight = (1 - rho * rho) / (1 + 2 * rho * np.cos(s) + rho * rho)
    weight[half:] = weight[n_theta - half : 0 : -1]
    for a in (theta, unit, weight):
        a.flags.writeable = False
    return theta, unit, weight


def _circle_derivatives(f: HarmonicMap, r, m: int, theta: np.ndarray | float, on_grid):
    """theta-derivatives (d^{m+1} f, d^m f) of f(r e^{i theta}), for m = 0 or 1: the samples of a circle test.

    ``r`` is one radius, a float, or a column of radii (an (R, 1) array),
    which gives one row per radius: the circles of a radius scan, sampled in
    one array.  ``on_grid`` is the pair (n, rho) of the cached grid of
    :func:`_circle_grid` that ``theta`` is a prefix of (j < theta.size <= n;
    half-circle tests pass j <= n/2), or False off the grid: ``theta`` is an
    array of angles or one angle, a float, which with a float r gives complex
    scalars back (the refinement points of a circle test and the tracked
    margin of a radius search).

    A map with closed forms calls them at z = r e^{i theta}, taking
    e^{i theta} from the cache on the grid, after one |z| < 1 guard: f and
    d1 for m = 0, d1 and d2 of :func:`_angular` for m = 1.  A column of radii
    makes z the 2-D array of all rows, one call of each closed form for all
    of them.  At one angle z is a Python complex, on which the closed forms
    cost a fraction of what they cost on a one-element array.

    On a series-only map the circle image is the trigonometric polynomial

        sum_{n>=0} a_n r^n e^{i n theta} + sum_{n>=0} conj(b_n) r^n e^{-i n theta},

    whose theta-derivative multiplies the coefficient at frequency k by ik.
    The frequencies, coefficients and weights (ik)^p are built once per map
    (``HarmonicMap._circle_terms``), so a call only scales them by r^|k|,
    one row per radius; a float r reuses the scaled rows of the last radius
    (``HarmonicMap._scaled_rows``).  On the uniform grid (rho = 0, the only
    grid a series-only map is sampled on) each derivative is one inverse FFT
    of the coefficients folded modulo n (:func:`_folded`), exact at any
    degree, cut to the prefix: one transform of all rows.  Other angles take
    the direct sum with the phases e^{ik theta} as integer powers of
    e^{i theta} (numpy's complex power multiplies them out by squaring up to
    k = 99): no phase k theta is rounded, which lost digits at high
    frequencies.  The angle is not reduced first: e^{i theta} is as accurate
    at theta near 2 pi as near 0, and a reduced angle is another rounding.
    """
    n, rho = on_grid or (None, None)
    if f.exact is not None:
        ex = f.exact
        z = r * (_circle_grid(n, rho)[1][: theta.size] if on_grid else np.exp(1j * theta))
        z = complex(z) if z.ndim == 0 else z
        _require_inside(z)
        if m == 1:
            d1, d2 = _angular(z, ex["dh"], ex["dg"], ex["d2h"], ex["d2g"])
            return d2, d1
        return _angular(z, ex["dh"], ex["dg"])[0], ex["h"](z) + ex["g"](z).conjugate()
    k, powers, c, weights = f._circle_terms
    if isinstance(r, np.ndarray):
        # rows (ik)^m c_k r^|k| and (ik)^(m+1) c_k r^|k|: the lower ones, one
        # per radius, then the upper ones
        rows = (weights[m : m + 2, None] * (c * r ** np.abs(powers))).reshape(-1, k.size)
    else:
        rows = f._scaled_rows(r)[m : m + 2]
    if on_grid:
        if rho:
            raise ValueError("a series-only map is sampled on the uniform grid only")
        # k runs 0 .. deg h, then -1 .. -deg g: reversed, the negative ones come first
        rows = np.concatenate([rows[:, : f.h.order : -1], rows[:, : f.h.order + 1]], axis=1)
        out = np.fft.ifft(_folded(rows, n, -f.g.order), norm="forward")[:, : theta.size]
    else:
        out = rows.dot(np.power.outer(np.exp(1j * theta), powers).T)
    if isinstance(r, np.ndarray):
        return out[len(out) // 2 :], out[: len(out) // 2]
    return out[1], out[0]


def _folded(rows: np.ndarray, n: int, low: int = 0) -> np.ndarray:
    """The columns of ``rows``, at the frequencies low, low + 1, ..., summed onto n bins by frequency modulo n.

    On n uniform angles e^{i k theta_j} depends on k modulo n only, so the
    inverse FFT of the bins is the trigonometric polynomial of the rows
    there, exact at any degree.  The rows are padded with zeros to whole
    turns of n, the first column at bin low mod n, and summed turn by turn
    (``reshape(...).sum``): the same sums as scattering each column onto its
    bin in the order of its frequency, bit for bit where no bin takes more
    than two nonzero terms.
    """
    lead, width = low % n, rows.shape[-1]
    bins = np.zeros(rows.shape[:-1] + (-(-(lead + width) // n) * n,), dtype=np.result_type(rows, float))
    bins[..., lead : lead + width] = rows
    return bins.reshape(*rows.shape[:-1], -1, n).sum(-2)


def _phase_steps(curve: np.ndarray, rate: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Increments of arg(curve) between consecutive samples along the last axis, and the guard's verdicts.

    Each increment is the argument of the ratio of consecutive samples, in
    (-pi, pi].  The trapezoid of ``rate``, the theta-derivative of that
    argument, over the same step must agree with it within pi/2; otherwise
    the argument may have slipped a branch between two nodes.  The verdict
    is one bool per curve (the last axis reduced): False where a step of
    that curve strays.  Circle tests sum the increments of a closed curve
    into its winding; Kaplan arcs sum them into arc integrals.
    """
    ratio = curve[..., 1:] / curve[..., :-1]
    steps = np.arctan2(ratio.imag, ratio.real)  # np.angle, without its Python-level checks
    trap = 0.5 * (rate[..., 1:] + rate[..., :-1]) * step
    return steps, ~(np.abs(steps - trap).max(-1) > np.pi / 2)


_START_THETA_POINTS = 128  # the grid a circle starts from unless given another
_MAX_THETA_POINTS = 65536  # the finest grid a circle doubles to
_CHOP_TAIL = 1e-10  # a grid resolves the rate once its Fourier tail is this small


@lru_cache(maxsize=8)
def _squares(size: int) -> np.ndarray:
    """k^2 for k = 0 .. size - 1, read-only: the weights of a spectrum's second derivative."""
    k = np.arange(size, dtype=float) ** 2
    k.flags.writeable = False
    return k


def _chop_and_double(sample: Callable, n: int, rows: int = 1):
    """Double the grid from n angles until each row's rate chops and its phase steps pass the guard.

    The rows are curves that one array samples together, in order: the
    circles of a radius scan, one per radius, or one row for a single
    circle.  A row may hold several curves along further axes that settle
    together (Kaplan's epsilons).  ``sample(n, first)`` samples rows
    ``first``, ``first + 1``, ... (as many as it chooses, at least one, up to
    ``rows``) on a whole grid of n nodes uniform in a parameter s (the
    angles themselves, or theta(s) of :func:`_circle_grid`), and returns
    their rates and the (curve, derivative of its argument in s) pair along
    the summed path.  Everything below reads the samples as functions of s,
    with h = 2 pi / n the step of s.  A row's rate
    chops when, for each of its curves, the largest ``rfft`` coefficient at
    k >= 3n/8 is at most 1e-10 of the largest (Wright, Javed, Montanelli &
    Trefethen, SISC 2015; Trefethen & Weideman, SIAM Review 2014); its tail
    is the largest such ratio.  Its guard passes when every phase step of
    every curve passes (:func:`_phase_steps`).

    The same spectrum X_k (k = 0 .. n/2) bounds how far a resolved rate can
    dip between its nodes below its least sample:

        drop = (h^2 / 8) (2/n) sum_k k^2 |X_k| + (2/n) sum_{k >= 3n/8} |X_k|,   h = 2 pi / n.

    The first term bounds the trigonometric interpolant of the samples: its
    second derivative is at most (2/n) sum k^2 |X_k|, so on a step of length
    h it lies at most h^2/8 times that below the chord of the two nodes,
    and each chord lies at or above the least sample.  The second term
    stands for the rate's part beyond the grid, which the interpolant
    aliases and which a resolved spectrum has decayed to by k = 3n/8.  A
    row's drop is the largest of its curves'.

    On n angles the leading sampled rows that chop and pass the guard settle
    there.  The first row that does not, and every row after it, are
    sampled again on 2n angles; if every sampled row settled, the next rows
    are sampled on n.  So each row starts on the largest grid reached before
    it, as if the rows were tested one at a time.  At the cap of 65536
    angles, where a larger n also starts, every sampled row settles as it
    stands.

    A generator: for each grid on which rows settle it yields (n, first,
    rate, steps, ok, tails, drops) of those rows, ``ok`` False where the
    guard failed.  The caller stops where it has what it needs.
    """
    n, first = min(n, _MAX_THETA_POINTS), 0
    while first < rows:
        rate, path = sample(n, first)
        spectrum = np.abs(np.fft.rfft(rate))
        tail = spectrum[..., -(-3 * n // 8):]
        tails = tail.max(-1) / spectrum.max(-1)  # division keeps the order: max of the ratios
        # row by row the same sums, so a row of a batch reads what the same row alone does
        # the tail (a view of the spectrum) is summed before the spectrum is weighted in place
        tail_sum = tail.sum(-1)
        spectrum *= _squares(spectrum.shape[-1])
        drops = (np.pi**2 / (2 * n * n) * spectrum.sum(-1) + tail_sum) * (2 / n)
        steps, ok = _phase_steps(*path, _unit_circle(n)[0][1])
        if tails.ndim > 1:  # the curves of a row settle together
            tails, ok = tails.reshape(len(rate), -1).max(1), ok.reshape(len(rate), -1).all(1)
            drops = drops.reshape(len(rate), -1).max(1)
        tails, ok, drops = tails.tolist(), ok.tolist(), drops.tolist()
        k = 0
        while k < len(rate) and ((tails[k] <= _CHOP_TAIL and ok[k]) or 2 * n > _MAX_THETA_POINTS):
            k += 1
        if k:
            yield n, first, rate[:k], steps[:k], ok[:k], tails[:k], drops[:k]
            first += k
        if k < len(rate):
            n *= 2
        del rate, path, spectrum, tail, steps  # freed before the next rows are sampled: one grid's arrays at a time


@lru_cache(maxsize=8)
def _polar_grid(r_max: float, n_r: int, n_t: int) -> np.ndarray:
    """The (n_r x n_t) polar grid: radii r_max/n_r .. r_max, angles 2 pi j / n_t, read-only.

    Every polar-grid check on the same grid shares the array.
    """
    grid = np.linspace(r_max / n_r, r_max, n_r)[:, None] * _unit_circle(n_t)[1]
    grid.flags.writeable = False
    return grid


def _polar_routes(f: HarmonicMap, routes: tuple[str, ...], r_max: float, n_r: int, n_t: int) -> tuple:
    """Several of h, g, h', g', h'', g'' of f on the grid of :func:`_polar_grid`, in the order of ``routes``.

    A map with closed forms calls them on the grid's points
    (:meth:`HarmonicMap._eval_routes`).  On a series-only map each row of
    the grid is a circle |z| = r, on which a series sum_k c_k z^k is the
    trigonometric polynomial sum_k c_k r^k e^{i k theta}.  On n_t uniform
    angles e^{i k theta_j} depends on k modulo n_t only, so the row is the
    inverse FFT of the coefficients c_k r^k folded onto n_t bins: exact at
    any degree, as on the circles of :func:`_circle_derivatives`.  The
    powers r^k of all radii are built by one cumulative product, and each
    route is one transform of all rows.  Kaplan's arcs read their uniform
    grid here as one row (n_r = 1, r_max their radius).
    """
    grid = _polar_grid(r_max, n_r, n_t)
    if f.exact is not None:
        return f._eval_routes(routes, grid)
    coeffs = [f._series(which).coeffs for which in routes]
    size = max(c.size for c in coeffs)
    powers = np.empty((n_r, size))
    powers[:, 0] = 1.0
    powers[:, 1:] = grid[:, :1].real  # the radii: the grid's column at angle 0 is real
    np.cumprod(powers, axis=1, out=powers)
    return tuple(np.fft.ifft(_folded(c * powers[:, : c.size], n_t), norm="forward") for c in coeffs)


_SENSE_GRID = (32, 64)  # the polar grid of the Jacobian check, radii x angles
_INJECTIVITY_SAMPLES = 1000  # sunflower points of the injectivity check


def sense_preserving_check(f: HarmonicMap, r_max: float) -> GridCheckReport:
    """Sample the Jacobian on a 32 x 64 polar grid up to r_max and require it to be positive.

    Failure reports the first offending node; a pass is only a sampled
    necessary condition for the map being sense-preserving.  h' and g' come
    from :func:`_polar_routes`: the closed forms on the grid's points, or,
    on a series-only map, one inverse FFT per circle of the grid, exact at
    any degree.
    """
    _require_radius(r_max, "r_max")
    zg = _polar_grid(r_max, *_SENSE_GRID)
    hp, gp = _polar_routes(f, ("dh", "dg"), r_max, *_SENSE_GRID)
    jac = np.abs(hp) ** 2 - np.abs(gp) ** 2
    worst = float(np.min(jac))
    if worst > 0:
        return GridCheckReport(True, r_max, _SENSE_GRID, worst)
    idx = np.unravel_index(int(np.argmin(jac)), jac.shape)
    return GridCheckReport(False, r_max, _SENSE_GRID, worst, complex(zg[idx]))


def injectivity_sample_check(
    f: HarmonicMap,
    r_max: float,
    include: tuple[complex, ...] = (),
) -> CollisionReport:
    """Scan image distances of well-separated sample pairs.

    The samples are 1000 sunflower points in |z| <= r_max, 0 < r_max < 1,
    plus the points ``include`` pins (suspected collision pairs).  Two
    samples at domain distance >= 0.05 whose images differ by less than
    1e-8 falsify injectivity on the sampled disk.
    """
    _require_radius(r_max, "r_max")
    z = _disk_samples(r_max, _INJECTIVITY_SAMPLES)
    if include:
        z = np.concatenate([np.asarray(include, dtype=complex), z])
    w = evaluate_f(f, z)
    best = np.inf
    witness = None
    block = 256
    for i0 in range(0, z.size, block):
        zi = z[i0 : i0 + block]
        wi = w[i0 : i0 + block]
        dz = np.abs(zi[:, None] - z[None, :])
        dw = np.abs(wi[:, None] - w[None, :])
        dw[dz < CollisionReport.min_separation] = np.inf
        j = int(np.argmin(dw))
        val = float(dw.ravel()[j])
        if val < best:
            best = val
            a, b = np.unravel_index(j, dw.shape)
            witness = (complex(zi[a]), complex(z[b]))
    collision = best < CollisionReport.collision_tol
    return CollisionReport(
        passed=not collision,
        collision=collision,
        min_image_distance=best,
        witness=witness if collision else None,
        n_samples=int(z.size),
        r_max=r_max,
    )
