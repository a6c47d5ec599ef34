"""Hadamard products of harmonic maps and the sheared-product dilatation.

The harmonic Hadamard product multiplies analytic-part coefficients with
analytic-part coefficients and co-analytic with co-analytic:

    (f * F) = h * H + conj(g * G),   (h * H)_n = a_n A_n.

When both maps were built from closed forms, as every catalog map is, the
product is built from the products of their forms
(:meth:`~hmap.series.ClosedForm.hadamard`) and keeps closed forms, so
``conv(F,L)`` evaluates exactly near the unit circle; otherwise, and when
both g have a log part, it is the product of the truncated series.

For the product of the horizontally sheared half-plane map with a map whose
parts sum to z/(1-z) and whose dilatation is w(z) = e^{i t} z^n, the product
dilatation has the closed form

    wtil(z) = z (w^2 + [w - w' z / 2] + w'/2) / (1 + [w - w' z / 2] + w' z^2 / 2),

which this module evaluates directly and cross-checks against the dilatation
g'/h' of the product series on a polar grid.  On each circle |z| = r of the
grid a truncated series is a trigonometric polynomial in the angle, so its
values on the grid's uniform angles are one inverse FFT of its coefficients
scaled by r^k and folded modulo the number of angles
(:func:`~hmap.harmonic._polar_routes`): exact at any degree, with no Horner
sum per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import _FORMS, _closed_map, shear_vertical
from .harmonic import HarmonicMap, _check_alpha, _polar_grid, _polar_routes, _require_nonzero
from .report import Report
from .series import TruncatedSeries, make_generator


def hadamard_series(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise product, truncated to the smaller degree."""
    n = min(a.order, b.order)
    return TruncatedSeries(a.coeffs[: n + 1] * b.coeffs[: n + 1])


def hadamard(f: HarmonicMap, F: HarmonicMap) -> HarmonicMap:
    """Harmonic Hadamard product of two normalized maps.

    The result keeps the normalization (the degree-one analytic coefficient
    is 1 * 1) and is truncated to the smaller operand degree.  When both maps
    were built from closed forms (h, g, alpha), as the catalog builds them,
    the product is built the same way from h1 * h2 and g1 * g2
    (:meth:`ClosedForm.hadamard`), with g scaled by alpha1 alpha2, so it keeps
    closed forms.  It is series-only when either map is (it has no forms), or
    when both g have a log part (their product is a dilogarithm).
    """
    label = f"({f.label or 'f'})*({F.label or 'F'})"
    if f.forms and F.forms:
        (h1, g1, a1), (h2, g2, a2) = f.forms, F.forms
        h, g = h1.hadamard(h2), g1.hadamard(g2)
        if None not in (h, g):
            return _closed_map(h, min(f.order, F.order), label, a1 * a2, g)
    return HarmonicMap(hadamard_series(f.h, F.h), hadamard_series(f.g, F.g), label=label)


def convex_combination_convolve(
    phi: TruncatedSeries,
    beta: complex,
    f: HarmonicMap,
) -> HarmonicMap:
    """Product of beta*conj(phi) + phi with f: H = phi*h, G = conj(beta)(phi*g).

    This is :func:`hadamard` of phi + conj(conj(beta) phi), labelled ``combination``,
    with f; phi must be normalized within 1e-14.  For |beta| <= 1 and convex analytic
    phi this sends members of the dilatation-alpha*z family to close-to-convex maps;
    here only the coefficient arithmetic is performed.
    """
    _check_alpha(beta, "convex_combination_convolve", "beta")
    if abs(phi.coefficient(0)) > 1e-14 or abs(phi.coefficient(1) - 1) > 1e-14:
        raise ValueError("phi must be normalized")
    return hadamard(HarmonicMap(phi, complex(beta).conjugate() * phi, label="combination"), f)


def tilde_dilatation(z, n: int, theta: float):
    """Closed-form dilatation of the product map for w(z) = e^{i theta} z^n, n >= 1.

    z^(n-1) and z^n are formed by repeated products, which numpy computes
    several times faster than its generic complex power.  A scalar z gives
    a Python complex, an array z an array of its shape.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    eps = np.exp(1j * theta)
    zc = np.asarray(z, dtype=complex)
    zn1 = zc if n > 1 else 1.0  # z^(n-1)
    for _ in range(n - 2):
        zn1 = zn1 * zc
    w = eps * (zn1 * zc)
    wp = n * eps * zn1
    mid = w - 0.5 * wp * zc
    num = w * w + mid + 0.5 * wp
    den = 1 + mid + 0.5 * wp * zc * zc
    out = zc * num / den
    return complex(out) if np.isscalar(z) else out


@dataclass(frozen=True)
class TildeDilatationReport(Report):
    """Grid maximum of |wtil| plus the closed-form vs series cross-check."""

    condition_name: str = field(default="product_dilatation_bounded", init=False)
    n: int
    theta: float
    max_abs: float
    passed: bool
    r_max: float = field(default=0.999, init=False)
    grid: tuple[int, int]
    cross_check_max_err: float
    cross_check_r_max: float = field(default=0.9, init=False)
    cross_check_passed: bool


_TILDE_GRID = (64, 256)  # the polar grid of |wtil|, radii x angles
_CROSS_ORDER = 512  # the degree of the series the cross-check rebuilds wtil from
_CROSS_GRID = (16, 64)  # the polar grid of the cross-check, radii x angles


def tilde_dilatation_check(n: int, theta: float) -> TildeDilatationReport:
    """Local univalence check for the product of the sheared maps.

    Evaluates |wtil| on a 64 x 256 polar grid up to r = 0.999 (pass iff
    the maximum stays below 1), then rebuilds the same dilatation from
    scratch at degree 512: the right factor is obtained by shearing z/(1-z)
    vertically with dilatation e^{i theta} z^n, the product with F's
    coefficients is formed coefficientwise, and its dilatation g'/h' is
    compared against the closed form on a 16 x 64 grid up to r = 0.9,
    within 1e-6.  The product reads only coefficients, so F is built from
    the series of the catalog's closed forms, without the forms, and
    the product is series-only: its h' and g' on the grid are one inverse
    FFT per circle of the grid (:func:`~hmap.harmonic._polar_routes`).  A
    zero of h' on the grid raises :class:`~hmap.harmonic.SingularPointError`,
    as :func:`~hmap.harmonic.dilatation` does.
    """
    if n not in (1, 2):
        raise ValueError("closed form applies to n = 1 or 2")
    # eight rows at a time: a whole-grid temporary is over glibc's 128 KiB mmap threshold, so it
    # would fault in new pages each call; the grid itself is cached
    zg = _polar_grid(TildeDilatationReport.r_max, *_TILDE_GRID)
    max_abs = 0.0
    for i in range(0, _TILDE_GRID[0], 8):
        wt = tilde_dilatation(zg[i : i + 8], n, theta)
        if not np.all(np.isfinite(wt)):
            raise ZeroDivisionError("product-dilatation denominator vanishes on the grid")
        max_abs = max(max_abs, float(np.max(np.abs(wt))))

    w = np.zeros(_CROSS_ORDER + 1, dtype=complex)
    w[n] = np.exp(1j * theta)
    right = shear_vertical(make_generator("half_plane_l", _CROSS_ORDER), TruncatedSeries(w))
    h = _FORMS["f_alpha"]
    prod = hadamard(HarmonicMap(h.series(_CROSS_ORDER), h.partner.series(_CROSS_ORDER), label="F"), right)
    r_cross = TildeDilatationReport.cross_check_r_max
    zc = _polar_grid(r_cross, *_CROSS_GRID)
    hp, gp = _polar_routes(prod, ("dh", "dg"), r_cross, *_CROSS_GRID)
    _require_nonzero(hp, zc)  # as dilatation(prod, zc) would
    err = float(np.max(np.abs(gp / hp - tilde_dilatation(zc, n, theta))))
    return TildeDilatationReport(
        n=n,
        theta=theta,
        max_abs=max_abs,
        passed=max_abs < 1.0,
        grid=_TILDE_GRID,
        cross_check_max_err=err,
        cross_check_passed=err < 1e-6,
    )
