"""Reference values computed apart from hmap.

Nothing here imports hmap.  Each map is written out in closed form (h, g and
their first two derivatives), and a transition radius is the root in r of the
circle margin

    convexity     min over theta of Im(d2f / d1f)
    starlikeness  min over theta of Im(d1f / f)

on |z| = r, where d1f and d2f are the first two theta-derivatives of
f = h + conj(g) along the circle.  The minimum over theta is a grid minimum
sharpened by repeated zooming around the lowest grid nodes, and the root is
bracketed on a coarse r scan and closed with Brent's method.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq

R_CONVEX_F = 2 - math.sqrt(3)
R_STAR_F = math.sqrt((37 - 8 * math.sqrt(10)) / 3) / 3
R_CLASS_STAR = 4 * math.sqrt(2) - 5


class ClosedForm(NamedTuple):
    h: Callable
    g: Callable
    dh: Callable
    dg: Callable
    d2h: Callable
    d2g: Callable


def f_alpha(alpha: complex) -> ClosedForm:
    """h = z(2 - z) / (2(1-z)^2), g' = alpha z h'."""
    a = complex(alpha)
    return ClosedForm(
        h=lambda z: z * (2 - z) / (2 * (1 - z) ** 2),
        g=lambda z: a * z * z / (2 * (1 - z) ** 2),
        dh=lambda z: (1 - z) ** -3,
        dg=lambda z: a * z * (1 - z) ** -3,
        d2h=lambda z: 3 * (1 - z) ** -4,
        d2g=lambda z: a * (1 + 2 * z) * (1 - z) ** -4,
    )


def example21() -> ClosedForm:
    return ClosedForm(
        h=lambda z: z - z * z / 2,
        g=lambda z: z * z / 2 - z ** 3 / 3,
        dh=lambda z: 1 - z,
        dg=lambda z: z - z * z,
        d2h=lambda z: -np.ones_like(z),
        d2g=lambda z: 1 - 2 * z,
    )


def example22() -> ClosedForm:
    """h = z/(1-z) with g' = z h'."""
    return ClosedForm(
        h=lambda z: z / (1 - z),
        g=lambda z: z / (1 - z) + np.log(1 - z),
        dh=lambda z: (1 - z) ** -2,
        dg=lambda z: z * (1 - z) ** -2,
        d2h=lambda z: 2 * (1 - z) ** -3,
        d2g=lambda z: (1 + z) * (1 - z) ** -3,
    )


def half_plane_square() -> ClosedForm:
    """a_n = ((n+1)/2)^2, b_n = ((n-1)/2)^2, summed from sum (n+1)^2 z^n = (1+z)/(1-z)^3."""
    return ClosedForm(
        h=lambda z: ((1 + z) * (1 - z) ** -3 - 1) / 4,
        g=lambda z: z * z * (1 + z) * (1 - z) ** -3 / 4,
        dh=lambda z: (2 + z) * (1 - z) ** -4 / 2,
        dg=lambda z: z * (1 + 2 * z) * (1 - z) ** -4 / 2,
        d2h=lambda z: (9 + 3 * z) * (1 - z) ** -5 / 2,
        d2g=lambda z: (1 + 7 * z + 4 * z * z) * (1 - z) ** -5 / 2,
    )


def value(cf: ClosedForm, z):
    return cf.h(z) + np.conj(cf.g(z))


def _rate(cf: ClosedForm, kind: str, r: float, theta: np.ndarray) -> np.ndarray:
    """d/dtheta of arg(d1f) (convexity) or of arg f (starlikeness) on |z| = r."""
    z = r * np.exp(1j * theta)
    zhp, zgp = z * cf.dh(z), z * cf.dg(z)
    d1 = 1j * (zhp - np.conj(zgp))
    if kind == "starlikeness":
        return np.imag(d1 / value(cf, z))
    d2 = -(zhp + z * z * cf.d2h(z)) - np.conj(zgp + z * z * cf.d2g(z))
    return np.imag(d2 / d1)


def margin(cf: ClosedForm, kind: str, r: float, n: int = 2048, candidates: int = 4) -> float:
    """Minimum over theta of the turning rate on |z| = r."""
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    vals = _rate(cf, kind, r, theta)
    best = float(np.min(vals))
    half = np.pi / n * 1.5
    for k in np.argsort(vals)[:candidates]:
        centre = theta[k]
        for _ in range(6):
            local = np.linspace(centre - half, centre + half, 33)
            lv = _rate(cf, kind, r, local)
            j = int(np.argmin(lv))
            best = min(best, float(lv[j]))
            centre = local[j]
            half /= 8
        half = np.pi / n * 1.5
    return best


def true_radius(cf: ClosedForm, kind: str, r_min: float = 0.01, r_max: float = 0.99, step: float = 0.02) -> float:
    """Smallest r where the margin changes sign from positive to negative."""
    lo = r_min
    if margin(cf, kind, lo) <= 0:
        raise ValueError(f"{kind} margin is not positive at r = {lo}")
    for hi in np.arange(r_min + step, r_max + step / 2, step):
        if margin(cf, kind, float(hi)) < 0:
            return float(brentq(lambda r: margin(cf, kind, r), lo, float(hi), xtol=1e-13, rtol=1e-15))
        lo = float(hi)
    raise ValueError(f"{kind} margin stays positive up to r = {r_max}")
