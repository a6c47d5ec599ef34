"""Deterministic curve sampling and CSV/SVG emission.

Images of concentric circles and radial segments are the standard way to
inspect a disk map.  Output is fully reproducible: fixed sampling rules and
a locale-independent 12-significant-digit number format mean identical specs
produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonic import HarmonicMap, evaluate_f


@dataclass(frozen=True)
class Curve:
    kind: str  # "circle" or "ray"
    param: float  # radius for circles, angle for rays
    t: np.ndarray  # curve parameter (theta for circles, r for rays)
    w: np.ndarray  # image points


@dataclass(frozen=True)
class PlotSpec:
    """What to draw: which circles/rays, how finely, and in which format."""

    radii: tuple[float, ...] = ()
    n_rays: int = 12
    n_circles: int = 8
    samples_per_curve: int = 256
    output_format: str = "svg"  # or "csv"

    def __post_init__(self):
        if any(not 0 < r < 1 for r in self.radii):
            raise ValueError("all radii must lie in (0, 1)")
        if self.n_circles < 1:
            raise ValueError("need at least one circle")
        if self.n_rays < 0:
            raise ValueError("the number of rays cannot be negative")
        if self.samples_per_curve < 64:
            raise ValueError("need at least 64 samples per curve")
        if self.output_format not in ("svg", "csv"):
            raise ValueError("output_format must be svg or csv")


def sample_curves(f: HarmonicMap, spec: PlotSpec) -> list[Curve]:
    """Sample the images of circles and rays under f.

    Circle radii are the ones requested explicitly, or ``n_circles`` equally
    spaced radii up to the largest requested (default 0.9) when none are
    given.  Rays run from the origin out to the largest radius.
    """
    if spec.radii:
        circle_radii = sorted(spec.radii)
    else:
        top = 0.9
        circle_radii = list(np.linspace(top / spec.n_circles, top, spec.n_circles))
    r_top = max(circle_radii)
    curves: list[Curve] = []
    theta = np.linspace(0, 2 * np.pi, spec.samples_per_curve)
    for r in circle_radii:
        z = r * np.exp(1j * theta)
        curves.append(Curve("circle", float(r), theta, evaluate_f(f, z)))
    rr = np.linspace(0, r_top, spec.samples_per_curve)
    for k in range(spec.n_rays):
        ang = 2 * np.pi * k / spec.n_rays
        z = rr * np.exp(1j * ang)
        curves.append(Curve("ray", float(ang), rr, evaluate_f(f, z)))
    return curves


def _fmt(x: float) -> str:
    # 12 significant digits, locale-independent
    return format(float(x), ".12g")


def curves_to_csv(curves: list[Curve]) -> str:
    lines = ["curve_id,kind,param,t,u,v"]
    for cid, c in enumerate(curves):
        for t, w in zip(c.t, c.w):
            lines.append(
                f"{cid},{c.kind},{_fmt(c.param)},{_fmt(t)},{_fmt(w.real)},{_fmt(w.imag)}"
            )
    return "\n".join(lines) + "\n"


def curves_to_svg(curves: list[Curve]) -> str:
    width = 640  # pixels; the stroke is 1/640 of the drawing's width
    us = np.concatenate([c.w.real for c in curves])
    vs = np.concatenate([c.w.imag for c in curves])
    u0, u1 = float(us.min()), float(us.max())
    v0, v1 = float(vs.min()), float(vs.max())
    du = (u1 - u0) or 1.0
    dv = (v1 - v0) or 1.0
    pad_u, pad_v = 0.05 * du, 0.05 * dv
    u0, u1 = u0 - pad_u, u1 + pad_u
    v0, v1 = v0 - pad_v, v1 + pad_v
    height = int(round(width * (v1 - v0) / (u1 - u0))) or width
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{_fmt(u0)} {_fmt(-v1)} {_fmt(u1 - u0)} {_fmt(v1 - v0)}">',
        f'<g fill="none" stroke-width="{_fmt((u1 - u0) / width)}">',
    ]
    for c in curves:
        color = "#1f77b4" if c.kind == "circle" else "#bbbbbb"
        pts = " ".join(f"{_fmt(w.real)},{_fmt(-w.imag)}" for w in c.w)
        parts.append(f'<polyline stroke="{color}" points="{pts}"/>')
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"


def plot_command(f: HarmonicMap, spec: PlotSpec, path: str) -> None:
    """Sample the curves and write them to ``path`` in the requested format."""
    curves = sample_curves(f, spec)
    text = curves_to_csv(curves) if spec.output_format == "csv" else curves_to_svg(curves)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
