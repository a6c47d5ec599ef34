"""Constructors for the named harmonic mappings studied by the package.

Every entry is in M(alpha), g' = alpha z h', and is one row of ``_TABLE``:
its h, a key of ``_FORMS``, and its alpha, fixed (``L`` is f_alpha's h at
alpha = -1) or None for a name that takes alpha as its parameter.
:class:`CatalogEntry`, :func:`make_named` and the six named constructors all
read the table through one builder.  h is one closed form
N(z)/(1-z)^k + c log(1-z) (:class:`~hmap.series.ClosedForm`), and g is alpha
times h's partner G, with G' = z h' and G(0) = 0 (``ClosedForm.partner``).
``l_hadamard_l``, not in M(alpha), is the Hadamard product of L with itself:
its h and g are the squares of L's forms (``ClosedForm.hadamard``).  The
map is its series and its forms (h, g, alpha) (``HarmonicMap.forms``), from
which it compiles the evaluators of h, g and their first two derivatives, so
that a Hadamard product of two catalog maps is built from the products of
their forms.  The closed forms evaluate every point, so radius scans close
to the unit circle stay accurate; the coefficients serve the coefficient
classifiers, and meet the closed forms once, in the agreement check at
construction.  Only shears,
``make_M_alpha_member`` (the series recurrence, for an h given by its
coefficients alone) and Hadamard products with an operand without forms, or
with a log part in both g, build series-only maps, evaluated from their
truncated series (and sampled on circle-test grids by inverse FFT of their
coefficients).

Catalog vocabulary (also the CLI ``--function`` grammar):

================  ==============================================================
``f_alpha:re,im``  half-plane/Koebe mix with dilatation alpha*z, |alpha| <= 1
``L``              vertical shear of z/(1-z) with dilatation -z  (= f_alpha at -1)
``F``              horizontal shear of z/(1-z) with dilatation z (= f_alpha at 1)
``g_alpha:re,im``  h = z, g = alpha z^2 / 2
``example21``      h = z - z^2/2, g = z^2/2 - z^3/3 (sense-preserving, not injective)
``example22``      h = z/(1-z), g = z/(1-z) + log(1-z) (close-to-convex, image
                   not starlike)
================  ==============================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_ORDER
from .harmonic import HarmonicMap, _check_alpha
from .series import _GENERATORS, ClosedForm, TruncatedSeries

# -- closed forms ----------------------------------------------------------------

# h of each map in M(alpha); its g is alpha h.partner.  f_alpha's h is
# (l + k)/2 = (z - z^2/2)/(1-z)^2, with partner (k - l)/2 = (z^2/2)/(1-z)^2.
_FORMS = {
    "f_alpha": ClosedForm((0, 1, -0.5), 2),
    "g_alpha": _GENERATORS["identity"],
    "example21": ClosedForm((0, 1, -0.5)),
    "example22": _GENERATORS["half_plane_l"],
}


def _closed_map(h: ClosedForm, order: int, label: str, alpha: complex = 1.0,
                g: ClosedForm | None = None) -> HarmonicMap:
    """h + conj(alpha g) from closed forms: their series at degree ``order``, and the forms (h, g, alpha).

    g defaults to h's partner, so that g' = alpha z h': the M(alpha) member of h.
    """
    g = h.partner if g is None else g
    return HarmonicMap(h.series(order), g.series(order, alpha), (h, g, alpha), label=label)


_TABLE = {
    "f_alpha": ("f_alpha", None),
    "L": ("f_alpha", -1),
    "F": ("f_alpha", 1.0),
    "g_alpha": ("g_alpha", None),
    "example21": ("example21", 1.0),
    "example22": ("example22", 1.0),
}


@dataclass(frozen=True)
class CatalogEntry:
    """A named map plus its parameter: f_alpha and g_alpha need one, the names with a fixed alpha take none."""

    name: str
    alpha: complex | None = None

    def __post_init__(self):
        if self.name not in _TABLE:
            raise ValueError(f"unknown catalog name {self.name!r}")
        if _TABLE[self.name][1] is None:
            if self.alpha is None:
                raise ValueError(f"{self.name} requires a parameter alpha")
            _check_alpha(self.alpha, self.name)
        elif self.alpha is not None:
            raise ValueError(f"{self.name} takes no parameter alpha, got {self.alpha!r}")


def _named(name: str, order: int, alpha: complex | None = None) -> HarmonicMap:
    """The named map at degree ``order``: its form, and its fixed alpha or the parameter ``alpha``."""
    key, fixed = _TABLE[name]
    if fixed is not None:
        return _closed_map(_FORMS[key], order, name, fixed)
    _check_alpha(alpha, name)
    return _closed_map(_FORMS[key], order, f"{name}({alpha})", alpha)


def f_alpha(alpha: complex, order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Extremal family member: a_n = (n+1)/2, b_n = alpha (n-1)/2.

    Dilatation alpha*z; h = (l + k)/2 where l = z/(1-z), k = z/(1-z)^2.
    """
    return _named("f_alpha", order, alpha)


def map_L(order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Harmonic half-plane map Re(z/(1-z)) + i Im(z/(1-z)^2); dilatation -z."""
    return _named("L", order)


def map_F(order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Re(z/(1-z)^2) + i Im(z/(1-z)); dilatation z.

    The flagship example for the radius computations: its circle images stop
    being convex above 2 - sqrt(3) and stop being starlike above ~0.658331.
    """
    return _named("F", order)


def g_alpha(alpha: complex, order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Minimal-area map: h = z, g = alpha z^2 / 2."""
    return _named("g_alpha", order, alpha)


def example21(order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Cubic map with dilatation z: sense-preserving but not injective.

    Its analytic part is starlike yet non-convex, and the map identifies the
    conjugate pair (3 +- sqrt(3) i)/4, both of which land on 3/4.
    """
    return _named("example21", order)


def example22(order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Half-plane analytic part sheared with dilatation z: b_n = 1 - 1/n.

    Close-to-convex, but the image of the disk is not starlike; the large
    non-starlike lobe shows up in circle scans already at r = 0.9.
    """
    return _named("example22", order)


def l_hadamard_l(order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Coefficient square of the half-plane map: a_n = ((n+1)/2)^2, b_n = ((n-1)/2)^2.

    This is the Hadamard product L*L (equivalently F*F): the squares of L's
    forms (:meth:`ClosedForm.hadamard`), with g's scale (-1)^2 = 1.  Its
    closed forms let it be scanned near the boundary.
    """
    h = _FORMS["f_alpha"]
    return _closed_map(h.hadamard(h), order, "L*L", g=h.partner.hadamard(h.partner))


def make_named(entry: CatalogEntry, order: int = DEFAULT_ORDER) -> HarmonicMap:
    """The map a :class:`CatalogEntry` names, at degree ``order`` >= 8."""
    if order < 8:
        raise ValueError("catalog maps need order >= 8")
    return _named(entry.name, order, entry.alpha)


def parse_function(text: str, order: int = DEFAULT_ORDER):
    """Parse the CLI function grammar: ``name[:re,im]`` or ``conv(left,right)``.

    Returns a HarmonicMap; convolution expressions are resolved recursively
    through the Hadamard product.  The text is read left to right, and a
    parameter takes exactly the two numbers after its colon, so its comma is
    never the one between two operands: ``conv(f_alpha:0.5,0,L)`` reads as
    f_alpha(0.5) * L.
    """
    f, rest = _parse_prefix(text, order)
    if rest.strip():
        raise ValueError(f"unexpected {rest.strip()!r} after the function in {text!r}")
    return f


# a catalog name, then optionally ":re" and ",im"; the numbers hold no comma or parenthesis
_NAMED = re.compile(r"([^:,()]*)(?::([^,()]*)(?:,([^,()]*))?)?")


def _parse_prefix(text: str, order: int) -> tuple[HarmonicMap, str]:
    """(map, rest): the function that ``text`` begins with, and the text after it."""
    text = text.lstrip()
    if text.startswith("conv("):
        from .convolution import hadamard

        left, rest = _parse_prefix(text[5:], order)
        right, rest = _parse_prefix(_consume(",", rest, text), order)
        return hadamard(left, right), _consume(")", rest, text)
    m = _NAMED.match(text)
    name, re_part, im_part = m.groups()
    if re_part is None:
        return make_named(CatalogEntry(name.strip()), order), text[m.end() :]
    try:
        alpha = complex(float(re_part), float(im_part))
    except (TypeError, ValueError):  # no ",im", or not two numbers
        raise ValueError(f"parameter must be re,im in {text[: m.end()].strip()!r}") from None
    return make_named(CatalogEntry(name.strip(), alpha), order), text[m.end() :]


def _consume(sep: str, rest: str, text: str) -> str:
    """``rest`` after its leading ``sep``; ValueError naming the convolution ``text`` if it has none."""
    rest = rest.lstrip()
    if not rest.startswith(sep):
        raise ValueError(f"malformed convolution expression {text!r}: expected {sep!r} at {rest!r}")
    return rest[1:]


# -- shearing construction ------------------------------------------------------


def _shear(phi: TruncatedSeries, w: TruncatedSeries, sign: float) -> HarmonicMap:
    """Shear phi with dilatation w: h' = phi'/(1 + sign*w), g = sign*(phi - h).

    The map is labelled ``shear_h`` for sign -1 (horizontal), ``shear_v`` for +1.

    h' is one truncated series quotient.  w is read as the polynomial its
    coefficients give, so a w of lower degree does not cut the shear's.
    """
    if w.coefficient(0) != 0:
        raise ValueError("shear dilatation must vanish at the origin")
    order = phi.order
    # guard: the construction divides by 1 +- w, which must not vanish
    rr = np.linspace(0.05, 0.95, 16)
    tt = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    zg = rr[:, None] * np.exp(1j * tt[None, :])
    wv = w.evaluate(zg)
    if np.any(np.abs(wv) >= 1.0):
        raise ValueError("dilatation must satisfy |w(z)| < 1 on the sample grid")
    if np.any(np.abs(1.0 + sign * wv) < 1e-9):
        raise ValueError("1 %s w vanishes on the sample grid" % ("+" if sign > 0 else "-"))
    dphi = phi.differentiate()
    m = min(dphi.order, w.order)
    d = np.zeros(dphi.order + 1, dtype=complex)
    d[: m + 1] = sign * w.coeffs[: m + 1]
    d[0] = 1.0
    hp = (dphi / TruncatedSeries(d)).coeffs[:order]
    h = np.zeros(order + 1, dtype=complex)
    h[1:] = hp / np.arange(1, order + 1)
    hs = TruncatedSeries(h)
    gs = TruncatedSeries(sign * (phi.coeffs[: order + 1] - h))
    return HarmonicMap(hs, gs, label="shear_h" if sign < 0 else "shear_v")


def shear_horizontal(phi: TruncatedSeries, w: TruncatedSeries) -> HarmonicMap:
    """Harmonic map with h - g = phi and g' = w h', i.e. h' = phi'/(1 - w).

    h' is computed as one series quotient; w must vanish at the origin.
    Shearing the half-plane map with w(z) = z reproduces the catalog map F.
    """
    return _shear(phi, w, -1.0)


def shear_vertical(phi: TruncatedSeries, w: TruncatedSeries) -> HarmonicMap:
    """Harmonic map with h + g = phi and g' = w h', i.e. h' = phi'/(1 + w).

    h' is computed as one series quotient; w must vanish at the origin.
    Shearing the half-plane map with w(z) = -z reproduces the catalog map L.
    """
    return _shear(phi, w, 1.0)


def make_M_alpha_member(h: TruncatedSeries, alpha: complex) -> HarmonicMap:
    """Build g termwise from h through (n+1) b_{n+1} = n alpha a_n, b_1 = 0; labelled ``M(alpha) member``.

    Membership additionally requires Re(1 + z h''/h') > -1/2, which this
    constructor does not verify; use the classifier check for that.
    """
    _check_alpha(alpha, "an M(alpha) member")
    n = np.arange(h.order + 1, dtype=float)
    b = np.zeros(h.order + 1, dtype=complex)
    b[2:] = alpha * (n[1:-1] / n[2:]) * h.coeffs[1:-1]
    return HarmonicMap(h, TruncatedSeries(b), label=f"M({alpha}) member")
