"""Truncated complex power series.

A :class:`TruncatedSeries` holds the Taylor coefficients ``c[0] .. c[N]`` of
an analytic function at the origin.  Arithmetic is exact on the retained
coefficients and never extends the truncation degree: sums and differences
keep the smaller degree of the two operands, and Cauchy products and
quotients are cut at the smaller degree as well.  Quotients are a blocked
forward substitution, about sqrt(N) numpy calls.  Evaluation is Horner's
rule on the coefficients up to the last nonzero one, so a series pays only
for the coefficients it holds.  It is restricted to the open unit disk,
which is the only domain the rest of the package cares about.

A :class:`ClosedForm` is the function N(z)/(1 - z)^k + c log(1 - z), N a
polynomial: the shape of every stock generator and of each part of every
catalog map.  It yields its Taylor coefficients at any degree and one
compiled evaluator per scale factor.  One operation derives every other
form: the Hadamard product of two forms (coefficients multiplied), again
such a form unless both have a log part.  The derivative is the product
with z/(1 - z)^2 (coefficients n), shifted down one degree, and the
M(alpha) partner G, with G' = z h', is the product of z^2 h' with
-log(1 - z) (coefficients 1/n).  So a map written as forms, and a product
of such maps, carries no hand-written series, derivative or co-analytic
part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

def _require_inside(z) -> None:
    """ValueError unless every point z, a complex scalar or an ndarray, lies in |z| < 1; nan fails.

    The one disk check of every evaluation.  A scalar calls no numpy
    function: the circle tests' refinement points on closed forms come one
    at a time.
    """
    inside = abs(z) < 1.0
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        raise ValueError("evaluation requires |z| < 1")


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients ``c[0] .. c[N]`` of a power series truncated at degree N.

    The coefficient array is copied and frozen at construction; instances are
    immutable and safe to share between threads.  Every coefficient must be
    finite (ValueError otherwise), so checks downstream compare numbers.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a 1-D coefficient array with degree >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("series coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        """Truncation degree N."""
        return self.coeffs.size - 1

    def coefficient(self, n: int) -> complex:
        """Return ``c[n]``; zero for n beyond the truncation degree."""
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if n > self.order:
            return 0j
        return complex(self.coeffs[n])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(self.coeffs[: n + 1] - other.coeffs[: n + 1])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            prod = np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])
            return TruncatedSeries(prod[: n + 1])
        return TruncatedSeries(self.coeffs * complex(other))

    def __rmul__(self, scalar) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs * complex(scalar))

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series quotient q = p/d, cut at the smaller degree like ``*``.

        Blocked forward substitution of d q = p.  The coefficients are solved
        in blocks of B = max(16, ceil(sqrt(N + 1))).  For a block starting at
        s, one Toeplitz matrix-vector product (``np.convolve`` in its "valid"
        mode) subtracts the contribution of every earlier coefficient from
        p[s : s + B]; with K the degree of d as a polynomial (its last nonzero
        coefficient), only the last K earlier coefficients contribute.  The
        block itself is the product of that remainder with the inverse of
        d[0 : B], computed once by Newton doubling.  Cost: about N/B + log B
        numpy calls and O(N (K + B)) flops, so O(N^1.5) for the few-term
        dilatations of shears.  Raises ValueError when ``d[0]`` is zero.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        d = other.coeffs[: n + 1]
        if d[0] == 0:
            raise ValueError("divisor must have a nonzero constant term")
        p = self.coeffs[: n + 1]
        size = max(16, math.isqrt(n) + 1)
        inv = _inverse(d[:size])
        last = int(np.flatnonzero(d).max())
        q = np.empty(n + 1, dtype=complex)
        for s in range(0, n + 1, size):
            e = min(s + size, n + 1)
            rest = p[s:e]
            w = min(s, last)
            if w:
                rest = rest - np.convolve(d[1 : e - s + w], q[s - w : s], mode="valid")
            q[s:e] = np.convolve(rest, inv[: e - s])[: e - s]
        return TruncatedSeries(q)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.coeffs)

    # -- calculus -----------------------------------------------------------

    def differentiate(self, times: int = 1) -> "TruncatedSeries":
        """Termwise derivative, applied ``times`` (1 or 2) times.

        The truncation degree drops accordingly, but never below 1; a
        clamped result is padded with zeros, which is exact because the
        derivative of a polynomial of degree N has degree N - times.
        """
        if times not in (1, 2):
            raise ValueError("times must be 1 or 2")
        if self.order < times:
            raise ValueError(f"degree {self.order} too small for {times} derivatives")
        c = self.coeffs
        for _ in range(times):
            c = c[1:] * np.arange(1, c.size)
        if c.size < 2:
            c = np.concatenate([c, [0j]])
        return TruncatedSeries(c)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, z):
        """Horner's rule on ``c[0] .. c[M]`` at ``z``, M the index of the last nonzero coefficient.

        The zeros above c[M] are not evaluated, so a series costs M complex
        multiply-adds per point whatever its truncation degree.  ``z`` may be
        a complex scalar or an ndarray of any shape; every point must lie in
        the open unit disk.  A scalar gives a Python complex back.  A point's
        value does not depend on the other points of the call (see
        :func:`_horner`).
        """
        zarr = np.asarray(z, dtype=complex)
        _require_inside(zarr)
        nonzero = np.flatnonzero(self.coeffs)
        value = _horner(self.coeffs[: nonzero[-1] + 1 if nonzero.size else 1], zarr.ravel())
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(value[0])
        return value.reshape(zarr.shape)

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"TruncatedSeries(order={self.order}, coeffs={head}...)"


def _inverse(d: np.ndarray) -> np.ndarray:
    """The first d.size coefficients of 1/d, by Newton doubling: inv <- inv (2 - d inv).

    When inv holds k correct coefficients, d inv = 1 + z^k R, and the next
    ones, up to degree 2k - 1, are those of -inv R.
    """
    inv = np.array([1 / d[0]])
    while inv.size < d.size:
        k, m = inv.size, min(2 * inv.size, d.size)
        inv = np.concatenate([inv, -np.convolve(inv, np.convolve(d[:m], inv)[k:m])[: m - k]])
    return inv


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c[k] z^k at the points of a 1-D array, by Horner's rule from c[-1] down.

    Every product is out of place: numpy rounds an in-place complex product
    on a one-element array apart from the same product inside a longer one,
    which would make a point's value depend on the size of its call.  The
    error is at most gamma_2n sum_k |c_k| |z|^k (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 5.1).
    """
    acc = np.full(z.shape, c[-1])
    for a in c[-2::-1]:
        acc = acc * z + a
    return acc


@dataclass(frozen=True)
class ClosedForm:
    """N(z)/(1 - z)^k + log * log(1 - z), ``num`` the coefficients of N as Python numbers, constant first.

    Closed under the Hadamard product except log x log (:meth:`hadamard`), and so under d/dz and the
    M(alpha) partner, so one literal per part of a map gives its series and all its closed forms.
    ValueError unless every entry of ``num`` and ``log`` is finite and ``k`` is an integer >= 0.
    """

    num: tuple[float, ...]
    k: int = 0
    log: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(a) for a in (*self.num, self.log)):
            raise ValueError("a closed form's numerator and log coefficient must be finite")
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"a closed form's k must be an integer >= 0, got {self.k!r}")

    @cached_property
    def derivative(self) -> "ClosedForm":
        """d/dz: the product with z/(1 - z)^2 (coefficients n), shifted down one degree."""
        p = self.hadamard(_GENERATORS["koebe_k"])
        return ClosedForm(p.num[1:], p.k)

    @cached_property
    def partner(self) -> "ClosedForm":
        """The M(alpha) partner of h = self: G with G' = z h' and G(0) = 0, so g = alpha G.

        Its coefficients are b_n = (n - 1) a_(n-1) / n: the product of z^2 h' with
        -log(1 - z), whose coefficients are 1/n.
        """
        d = self.derivative
        return ClosedForm((0, 0, *d.num), d.k).hadamard(ClosedForm((), 0, -1))

    @lru_cache(maxsize=256)
    def hadamard(self, other: "ClosedForm") -> "ClosedForm | None":
        """The form whose coefficients are the products of self's and other's; None when both have a log part.

        Past its numerator, from n = s = len(N) - k (and n >= 1), a form's coefficients
        are P(n) - c/n, P of degree k - 1 (P = 0 when k = 0).  With c1 c2 = 0 the product
        is P1 P2 - (c1 P2 + c2 P1)/n, and P(n)/n = Q(n) + P(0)/n: again a form, with
        k = k1 + k2 - 1 (0 when either side is a polynomial) and log part
        c1 P2(0) + c2 P1(0).  Its numerator is (1 - z)^k times the product series with
        that log part added back, which vanishes past degree s + k - 1 for the larger s
        of the two; cut there, rounding residue of the later terms stays out of it.
        With a and b the coefficients of the rational parts N/(1 - z)^k, that series is
        a b - (c1 b + c2 a - log)/n.  Its 1/n part is summed scaled by
        d = lcm(1, ..., s + k - 1), so that for dyadic numerators every term is
        exact and one division by d rounds each numerator coefficient.  (With c1 c2 != 0 the product has a
        c1 c2 / n^2 part: a dilogarithm.)
        """
        if self.log and other.log:
            return None
        k = self.k + other.k - 1 if (self.k or self.log) and (other.k or other.log) else 0
        log = self.log * other._p_at_zero + other.log * self._p_at_zero + 0.0  # + 0.0: no -0.0
        top = max(len(self.num) - self.k, len(other.num) - other.k, 1) + k - 1
        a, b = ClosedForm(self.num, self.k).coefficients(top), ClosedForm(other.num, other.k).coefficients(top)
        d = math.lcm(*range(1, min(top, 40) + 1))  # d/n stays an integer below 2^53
        scaled = np.zeros(top + 1)  # d/n, from n = 1 on
        scaled[1:] = d / np.arange(1, top + 1)
        w = [(-1) ** i * math.comb(k, i) for i in range(k + 1)]
        num = np.convolve(a * b, w) - np.convolve((self.log * b + other.log * a - log) * scaled, w) / d
        return ClosedForm(_trimmed((num[: top + 1] + 0.0).tolist()), k, log)

    @property
    def _p_at_zero(self) -> float:
        """P(0), P the polynomial the coefficients follow past N: 0 when k = 0.

        In powers of w = 1 - z, N = sum_i M_i w^i, and w^(i-k) has coefficients
        C(n + k - i - 1, k - i - 1), 1 at n = 0 for i < k, while i >= k adds a
        polynomial.  So P(0) = M_0 + ... + M_(k-1), with M_i = (-1)^i sum_j N_j C(j, i).
        """
        return sum(a * sum((-1) ** i * math.comb(j, i) for i in range(self.k)) for j, a in enumerate(self.num))

    @lru_cache(maxsize=256)
    def coefficients(self, order: int) -> np.ndarray:
        """Taylor coefficients c[0] .. c[order], read-only: N's, summed cumulatively k times, less log/n."""
        c = np.zeros(order + 1)
        m = min(len(self.num), order + 1)
        c[:m] = self.num[:m]
        for _ in range(self.k):
            c = np.cumsum(c)
        if self.log:
            c[1:] -= self.log / np.arange(1, order + 1)
        c.setflags(write=False)
        return c

    def series(self, order: int, scale: complex = 1.0) -> TruncatedSeries:
        """The form times ``scale``, truncated at degree ``order``."""
        c = self.coefficients(order)
        return TruncatedSeries(c if scale == 1 else scale * c + 0.0)  # + 0.0: no -0.0 from scale * 0.0

    @lru_cache(maxsize=256)
    def evaluator(self, scale: complex = 1.0):
        """The form times ``scale`` at complex scalars and ndarrays, as one Python expression in z.

        Horner's rule on N, times ``scale``, over w^k as the product w * ... * w
        (w = 1 - z), which numpy computes several times faster than its complex power.
        Compiled once per scale, it costs what the same form written by hand costs.
        """
        num = self.num or (0.0,)
        expr = repr(float(num[-1]))
        for j, a in enumerate(num[-2::-1]):
            expr = ("z" if j == 0 and num[-1] == 1 else f"({expr}) * z") + (f" + {float(a)!r}" if a else "")
        if scale != 1:
            expr = f"s * ({expr})"
        if self.k:
            expr = f"({expr}) / ({' * '.join(['(w := 1 - z)'] + ['w'] * (self.k - 1))})"
        if self.log:  # principal branch, analytic on the disk
            log = "log(w)" if self.k else "log(1 - z)"
            expr += f" + {log}" if scale * self.log == 1 else f" + c * {log}"
        elif not self.k and len(num) < 2:
            expr += " + 0 * z"  # a constant takes the shape of z
        return eval(f"lambda z: {expr}", {"s": scale, "c": scale * self.log, "log": np.log})


def _trimmed(num: list) -> tuple:
    """The coefficients ``num`` without trailing zeros, as a tuple."""
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


_GENERATORS = {
    "half_plane_l": ClosedForm((0, 1), 1),
    "koebe_k": ClosedForm((0, 1), 2),
    "log_one_minus_z": ClosedForm((), 0, 1),
    "identity": ClosedForm((0, 1)),
}


def make_generator(kind: str, order: int) -> TruncatedSeries:
    """Build one of the stock expansions truncated at ``order``.

    half_plane_l     z/(1-z)       c_n = 1 for n >= 1
    koebe_k          z/(1-z)^2     c_n = n
    log_one_minus_z  log(1-z)      c_n = -1/n for n >= 1
    identity         z             c_1 = 1
    """
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {tuple(_GENERATORS)}")
    return _GENERATORS[kind].series(order)
