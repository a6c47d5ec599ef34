"""Truncated complex power series.

A :class:`TruncatedSeries` holds the Taylor coefficients ``c[0] .. c[N]`` of
an analytic function at the origin.  Arithmetic is exact on the retained
coefficients and never extends the truncation degree: sums and differences
keep the smaller degree of the two operands, and Cauchy products and
quotients are cut at the smaller degree as well.  Evaluation is restricted
to the open unit disk, which is the only domain the rest of the package
cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATOR_KINDS = ("half_plane_l", "koebe_k", "log_one_minus_z", "identity")


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients ``c[0] .. c[N]`` of a power series truncated at degree N.

    The coefficient array is copied and frozen at construction; instances are
    immutable and safe to share between threads.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a 1-D coefficient array with degree >= 1")
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

        Solves ``q[n] = (p[n] - sum_{k>=1} d[k] q[n-k]) / d[0]`` term by term,
        summing over the nonzero ``d[k]`` only: K of them cost O(N K), which
        is O(N) for the few-term dilatations of shears.  Raises ValueError
        when ``d[0]`` is zero.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        d = other.coeffs[: n + 1]
        if d[0] == 0:
            raise ValueError("divisor must have a nonzero constant term")
        k = np.flatnonzero(d[1:]) + 1
        dk = d[k]
        used = np.searchsorted(k, np.arange(n + 1), side="right")
        q = np.zeros(n + 1, dtype=complex)
        for m, p in enumerate(self.coeffs[: n + 1]):
            j = used[m]
            q[m] = (p - np.dot(dk[:j], q[m - k[:j]])) / d[0]
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
        """Horner evaluation of the truncated polynomial at ``z``.

        ``z`` may be a complex scalar or an ndarray; every point must lie in
        the open unit disk.
        """
        zarr = np.asarray(z, dtype=complex)
        if np.any(np.abs(zarr) >= 1.0):
            raise ValueError("series evaluation requires |z| < 1")
        result = np.full_like(zarr, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            result = result * zarr + c
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(result)
        return result

    def __call__(self, z):
        return self.evaluate(z)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order`` (must be >= 1)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def isclose(self, other: "TruncatedSeries", tol: float = 1e-12) -> bool:
        """Coefficientwise comparison up to the common truncation degree."""
        n = min(self.order, other.order)
        return bool(np.all(np.abs(self.coeffs[: n + 1] - other.coeffs[: n + 1]) <= tol))

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"TruncatedSeries(order={self.order}, coeffs={head}...)"


def make_generator(kind: str, order: int) -> TruncatedSeries:
    """Build one of the stock expansions truncated at ``order``.

    half_plane_l     z/(1-z)       c_n = 1 for n >= 1
    koebe_k          z/(1-z)^2     c_n = n
    log_one_minus_z  log(1-z)      c_n = -1/n for n >= 1
    identity         z             c_1 = 1
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = np.arange(order + 1, dtype=float)
    if kind == "half_plane_l":
        c = np.ones(order + 1, dtype=complex)
        c[0] = 0
    elif kind == "koebe_k":
        c = n.astype(complex)
    elif kind == "log_one_minus_z":
        c = np.zeros(order + 1, dtype=complex)
        c[1:] = -1.0 / n[1:]
    elif kind == "identity":
        c = np.zeros(order + 1, dtype=complex)
        c[1] = 1
    else:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    return TruncatedSeries(c)
