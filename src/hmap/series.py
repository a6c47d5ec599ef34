"""Truncated complex power series.

A :class:`TruncatedSeries` holds the Taylor coefficients ``c[0] .. c[N]`` of
an analytic function at the origin.  Arithmetic is exact on the retained
coefficients and never extends the truncation degree: sums and differences
keep the smaller degree of the two operands, and Cauchy products and
quotients are cut at the smaller degree as well.  Evaluation is blocked: the
coefficients form rows of b = ceil(sqrt(N + 1)), one matrix product gives
every row's value at a slice of points, and Horner in z^b combines the row
values.  It is restricted to the open unit disk, which is the only
domain the rest of the package cares about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GENERATOR_KINDS = ("half_plane_l", "koebe_k", "log_one_minus_z", "identity")

# points per matrix product in ``evaluate``: bounds its temporaries to a few MB
_EVAL_SLICE = 4096
# A BLAS kernel sums a column of a product in the same order as every other
# column only inside a full register block of columns (4 wide in OpenBLAS's
# Haswell zgemm); edge columns, and a one-column product (which numpy hands to
# gemv), sum in another order.  Padding every product to a multiple of 16
# columns keeps each point's value independent of the other points of a call.
_EVAL_PAD = 16


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
        """Blocked evaluation of the truncated polynomial at ``z``.

        With b = ceil(sqrt(N + 1)) the coefficients form rows of b; a row is
        one block value sum_j c[k b + j] z^j, and the polynomial is Horner in
        z^b over the block values.  All block values of a slice of points come
        from one matrix product with the table of powers z^0 .. z^(b-1), so a
        degree-N evaluation takes about 2 sqrt(N) numpy calls, not 2 N.

        ``z`` may be a complex scalar or an ndarray of any shape; every point
        must lie in the open unit disk.  A point's value does not depend on
        the other points of the call.
        """
        zarr = np.asarray(z, dtype=complex)
        if np.any(np.abs(zarr) >= 1.0):
            raise ValueError("series evaluation requires |z| < 1")
        b = math.isqrt(self.coeffs.size - 1) + 1  # ceil(sqrt(N + 1))
        blocks = np.zeros((-(-self.coeffs.size // b), b), dtype=complex)
        blocks.flat[: self.coeffs.size] = self.coeffs
        flat = zarr.ravel()
        result = np.empty_like(flat)
        for start in range(0, flat.size, _EVAL_SLICE):
            zs = flat[start : start + _EVAL_SLICE]
            result[start : start + zs.size] = _evaluate_blocks(blocks, zs)
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(result[0])
        return result.reshape(zarr.shape)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order`` (must be >= 1)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"TruncatedSeries(order={self.order}, coeffs={head}...)"


def _evaluate_blocks(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k (blocks[k] . (z^0 .. z^(b-1))) (z^b)^k at the points of a 1-D array."""
    rows, b = blocks.shape
    # one buffer holds z^0 .. z^b and the block values: a single freed
    # allocation of this size is reused by the next call, where two would be
    # handed back to the system and page-fault in again on every call
    buf = np.empty((b + 1 + rows, -(-z.size // _EVAL_PAD) * _EVAL_PAD), dtype=complex)
    powers, values = buf[: b + 1], buf[b + 1 :]
    powers[0] = 1.0
    powers[1, : z.size] = z
    powers[1, z.size :] = 0.0
    for k in range(2, b + 1):
        np.multiply(powers[k - 1], powers[1], out=powers[k])
    np.matmul(blocks, powers[:b], out=values)
    acc = values[-1]
    for row in values[-2::-1]:
        acc *= powers[b]
        acc += row
    return acc[: z.size]


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
