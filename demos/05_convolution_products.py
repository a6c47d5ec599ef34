"""
Hadamard products
=================

The harmonic convolution multiplies coefficients part by part.  Products of
the half-plane shears behave very differently depending on orientation: L*L
is univalent with a slit-plane image, while L*F glues conjugate points even
though it stays sense-preserving.
"""

import math

import numpy as np
from scipy.optimize import brentq

from hmap import (
    f_alpha,
    hadamard,
    injectivity_sample_check,
    l_hadamard_l,
    map_F,
    map_L,
    radius_search,
    sense_preserving_check,
    tilde_dilatation,
    tilde_dilatation_check,
)

L, F = map_L(), map_F()

# -- L*L: coefficient squares ---------------------------------------------------
LL = hadamard(L, L)
print("L*L coefficients a_2..a_5:", [LL.h.coefficient(n).real for n in range(2, 6)])
print("L*L coefficients b_2..b_5:", [LL.g.coefficient(n).real for n in range(2, 6)])

# conjugate-parameter products all collapse onto L*L
for alpha in (1, -1, 1j):
    prod = hadamard(f_alpha(alpha), f_alpha(np.conj(alpha)))
    same = np.array_equal(prod.h.coeffs, LL.h.coeffs) and np.array_equal(prod.g.coeffs, LL.g.coeffs)
    print(f"f_alpha({alpha}) * f_alpha(conj) == L*L: {same}")

# circle-wise starlikeness of L*L is NOT inherited from its starlike image:
# the per-circle property is lost near r = 0.63117 (the image of the full
# disk, a plane minus the slit (-inf, -1/4], is starlike nonetheless)
ll = l_hadamard_l()
res = radius_search(ll, "starlikeness", tol=1e-5)
print(f"L*L circle starlikeness transition: [{res.r_lo:.6f}, {res.r_hi:.6f}]")

# -- L*F: sense-preserving but not injective -------------------------------------
LF = hadamard(L, F)


def im_h_plus_g(th, r=0.9):
    z = r * np.exp(1j * th)
    return float(np.imag((z * (1 + z) ** 2 / (1 - z) ** 3
                          + 2 * z / (1 - z) ** 2 + z / (1 - z)) / 4))


theta = brentq(im_h_plus_g, 1.5, 1.6, xtol=1e-15)
z_star = 0.9 * np.exp(1j * theta)
rep = injectivity_sample_check(hadamard(map_L(512), map_F(512)), 0.95, include=(z_star, np.conj(z_star)))
print(f"L*F collision at conjugate pair around theta = {theta:.6f}: {rep.collision}")
print("L*F sense-preserving on the sampled disk:",
      sense_preserving_check(LF, 0.7).passed)

# -- dilatation of products with sheared right factors ---------------------------
# for right factors with dilatation e^{i t} z^n (n = 1, 2) the product with F
# stays locally univalent: |wtil| < 1 on a fine grid up to r = 0.999
for n in (1, 2):
    rep = tilde_dilatation_check(n, math.pi / 3)
    print(f"n = {n}: max |wtil| = {rep.max_abs:.6f}, "
          f"series cross-check error = {rep.cross_check_max_err:.2e}")

print("wtil(0.9, n=2, t=0) =", tilde_dilatation(0.9 + 0j, 2, 0.0), "(= 0.81 * e^{i t})")
