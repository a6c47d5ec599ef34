"""
A tour of the built-in harmonic mappings
========================================

Every catalog entry is a map f = h + conj(g) on the unit disk, normalized so
that f(0) = 0 and the analytic part has unit derivative at the origin.  Each
one carries both truncated series coefficients and the closed forms they come from.
"""

import sys
from pathlib import Path

import numpy as np

from hmap import (
    PlotSpec,
    dilatation,
    evaluate_f,
    example21,
    example22,
    f_alpha,
    g_alpha,
    map_F,
    map_L,
    plot_command,
)

# figures go to the directory named by the first argument, by default demos/output
OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "output"
OUT.mkdir(parents=True, exist_ok=True)

# -- the extremal family ------------------------------------------------------
# f_alpha has coefficients a_n = (n+1)/2 and b_n = alpha (n-1)/2; its second
# dilatation is exactly alpha*z.

for alpha in (1, -1, 1j):
    f = f_alpha(alpha)
    w = dilatation(f, 0.3 + 0.2j)
    print(f"f_alpha({alpha}): a_3 = {f.h.coefficient(3):.1f}, "
          f"b_3 = {f.g.coefficient(3)}, dilatation at 0.3+0.2i -> {w:.3f}")

# L and F are the alpha = -1 and alpha = +1 members: the vertical and
# horizontal shears of the half-plane map z/(1-z).
L, F = map_L(), map_F()
print("L(0.5)  =", evaluate_f(L, 0.5))
print("F(0.5)  =", evaluate_f(F, 0.5), " (= 0.5/(1-0.5)^2 on the real axis)")

# -- two instructive counterexamples -------------------------------------------
# The cubic map is sense-preserving yet glues a conjugate pair of points:
f21 = example21()
z0 = (3 + np.sqrt(3) * 1j) / 4
print("cubic map collision:", evaluate_f(f21, z0), "=", evaluate_f(f21, np.conj(z0)))

# The sheared half-plane map is close-to-convex, but its image is far from
# starlike: see the lobe in the emitted figure.
f22 = example22()
plot_command(f22, PlotSpec(radii=(0.5, 0.8, 0.95), n_rays=16, samples_per_curve=512),
             str(OUT / "sheared_half_plane.svg"))

# The whole gallery, one figure per map:
for name, f in [("F", F), ("L", L), ("cubic", f21), ("g_alpha_i", g_alpha(1j))]:
    plot_command(f, PlotSpec(radii=(0.3, 0.6, 0.9), n_rays=12, samples_per_curve=384),
                 str(OUT / f"gallery_{name}.svg"))
print("figures written to", OUT)
