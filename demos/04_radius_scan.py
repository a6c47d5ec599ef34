"""
Radii of convexity and starlikeness
===================================

The map F = Re(z/(1-z)^2) + i Im(z/(1-z)) sends small circles to convex
curves and larger ones to curves that first lose convexity (at 2 - sqrt(3))
and then starlikeness (at ~0.658331).  Both transitions are located as the
first loss of the circle tests, a scan in r closed by a root of the margin,
and both constants drop out of explicit sign polynomials.
"""

import math
import sys
from pathlib import Path

from hmap import (
    PlotSpec,
    convex_test_at_radius,
    map_F,
    plot_command,
    polynomial_p,
    radius_search,
    solve_special_radii,
    starlike_test_at_radius,
)

# figures go to the directory named by the first argument, by default demos/output
OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "output"
OUT.mkdir(parents=True, exist_ok=True)

F = map_F()

# scan: where do the circle tests flip?
print("r      convex  starlike   (min angular derivatives)")
for r in (0.15, 0.25, 0.267949, 0.30, 0.5, 0.65, 0.658330, 0.66, 0.8):
    c = convex_test_at_radius(F, r)
    s = starlike_test_at_radius(F, r)
    print(f"{r:.6f}  {str(c.passed):5}   {str(s.passed):5}"
          f"   ({c.min_derivative:+.2e}, {s.min_derivative:+.2e})")

# root the margin of both transitions to a bracket of width 1e-6: whole
# circle tests up to the first loss, then single values of the rate that
# follow the failing circle's minimum, and one pair of circle tests to confirm
conv = radius_search(F, "convexity", tol=1e-6)
star = radius_search(F, "starlikeness", tol=1e-6)
print()
for name, res in (("convexity", conv), ("starlikeness", star)):
    print(f"{name:12} bracket [{res.r_lo:.9f}, {res.r_hi:.9f}]  "
          f"({res.circle_tests} circle tests, {res.point_evals} point values)")

# the same constants from the sign polynomials
sp = solve_special_radii()
print(f"root of 1 - 4r + r^2        = {sp.r_convex:.12f}  (2 - sqrt(3) = {2 - math.sqrt(3):.12f})")
print(f"root of the starlike margin = {sp.r_star:.12f}")
print(f"class-level starlike bound  = {sp.r_close_to_convex_star:.12f}  (4 sqrt(2) - 5)")

# p(r, u) controls convexity: nonnegative on [-1, 1] exactly up to the radius
for r in (sp.r_convex - 1e-3, sp.r_convex + 1e-3):
    worst = min(polynomial_p(r, u / 500 - 1) for u in range(1001))
    print(f"min_u p({r:.6f}, u) = {worst:+.2e}")

# figure: the circle at the convexity radius against one beyond it
plot_command(F, PlotSpec(radii=(sp.r_convex, 0.5), n_rays=16, samples_per_curve=512),
             str(OUT / "convexity_transition.svg"))
plot_command(F, PlotSpec(radii=(sp.r_star, 0.85), n_rays=16, samples_per_curve=512),
             str(OUT / "starlikeness_transition.svg"))
print("figures written to", OUT)
