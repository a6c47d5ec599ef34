"""Shared numeric conventions.

The tolerances that more than one module or check relies on live here, so
that tests and library code agree on what "equal" means at each precision
tier: coefficient and relation checks, closed-form agreement, and the
circle tests' pass thresholds and vanishing curve.  A tolerance with one
use sits beside it as a module constant or literal instead: the grid rule's
Fourier tail (``harmonic._CHOP_TAIL``), the parabolic steps' least gain
(``radius._REFINE_GAIN``), the last stored term a closed-form map trusts
(``radius._TRUSTED_LAST_TERM``), the 1e-12 slack of the family parameter's
bound |alpha| <= 1 (``harmonic._check_alpha``), and the 1e-14 normalization
and b_1 = 0 checks of the classifiers, the radius search and the
convolutions.
"""

# Truncation degree used by the catalog constructors unless overridden.
DEFAULT_ORDER = 64

# Exact coefficient relations (integer-valued in exact arithmetic).
COEFF_ABS_TOL = 1e-12

# Coefficient recurrences checked relation-by-relation.
RELATION_ABS_TOL = 1e-10

# Agreement required between closed-form and series evaluation, checked on
# fixed sunflower points with |z| <= 0.5 when a map is built with both: the
# six closed forms (h, g and their first two derivatives) against one matrix
# product of the points' powers with the six series' coefficients
# (hmap.harmonic._check_exact_agreement).  Below the default degree the
# check allows for the series tail on top of this tolerance.
EXACT_AGREEMENT_TOL = 1e-8
EXACT_AGREEMENT_POINTS = 20

# Circle tests: pass threshold for the minimum angular derivative, and the
# allowed defect in the total turning (the winding of the sampled curve, 2 pi
# for a simple closed regular curve).  Circle tests and Kaplan arcs choose
# their own angle grid by one rule (hmap.harmonic._chop_and_double).
CIRCLE_MIN_TOL = 1e-9
TURNING_TOL = 1e-3

# A sampled curve (the tangent of a convexity test, the map of a
# starlikeness test, z Fe' of a Kaplan arc) vanishes where its modulus is
# below this; its argument, and the rate, are then undefined.
CURVE_VANISH_TOL = 1e-13

# Verification suites: each suite of hmap.verify, or "all" of them in turn.
SUITES = ("all", "coefficients", "radii", "convolution", "bounds")
