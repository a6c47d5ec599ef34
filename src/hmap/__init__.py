"""Planar harmonic mappings f = h + conj(g) on the unit disk.

Truncated-series algebra, a catalog of named maps and shears, coefficient
classifiers, Hadamard convolution, and numerical radii of convexity and
starlikeness.  Everything is immutable and pure; grid sweeps vectorize over
numpy arrays.
"""

from .catalog import (
    CatalogEntry,
    f_alpha,
    g_alpha,
    example21,
    example22,
    l_hadamard_l,
    make_M_alpha_member,
    make_named,
    map_F,
    map_L,
    parse_function,
    shear_horizontal,
    shear_vertical,
)
from .classifiers import (
    BoundsReport,
    ClassificationReport,
    MAlphaReport,
    area_series,
    growth_bound,
    kaplan_integral_check,
    coefficient_sum_orders,
    m_alpha_check,
    poisson_kernel,
    analytic_part_classify,
    family_bounds_check,
)
from .convolution import (
    convex_combination_convolve,
    hadamard,
    tilde_dilatation,
    tilde_dilatation_check,
)
from .defaults import DEFAULT_ORDER
from .harmonic import (
    CollisionReport,
    ExactEvaluators,
    GridCheckReport,
    HarmonicMap,
    SingularPointError,
    angular_derivatives,
    dilatation,
    evaluate_f,
    injectivity_sample_check,
    jacobian,
    sense_preserving_check,
)
from .plotting import PlotSpec, plot_command, sample_curves
from .radius import (
    RadiusResult,
    SpecialRadii,
    convex_test_at_radius,
    identity_check_tangent,
    p_root_in_radius,
    polynomial_p,
    polynomial_q,
    q_interior_min_location,
    radius_search,
    solve_special_radii,
    starlike_margin,
    starlike_test_at_radius,
)
from .series import TruncatedSeries, make_generator
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "f_alpha", "g_alpha", "example21", "example22", "l_hadamard_l",
    "make_M_alpha_member", "make_named", "map_F", "map_L", "parse_function",
    "shear_horizontal", "shear_vertical",
    "BoundsReport", "ClassificationReport", "MAlphaReport", "area_series",
    "growth_bound", "kaplan_integral_check", "coefficient_sum_orders",
    "m_alpha_check", "poisson_kernel", "analytic_part_classify", "family_bounds_check",
    "convex_combination_convolve", "hadamard",
    "tilde_dilatation", "tilde_dilatation_check",
    "DEFAULT_ORDER",
    "CollisionReport", "ExactEvaluators", "GridCheckReport", "HarmonicMap",
    "SingularPointError", "angular_derivatives", "dilatation", "evaluate_f",
    "injectivity_sample_check", "jacobian", "sense_preserving_check",
    "PlotSpec", "plot_command", "sample_curves",
    "RadiusResult", "SpecialRadii",
    "convex_test_at_radius", "identity_check_tangent", "p_root_in_radius",
    "polynomial_p", "polynomial_q", "q_interior_min_location", "radius_search",
    "solve_special_radii", "starlike_margin", "starlike_test_at_radius",
    "TruncatedSeries", "make_generator",
    "VerificationReport", "run_suite",
]
