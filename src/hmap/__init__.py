"""Planar harmonic mappings f = h + conj(g) on the unit disk.

Truncated-series algebra, a catalog of named maps and shears, coefficient
classifiers, Hadamard convolution, and numerical radii of convexity and
starlikeness.  Everything is immutable and pure; grid sweeps vectorize over
numpy arrays.

``import hmap`` loads neither numpy nor any submodule: each public name
resolves on first use, by importing the submodule that defines it, and is
read from that submodule on every access (so a monkeypatched function is the
one ``hmap.<name>`` returns).  The ``hmap`` command likewise loads only the
modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# public names by the submodule that defines them
_EXPORTS = {
    "catalog": (
        "CatalogEntry", "f_alpha", "g_alpha", "example21", "example22", "l_hadamard_l",
        "make_M_alpha_member", "make_named", "map_F", "map_L", "parse_function",
        "shear_horizontal", "shear_vertical",
    ),
    "classifiers": (
        "BoundsReport", "ClassificationReport", "MAlphaReport", "area_series",
        "growth_bound", "kaplan_integral_check", "coefficient_sum_orders",
        "m_alpha_check", "poisson_kernel", "analytic_part_classify", "family_bounds_check",
    ),
    "convolution": (
        "convex_combination_convolve", "hadamard", "tilde_dilatation", "tilde_dilatation_check",
    ),
    "defaults": ("DEFAULT_ORDER",),
    "harmonic": (
        "CollisionReport", "GridCheckReport", "HarmonicMap",
        "SingularPointError", "angular_derivatives", "dilatation", "evaluate_f",
        "injectivity_sample_check", "jacobian", "sense_preserving_check",
    ),
    "plotting": ("PlotSpec", "plot_command", "sample_curves"),
    "radius": (
        "RadiusResult", "SpecialRadii",
        "convex_test_at_radius", "identity_check_tangent", "p_root_in_radius",
        "polynomial_p", "polynomial_q", "radius_search", "solve_special_radii",
        "starlike_test_at_radius",
    ),
    "series": ("TruncatedSeries", "make_generator"),
    "verify": ("VerificationReport", "run_suite"),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
