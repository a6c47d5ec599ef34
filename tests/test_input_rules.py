"""Each input rule rejects nan and out-of-range values at every public entry that takes the input.

The rules, one home each: a radius in (0, 1) (``harmonic._require_radius``),
points inside the disk (``series._require_inside``), the family parameter
|alpha| <= 1 (``harmonic._check_alpha``; ``analytic_part_classify`` takes
any finite alpha, since its theorem answers |alpha| > 1), family membership
(``classifiers._require_member``), finite coefficients
(``TruncatedSeries``) and closed forms (``ClosedForm``), and the
closed-form agreement and Kaplan's unimodular epsilon, each checked once.  Every row raises ValueError; a nan
compares false with any bound, so a check written ``x > bound`` lets it
through.
"""

import math

import numpy as np
import pytest

from hmap.catalog import make_M_alpha_member, map_F, parse_function
from hmap.classifiers import (analytic_part_classify, area_series, coefficient_sum_orders, family_bounds_check,
                              growth_bound, kaplan_integral_check, kaplan_integrand, m_alpha_check, poisson_kernel)
from hmap.cli import dispatch
from hmap.convolution import convex_combination_convolve
from hmap.harmonic import (HarmonicMap, angular_derivatives, evaluate_f, injectivity_sample_check,
                           sense_preserving_check)
from hmap.radius import convex_test_at_radius, radius_search
from hmap.series import ClosedForm, TruncatedSeries, make_generator

NAN = math.nan


def _with_b1(value) -> HarmonicMap:
    """F with its co-analytic coefficient b_1 set to ``value``."""
    F = map_F()
    b = F.g.coeffs.copy()
    b[1] = value
    return HarmonicMap(F.h, TruncatedSeries(b))


def _alpha_two_member() -> HarmonicMap:
    """A map satisfying g' = 2 z h', outside the family (|alpha| <= 1)."""
    F = map_F()
    return HarmonicMap(F.h, 2 * F.g)


def _with_alpha(value) -> HarmonicMap:
    """F's series with F's forms, whose g is scaled by ``value``."""
    F = map_F()
    h, g, _ = F.forms
    return HarmonicMap(F.h, F.g, (h, g, value))


def _phi() -> TruncatedSeries:
    return make_generator("half_plane_l", 16)


RADIUS = r"need 0 < r < 1"
RADIUS_MAX = r"need 0 < r_max < 1"
ALPHA = r"\|alpha\| <= 1"
FINITE = "coefficients must be finite"
CLOSED_FINITE = "numerator and log coefficient must be finite"

# (case, call, message): every call raises ValueError matching the message
CASES = [
    *[(f"convex_test_at_radius r={r}", lambda r=r: convex_test_at_radius(map_F(), r), RADIUS) for r in (NAN, 1.0)],
    *[(f"angular_derivatives r={r}", lambda r=r: angular_derivatives(map_F(), r, 0.0), RADIUS) for r in (NAN, 1.0)],
    *[(f"sense_preserving_check r_max={r}", lambda r=r: sense_preserving_check(map_F(), r), RADIUS_MAX)
      for r in (NAN, 1.0)],
    *[(f"injectivity_sample_check r_max={r}", lambda r=r: injectivity_sample_check(map_F(), r), RADIUS_MAX)
      for r in (NAN, 1.0)],
    *[(f"m_alpha_check r_max={r}", lambda r=r: m_alpha_check(map_F(), 1.0, r), RADIUS_MAX) for r in (NAN, 1.0)],
    *[(f"family_bounds_check r_max={r}", lambda r=r: family_bounds_check(map_F(), 1.0, r_max=r), RADIUS_MAX)
      for r in (NAN, 1.0)],
    *[(f"kaplan_integrand r={r}", lambda r=r: kaplan_integrand(map_F(), 1.0, r, 0.0), RADIUS) for r in (NAN, 1.0)],
    ("evaluate_f z=nan", lambda: evaluate_f(map_F(), complex(NAN, 0.0)), r"requires \|z\| < 1"),
    ("evaluate_f z=[0.5, nan]", lambda: evaluate_f(map_F(), np.array([0.5, NAN])), r"requires \|z\| < 1"),
    ("TruncatedSeries.evaluate z=nan", lambda: _phi().evaluate(complex(NAN, 0.0)), r"requires \|z\| < 1"),
    ("TruncatedSeries.evaluate z=[0.5, nan]", lambda: _phi().evaluate(np.array([0.5, NAN])), r"requires \|z\| < 1"),
    ("poisson_kernel zeta=nan", lambda: poisson_kernel(complex(NAN, 0.0), 0.0), r"requires \|z\| < 1"),
    ("parse_function f_alpha:nan,0", lambda: parse_function("f_alpha:nan,0"), ALPHA),
    ("make_M_alpha_member alpha=nan", lambda: make_M_alpha_member(_phi(), NAN), ALPHA),
    ("m_alpha_check alpha=nan", lambda: m_alpha_check(map_F(), NAN), ALPHA),
    *[(f"convex_combination_convolve beta={b}", lambda b=b: convex_combination_convolve(_phi(), b, map_F()),
       r"convex_combination_convolve requires \|beta\| <= 1") for b in (NAN, 1.5)],
    ("family_bounds_check alpha=2 member", lambda: family_bounds_check(_alpha_two_member(), 2.0), ALPHA),
    ("area_series alpha=2 member", lambda: area_series(_alpha_two_member(), 2.0), ALPHA),
    ("family_bounds_check non-member", lambda: family_bounds_check(map_F(), 0.5), "coefficient recurrence fails"),
    ("area_series non-member", lambda: area_series(map_F(), 0.5), "coefficient recurrence fails"),
    *[(f"TruncatedSeries coefficient {c}", lambda c=c: TruncatedSeries([0, 1, c]), FINITE)
      for c in (NAN, math.inf, complex(0, -math.inf))],
    ("coefficient_sum_orders b_1=nan", lambda: coefficient_sum_orders(_with_b1(NAN)), FINITE),
    ("analytic_part_classify a_1=nan", lambda: analytic_part_classify(TruncatedSeries([0, NAN, 0.1]), 0.1, 2),
     FINITE),
    ("HarmonicMap h_0=nan", lambda: HarmonicMap(TruncatedSeries([NAN, 1, 0]), TruncatedSeries([0, 0, 0])), FINITE),
    ("radius_search b_1=nan", lambda: radius_search(_with_b1(NAN), "convexity"), FINITE),
    ("ClosedForm numerator nan", lambda: ClosedForm((0, NAN), 1), CLOSED_FINITE),
    ("ClosedForm log inf", lambda: ClosedForm((0, 1), 1, math.inf), CLOSED_FINITE),
    ("HarmonicMap forms alpha nan", lambda: _with_alpha(NAN), "closed-form g disagrees with its series by nan"),
    ("kaplan_integral_check epsilon=nan", lambda: kaplan_integral_check(map_F(), NAN, 0.5, 0.0, 1.0),
     "epsilon must be unimodular"),
    *[(f"analytic_part_classify alpha={a}", lambda a=a: analytic_part_classify(_phi(), a, 2),
       "alpha must be a finite number") for a in (NAN, complex(0, NAN), math.inf)],
    *[(f"growth_bound alpha={a}", lambda a=a: growth_bound(a, 0.5), r"growth_bound requires \|alpha\| <= 1")
      for a in (NAN, 3.0)],
    ("analytic_part_classify power=4", lambda: analytic_part_classify(_phi(), 0.1, 4), "power must be 2 or 3"),
    ("analytic_part_classify h'(0)=2", lambda: analytic_part_classify(2 * _phi(), 0.1, 2), "h must be normalized"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("argv, message", [
    (["radius", "--function", "f_alpha:nan,0", "--kind", "convex"], "f_alpha requires |alpha| <= 1, got nan"),
    (["classify", "--function", "F", "--check", "bounds", "--alpha", "nan,0"], "requires |alpha| <= 1, got nan"),
    (["classify", "--function", "g_alpha:0.1,0", "--check", "analytic-sums", "--alpha", "nan,0"],
     "alpha must be a finite number"),
], ids=["radius", "classify-bounds", "classify-analytic-sums"])
def test_cli_bad_input_is_usage_error(argv, message, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_finite_alpha_above_one_is_an_answer_not_an_error():
    # the theorem needs |alpha| <= 1, so a finite alpha outside reads as not close-to-convex
    rep = analytic_part_classify(TruncatedSeries([0, 1, 0.1]), 2.0, 2)
    assert rep.close_to_convex is False and not rep.passed
