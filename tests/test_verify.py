"""The claim table of ``hmap verify --suite all``, pinned.

Each record's id, comparison, tolerance and expected value is part of what
the suite claims; a change to any of them moves a bound, so it must show up
here as an edit to this table.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hmap import catalog, classifiers, verify
from hmap.harmonic import _ROUTES
from hmap.verify import run_suite

REPORT = Path(__file__).resolve().parents[1] / "verification_report.json"

# (claim_id, comparison, tolerance, expected), in suite order
CLAIMS = [
    ('coeff.extremal[1]', 'abs_diff', 1e-12, 0.0),
    ('coeff.b1[1]', 'abs_diff', 1e-15, 0.0),
    ('coeff.extremal[-1]', 'abs_diff', 1e-12, 0.0),
    ('coeff.b1[-1]', 'abs_diff', 1e-15, 0.0),
    ('coeff.extremal[1j]', 'abs_diff', 1e-12, 0.0),
    ('coeff.b1[1j]', 'abs_diff', 1e-15, 0.0),
    ('coeff.extremal[0.5]', 'abs_diff', 1e-12, 0.0),
    ('coeff.b1[0.5]', 'abs_diff', 1e-15, 0.0),
    ('coeff.sheared_half_plane', 'abs_diff', 1e-12, 0.0),
    ('coeff.recurrence_roundtrip', 'abs_diff', 1e-12, 0.0),
    ('coeff.order_linear', 'abs_diff', 1e-15, 0.4),
    ('coeff.order_squared', 'abs_diff', 1e-15, 0.4),
    ('coeff.order_cubed_star', 'abs_diff', 1e-12, 0.4),
    ('coeff.order_cubed_convex', 'abs_diff', 1e-12, 0.0),
    ('bounds.growth[half-plane, alpha=1]', 'at_least', 1e-09, 0.0),
    ('bounds.growth[half-plane, alpha=-0.3]', 'at_least', 1e-09, 0.0),
    ('bounds.growth[mix, alpha=i]', 'at_least', 1e-09, 0.0),
    ('bounds.growth[mix, alpha=0.5]', 'at_least', 1e-09, 0.0),
    ('bounds.growth[quarter, alpha=0.8]', 'at_least', 1e-09, 0.0),
    ('bounds.growth[quarter, alpha=-i]', 'at_least', 1e-09, 0.0),
    ('bounds.growth[identity, alpha=1]', 'at_least', 1e-09, 0.0),
    ('bounds.growth[identity, alpha=0.6i]', 'at_least', 1e-09, 0.0),
    ('bounds.growth_equality', 'abs_diff', 1e-09, 0.0),
    ('bounds.area_min[1.0]', 'abs_diff', 1e-12, 1.5707963267948966),
    ('bounds.area_quadrature[1.0]', 'abs_diff', 0.0001, 1.0),
    ('bounds.area_min[0.6]', 'abs_diff', 1e-12, 2.5761059759436304),
    ('bounds.area_quadrature[0.6]', 'abs_diff', 0.0001, 1.0),
    ('bounds.area_floor', 'at_least', 1e-09, 2.3719024534602937),
    ('bounds.kernel_mass', 'abs_diff', 1e-09, 6.283185307179586),
    ('bounds.kernel_point', 'abs_diff', 1e-14, 3.0),
    ('bounds.arc_full_period[r=0.5]', 'abs_diff', 1e-06, 0.0),
    ('bounds.arc_minimum[r=0.5]', 'at_least', 0.0, -3.141592653589793),
    ('bounds.arc_full_period[r=0.9]', 'abs_diff', 1e-06, 0.0),
    ('bounds.arc_minimum[r=0.9]', 'at_least', 0.0, -3.141592653589793),
    ('radii.convexity_constant', 'abs_diff', 1e-12, 0.2679491924311228),
    ('radii.starlikeness_constant', 'abs_diff', 1e-10, 0.6583306249916995),
    ('radii.ordering', 'at_least', 0.0, 0.0),
    ('radii.convexity_bracket', 'at_most', 0.0, 0.0),
    ('radii.starlikeness_bracket', 'at_most', 0.0, 0.0),
    ('radii.p_endpoint', 'abs_diff', 1e-12, 0.0),
    ('radii.q_endpoints', 'abs_diff', 1e-12, 0.0),
    ('radii.tangent_identities', 'at_most', 0.0, 1e-05),
    ('radii.p_root_monotone', 'at_least', 0.0, 0.0),
    ('radii.p_root_at_minus_one', 'abs_diff', 1e-12, 0.2679491924311228),
    ('radii.p_positive_below', 'at_least', 0.0, 0.0),
    ('radii.p_negative_above', 'at_most', 0.0, 0.0),
    ('radii.q_positive_below', 'at_least', 0.0, 0.0),
    ('radii.q_negative_above', 'at_most', 0.0, 0.0),
    ('conv.square_coefficients', 'abs_diff', 0.0, 0.0),
    ('conv.conjugate_pair[1]', 'abs_diff', 0.0, 0.0),
    ('conv.conjugate_pair[-1]', 'abs_diff', 0.0, 0.0),
    ('conv.conjugate_pair[1j]', 'abs_diff', 0.0, 0.0),
    ('conv.identity_element', 'abs_diff', 0.0, 0.0),
    ('conv.combination_identity', 'abs_diff', 0.0, 0.0),
    ('conv.combination_origin', 'at_most', 0.0, 0.999999999999),
    ('conv.self_product_escapes', 'at_least', 0.0, 2.000000001),
    ('conv.dilatation_bounded[n=1,theta=0.0000]', 'at_most', 0.0, 0.999999999999),
    ('conv.dilatation_crosscheck[n=1,theta=0.0000]', 'at_most', 0.0, 1e-06),
    ('conv.dilatation_bounded[n=1,theta=1.0472]', 'at_most', 0.0, 0.999999999999),
    ('conv.dilatation_crosscheck[n=1,theta=1.0472]', 'at_most', 0.0, 1e-06),
    ('conv.dilatation_bounded[n=1,theta=3.1416]', 'at_most', 0.0, 0.999999999999),
    ('conv.dilatation_crosscheck[n=1,theta=3.1416]', 'at_most', 0.0, 1e-06),
    ('conv.dilatation_bounded[n=2,theta=0.0000]', 'at_most', 0.0, 0.999999999999),
    ('conv.dilatation_crosscheck[n=2,theta=0.0000]', 'at_most', 0.0, 1e-06),
    ('conv.dilatation_bounded[n=2,theta=1.0472]', 'at_most', 0.0, 0.999999999999),
    ('conv.dilatation_crosscheck[n=2,theta=1.0472]', 'at_most', 0.0, 1e-06),
    ('conv.dilatation_bounded[n=2,theta=3.1416]', 'at_most', 0.0, 0.999999999999),
    ('conv.dilatation_crosscheck[n=2,theta=3.1416]', 'at_most', 0.0, 1e-06),
    ('conv.square_slit_avoidance', 'at_least', 0.0, -0.25),
    ('conv.square_sense_preserving', 'at_least', 0.0, 0.0),
]


def test_claim_table_is_pinned():
    report = run_suite("all")
    got = [(r.claim_id, r.comparison, r.tolerance, r.expected) for r in report.records]
    assert len(CLAIMS) == 70
    assert got == CLAIMS
    assert report.passed, [r.claim_id for r in report.records if not r.passed]


def test_tangent_identities_hold_to_rounding():
    # the pole-free identities are checked on every point of the claim grid
    rec = next(r for r in run_suite("radii").records if r.claim_id == "radii.tangent_identities")
    assert rec.computed <= 1e-12


def test_report_in_the_tree_matches_a_fresh_run():
    # read only: the tracked report is what `hmap verify --suite all` writes
    saved = json.loads(REPORT.read_text(encoding="ascii"))
    fresh = run_suite("all").to_dict()
    assert saved["suite"] == fresh["suite"] and saved["passed"] == fresh["passed"]
    assert len(saved["records"]) == len(fresh["records"])
    for old, new in zip(saved["records"], fresh["records"]):
        for key in ("claim_id", "claim", "expected", "tolerance", "comparison", "passed"):
            assert old[key] == new[key], (new["claim_id"], key)
        allowed = max(new["tolerance"], 1e-9 * abs(new["computed"]))
        assert abs(old["computed"] - new["computed"]) <= allowed, new["claim_id"]


@pytest.mark.parametrize("h, alpha, label", verify._BOUNDS_MEMBERS, ids=[m[2] for m in verify._BOUNDS_MEMBERS])
def test_bounds_members_match_their_series_twins(h, alpha, label):
    # the growth claims' members, from closed forms, against the series recurrence
    closed = catalog._closed_map(h, 2048, label, alpha)
    twin = catalog.make_M_alpha_member(h.series(2048), alpha)
    assert closed.exact is not None and twin.exact is None
    rng = np.random.default_rng(23)
    z = 0.9 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    z[:8] = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
    for route in _ROUTES:
        got, want = closed._eval(route, z), twin._eval(route, z)
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1, np.abs(want))), route


def test_area_rule_integrates_a_polynomial_jacobian_exactly():
    # example21 is in M(1): g' = z - z^2 = z h'; its area by coefficients is 2 pi / 3
    f = catalog.example21()
    area = classifiers.area_series(f, 1)
    assert area == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert abs(verify._area_quadrature(f) - area) <= 1e-12
