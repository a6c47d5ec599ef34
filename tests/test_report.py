import json
from dataclasses import fields

import pytest

from hmap.catalog import f_alpha, map_F
from hmap.classifiers import coefficient_sum_orders, family_bounds_check, m_alpha_check
from hmap.convolution import tilde_dilatation_check
from hmap.harmonic import HarmonicMap, injectivity_sample_check, sense_preserving_check
from hmap.radius import radius_search, solve_special_radii
from hmap.series import TruncatedSeries
from hmap.verify import run_suite

Z = TruncatedSeries([0, 1])


def _grid_failure():
    # |g'| = 2|z| > |h'| = 1 past |z| = 1/2: the Jacobian check fails
    return sense_preserving_check(HarmonicMap(Z, TruncatedSeries([0, 0, 1])), 0.9)


def _collision():
    # f = z + conj(z) = 2 Re z sends the pinned pair +-i/2 to 0
    return injectivity_sample_check(HarmonicMap(Z, Z), 0.9, include=(0.5j, -0.5j))


# one producer per report type, each from the code that builds it
REPORTS = {
    "GridCheckReport": _grid_failure,
    "CollisionReport": _collision,
    "ClassificationReport": lambda: coefficient_sum_orders(
        HarmonicMap(TruncatedSeries([0, 1, 0.25]), TruncatedSeries([0, 0])))[0],
    "MAlphaReport": lambda: m_alpha_check(map_F(16), 1.0),
    "BoundsReport": lambda: family_bounds_check(f_alpha(0.5 + 0.2j, 16), 0.5 + 0.2j, samples=50),
    "TildeDilatationReport": lambda: tilde_dilatation_check(1, 0.3),
    "RadiusResult": lambda: radius_search(map_F(16), "convexity", tol=1e-3),
    "SpecialRadii": solve_special_radii,
    "ClaimRecord": lambda: run_suite("coefficients", 16).records[0],
    "VerificationReport": lambda: run_suite("coefficients", 16),
}


@pytest.mark.parametrize("kind", REPORTS)
def test_to_dict_emits_fields_in_order_as_plain_json(kind):
    rep = REPORTS[kind]()
    assert type(rep).__name__ == kind
    d = rep.to_dict()
    assert list(d) == [f.name for f in fields(rep)]
    assert json.loads(json.dumps(d)) == d
    for f in fields(rep):
        value = getattr(rep, f.name)
        if isinstance(value, complex):
            assert d[f.name] == [value.real, value.imag]
        elif isinstance(value, tuple) and value and isinstance(value[0], complex):
            assert d[f.name] == [[w.real, w.imag] for w in value]
        elif isinstance(value, tuple) and value and hasattr(value[0], "to_dict"):
            assert d[f.name] == [v.to_dict() for v in value]


def test_complex_fields_are_exercised():
    # the producers above cover each complex-valued field with a value
    assert _grid_failure().to_dict()["first_failure"] is not None
    witness = _collision().to_dict()["witness"]
    assert len(witness) == 2 and all(len(w) == 2 for w in witness)
    assert sorted(w[1] for w in witness) == [-0.5, 0.5]
