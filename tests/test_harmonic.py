import re

import numpy as np
import pytest

from hmap.catalog import (
    example21,
    example22,
    f_alpha,
    g_alpha,
    l_hadamard_l,
    make_M_alpha_member,
    map_F,
    map_L,
    parse_function,
    shear_horizontal,
)
from hmap import harmonic
from hmap.convolution import hadamard_series
from hmap.defaults import EXACT_AGREEMENT_POINTS
from hmap.harmonic import (
    HarmonicMap,
    SingularPointError,
    _agreement_points,
    _disk_samples,
    angular_derivatives,
    dilatation,
    evaluate_f,
    injectivity_sample_check,
    jacobian,
    sense_preserving_check,
)
from hmap.series import ClosedForm, TruncatedSeries, make_generator

ROUTES = ("h", "g", "dh", "dg", "d2h", "d2g")


def identity_map(order=16):
    return g_alpha(0.0, order)


def fd_first(f, r, theta, h=1e-5):
    zp = r * np.exp(1j * (theta + h))
    zm = r * np.exp(1j * (theta - h))
    return (evaluate_f(f, zp) - evaluate_f(f, zm)) / (2 * h)


def fd_second(f, r, theta, h=1e-3):
    # five-point stencil: the 1e-5 step of the first derivative would put the
    # division by h^2 below the double-precision roundoff floor
    vals = [evaluate_f(f, r * np.exp(1j * (theta + k * h))) for k in (-2, -1, 0, 1, 2)]
    return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)


class TestConstruction:
    def test_normalization_enforced(self):
        bad = TruncatedSeries([0.5, 1, 0])
        with pytest.raises(ValueError):
            HarmonicMap(bad, make_generator("identity", 2))
        bad2 = TruncatedSeries([0, 2, 0])
        with pytest.raises(ValueError):
            HarmonicMap(bad2, make_generator("identity", 2))

    def test_exact_series_disagreement_rejected(self):
        h = make_generator("half_plane_l", 32)
        g = make_generator("identity", 32)
        # the form of h is z/(1-z) + 0.1 = (0.1 + 0.9 z)/(1-z): the offset breaks agreement
        wrong = (ClosedForm((0.1, 0.9), 1), ClosedForm((0, 1)), 1.0)
        with pytest.raises(ValueError):
            HarmonicMap(h, g, wrong)

    @pytest.mark.parametrize("route", ROUTES)
    def test_one_wrong_route_is_rejected(self, route):
        f = map_L()
        routes = dict(f.exact)
        right = routes[route]
        routes[route] = lambda z: right(z) + 1e-6 * z
        with pytest.raises(ValueError, match=f"closed-form {route} disagrees"):
            _check_with(f, routes)

    def test_agreement_points_are_fixed_sunflower_samples(self):
        z = _agreement_points()
        assert np.array_equal(z, _disk_samples(0.5, EXACT_AGREEMENT_POINTS))
        assert np.all(np.abs(z) <= 0.5)
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 0

    def test_catalog_constructions_pass_agreement(self):
        # construction itself runs the 20-point exact/series cross-check
        for f in (map_F(), map_L(), f_alpha(0.3 + 0.4j), example21(), g_alpha(1j)):
            assert f.exact is not None

    @pytest.mark.parametrize("build", [map_F, lambda: f_alpha(0.5j), example21, l_hadamard_l],
                             ids=["map_F", "f_alpha", "example21", "l_hadamard_l"])
    def test_check_builds_no_derivative_series_or_tables(self, build, monkeypatch):
        # the agreement check multiplies one power table by the coefficients:
        # it differentiates no series and evaluates none by Horner's rule
        calls = []
        for name in ("differentiate", "evaluate"):
            method = getattr(TruncatedSeries, name)
            monkeypatch.setattr(TruncatedSeries, name,
                                lambda s, *args, name=name, method=method: calls.append(name) or method(s, *args))
        assert build().exact is not None
        assert calls == []

    @pytest.mark.parametrize("h_order,g_order", [(64, 32), (32, 64), (9, 40), (40, 9)])
    @pytest.mark.parametrize("scale", [0.0, 0.5, 2.0])
    def test_unequal_degrees_accepted_and_rejected_as_before(self, h_order, g_order, scale):
        # each closed form in turn is moved by ``scale`` times its allowance
        f = HarmonicMap(map_F(h_order).h, map_F(g_order).g, map_F().forms)
        tols, exact = _allowances(f), dict(f.exact)
        for route in ROUTES:
            routes = dict(exact)
            right = routes[route]
            routes[route] = lambda z, right=right: right(z) + scale * tols[route]
            first = _first_gap_past(f.h, f.g, routes, tols)
            _assert_check_verdict(f, routes, first, tols)
            assert (first is None) == (scale < 1)

    @pytest.mark.parametrize("longer", ["h", "g"])
    def test_coefficients_past_the_shorter_degree_are_checked(self, longer):
        # a coefficient of the longer part that its closed form lacks is seen
        # even though it lies past the shorter part's degree
        parts = {"h": map_F(32).h, "g": map_F(32).g}
        c = map_F(64)._series(longer).coeffs.copy()
        parts[longer] = TruncatedSeries(c)
        f = HarmonicMap(parts["h"], parts["g"], map_F().forms)
        tols = _allowances(f)
        c[40] += 1e13
        parts[longer] = TruncatedSeries(c)
        first = _first_gap_past(parts["h"], parts["g"], f.exact, tols)
        assert first == longer
        with pytest.raises(ValueError, match=_rejection(first, tols[first])):
            HarmonicMap(parts["h"], parts["g"], f.forms)

    @pytest.mark.parametrize("route", ROUTES)
    def test_twice_a_large_allowance_is_rejected(self, route):
        # at degree 8 the exact tails of the product of products, whose
        # coefficients grow like n^8, allow its routes 3.8 (g) to 4065 (h'')
        f = parse_function("conv(conv(L,L),conv(L,L))", 8)
        tol = _allowances(f)[route]
        assert tol > 1
        routes = dict(f.exact)
        right = routes[route]
        routes[route] = lambda z: right(z) + 2 * tol
        with pytest.raises(ValueError, match=_rejection(route, tol)):
            _check_with(f, routes)

    def test_check_needs_two_derivatives(self):
        h = TruncatedSeries([0, 1])
        forms = (ClosedForm((0, 1)), ClosedForm(()), 1.0)
        with pytest.raises(ValueError, match="degree 1 too small for 2 derivatives"):
            HarmonicMap(h, TruncatedSeries([0, 0, 0]), forms)

    def test_power_table_reaches_underflow(self):
        # terms past the table's last power would add exactly nothing
        powers = harmonic._agreement_powers()
        assert powers.shape == (EXACT_AGREEMENT_POINTS, harmonic._AGREEMENT_DEGREE + 1)
        assert np.all(powers[:, -1] == 0)
        assert not powers.flags.writeable
        assert map_F(4096).exact is not None


def _allowances(f):
    """The agreement check's allowance of each route of f, by route name."""
    return dict(zip(ROUTES, harmonic._agreement_allowances(f)))


def _check_with(f, routes):
    """The agreement check on f, with its evaluators replaced by ``routes`` (which f keeps)."""
    vars(f)["exact"] = routes
    harmonic._check_exact_agreement(f)


def _first_gap_past(h, g, routes, tols):
    """The first route whose closed form strays from its series by more than its allowance, or None.

    The reference evaluates each route from its own differentiated series,
    as the agreement check did before it became one matrix product.
    """
    z = _agreement_points()
    series = {"h": h, "g": g, "dh": h.differentiate(), "dg": g.differentiate(),
              "d2h": h.differentiate(2), "d2g": g.differentiate(2)}
    return next((w for w in ROUTES if np.max(np.abs(routes[w](z) - series[w].evaluate(z))) > tols[w]), None)


def _assert_check_verdict(f, routes, first, tols):
    if first is None:
        _check_with(f, routes)
    else:
        with pytest.raises(ValueError, match=_rejection(first, tols[first])):
            _check_with(f, routes)


def _rejection(route, tol):
    return rf"closed-form {route} disagrees with its series by .* inside \|z\| <= 0\.5 " + re.escape(f"(allowed {tol:.3e})")


class TestEvaluate:
    def test_identity_map(self):
        f = identity_map()
        assert evaluate_f(f, 0.3 + 0.4j) == pytest.approx(0.3 + 0.4j)

    def test_F_on_real_axis(self):
        # imaginary part of z/(1-z) vanishes for real z, so F(r) = r/(1-r)^2
        F = map_F()
        for r in (0.1, 0.5, 0.75, 0.9):
            assert evaluate_f(F, r) == pytest.approx(r / (1 - r) ** 2, abs=1e-12)

    def test_example21_collision_values(self):
        f = example21()
        z0 = (3 + np.sqrt(3) * 1j) / 4
        assert abs(evaluate_f(f, z0) - 0.75) < 1e-12
        assert abs(evaluate_f(f, np.conj(z0)) - 0.75) < 1e-12

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            evaluate_f(map_F(), 1.0 + 0j)

    def test_series_exact_agreement_inside_half_disk(self):
        F = map_F()
        series_only = HarmonicMap(F.h, F.g, None)
        rng = np.random.default_rng(5)
        z = 0.5 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        assert np.max(np.abs(evaluate_f(F, z) - evaluate_f(series_only, z))) < 1e-8


ROUTES = ("h", "g", "dh", "dg", "d2h", "d2g")


class TestEvaluationRoute:
    CLOSED = {
        "F": map_F, "L": map_L, "f_alpha": lambda: f_alpha(0.3 + 0.4j), "g_alpha": lambda: g_alpha(1j),
        "example21": example21, "example22": example22, "L*L": l_hadamard_l,
    }

    @pytest.mark.parametrize("name", sorted(CLOSED))
    def test_closed_form_on_every_point(self, name):
        # bit for bit, for arrays and for scalars, on radii where the
        # degree-64 series is exact to rounding (0.1) and where it is not
        f = self.CLOSED[name]()
        thetas = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        for r in (0.1, 0.5, 0.7 * (1 - 1e-12)):
            z = r * np.exp(1j * thetas)
            for which in ROUTES:
                exact = f.exact[which]
                assert np.array_equal(getattr(f, which + "_at")(z), exact(z))
                assert getattr(f, which + "_at")(complex(z[3])) == complex(exact(complex(z[3])))

    def test_F_second_derivative_just_inside_0_7(self):
        # the degree-64 series of h'' is 8.9e-5 off here, so any series
        # fallback would show
        F = map_F()
        z = 0.7 * (1 - 1e-12) * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        assert np.max(np.abs(F.d2h_at(z) - F.exact["d2h"](z))) < 1e-12

    @pytest.mark.parametrize("build", [
        lambda: HarmonicMap(hadamard_series(map_L().h, map_L().h), hadamard_series(map_L().g, map_L().g)),
        lambda: shear_horizontal(make_generator("half_plane_l", 64), make_generator("identity", 64)),
        lambda: make_M_alpha_member(make_generator("half_plane_l", 64), 0.5j),
    ])
    def test_series_only_maps_run_horner(self, build):
        f = build()
        assert f.exact is None
        z = np.array([0.1, 0.5j, -0.7 * (1 - 1e-12), 0.9 * np.exp(2j)])
        for which, series in zip(ROUTES, (f.h, f.g, f.h.differentiate(), f.g.differentiate(),
                                          f.h.differentiate(2), f.g.differentiate(2))):
            assert np.array_equal(getattr(f, which + "_at")(z), series.evaluate(z))


class TestOneGuardPerPointSet:
    @pytest.mark.parametrize("op", [evaluate_f, jacobian, dilatation], ids=lambda op: op.__name__)
    @pytest.mark.parametrize("build", [map_F, lambda: make_M_alpha_member(make_generator("koebe_k", 32), 0.5)],
                             ids=["closed", "series"])
    def test_one_guard_per_call(self, monkeypatch, op, build):
        f = build()
        calls = []
        guard = harmonic._require_inside
        monkeypatch.setattr(harmonic, "_require_inside", lambda z: calls.append(np.shape(z)) or guard(z))
        z = np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.7 - 0.1j]])
        out = op(f, z)
        assert calls == [z.shape] and out.shape == z.shape
        scalar = op(f, 0.3 - 0.2j)
        assert len(calls) == 2
        assert isinstance(scalar, float if op is jacobian else complex)
        assert scalar == pytest.approx(op(f, np.array([0.3 - 0.2j]))[0], rel=1e-14)
        for bad in (1.0, np.array([0.2, 0.6 + 0.8j])):
            with pytest.raises(ValueError, match="requires"):
                op(f, bad)

    def test_routes_match_the_single_route_methods(self):
        for f in (map_L(), make_M_alpha_member(make_generator("half_plane_l", 32), -0.5)):
            z = np.array([0.2 + 0.1j, -0.6j, 0.85])
            values = f._eval_routes(ROUTES, z)
            for w, v in zip(ROUTES, values):
                assert np.array_equal(v, getattr(f, f"{w}_at")(z))
            scalars = f._eval_routes(("dh", "d2g"), 0.4j)
            assert all(type(v) is complex for v in scalars)
            assert scalars == (f.dh_at(0.4j), f.d2g_at(0.4j))


class TestDilatation:
    def test_L_dilatation_is_minus_z(self):
        L = map_L()
        for z in (0.2j, -0.5, 0.3 + 0.3j, 0.85):
            assert dilatation(L, z) == pytest.approx(-z, abs=1e-9)

    def test_F_dilatation_is_z(self):
        F = map_F()
        for z in (0.2j, -0.5, 0.3 + 0.3j, 0.85):
            assert dilatation(F, z) == pytest.approx(z, abs=1e-9)

    def test_g_alpha_dilatation(self):
        alpha = 0.7j
        f = g_alpha(alpha)
        z = 0.4 - 0.2j
        assert dilatation(f, z) == pytest.approx(alpha * z, abs=1e-12)

    def test_singular_point_raises(self):
        # h = z + z^2 has h' = 1 + 2z, exactly zero at z = -1/2
        h = TruncatedSeries([0, 1, 1])
        f = HarmonicMap(h, make_generator("identity", 2))
        with pytest.raises(SingularPointError) as err:
            dilatation(f, -0.5)
        assert err.value.z == pytest.approx(-0.5)


class TestJacobian:
    def test_identity(self):
        f = identity_map()
        assert jacobian(f, 0.5j) == pytest.approx(1.0)

    def test_g_alpha_unimodular(self):
        f = g_alpha(1j)
        for r in (0.1, 0.5, 0.9):
            assert jacobian(f, r * np.exp(0.3j)) == pytest.approx(1 - r * r, abs=1e-12)

    def test_jacobian_dilatation_identity(self):
        # J = |h'|^2 (1 - |w|^2) wherever h' != 0
        rng = np.random.default_rng(11)
        for f in (map_F(), map_L(), example21(), f_alpha(0.6j)):
            z = 0.9 * np.sqrt(rng.uniform(0, 1, 30)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
            hp = f.dh_at(z)
            w = dilatation(f, z)
            lhs = jacobian(f, z)
            rhs = np.abs(hp) ** 2 * (1 - np.abs(w) ** 2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(1 + np.abs(rhs))

    def test_positive_when_dilatation_small(self):
        f = f_alpha(0.9)
        z = 0.77 * np.exp(1.1j)
        assert abs(dilatation(f, z)) < 1
        assert jacobian(f, z) > 0


class TestAngularDerivatives:
    def test_identity_map_values(self):
        f = identity_map()
        d1, d2 = angular_derivatives(f, 0.5, 0.0)
        assert d1 == pytest.approx(0.5j)
        assert d2 == pytest.approx(-0.5)

    def test_F_imaginary_part_closed_form(self):
        # Im(dF/dtheta) at (0.1, pi/2) is -0.02/|1-0.1i|^4
        F = map_F()
        d1, _ = angular_derivatives(F, 0.1, np.pi / 2)
        expect = -0.02 / abs(1 - 0.1j) ** 4
        assert d1.imag == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("factory", [map_F, map_L, example21, lambda: f_alpha(0.5j), lambda: g_alpha(0.8)])
    def test_against_finite_differences(self, factory):
        # each map evaluates its closed forms on every point, so the oracle
        # differences and the derivatives come from the same route
        f = factory()
        radii = np.linspace(0.05, 0.65, 16)
        thetas = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        for r in radii:
            d1, d2 = angular_derivatives(f, r, thetas)
            for k, t in enumerate(thetas):
                assert abs(d1[k] - fd_first(f, r, t)) < 1e-6
                assert abs(d2[k] - fd_second(f, r, t)) < 1e-6

    @pytest.mark.parametrize("factory", [map_F, map_L, lambda: f_alpha(0.5j)])
    def test_against_finite_differences_exact_regime(self, factory):
        # nearer the boundary the derivatives grow, so the second-derivative
        # step shrinks to keep the stencil truncation small
        f = factory()
        thetas = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        for r in (0.75, 0.85):
            d1, d2 = angular_derivatives(f, r, thetas)
            for k, t in enumerate(thetas):
                assert abs(d1[k] - fd_first(f, r, t)) < 1e-6 * max(1, abs(d1[k]))
                assert abs(d2[k] - fd_second(f, r, t, h=3e-4)) < 1e-5 * max(1, abs(d2[k]))

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            angular_derivatives(map_F(), 1.5, 0.0)


class TestSensePreserving:
    def test_example21_passes(self):
        # dilatation is z itself, so |w| = |z| < 1 on the whole grid
        rep = sense_preserving_check(example21(), 0.95)
        assert rep.passed and rep.worst_value > 0

    def test_g_alpha_passes(self):
        rep = sense_preserving_check(g_alpha(np.exp(0.4j)), 0.95)
        assert rep.passed

    def test_overshooting_map_fails_above_quarter(self):
        # g' = 4z makes |w| = 4|z| cross 1 at |z| = 1/4
        h = make_generator("identity", 8)
        g = TruncatedSeries(np.array([0, 0, 2] + [0] * 6, dtype=complex))
        f = HarmonicMap(h, g)
        rep = sense_preserving_check(f, 0.5)
        assert not rep.passed
        assert abs(rep.first_failure) > 0.25

    def test_report_serializes(self):
        d = sense_preserving_check(example21(), 0.9).to_dict()
        assert d["check_kind"] == "necessary"
        assert d["passed"] is True


class TestPolarRoutes:
    """The polar-grid route: closed forms on the grid's points, a series-only map by inverse FFT."""

    @pytest.mark.parametrize("order", [8, 64, 512, 2048])
    @pytest.mark.parametrize("r_max", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_series_only_map_matches_horner(self, order, r_max, real):
        rng = np.random.default_rng(order)
        c = rng.standard_normal((2, order + 1))
        if not real:
            c = c + 1j * rng.standard_normal((2, order + 1))
        c[0, :2] = 0, 1
        f = HarmonicMap(TruncatedSeries(c[0]), TruncatedSeries(c[1]))
        grid = harmonic._polar_grid(r_max, 16, 64)
        for which, v in zip(ROUTES, harmonic._polar_routes(f, ROUTES, r_max, 16, 64)):
            ref = f._series(which).evaluate(grid)
            assert v.shape == grid.shape
            assert np.all(np.abs(v - ref) <= 1e-12 * np.maximum(1, np.abs(ref))), which

    def test_closed_forms_are_called_on_the_grid(self):
        f = map_F(64)
        values = harmonic._polar_routes(f, ("dh", "d2g"), 0.99, 8, 32)
        expected = f._eval_routes(("dh", "d2g"), harmonic._polar_grid(0.99, 8, 32))
        assert all(np.array_equal(v, e) for v, e in zip(values, expected))

    @pytest.mark.parametrize("deg_h,deg_g,n", [(64, 64, 128), (64, 64, 64), (100, 37, 16), (2048, 2048, 64),
                                               (512, 300, 256), (5, 0, 8)])
    def test_fold_sums_each_bin_as_a_scatter_does(self, deg_h, deg_g, n):
        # the columns of two-sided rows, frequencies -deg_g .. deg_h, summed
        # onto n bins: within 1e-15 of each bin's absolute sum of a scatter by
        # np.add.at, and bit for bit where no bin takes more than two terms
        rng = np.random.default_rng(deg_h + n)
        k = np.arange(-deg_g, deg_h + 1)
        rows = rng.standard_normal((3, k.size)) + 1j * rng.standard_normal((3, k.size))
        want, size = np.zeros((3, n), dtype=complex), np.zeros((3, n))
        np.add.at(want, (slice(None), k % n), rows)
        np.add.at(size, (slice(None), k % n), np.abs(rows))
        got = harmonic._folded(rows, n, -deg_g)
        assert got.shape == (3, n) and np.all(np.abs(got - want) <= 1e-15 * size)
        assert np.bincount(k % n).max() > 2 or np.array_equal(got, want)

    def test_grid_is_cached_read_only(self):
        grid = harmonic._polar_grid(0.9, 16, 64)
        assert harmonic._polar_grid(0.9, 16, 64) is grid
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0

    @pytest.mark.parametrize("r_max", [0.5, 0.9])
    def test_sense_check_on_a_series_only_twin(self, r_max):
        L = map_L(512)
        twin = HarmonicMap(hadamard_series(L.h, L.h), hadamard_series(L.g, L.g))
        assert twin.exact is None
        got, want = sense_preserving_check(twin, r_max), sense_preserving_check(l_hadamard_l(512), r_max)
        assert got.passed == want.passed
        assert abs(got.worst_value - want.worst_value) <= 1e-12 * max(1, abs(want.worst_value))


class TestInjectivity:
    def test_example21_collision_flagged(self):
        f = example21()
        z0 = (3 + np.sqrt(3) * 1j) / 4
        rep = injectivity_sample_check(f, 0.9, include=(z0, np.conj(z0)))
        assert rep.collision and not rep.passed
        assert rep.min_image_distance < 1e-12
        a, b = rep.witness
        assert {round(a.imag, 6), round(b.imag, 6)} == {round(z0.imag, 6), round(-z0.imag, 6)}

    def test_identity_no_collision(self):
        rep = injectivity_sample_check(identity_map(), 0.9)
        assert rep.passed and not rep.collision

    def test_F_no_collision(self):
        rep = injectivity_sample_check(map_F(), 0.9)
        assert rep.passed

    @pytest.mark.parametrize("r_max", [0.0, -0.5, 1.0, 1.5])
    def test_radius_outside_the_disk_rejected(self, r_max):
        # r_max = 0 samples 1000 copies of the origin, and a negative one a mirrored disk
        with pytest.raises(ValueError, match=r"0 < r_max < 1"):
            injectivity_sample_check(map_F(), r_max)

    def test_samples_the_fixed_points_plus_the_pinned_ones(self):
        assert injectivity_sample_check(map_F(), 0.5).n_samples == 1000
        assert injectivity_sample_check(map_F(), 0.5, include=(0.1, -0.1)).n_samples == 1002
