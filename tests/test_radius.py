import math
import re
import warnings

import mpmath  # 40-digit reference sums
import numpy as np
import pytest
from scipy.optimize import brentq  # reference solver; hmap itself must not import scipy

from hmap import harmonic
from hmap.catalog import (
    example21,
    example22,
    f_alpha,
    g_alpha,
    l_hadamard_l,
    make_M_alpha_member,
    map_F,
    map_L,
    shear_horizontal,
)
from hmap.harmonic import (
    HarmonicMap,
    _circle_derivatives,
    _circle_grid,
    _unit_circle,
    angular_derivatives,
    evaluate_f,
)
from hmap.series import ClosedForm, TruncatedSeries, make_generator
from hmap import radius
from hmap.classifiers import coefficient_sum_orders
from hmap.convolution import hadamard_series
from hmap.defaults import CIRCLE_MIN_TOL
from hmap.radius import (
    CircleTest,
    _bracketed_root,
    _q_interior_min_location,
    _starlike_margin,
    convex_test_at_radius,
    identity_check_tangent,
    p_root_in_radius,
    polynomial_p,
    polynomial_q,
    radius_search,
    solve_special_radii,
    starlike_test_at_radius,
)

R_CONVEX = 2 - math.sqrt(3)
R_STAR = math.sqrt((37 - 8 * math.sqrt(10)) / 3) / 3


def identity_map():
    return g_alpha(0.0, 16)


def b1_map():
    """h = z + 0.1 z^2, g = 0.2 z: b_1 != 0, so the coefficient sums certify no radius."""
    return HarmonicMap(TruncatedSeries(np.array([0, 1, 0.1], dtype=complex)),
                       TruncatedSeries(np.array([0, 0.2, 0], dtype=complex)))


def circle_test(f, r, m, n):
    """The circle test at r of arg d^m f (0 starlikeness, 1 convexity), started on n angles, its margin refined."""
    name = ("map", "tangent vector")[m]
    return radius._finished(radius._circle_tests(f, [r], m, n, name)[0], f, r, m, name)


class TestCircleTests:
    def test_identity_convex_everywhere(self):
        for r in (0.1, 0.5, 0.9, 0.99):
            res = circle_test(identity_map(), r, 1, 512)
            assert res.passed
            assert res.min_derivative == pytest.approx(1.0, abs=1e-12)

    def test_identity_starlike_everywhere(self):
        for r in (0.1, 0.5, 0.9, 0.99):
            assert circle_test(identity_map(), r, 0, 512).passed

    def test_F_convex_below_transition(self):
        assert convex_test_at_radius(map_F(), 0.25).passed

    def test_F_not_convex_above_transition(self):
        res = convex_test_at_radius(map_F(), 0.30)
        assert not res.passed
        assert res.min_derivative < -1e-9

    def test_F_starlike_below_transition(self):
        assert starlike_test_at_radius(map_F(), 0.65).passed

    def test_F_not_starlike_above_transition(self):
        res = starlike_test_at_radius(map_F(), 0.67)
        assert not res.passed

    def test_turning_is_two_pi_even_past_transition(self):
        # the curve still winds once; only local monotonicity is lost
        res = convex_test_at_radius(map_F(), 0.5)
        assert res.total_turning == pytest.approx(2 * math.pi, abs=1e-3)

    def test_example22_not_starlike_at_095(self):
        res = starlike_test_at_radius(example22(), 0.95)
        assert not res.passed
        assert res.min_derivative < -0.1

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            convex_test_at_radius(map_F(), 1.2)

    def test_turning_is_an_exact_winding_near_the_boundary(self):
        # a 4096-point trapezoid of the turning rate reads 2 pi - 2.1e-3 on
        # this starlike circle; the winding of the samples is 2 pi to rounding
        res = starlike_test_at_radius(f_alpha(-0.8432 - 0.2061j), 0.965)
        assert res.passed
        assert res.total_turning == pytest.approx(2 * math.pi, abs=1e-12)

    def test_multiply_wound_curve_fails(self):
        # h' = 1 + 4 z^12: at r = 0.9 the tangent turns the right way at every
        # angle but winds 13 times, so the image curve is not convex
        c = np.zeros(14, dtype=complex)
        c[1], c[13] = 1.0, 4 / 13
        f = HarmonicMap(TruncatedSeries(c), TruncatedSeries(np.zeros(14, dtype=complex)))
        res = convex_test_at_radius(f, 0.9)
        assert res.min_derivative > 0 and not res.passed
        assert res.total_turning == pytest.approx(26 * math.pi, abs=1e-9)
        # on 8 nodes a step may slip a branch: the test doubles its grid
        # until the guard passes and the rate is resolved
        coarse = circle_test(f, 0.9, 1, 8)
        assert (coarse.grid_theta, coarse.passed) == (res.grid_theta, False)
        assert coarse.total_turning == pytest.approx(26 * math.pi, abs=1e-9)

    def test_guard_fails_the_circle_at_the_cap(self, monkeypatch):
        # judged on 8 nodes as it stands, a slipped branch fails the circle
        c = np.zeros(14, dtype=complex)
        c[1], c[13] = 1.0, 4 / 13
        f = HarmonicMap(TruncatedSeries(c), TruncatedSeries(np.zeros(14, dtype=complex)))
        monkeypatch.setattr(harmonic, "_MAX_THETA_POINTS", 8)
        coarse = circle_test(f, 0.9, 1, 8)
        assert not coarse.passed and math.isnan(coarse.total_turning) and coarse.grid_theta == 8

    def test_starlike_test_reads_no_second_derivatives(self, monkeypatch):
        def refuse(self, z):
            raise AssertionError("second derivative evaluated")

        monkeypatch.setattr(HarmonicMap, "d2h_at", refuse)
        monkeypatch.setattr(HarmonicMap, "d2g_at", refuse)
        assert starlike_test_at_radius(map_F(), 0.65).passed


ROUTES = ("h", "g", "dh", "dg", "d2h", "d2g")


def half_plane_koebe_mix(order):
    return 0.5 * (make_generator("half_plane_l", order) + make_generator("koebe_k", order))


SERIES_ONLY = {
    # conv(L,L) from coefficient arrays: the product of L's forms has closed forms
    "conv(L,L)": lambda: HarmonicMap(hadamard_series(map_L().h, map_L().h), hadamard_series(map_L().g, map_L().g)),
    "M_alpha twin": lambda: make_M_alpha_member(half_plane_koebe_mix(64), 0.5 - 0.3j),
    "horizontal shear": lambda: shear_horizontal(make_generator("half_plane_l", 64), make_generator("identity", 64)),
}


def horner_twin(f):
    """f's series without forms, on the closed-form route with Horner on its own series as the evaluators.

    Its circle tests evaluate the series point by point, as every
    series-only map did before circle tests read the coefficients directly.
    """
    twin = HarmonicMap(f.h, f.g)
    vars(twin)["exact"] = {w: f._series(w).evaluate for w in ROUTES}
    return twin


class TestSeriesOnlyCircles:
    """Circle tests of series-only maps: one inverse FFT of the coefficients per derivative."""

    @pytest.mark.parametrize("name", sorted(SERIES_ONLY))
    def test_grid_matches_horner(self, name):
        f = SERIES_ONLY[name]()
        ref = horner_twin(f)
        thetas = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        for r in (0.3, 0.6, 0.9, 0.99):
            for m, test in ((0, starlike_test_at_radius), (1, convex_test_at_radius)):
                got = _circle_derivatives(f, r, m, thetas, (4096, 0.0))
                want = _circle_derivatives(ref, r, m, thetas, (4096, 0.0))
                # each derivative to 1e-12 of its own largest modulus; the rate,
                # their quotient, can lose more where the curve is small
                for a, b in zip(got, want):
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
                new, old = test(f, r), test(ref, r)
                assert (new.passed, new.grid_theta) == (old.passed, old.grid_theta)
                # at r = 0.99 the shear's tangent winds 64 times on 65536
                # angles: the rounding of the two routes adds up over the steps
                assert new.total_turning == pytest.approx(old.total_turning, rel=1e-14, abs=1e-12, nan_ok=True)
                assert abs(new.min_derivative - old.min_derivative) <= 1e-10 * max(1.0, abs(old.min_derivative))

    @pytest.mark.parametrize("n_theta", [64, 256])
    def test_degree_above_grid_size_folds(self, n_theta):
        # r^2048 a_2048 is about 1e-6 at r = 0.99: every frequency above the
        # grid's Nyquist limit must land on its alias
        f = make_M_alpha_member(half_plane_koebe_mix(2048), 0.5j)
        ref = horner_twin(f)
        thetas = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
        for m in (0, 1):
            for a, b in zip(_circle_derivatives(f, 0.99, m, thetas, (n_theta, 0.0)),
                            _circle_derivatives(ref, 0.99, m, thetas, (n_theta, 0.0))):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("order", [16, 48])
    def test_zero_frequency_carries_both_constants(self, order):
        # with g(0) = b_0 != 0 the constant of the circle image is
        # a_0 + conj(b_0).  On 64 angles, degree 16 gives every frequency a
        # residue of its own; degree 48 folds frequencies onto shared residues
        rng = np.random.default_rng(order)
        h = np.r_[0, 1, 0.1 * rng.normal(size=order - 1)]
        g = 0.1 * (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        g[0] = 0.3 - 0.2j
        f = HarmonicMap(TruncatedSeries(h), TruncatedSeries(g))
        thetas = _unit_circle(64)[0]
        for m in (0, 1):
            for a, b in zip(_circle_derivatives(f, 0.8, m, thetas, (64, 0.0)),
                            _circle_derivatives(horner_twin(f), 0.8, m, thetas, (64, 0.0))):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_off_grid_angles_sum_directly(self):
        f = SERIES_ONLY["conv(L,L)"]()
        thetas = np.array([0.1, 1.234, 3.0, 6.2])
        for m in (0, 1):
            for a, b in zip(_circle_derivatives(f, 0.8, m, thetas, False),
                            _circle_derivatives(horner_twin(f), 0.8, m, thetas, False)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_off_grid_d1_against_a_40_digit_sum(self):
        # the phases are powers of e^{i theta}: a phase k theta rounded at
        # high k cost the direct sum about ten times this bound
        f = SERIES_ONLY["conv(L,L)"]()
        thetas = np.random.default_rng(26).uniform(-np.pi, np.pi, 50)
        d1 = _circle_derivatives(f, 0.9, 0, thetas, False)[0]
        a, b = ([mpmath.mpc(c.real, c.imag) for c in s.coeffs] for s in (f.h, f.g))
        with mpmath.workdps(40):
            for got, theta in zip(d1, thetas):
                z = mpmath.mpf(0.9) * mpmath.expj(mpmath.mpf(theta))
                zhp, zgp = (sum(n * c[n] * z ** n for n in range(1, len(c))) for c in (a, b))
                want = complex(1j * (zhp - mpmath.conj(zgp)))
                assert abs(got - want) <= 2e-13 * abs(want), theta

    @pytest.mark.parametrize("name", sorted(SERIES_ONLY))
    def test_no_pointwise_evaluation(self, name, monkeypatch):
        f = SERIES_ONLY[name]()

        def refuse(*args, **kwargs):
            raise AssertionError("series-only circle test evaluated pointwise")

        monkeypatch.setattr(TruncatedSeries, "evaluate", refuse)
        for which in ROUTES:
            monkeypatch.setattr(HarmonicMap, which + "_at", refuse)
        for r in (0.2, 0.7):
            convex_test_at_radius(f, r)
            starlike_test_at_radius(f, r)

    def test_degree_256_twin_of_L_brackets_its_radius(self):
        # 0.8718541098 is the root of the closed-form starlikeness margin of
        # f_alpha(-1); the degree-64 twin misses it by 0.035
        res = radius_search(make_M_alpha_member(half_plane_koebe_mix(256), -1.0), "starlikeness", tol=1e-6)
        assert res.r_hi - res.r_lo <= 1e-6
        assert res.r_lo <= 0.8718541098 <= res.r_hi


CLOSED_FORM = {
    "map_F": map_F,
    "map_L": map_L,
    "f_alpha(0.5j)": lambda: f_alpha(0.5j),
    "example21": example21,
    "example22": example22,
    "l_hadamard_l": l_hadamard_l,
    "g_alpha(0.5)": lambda: g_alpha(0.5),
}


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestClosedFormCircles:
    """Circle tests of maps with closed forms: one cached grid, one range guard, no *_at."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM))
    def test_matches_angular_derivatives_bit_for_bit(self, name):
        f = CLOSED_FORM[name]()
        for theta, on_grid in ((np.linspace(0, 2 * np.pi, 4096, endpoint=False), (4096, 0.0)),
                               (np.array([0.1, 1.234, 3.0, 6.2]), False)):
            for r in (0.3, 0.9, 0.999):
                d1, d2 = angular_derivatives(f, r, theta)
                value = evaluate_f(f, r * np.exp(1j * theta))
                for m, want in ((0, (d1, value)), (1, (d2, d1))):
                    got = _circle_derivatives(f, r, m, theta, on_grid)
                    assert all(same_bits(a, b) for a, b in zip(got, want)), (r, m, on_grid)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM))
    def test_no_pointwise_methods(self, name, monkeypatch):
        f = CLOSED_FORM[name]()

        def refuse(*args, **kwargs):
            raise AssertionError("closed-form circle test went through a *_at method")

        for which in ROUTES:
            monkeypatch.setattr(HarmonicMap, which + "_at", refuse)
        for r in (0.3, 0.9):
            convex_test_at_radius(f, r)
            starlike_test_at_radius(f, r)

    def test_one_range_guard_per_sample_set(self, monkeypatch):
        calls = []
        guard = harmonic._require_inside
        monkeypatch.setattr(harmonic, "_require_inside", lambda z: calls.append(z.size) or guard(z))
        theta = _unit_circle(512)[0]
        for m in (0, 1):
            _circle_derivatives(map_F(), 0.9, m, theta, (512, 0.0))
        assert calls == [512, 512]
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            _circle_derivatives(map_F(), 1.0, 1, theta, (512, 0.0))

    def test_cached_grid_is_read_only_and_shared(self):
        theta, unit = _unit_circle(4096)
        assert not theta.flags.writeable and not unit.flags.writeable
        with pytest.raises(ValueError):
            unit[0] = 0.0
        again = _unit_circle(4096)
        assert again[0] is theta and again[1] is unit
        assert same_bits(theta, np.linspace(0, 2 * np.pi, 4096, endpoint=False))
        assert same_bits(unit, np.exp(1j * theta))


MIRRORED = {
    "map_F": map_F,
    "map_L": map_L,
    "example21": example21,
    "example22": example22,
    "l_hadamard_l": l_hadamard_l,
    "conv(L,L)": SERIES_ONLY["conv(L,L)"],
    "twin f_alpha(0.5)": lambda: make_M_alpha_member(half_plane_koebe_mix(64), 0.5),
}


def full_circle(f, monkeypatch):
    """f with its mirror predicate patched to False: circle tests sample every node."""
    monkeypatch.setitem(vars(f), "_conjugate_symmetric", False)
    return f


def recording(f, sizes):
    """f, its closed forms wrapped to append the number of points of each call to ``sizes``."""
    def wrap(fn):
        return lambda z: sizes.append(np.size(z)) or fn(z)

    vars(f)["exact"] = {w: wrap(fn) for w, fn in f.exact.items()}
    return f


class TestHalfCircle:
    """Maps with f(conj z) = conj f(z) sample the nodes 0 <= theta <= pi only."""

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_half_circle_equals_full_circle(self, name, monkeypatch):
        # 2 - sqrt(3) puts the convexity argmin of F, L*L and conv(L,L) at
        # theta = pi; example21's starlikeness argmin sits at theta = 0.  A
        # series-only map's refinement point is a direct sum, and its margin
        # on the full circle is rounded apart from the mirrored one by up to
        # about 1e-12 relative from r = 0.85 on, so these radii stop at 0.8
        # and test_near_the_boundary bounds the gap at r = 0.95
        f = MIRRORED[name]()
        assert f._conjugate_symmetric
        radii = (0.2, R_CONVEX, 0.5, 0.8)
        tests = (convex_test_at_radius, starlike_test_at_radius)
        half = [test(f, r) for r in radii for test in tests]
        full = [test(full_circle(f, monkeypatch), r) for r in radii for test in tests]
        for a, b in zip(half, full):
            assert a.passed == b.passed
            scale = max(1.0, abs(b.min_derivative))
            assert abs(a.min_derivative - b.min_derivative) <= 1e-12 * scale
            assert a.total_turning == pytest.approx(b.total_turning, abs=1e-12, nan_ok=True)

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_near_the_boundary(self, name, monkeypatch):
        # the refinement points of the full circle lie near 2 pi - t when the
        # half circle's lie at t; reduced into (-pi, pi] before the direct
        # sum, the two are the same sum up to rounding.  Where even 65536
        # angles leave the rate unresolved (the degree-64 twin's rates dip
        # to -5.8e4 here), the parabolic steps are far from converged and
        # carry that rounding further
        f = MIRRORED[name]()
        for test in (convex_test_at_radius, starlike_test_at_radius):
            half, full = test(f, 0.95), test(full_circle(MIRRORED[name](), monkeypatch), 0.95)
            assert (half.passed, half.grid_theta) == (full.passed, full.grid_theta)
            bound = 5e-12 if full.tail <= harmonic._CHOP_TAIL else 1e-9
            assert abs(half.min_derivative - full.min_derivative) <= bound * max(1.0, abs(full.min_derivative))

    def test_argmin_at_zero_and_pi(self, monkeypatch):
        theta = _unit_circle(4096)[0]
        for f, r, m, node in ((map_F(), R_CONVEX, 1, 2048), (example21(), 0.5, 0, 0)):
            upper, curve = _circle_derivatives(f, r, m, theta, (4096, 0.0))
            assert int(np.argmin(np.imag(upper / curve))) == node
            test = (starlike_test_at_radius, convex_test_at_radius)[m]
            half, full = test(f, r), test(full_circle(f, monkeypatch), r)
            assert half.min_derivative == pytest.approx(full.min_derivative, abs=1e-15)

    @pytest.mark.parametrize("closed", [False, True], ids=["series", "closed"])
    def test_vanishing_curve_raises_on_both_paths(self, closed, monkeypatch):
        # h = z + 2 z^2 vanishes at z = -1/2 and h' at z = -1/4, both at theta = pi
        forms = (ClosedForm((0, 1, 2)), ClosedForm(()), 1.0)
        for test, r, what in ((starlike_test_at_radius, 0.5, "map"),
                              (convex_test_at_radius, 0.25, "tangent vector")):
            f = HarmonicMap(TruncatedSeries(np.array([0, 1, 2], dtype=complex)), TruncatedSeries(np.zeros(3)),
                            forms if closed else None)
            assert f._conjugate_symmetric
            with pytest.raises(ValueError, match=f"{what} vanishes"):
                test(f, r)
            with pytest.raises(ValueError, match=f"{what} vanishes"):
                test(full_circle(f, monkeypatch), r)

    def test_branch_guard_trips_on_both_paths(self, monkeypatch):
        # h' = 1 + 4 z^12 on 8 nodes, and f_alpha(-0.75) past r = 0.9964 on
        # 4096: a step may slip a branch on either path.  Judged there as it
        # stands (the cap patched down to the starting grid), the guard fails
        # the circle on both paths; left to double, both pass the guard on
        # the same finer grid
        c = np.zeros(14, dtype=complex)
        c[1], c[13] = 1.0, 4 / 13
        wound = HarmonicMap(TruncatedSeries(c), TruncatedSeries(np.zeros(14, dtype=complex)))
        # (uniform grids forced: clustered ones pass the guard on 4096 nodes)
        monkeypatch.setattr(radius, "_cluster", lambda f, r: 0.0)
        for make, m, r, n in ((lambda: wound, 1, 0.9, 8), (lambda: f_alpha(-0.75), 0, 0.997, 4096)):
            with monkeypatch.context() as patch:
                patch.setattr(harmonic, "_MAX_THETA_POINTS", n)
                half = circle_test(make(), r, m, n)
                full = circle_test(full_circle(make(), patch), r, m, n)
            assert math.isnan(half.total_turning) and math.isnan(full.total_turning)
            assert not half.passed and not full.passed
            assert half.grid_theta == full.grid_theta == n
            assert half.min_derivative == pytest.approx(full.min_derivative, abs=1e-12)
            with monkeypatch.context() as patch:
                half = circle_test(make(), r, m, n)
                full = circle_test(full_circle(make(), patch), r, m, n)
            assert not math.isnan(half.total_turning) and not math.isnan(full.total_turning)
            assert half.grid_theta == full.grid_theta > n

    def test_closed_forms_see_half_the_grid(self):
        for f, n, want in ((map_F(), 4096, 2049), (example22(), 4096, 2049), (map_F(), 4095, 4095),
                           (f_alpha(0.5 + 0.5j), 4096, 4096)):
            sizes = []
            f = recording(f, sizes)
            f._conjugate_symmetric
            sizes.clear()
            circle_test(f, 0.5, 1, n)
            circle_test(f, 0.5, 0, n)
            # four closed forms per test on the grid, and one refinement point
            assert set(sizes) <= {want, 1} and sizes.count(want) == 8

    def test_full_circle_without_the_symmetry(self, monkeypatch):
        sizes = []
        sample = radius._circle_derivatives
        monkeypatch.setattr(radius, "_circle_derivatives", lambda f, r, m, th, on_grid: sizes.append(np.size(th))
                            or sample(f, r, m, th, on_grid))
        c = np.array([0, 1, 0, 0, 0], dtype=complex)
        one_imaginary = np.array([0, 0, 0.1, 0.01j, 0], dtype=complex)
        # real coefficients, but the forms' g is 1e-9 i z^2, which agrees with
        # the series g = 0 within the allowance of 1e-8
        broken = (ClosedForm((0, 1)), ClosedForm((0, 0, 1)), 1e-9j)
        for f in (HarmonicMap(TruncatedSeries(c), TruncatedSeries(one_imaginary)),
                  HarmonicMap(TruncatedSeries(c), TruncatedSeries(np.zeros(5)), broken)):
            sizes.clear()
            convex_test_at_radius(f, 0.5)
            # the first sample set is the whole starting grid of 128 angles
            assert not f._conjugate_symmetric and sizes[0] == 128


def one_at_a_time(test):
    """The circle-test seam, ``radius._circle_tests``, built from a one-radius circle test.

    It returns what the batched scan returns: the radii in order, each tested
    from the largest grid reached before it, up to the first that fails.
    """
    def tests(f, radii, m, n_theta, curve_name):
        done = []
        for r in radii:
            done.append(test(f, float(r), max([n_theta] + [t.grid_theta for t in done])))
            if not done[-1].passed:
                break
        return done

    return tests


class TestRadiusSearch:
    def test_circle_test_budget(self, monkeypatch):
        radii = []
        inner = radius._circle_tests  # every circle test of the search passes here, one radius or a scan
        monkeypatch.setattr(radius, "_circle_tests",
                            lambda f, rs, *rest: [radii.append(r) or t for r, t in zip(rs, inner(f, rs, *rest))])
        # the coefficient sums certify every circle up to r = 0.0903, so the
        # scan points 0.01, 0.0302 and 0.0504 below it are skipped; 11 scan
        # points from 0.0706 (tested once) up to the first failure, and 2
        # tests that confirm the final bracket.  The Brent steps on the
        # margin take 15 single values of the rate, no circle test
        res = radius_search(map_F(), "convexity")
        assert (res.circle_tests, res.point_evals) == (13, 15)
        assert len(radii) == 13 and len(set(radii)) == 13
        assert min(radii) == np.linspace(0.01, 0.999, 50)[3]
        assert res.r_lo <= R_CONVEX <= res.r_hi

    def test_convexity_bracket_contains_constant(self):
        res = radius_search(map_F(), "convexity", tol=1e-6)
        assert res.r_hi - res.r_lo <= 1e-6
        assert res.r_lo <= R_CONVEX <= res.r_hi
        assert not res.upper_limit_hit

    def test_starlikeness_bracket_contains_constant(self):
        res = radius_search(map_F(), "starlikeness", tol=1e-6)
        assert res.r_hi - res.r_lo <= 1e-6
        assert res.r_lo <= R_STAR <= res.r_hi

    @pytest.mark.parametrize("alpha,r_true", [
        # roots of the closed-form margin min_theta d/dtheta arg f (dense
        # theta grid with local refinement, brentq to 1e-13)
        (-0.8432 - 0.2061j, 0.97334764517),  # where a trapezoid turning check fails
        (0.5928 - 0.6931j, 0.69219164396),  # where the degree-64 series of h' is 4e-7 off
    ])
    def test_f_alpha_starlikeness_bracket_contains_true_radius(self, alpha, r_true):
        res = radius_search(f_alpha(alpha), "starlikeness", tol=1e-9)
        assert res.r_hi - res.r_lo <= 1e-9
        # a circle passes while its margin is >= -1e-9 (CIRCLE_MIN_TOL), so
        # r_lo may pass the root by 1e-9 / |margin'|, about 2.5e-10 here
        assert res.r_lo - 5e-10 <= r_true <= res.r_hi

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1e-20, math.nan, math.inf])
    def test_tol_must_be_finite_and_at_least_1e_12(self, monkeypatch, tol):
        # no search runs, so a missing check fails here instead of bisecting forever
        monkeypatch.setattr(radius, "_certified_radius", lambda *args: pytest.fail("searched with that tol"))
        with pytest.raises(ValueError, match="tol must be finite and at least 1e-12"):
            radius_search(map_F(), "convexity", tol=tol)

    def test_endpoints_certify(self):
        res = radius_search(map_F(), "convexity", tol=1e-5)
        assert convex_test_at_radius(map_F(), res.r_lo).passed
        assert not convex_test_at_radius(map_F(), res.r_hi).passed

    def test_identity_hits_upper_limit(self):
        res = radius_search(identity_map(), "starlikeness", tol=1e-6)
        assert res.upper_limit_hit
        assert res.r_lo == pytest.approx(0.999)

    def test_no_inner_radius_rejected(self, monkeypatch):
        # circles that fail everywhere, on a map the sums certify nowhere: the
        # scan stops at its first radius, with no pass to anchor the bracket
        radii = []
        fails = lambda f, r, n_theta: radii.append(r) or CircleTest(False, -1.0, 2 * math.pi)
        monkeypatch.setattr(radius, "_circle_tests", one_at_a_time(fails))
        with pytest.raises(ValueError, match="already fails at r = 0.01; nothing to bracket"):
            radius_search(b1_map(), "convexity")
        assert radii == [0.01]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            radius_search(map_F(), "roundness")

    def test_half_plane_square_transition_observed(self):
        # regression: per-circle starlikeness of the coefficient-squared map is
        # lost near 0.63117, far below the disk-image claim; two independent
        # evaluation routes agreed on this transition (see decision notes)
        res = radius_search(l_hadamard_l(64), "starlikeness", tol=1e-4)
        assert 0.6305 < res.r_lo < 0.6318
        assert not res.upper_limit_hit

    def test_result_serializes(self):
        d = radius_search(map_F(), "convexity", tol=1e-4).to_dict()
        assert d["kind"] == "convexity"
        assert d["r_hi"] - d["r_lo"] <= 1e-4

    def test_first_loss_below_a_band(self, monkeypatch):
        # the circles fail only on a middle band: the search brackets its
        # lower edge and does not look above it
        def band(f, r, n_theta):
            passed = not (0.3 < r < 0.5)
            return CircleTest(passed, 1.0 if passed else -1.0, 2 * math.pi)

        monkeypatch.setattr(radius, "_circle_tests", one_at_a_time(band))
        res = radius_search(map_F(), "convexity", tol=1e-3)
        assert res.r_hi - res.r_lo <= 1e-3
        assert res.r_lo <= 0.3 < res.r_hi
        assert not res.upper_limit_hit

    def test_narrow_band_at_a_margin_dip(self, monkeypatch):
        # the margin dips below zero on a band about 0.0063 wide, between two
        # passing scan points (0.3935 and 0.4137) and at no scan point
        depth, curvature = 5e-4, 50.0

        def dip(f, r, n_theta):
            m = curvature * (r - 0.405) ** 2 - depth
            return CircleTest(m >= -CIRCLE_MIN_TOL, m, 2 * math.pi)

        monkeypatch.setattr(radius, "_circle_tests", one_at_a_time(dip))
        res = radius_search(map_F(), "convexity", tol=1e-6)
        edge = 0.405 - math.sqrt((depth - CIRCLE_MIN_TOL) / curvature)
        assert not res.upper_limit_hit
        assert res.r_hi - res.r_lo <= 1e-6
        assert res.r_lo <= edge <= res.r_hi

    def test_dip_trigger_finishes_rows_where_it_reads_margins(self, monkeypatch):
        # the rate M(r) + A(r) (1 - cos(theta - t(r))) on a curve e^{i theta}.
        # M is the margin of the dip above from the scan point 0.3935 up, and
        # falls by 1e-4 a scan step below it.  At the scan point 0.4137, A is
        # 10 and t half a step off the 128-angle grid, so its least node lies
        # 3.0e-3 above M; at every other scan point A is 0.1 and t a node.  The
        # grid values then rise along the whole scan and show no dip (6.12e-3,
        # 6.30e-3, 4.11e-2 about 0.4137); the margins do (3.3e-3 at 0.4137)
        depth, curvature = 5e-4, 50.0
        scan = np.linspace(0.01, 0.999, 50)

        def sampled(f, r, m, theta, on_grid):
            r, theta = np.asarray(r), np.asarray(theta)
            # 1 at 0.4137, 0 from a scan step off on
            bump = (1 + np.cos(np.pi * np.clip((r - scan[20]) / (scan[1] - scan[0]), -1, 1))) / 2
            margin = curvature * (np.maximum(r, scan[19]) - 0.405) ** 2 - depth - 5e-3 * np.maximum(scan[19] - r, 0)
            rate = margin + (0.1 + 9.9 * bump) * (1 - np.cos(theta - np.pi / 128 * bump))
            curve = np.exp(1j * theta) + 0 * r
            return 1j * rate * curve, curve

        monkeypatch.setattr(radius, "_circle_derivatives", sampled)
        f = full_circle(map_F(), monkeypatch)
        runs = {}
        for every_row in (False, True):
            dips, finished = [], []
            tests, finish, dip_fails = radius._circle_tests, radius._finished, radius._dip_fails
            with monkeypatch.context() as patch:
                if every_row:  # every row refined where it is sampled, as when no row waited
                    patch.setattr(radius, "_circle_tests", lambda f, radii, m, n, name: [
                        finish(t, f, r, m, name) for r, t in zip(radii, tests(f, radii, m, n, name))])
                patch.setattr(radius, "_finished", lambda t, *rest: (
                    finished.append(not math.isnan(t.left)) or finish(t, *rest)))
                patch.setattr(radius, "_dip_fails", lambda test, a, b, tol: dips.append((a, b)) or dip_fails(
                    test, a, b, tol))
                runs[every_row] = radius_search(f, "convexity"), dips, sum(finished)
        (lazy, lazy_dips, lazy_finishes), (eager, eager_dips, _) = runs[False], runs[True]
        edge = 0.405 - math.sqrt((depth - CIRCLE_MIN_TOL) / curvature)
        assert lazy_dips == eager_dips == [(scan[19], scan[21])] and lazy == eager
        assert lazy.r_lo <= edge <= lazy.r_hi
        # the three rows about the dip, and the tests of the dip search, wait
        # for their margins to be read; the other scan rows are never finished
        assert 3 <= lazy_finishes < lazy.circle_tests - 30

    def test_f_alpha_convexity_first_loss(self):
        # the convexity margin of f_alpha(-0.75) is negative on about
        # (0.5803, 0.834) and positive again up to about 0.87; 0.58034786306
        # is its first root (closed-form margin on a dense theta grid with
        # local refinement, brentq to 1e-14), where the slope is -0.49
        res = radius_search(f_alpha(-0.75), "convexity", tol=1e-6)
        assert res.r_hi - res.r_lo <= 1e-6
        assert res.r_lo - CIRCLE_MIN_TOL / 0.49 <= 0.58034786306 <= res.r_hi

    def test_L_starlikeness_bracket_stays_below_the_overshoot(self):
        # root of the closed-form starlikeness margin of L = f_alpha(-1),
        # where the slope is -2.1585; the one parabolic theta step
        # overestimates the sampled minimum there by about 5e-10, so a bracket
        # pressed against the sampled transition would pass the root by more
        # than a circle's allowance of CIRCLE_MIN_TOL / |slope|
        r_true = 0.871854109771851
        res = radius_search(map_L(), "starlikeness", tol=1e-6)
        assert res.r_hi - res.r_lo <= 1e-6
        assert res.r_lo <= r_true + CIRCLE_MIN_TOL / 2.1585
        assert r_true <= res.r_hi


    def test_guard_only_first_loss_is_searched_on_a_finer_grid(self, monkeypatch):
        # on 4096 uniform angles the starlike circles of f_alpha(-0.75) trip
        # the branch guard from r = 0.9964 on, with a margin of +0.0676; the
        # circle tests there double their grids to the 65536-angle cap, and
        # 0.997900 is the root of the margin on 65536 angles (uniform grids
        # forced: clustered ones resolve these circles on 4096 nodes)
        monkeypatch.setattr(radius, "_cluster", lambda f, r: 0.0)
        res = radius_search(f_alpha(-0.75), "starlikeness")
        assert res.grid_theta == 65536
        assert res.r_hi - res.r_lo <= 1e-6
        assert res.r_lo <= 0.997900 <= res.r_hi

    def test_each_test_starts_on_the_finest_grid_so_far(self, monkeypatch):
        # the grid each circle test needs rises and falls with r; every test
        # starts on the largest grid reached before it, and the result
        # reports the largest of all
        starts, ends = [], []

        def grids(f, r, n_theta):
            need = 4096 if 0.3 < r < 0.4 else 512 if r > 0.5 else 128
            starts.append(n_theta)
            ends.append(need)
            return CircleTest(r <= 0.6, 0.6 - r, 2 * math.pi, need)

        monkeypatch.setattr(radius, "_circle_tests", one_at_a_time(grids))
        res = radius_search(map_F(), "convexity", tol=1e-6)
        assert starts == [max([128] + ends[:i]) for i in range(len(ends))]
        assert 512 in ends[ends.index(4096):] and starts[-1] == 4096
        assert res.grid_theta == 4096 and res.circle_tests == len(starts)
        assert res.r_lo <= 0.6 <= res.r_hi and res.r_hi - res.r_lo <= 1e-6

    def test_guard_only_past_the_cap_raises(self, monkeypatch):
        # a circle test returns a guard-only failure only on the cap: the
        # search brackets it once, tests no radius twice, and raises
        calls = []

        def guard_only(f, r, n_theta):
            calls.append((r, n_theta))
            if r < 0.5:
                return CircleTest(True, 1.0, 2 * math.pi, 128)
            return CircleTest(False, 1.0, math.nan, 65536)

        monkeypatch.setattr(radius, "_circle_tests", one_at_a_time(guard_only))
        with pytest.raises(ValueError, match="only on the branch guard on 65536 angles"):
            radius_search(map_F(), "starlikeness", tol=1e-3)
        radii = [r for r, _ in calls]
        assert len(set(radii)) == len(radii)
        first_fail = next(i for i, r in enumerate(radii) if r >= 0.5)
        assert {n for _, n in calls[: first_fail + 1]} == {128}
        assert {n for _, n in calls[first_fail + 1 :]} == {65536}


def rate_tail(f, r, m, n):
    """Largest Fourier coefficient of the rate on the circle's n-node grid at k >= 3n/8, over the largest."""
    grid = (n, radius._cluster(f, r))
    upper, curve = _circle_derivatives(f, r, m, _circle_grid(*grid)[0], grid)
    spectrum = np.abs(np.fft.rfft((upper / curve).imag))
    return spectrum[-(-3 * n // 8):].max() / spectrum.max()


def dense_margin(f, r, m):
    """Least rate on 65536 angles, refined on 2001 angles across the two steps around it."""
    theta = _unit_circle(65536)[0]
    upper, curve = _circle_derivatives(f, r, m, theta, (65536, 0.0))
    k = int(np.argmin((upper / curve).imag))
    local = theta[k] + np.linspace(-theta[1], theta[1], 2001)
    upper, curve = _circle_derivatives(f, r, m, local, False)
    return float(np.min((upper / curve).imag))


SPECTRAL = {
    "map_F": map_F,
    "map_L": map_L,
    "conv(L,L)": SERIES_ONLY["conv(L,L)"],
    "example22": example22,
    "f_alpha(0.5+0.5j)": lambda: f_alpha(0.5 + 0.5j),
}


class TestSpectralGrid:
    """Each circle test doubles its grid until the Fourier tail of its rate chops."""

    @pytest.mark.parametrize("name", sorted(SPECTRAL))
    def test_returned_grid_meets_the_chop_rule(self, name):
        f = SPECTRAL[name]()
        for r in (0.3, 0.6, 0.8):
            for m, test in ((0, starlike_test_at_radius), (1, convex_test_at_radius)):
                res = test(f, r)
                n = res.grid_theta
                assert res.tail <= harmonic._CHOP_TAIL
                assert rate_tail(f, r, m, n) <= harmonic._CHOP_TAIL
                # the grid is the first that chops: half of it does not
                assert n == 128 or rate_tail(f, r, m, n // 2) > harmonic._CHOP_TAIL, (r, m, n)

    @pytest.mark.parametrize("r", [0.25, 0.6])
    def test_starting_grid_does_not_move_the_margin(self, r):
        f = map_F()
        for m, test in ((1, convex_test_at_radius), (0, starlike_test_at_radius)):
            small, large = test(f, r), circle_test(f, r, m, 4096)
            assert small.grid_theta < large.grid_theta == 4096
            assert small.passed == large.passed
            assert abs(small.min_derivative - large.min_derivative) <= 1e-12

    def test_L_margin_at_its_root(self):
        # the 4096-angle grid with one parabolic step read this margin 5e-10
        # too high; the rate needs 8192 uniform angles here, and 1024 nodes
        # clustered at z = 1
        r = 0.871854109771851
        res = starlike_test_at_radius(map_L(), r)
        assert res.grid_theta == 1024
        assert abs(res.min_derivative - dense_margin(map_L(), r, 0)) <= 1e-10

    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_grids_never_shrink_along_the_scan(self, kind, monkeypatch):
        inner, grids = radius._circle_tests, []  # every circle test of the search passes here

        def spy(f, radii, m, n_theta, curve_name):
            # a row of the batched scan starts on the grid the row before it ended on
            rows = inner(f, radii, m, n_theta, curve_name)
            grids.extend(zip([n_theta] + [t.grid_theta for t in rows[:-1]], [t.grid_theta for t in rows]))
            return rows

        monkeypatch.setattr(radius, "_circle_tests", spy)
        res = radius_search(map_F(), kind)
        starts, ends = zip(*grids)
        assert starts[0] == 128 and all(a <= b for a, b in zip(ends, ends[1:]))
        assert starts[1:] == ends[:-1] and res.grid_theta == ends[-1] > 128

    @pytest.mark.parametrize("name", ["map_L", "conv(L,L)"])
    def test_half_and_full_circle_searches_agree(self, name, monkeypatch):
        half = radius_search(MIRRORED[name](), "starlikeness")
        full = radius_search(full_circle(MIRRORED[name](), monkeypatch), "starlikeness")
        assert (half.grid_theta, half.circle_tests) == (full.grid_theta, full.circle_tests)
        assert abs(half.r_lo - full.r_lo) <= 1e-12 and abs(half.r_hi - full.r_hi) <= 1e-12


def dense_min(f, r, m, n=1 << 20, chunk=1 << 16):
    """Least rate on n uniform angles (the nodes 0 <= theta <= pi of a mirrored map), sampled in chunks."""
    top = n // 2 + 1 if f._conjugate_symmetric else n
    least = math.inf
    for i in range(0, top, chunk):
        theta = np.arange(i, min(i + chunk, top)) * (2 * np.pi / n)
        upper, curve = _circle_derivatives(f, r, m, theta, False)
        least = min(least, float(np.min((upper / curve).imag)))
    return least


def uniform_circle_test(f, r, m, n):
    """The circle test at r on uniform angles, written out: the rule every map without a pole keeps.

    One row of ``harmonic._chop_and_double`` sampled through the uniform
    grid (``on_grid`` True), with the rate itself in the branch guard; its
    margin refined only where it may dip below the threshold between nodes.
    """
    mirrored = lambda n: n % 2 == 0 and f._conjugate_symmetric

    def sample(n, first):
        theta = _unit_circle(n)[0]
        th = theta[: n // 2 + 1] if mirrored(n) else theta
        upper, curve = _circle_derivatives(f, np.array([[r]]), m, th, (n, 0.0))
        rate = (upper / curve).imag
        if mirrored(n):
            return np.concatenate([rate, rate[:, -2:0:-1]], axis=1), (curve, rate)
        return rate, tuple(np.concatenate([a, a[:, :1]], axis=1) for a in (curve, rate))

    n, _, rates, steps, oks, tails, drops = next(harmonic._chop_and_double(sample, n))
    rate, k = rates[0], int(np.argmin(rates[0]))
    turning = float((2 if mirrored(n) else 1) * steps[0].sum()) if oks[0] else math.nan
    least = float(rate[k])
    test = CircleTest(radius._verdict(least, turning), least, turning, n, tails[0], float(_unit_circle(n)[0][k]),
                      drops[0], float(rate[k - 1]), float(rate[(k + 1) % n]))
    return test if least - test.drop >= -CIRCLE_MIN_TOL else radius._finished(test, f, r, m, "curve")


CLUSTERED = {
    "map_F": map_F,
    "map_L": map_L,
    "example22": example22,
    "l_hadamard_l": l_hadamard_l,
    "f_alpha(0.5+0.5j)": lambda: f_alpha(0.5 + 0.5j),
}


class TestClusteredGrid:
    """Circle tests of maps with a pole at z = 1 sample at angles clustered there, uniform in s."""

    @pytest.mark.parametrize("n,rho", [(128, 0.5), (1024, 0.75), (4096, 1 - 2.0 ** -9), (255, 0.875)])
    def test_cached_grid_is_the_moebius_trace(self, n, rho):
        theta, unit, weight = _circle_grid(n, rho)
        assert all(not a.flags.writeable for a in (theta, unit, weight))
        with pytest.raises(ValueError, match="read-only"):
            unit[0] = 0
        assert _circle_grid(n, rho)[1] is unit
        s = _unit_circle(n)[0]
        e = np.exp(1j * s)
        # the quotient cancels to 1 - rho at s = pi: its rounding grows by (1 + rho)/(1 - rho) there
        assert np.max(np.abs(unit - (e + rho) / (1 + rho * e))) <= 1e-15 * (1 + rho) / (1 - rho)
        half = (n + 1) // 2  # the nodes 0 <= s < pi; s = pi, on an even grid, is -1 itself
        assert same_bits(unit[:half], np.exp(1j * theta[:half])) and np.all(np.diff(theta) > 0)
        assert n % 2 or (theta[n // 2] == np.pi and unit[n // 2] == -1)
        # E(-s) = conj E(s), bit for bit: node n - j mirrors node j
        assert np.array_equal(unit[1:][::-1], unit[1:].conj()) and same_bits(weight[1:][::-1], weight[1:])
        # theta'(s), against a centred difference of the angles over 2e-6
        slope = (harmonic._clustered_angle(s + 1e-6, rho) - harmonic._clustered_angle(s - 1e-6, rho)) / 2e-6
        assert np.max(np.abs(slope - weight) / weight) <= 1e-6
        assert abs(theta[0]) == 0 and weight[0] == pytest.approx((1 - rho) / (1 + rho), rel=1e-15)

    def test_uniform_grid_is_the_unit_circle(self):
        theta, unit, weight = _circle_grid(512, 0.0)
        assert theta is _unit_circle(512)[0] and unit is _unit_circle(512)[1] and weight is None

    def test_rho_follows_r_and_the_pole(self):
        rule = radius._cluster
        F, E = map_F(), example22()
        assert (F._pole_order, E._pole_order, l_hadamard_l()._pole_order) == (2, 1, 3)
        assert [rule(F, r) for r in (0.49, 0.5, 0.87, 0.99, 0.999)] == [0, 0.5, 0.75, 1 - 2.0 ** -6, 1 - 2.0 ** -9]
        assert [rule(E, r) for r in (0.7, 0.75, 0.87, 0.99)] == [0, 0.5, 0.5, 1 - 2.0 ** -5]
        # no pole, no forms, or Horner evaluators on a map without forms: uniform angles everywhere
        for f in (example21(), g_alpha(0.5), SERIES_ONLY["conv(L,L)"](), horner_twin(F)):
            assert f._pole_order == 0 and rule(f, 0.99) == 0.0

    @pytest.mark.parametrize("name", sorted(CLUSTERED))
    @pytest.mark.parametrize("m", [0, 1], ids=["starlikeness", "convexity"])
    def test_finished_margins_against_dense_minima(self, name, m):
        # a finished margin is a rate value, so never below the true least
        # value; it may not sit above the least of 2^20 uniform angles either
        f = CLUSTERED[name]()
        for r in (0.6, 0.87, 0.95, 0.99):
            t = circle_test(f, r, m, 128)
            assert t.tail <= harmonic._CHOP_TAIL and not math.isnan(t.total_turning), r
            assert t.min_derivative <= dense_min(f, r, m) + 1e-11, r

    @pytest.mark.parametrize("name", ["example21", "M_alpha twin", "horner_twin(F)"])
    def test_maps_without_a_pole_keep_the_uniform_rule(self, name, monkeypatch):
        f = {"example21": example21, "M_alpha twin": SERIES_ONLY["M_alpha twin"],
             "horner_twin(F)": lambda: horner_twin(map_F())}[name]()
        grids, inner = [], harmonic._circle_grid
        monkeypatch.setattr(radius, "_circle_grid", lambda n, rho: grids.append(rho) or inner(n, rho))
        for m in (0, 1):
            for r in (0.3, 0.6, 0.8, 0.9, 0.95):
                got = radius._circle_tests(f, [r], m, 128, "curve")[0]
                want = uniform_circle_test(f, r, m, 128)
                assert got == want or all(a == b or math.isnan(a) and math.isnan(b) for a, b in zip(got, want)), r
        assert grids and set(grids) == {0.0}

    def test_guard_weighs_the_rate_by_the_slope_of_the_angles(self, monkeypatch):
        # F's starlike circle at r = 0.9 on 128 nodes at rho = 0.75: each
        # phase step lies within 0.04 of the trapezoid of theta'(s) times the
        # rate, and 3.7 from that of the rate alone.  Judged there as it
        # stands, it passes the guard and winds once
        monkeypatch.setattr(harmonic, "_MAX_THETA_POINTS", 128)
        t = circle_test(map_F(), 0.9, 0, 128)
        assert t.grid_theta == 128 and t.total_turning == pytest.approx(2 * np.pi, abs=1e-12)

    def test_branch_guard_trips_on_both_paths(self, monkeypatch):
        # F's convex circle at r = 0.99 on 256 clustered nodes may slip a
        # branch: judged there as it stands, the guard fails it on the half
        # and the full circle alike; left to double, both pass it on 512
        f = map_F()
        with monkeypatch.context() as patch:
            patch.setattr(harmonic, "_MAX_THETA_POINTS", 256)
            half, full = circle_test(f, 0.99, 1, 256), circle_test(full_circle(map_F(), patch), 0.99, 1, 256)
        assert math.isnan(half.total_turning) and math.isnan(full.total_turning)
        half, full = circle_test(f, 0.99, 1, 256), circle_test(full_circle(map_F(), monkeypatch), 0.99, 1, 256)
        assert half.grid_theta == full.grid_theta > 256
        assert half.total_turning == pytest.approx(full.total_turning, abs=1e-12)
        assert half.min_derivative == pytest.approx(full.min_derivative, abs=1e-12)

    def test_f_alpha_starlikeness_resolves_at_its_first_loss(self):
        # 0.99790034 is the root of the starlikeness margin of f_alpha(-0.75):
        # 2^20 angles, the least one refined by a bounded scalar search,
        # rooted by brentq.  65536 uniform angles left a tail of 1.3e-2 there
        res = radius_search(f_alpha(-0.75), "starlikeness")
        assert res.r_hi - res.r_lo <= 1e-6 and res.grid_theta <= 8192
        assert res.r_lo <= 0.9979003402 <= res.r_hi
        for r in (res.r_lo, res.r_hi):
            t = starlike_test_at_radius(f_alpha(-0.75), r)
            assert t.tail <= 1e-10 and t.grid_theta <= 4096

    def test_refinement_runs_to_convergence(self):
        # three parabolic steps left conv(L,L)'s starlikeness margin at
        # r = 0.25 1.78e-10 above the least value on 2^18 angles
        f = SERIES_ONLY["conv(L,L)"]()
        assert starlike_test_at_radius(f, 0.25).min_derivative <= dense_min(f, 0.25, 0, 1 << 18)


BATCHED = {
    # conjugate-symmetric closed forms, the half circle
    "map_F": map_F,
    "map_L": map_L,
    "example21": example21,
    "example22": example22,
    "l_hadamard_l": l_hadamard_l,
    # closed forms on the full circle
    "f_alpha(0.424284-0.212434j)": lambda: f_alpha(0.424284 - 0.212434j),
    # series-only: one inverse FFT of all rows
    "conv(L,L)": SERIES_ONLY["conv(L,L)"],
    "M_alpha twin": SERIES_ONLY["M_alpha twin"],
}
# maps whose closed forms may round a row of a batch apart from the same
# radius alone by a few ulp: complex scale factors take numpy's complex
# products, whose SIMD and scalar paths can differ in the last bit
ULP_ROWS = {"f_alpha(0.424284-0.212434j)"}


def batched_calls(f, kind, monkeypatch):
    """``radius_search(f, kind)`` and its batched circle tests: each call's radii, m, start, curve name and rows."""
    calls, inner = [], radius._circle_tests
    monkeypatch.setattr(radius, "_circle_tests",
                        lambda f, radii, *rest: calls.append((radii, *rest, inner(f, radii, *rest))) or calls[-1][-1])
    res = radius_search(f, kind)
    monkeypatch.undo()
    return res, [c for c in calls if len(c[0]) > 1]


def scan_of(f, kind, monkeypatch):
    """The batched scan of ``radius_search(f, kind)``: the first batched call (the confirming pair is batched too)."""
    return batched_calls(f, kind, monkeypatch)[1][0]


def assert_rows_are_single_tests(name, f, radii, m, start, curve_name, rows):
    """Each row equals ``_circle_tests`` of its radius alone, started on the largest grid reached before it."""
    for r, row in zip(radii, rows):
        one = radius._circle_tests(f, [r], m, start, curve_name)[0]
        assert (row.passed, row.grid_theta) == (one.passed, one.grid_theta), r
        for a, b in zip(row[1:3] + row[4:], one[1:3] + one[4:]):
            slack = 4 * np.spacing(abs(b)) if name in ULP_ROWS else 0.0
            assert a == b or abs(a - b) <= slack or (math.isnan(a) and math.isnan(b)), (r, a, b)
        start = max(start, row.grid_theta)


class TestBatchedScan:
    """The upward scan samples its circles as rows of one array per grid."""

    @pytest.mark.parametrize("name", sorted(BATCHED))
    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_rows_equal_one_circle_at_a_time(self, name, kind, monkeypatch):
        f = BATCHED[name]()
        radii, m, start, curve_name, rows = scan_of(f, kind, monkeypatch)
        assert len(rows) >= 10 and not rows[-1].passed
        assert_rows_are_single_tests(name, f, radii, m, start, curve_name, rows)

    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_sampling_calls_of_F(self, kind, monkeypatch):
        # one test per radius sampled F's grids 17 / 35 times, and the batched
        # scan with one-radius tests after it 7 / 10 times; no call may cover
        # more points than one circle at the 65536-angle cap
        points, inner = [], radius._circle_derivatives
        monkeypatch.setattr(radius, "_circle_derivatives", lambda f, r, m, th, on_grid: (
            on_grid and points.append(np.size(r) * th.size)) or inner(f, r, m, th, on_grid))
        res = radius_search(map_F(), kind)
        assert len(points) <= {"convexity": 3, "starlikeness": 6}[kind] < res.circle_tests // 2
        assert max(points) <= harmonic._MAX_THETA_POINTS

    @pytest.mark.parametrize("kind,extra", [("convexity", 0), ("starlikeness", 16)])
    def test_rate_values_beyond_the_tracker_of_F(self, kind, extra, monkeypatch):
        # single rate values outside the tracked margin are the parabolic
        # steps of circle tests: refining every circle took 0 / 87, refining
        # only circles whose verdict may depend on it 0 / 12 with three steps
        # at most, and 0 / 16 with steps until they converge
        calls, inner = [], radius._rate_at
        monkeypatch.setattr(radius, "_rate_at", lambda *args: calls.append(args) or inner(*args))
        res = radius_search(map_F(), kind)
        assert len(calls) - res.point_evals == extra

    @pytest.mark.parametrize("name", sorted(BATCHED))
    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_drop_bounds_the_rate_between_nodes(self, name, kind, monkeypatch):
        # no rate value on a grid 16 times finer lies below an unrefined
        # row's least grid value less its drop
        f = BATCHED[name]()
        radii, m, start, curve_name, rows = scan_of(f, kind, monkeypatch)
        waiting = [(r, t) for r, t in zip(radii, rows) if not math.isnan(t.left)]
        assert waiting and all(t.passed and t.drop > 0 for r, t in waiting)
        for r, t in waiting:
            grid = (16 * t.grid_theta, 0.0)
            upper, curve = _circle_derivatives(f, r, m, _unit_circle(grid[0])[0], grid)
            assert np.min((upper / curve).imag) >= t.min_derivative - t.drop, r

    @pytest.mark.parametrize("name", sorted(BATCHED))
    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_finished_rows_are_the_one_circle_tests(self, name, kind, monkeypatch):
        # each row has the verdict of the public test of its radius, and,
        # finished, the margin and angle of its radius tested alone
        f = BATCHED[name]()
        radii, m, start, curve_name, rows = scan_of(f, kind, monkeypatch)
        public = (starlike_test_at_radius, convex_test_at_radius)[m]
        for r, row in zip(radii, rows):
            assert row.passed == public(f, r).passed, r
            done, alone = radius._finished(row, f, r, m, curve_name), circle_test(f, r, m, start)
            assert math.isnan(done.left) and done.drop == 0 and done.passed == row.passed
            for a, b in ((done.min_derivative, alone.min_derivative), (done.theta_min, alone.theta_min)):
                assert a == b or name in ULP_ROWS and abs(a - b) <= 1e-12 * max(1.0, abs(b)), (r, a, b)
            start = max(start, row.grid_theta)

    def test_rows_past_the_first_loss_raise_nothing(self):
        # the tangent i z (1 + z / r_k) vanishes at r_k, theta = pi, a scan
        # radius far above the first loss at r_k / 2
        r_k = np.linspace(0.01, 0.999, 50)[40]
        f = HarmonicMap(TruncatedSeries(np.array([0, 1, 1 / (2 * r_k)], dtype=complex)), TruncatedSeries(np.zeros(3)))
        with pytest.raises(ValueError, match="tangent vector vanishes"):
            convex_test_at_radius(f, r_k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = radius_search(f, "convexity")
        assert (round(res.r_lo, 6), round(res.r_hi, 6), res.circle_tests) == (0.408673, 0.408674, 4)

    @pytest.mark.parametrize("row,raises", [(8, True), (30, False)])
    def test_a_vanishing_curve_raises_only_where_the_scan_gets(self, row, raises, monkeypatch):
        # F's convexity scan runs from row 3 to its first loss at row 13; the
        # tangent is made to vanish on one scan circle
        r_0 = float(np.linspace(0.01, 0.999, 50)[row])
        inner = radius._circle_derivatives
        monkeypatch.setattr(radius, "_circle_derivatives", lambda f, r, m, th, on_grid: (
            lambda upper, curve: (upper, np.where(np.asarray(r) == r_0, 0 * curve, curve)))(*inner(f, r, m, th, on_grid)))
        if raises:
            with pytest.raises(ValueError, match=re.escape(f"tangent vector vanishes on |z| = {r_0}")):
                radius_search(map_F(), "convexity")
        else:
            got, want = radius_search(map_F(), "convexity"), (monkeypatch.undo(), radius_search(map_F(), "convexity"))[1]
            assert got == want


def full_circle_root(monkeypatch):
    """Searches with the tracker giving up at once: bisection on whole circle tests."""
    monkeypatch.setattr(radius, "_tracked_root", lambda *args, **kwargs: None)


class TestTrackedMargin:
    """The root of the margin follows its minimum in single rate values, confirmed by one batched pair."""

    @pytest.mark.parametrize("name", sorted(BATCHED))
    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_bracket_within_tol_of_the_full_circle_root(self, name, kind, monkeypatch):
        got = radius_search(BATCHED[name](), kind)
        full_circle_root(monkeypatch)
        full = radius_search(BATCHED[name](), kind)
        assert got.point_evals > 0 and full.point_evals == 0
        assert got.circle_tests < full.circle_tests
        assert abs(got.r_lo - full.r_lo) <= got.tol and abs(got.r_hi - full.r_hi) <= got.tol

    @pytest.mark.parametrize("kind,tests", [("convexity", 26), ("starlikeness", 42)])
    def test_a_lost_walk_falls_back_to_bisection(self, kind, tests, monkeypatch):
        # the walk finds the two ends and is lost at the first Brent step;
        # the search then bisects on pass/fail, with 26 / 42 circle tests for
        # F, and lands on the bracket of a tracker that gives up at once,
        # within tol of the tracked one
        tracked = radius_search(map_F(), kind)
        walks, inner = [], radius._tracked_min
        monkeypatch.setattr(radius, "_tracked_min", lambda *args: walks.append(args) or (
            inner(*args) if len(walks) <= 2 else None))
        lost = radius_search(map_F(), kind)
        assert len(walks) == 3 and lost.point_evals > 0
        monkeypatch.undo()
        full_circle_root(monkeypatch)
        full = radius_search(map_F(), kind)
        assert (lost.r_lo, lost.r_hi, lost.grid_theta) == (full.r_lo, full.r_hi, full.grid_theta)
        assert lost.circle_tests == full.circle_tests == tests
        assert abs(lost.r_lo - tracked.r_lo) <= tracked.tol and abs(lost.r_hi - tracked.r_hi) <= tracked.tol

    def test_a_pair_that_disagrees_falls_back_to_bisection(self, monkeypatch):
        # the last scan pass, r = 0.7972, has its least starlike rate at
        # theta = 1.06 and the first fail, r = 0.8173, at theta = 5.55: the
        # tracker roots the branch it starts on, 0.800593, the pair does not
        # confirm it, and bisection finds the first loss at 0.8004678
        f = f_alpha(0.452683 - 0.336233j)
        roots, inner = [], radius._tracked_root
        monkeypatch.setattr(radius, "_tracked_root", lambda *args, **kwargs: roots.append(inner(*args, **kwargs))
                            or roots[-1])
        res = radius_search(f, "starlikeness")
        assert len(roots) == 1 and not res.r_lo <= roots[0] <= res.r_hi
        assert res.circle_tests == 46 and res.r_hi - res.r_lo <= res.tol
        assert circle_test(f, res.r_lo, 0, 8192).passed
        assert not circle_test(f, res.r_hi, 0, 8192).passed

    @pytest.mark.parametrize("kind,tests", [("convexity", 26), ("starlikeness", 42)])
    def test_bisection_tests_through_the_batch_seam(self, kind, tests, monkeypatch):
        # with the tracker giving up at once, F's search bisects: each radius
        # is one call of _circle_tests, and no public circle test is reached
        full_circle_root(monkeypatch)
        want = radius_search(map_F(), kind)

        def refuse(*args, **kwargs):
            raise AssertionError("radius_search called a public circle test")

        monkeypatch.setattr(radius, "convex_test_at_radius", refuse)
        monkeypatch.setattr(radius, "starlike_test_at_radius", refuse)
        got = radius_search(map_F(), kind)
        assert got == want and (got.circle_tests, got.point_evals) == (tests, 0)
        assert got.r_lo <= {"convexity": R_CONVEX, "starlikeness": R_STAR}[kind] <= got.r_hi

    def test_a_walk_goes_downhill_to_an_interior_minimum(self):
        # rate 1 - cos(theta - 0.05) from theta = 0 on steps of 0.01: strides
        # of 0.02 and 0.04 reach 0.03 and 0.07, which hold the minimum between
        # them, and the parabolic step lands on it; the walk moved, so 0.04 and
        # 0.06 bracket that point again, and the walk from it stays put
        calls = []
        value, angle = radius._tracked_min(lambda th: calls.append(th) or 1 - math.cos(th - 0.05), 0.0, 0.01)
        assert calls == pytest.approx([-0.01, 0.0, 0.01, 0.03, 0.07, 0.05, 0.04, 0.06], abs=1e-15)
        assert angle == pytest.approx(0.05, abs=1e-7) and value <= 1e-14
        # no interior minimum within half a turn, or a nan: lost
        assert radius._tracked_min(lambda th: -th, 0.0, 0.01) is None
        assert radius._tracked_min(lambda th: math.nan, 0.0, 0.01) is None

    def test_a_long_walk_is_bracketed_again_on_the_step(self):
        # rate 1 - cos(theta - 1) from theta = 0 on steps of 0.01: strides up
        # to 1.28 reach the minimum, and three parabolic steps through points
        # that far apart stop at 0.99997, 4.6e-10 above it; bracketed again on
        # the step, the point is walked from and refined onto the minimum
        value, angle = radius._tracked_min(lambda th: 1 - math.cos(th - 1), 0.0, 0.01)
        assert value <= 1e-15 and angle == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_rate_at_theta_min_reproduces_the_margin(self, name):
        f = BATCHED[name]()
        for m, test, what in ((0, starlike_test_at_radius, "map"), (1, convex_test_at_radius, "tangent vector")):
            for r in (0.3, 0.6, 0.9):
                t = test(f, r)
                rate = radius._rate_at(f, r, m, t.theta_min, what)
                # a refined minimum is that value; a grid minimum came from the
                # grid's sampler, which rounds apart from one point's
                assert abs(rate - t.min_derivative) <= 1e-12 * max(1.0, abs(t.min_derivative)), (r, m)

    @pytest.mark.parametrize("name", sorted(BATCHED))
    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_confirming_pair_equals_two_single_tests(self, name, kind, monkeypatch):
        f = BATCHED[name]()
        res, (scan, pair) = batched_calls(f, kind, monkeypatch)
        radii, m, start, curve_name, rows = pair
        assert radii == [res.r_lo, res.r_hi] and [t.passed for t in rows] == [True, False]
        assert_rows_are_single_tests(name, f, *pair)


class TestRefinementPoint:
    """The one off-grid angle of a circle test is sampled as a scalar."""

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_scalar_matches_a_one_element_array(self, name):
        f = MIRRORED[name]()
        for m in (0, 1):
            for r in (0.3, 0.95):
                got = _circle_derivatives(f, r, m, np.float64(1.234), False)
                want = _circle_derivatives(f, r, m, np.array([1.234]), False)
                assert all(np.ndim(a) == 0 for a in got)
                for a, b in zip(got, want):
                    assert abs(a - b[0]) <= 1e-14 * abs(b[0])

    def test_closed_forms_take_a_python_complex(self):
        kinds = set()
        spy = map_F()
        vars(spy)["exact"] = {w: (lambda fn: lambda z: kinds.add(type(z)) or fn(z))(fn) for w, fn in spy.exact.items()}
        convex_test_at_radius(spy, 0.2)
        starlike_test_at_radius(spy, 0.2)
        assert kinds == {np.ndarray, complex}


def dilation(f, r):
    """f(rz)/r as a series-only map: coefficients a_n r^(n-1) and b_n r^(n-1)."""
    def scaled(s):
        return TruncatedSeries(s.coeffs * r ** (np.arange(s.order + 1) - 1.0))

    return HarmonicMap(scaled(f.h), scaled(f.g))


KINDS = (("convexity", 1), ("starlikeness", 0))  # kind, and the coefficient sum that certifies it


class TestCertifiedStart:
    """The scan starts at the last scan radius the coefficient sums certify."""

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    @pytest.mark.parametrize("kind,which", KINDS)
    def test_root_of_the_dilated_sum(self, name, kind, which):
        f = MIRRORED[name]()
        r_cert = radius._certified_radius(f, kind)
        assert 0.05 < r_cert < 0.5
        passes = [coefficient_sum_orders(dilation(f, r_cert * s))[which].passed for s in (1 - 1e-6, 1 + 1e-6)]
        assert passes == [True, False]

    def test_measured_radii(self):
        assert radius._certified_radius(map_F(), "convexity") == pytest.approx(0.0903330742578, abs=1e-11)
        assert radius._certified_radius(map_F(), "starlikeness") == pytest.approx(0.164877651517, abs=1e-11)
        # example21 is a cubic: 4r + 3r^2 = 1 and 2r + r^2 = 1
        assert radius._certified_radius(example21(), "convexity") == pytest.approx((math.sqrt(7) - 2) / 3, abs=1e-11)
        assert radius._certified_radius(example21(), "starlikeness") == pytest.approx(math.sqrt(2) - 1, abs=1e-11)

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_skipped_circles_pass(self, name, kind):
        f = MIRRORED[name]()
        grid = np.linspace(0.01, 0.999, 50)
        skipped = grid[grid <= radius._certified_radius(f, kind)][:-1]
        assert skipped.size >= 2
        test = convex_test_at_radius if kind == "convexity" else starlike_test_at_radius
        assert all(test(f, r).passed for r in skipped)

    @pytest.mark.parametrize("name", sorted(MIRRORED) + ["f_alpha(-0.75)"])
    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_brackets_match_the_full_scan(self, name, kind, monkeypatch):
        # f_alpha(-0.75): a first loss with re-entry above it (convexity) and
        # the guard rerun on 16384 angles (starlikeness)
        f = MIRRORED[name]() if name in MIRRORED else f_alpha(-0.75)
        got = radius_search(f, kind)
        monkeypatch.setattr(radius, "_certified_radius", lambda f, kind: 0.0)
        full = radius_search(f, kind)
        assert (got.r_lo, got.r_hi, got.grid_theta) == (full.r_lo, full.r_hi, full.grid_theta)
        assert full.r_certified == 0.0 and got.circle_tests <= full.circle_tests

    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_fully_certified_map_takes_one_test(self, kind):
        res = radius_search(g_alpha(0.3), kind)
        assert res.upper_limit_hit and res.circle_tests == 1
        assert res.r_certified == 1.0 and res.r_lo == 0.999

    def test_b1_certifies_nothing(self):
        f = b1_map()
        assert radius._certified_radius(f, "starlikeness") == 0.0
        assert radius_search(f, "starlikeness").r_certified == 0.0

    def test_tail_beyond_the_trusted_term_certifies_nothing_there(self):
        # at degree 16 the last stored term 16^3 r^15 of F reaches 1e-16 at r = 0.0653,
        # below the root 0.0903 of the sum: the certificate stops there
        top = (1e-16 / 16 ** 3) ** (1 / 15)
        assert radius._certified_radius(map_F(16), "convexity") == pytest.approx(top, rel=1e-12)

    def test_failing_certified_circle_raises(self, monkeypatch):
        # the sums certify example21's convexity up to 0.2153; the scan starts at 0.2118
        def fails_below(f, r, n_theta):
            return CircleTest(r > 0.3, 1.0 if r > 0.3 else -1.0, 2 * math.pi)

        monkeypatch.setattr(radius, "_circle_tests", one_at_a_time(fails_below))
        with pytest.raises(ValueError, match="below the radius .* that the coefficient sums certify"):
            radius_search(example21(), "convexity")


class TestPolynomials:
    def test_p_at_minus_one_factors(self):
        rng = np.random.default_rng(12)
        for r in rng.uniform(0.01, 0.99, 100):
            assert polynomial_p(r, -1.0) == pytest.approx(
                (1 + r) ** 6 * (1 - 4 * r + r * r), abs=1e-12)

    def test_q_at_endpoints(self):
        rng = np.random.default_rng(13)
        for r in rng.uniform(0.01, 0.99, 100):
            assert polynomial_q(r, -1.0) == pytest.approx((1 + r) ** 4, abs=1e-12)
            assert polynomial_q(r, 1.0) == pytest.approx((1 - r) ** 4, abs=1e-12)

    @pytest.mark.parametrize("poly", [polynomial_p, polynomial_q], ids=["p", "q"])
    def test_scalar_path_is_the_array_path(self, poly):
        rng = np.random.default_rng(14)
        rs = rng.uniform(0.001, 0.999, 200)
        us = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1, 1, 197)])
        grid = poly(rs, us)
        assert grid.shape == rs.shape
        for r, u, value in zip(rs.tolist(), us.tolist(), grid):
            scalar = poly(r, u)
            assert type(scalar) is float
            assert scalar == value
            assert scalar == poly(r, np.array([u]))[0]
        # an array r against a scalar u broadcasts as well
        assert np.array_equal(poly(rs, 0.25), poly(rs, np.full(rs.shape, 0.25)))

    def test_q_interior_minimum_is_critical(self):
        r = 0.7
        u = _q_interior_min_location(r)
        dq = -2 * r * (1 + r * r) + 16 * r * r * u - 6 * r * (1 + r * r) * u * u
        assert abs(dq) < 1e-10
        # second derivative positive: a genuine local minimum
        assert 16 * r * r - 12 * r * (1 + r * r) * u > 0

    def test_q_min_location_needs_radicand(self):
        with pytest.raises(ValueError):
            _q_interior_min_location(0.3)

    def test_p_sign_flip_at_convexity_radius(self):
        u = np.linspace(-1, 1, 2001)
        assert np.min(polynomial_p(R_CONVEX - 1e-3, u)) >= 0
        assert np.min(polynomial_p(R_CONVEX + 1e-3, u)) < 0

    def test_q_sign_flip_at_starlikeness_radius(self):
        u = np.linspace(-1, 1, 2001)
        assert np.min(polynomial_q(R_STAR - 1e-3, u)) >= 0
        assert np.min(polynomial_q(R_STAR + 1e-3, u)) < 0

    def test_starlike_margin_root_matches_closed_form(self):
        assert _starlike_margin(R_STAR) == pytest.approx(0.0, abs=1e-12)

    def test_p_roots_increase_with_u(self):
        # sampled, not certified: the first vanishing radius of p grows with
        # u, so u = -1 is the binding direction
        roots = [p_root_in_radius(u) for u in np.linspace(-1.0, 0.9, 30)]
        assert all(b > a for a, b in zip(roots, roots[1:]))
        assert roots[0] == pytest.approx(R_CONVEX, abs=1e-12)

    def test_p_root_domain(self):
        with pytest.raises(ValueError):
            p_root_in_radius(1.0)


class TestTangentIdentities:
    @pytest.mark.parametrize("r,u", [(0.2, 0.3), (0.5, -0.5), (0.35, 0.7), (0.8, -0.2)])
    def test_residuals_small(self, r, u):
        res = identity_check_tangent(r, u)
        assert res.convex < 1e-5
        assert res.starlike < 1e-5

    def test_grid_excluding_poles(self):
        # the claim grid, one point at a time: no point is skipped
        for r in np.linspace(0.05, 0.95, 20):
            for u in np.linspace(-0.95, 0.95, 20):
                res = identity_check_tangent(float(r), float(u))
                assert res.convex <= 1e-12 and res.starlike <= 1e-12

    @pytest.mark.parametrize("r", [0.001, 0.1, 0.5, 0.9, 0.999])
    def test_u_endpoints(self, r):
        # sin theta = 0: the tangents' prefactors vanish, the identities hold
        res = identity_check_tangent(r, np.array([-1.0, 1.0]))
        assert res.convex <= 1e-12 and res.starlike <= 1e-12

    @pytest.mark.parametrize("r", [0.001, 0.1, 0.5, 0.9, 0.999])
    def test_tan_phi_pole(self, r):
        # Re F = r [(1 + r^2) u - 2r] / |1-z|^4 vanishes at u = 2r/(1+r^2)
        res = identity_check_tangent(r, 2 * r / (1 + r * r))
        assert res.convex <= 1e-12 and res.starlike <= 1e-12

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.9, 0.999])
    def test_tan_psi_pole(self, r):
        # Re d1 vanishes where (1 - 6r^2 + r^4) + 2r(1 + r^2) u does, inside
        # [-1, 1] from r = sqrt(2) - 1 on
        u = -(1 - 6 * r * r + r ** 4) / (2 * r * (1 + r * r))
        assert -1 <= u <= 1
        res = identity_check_tangent(r, u)
        assert res.convex <= 1e-12 and res.starlike <= 1e-12

    def test_broadcast_grid(self):
        res = identity_check_tangent(np.linspace(0.001, 0.999, 200)[:, None], np.linspace(-1, 1, 201))
        assert res.convex <= 1e-12 and res.starlike <= 1e-12

    def test_largest_residual_over_the_points(self):
        r, u = np.array([0.2, 0.9, 0.6]), np.array([0.3, -1.0, 0.99])
        one = [identity_check_tangent(a, b) for a, b in zip(r, u)]
        res = identity_check_tangent(r, u)
        assert res.convex == max(x.convex for x in one)
        assert res.starlike == max(x.starlike for x in one)

    @pytest.mark.parametrize("r,u", [(0.0, 0.5), (1.0, 0.5), (-0.5, 0.0), (0.5, 1.0 + 1e-12), (0.5, -1.5),
                                     (0.5, math.nan), (np.array([0.5, 1.2]), 0.0)])
    def test_outside_the_domain_raises(self, r, u):
        with pytest.raises(ValueError, match="0 < r < 1"):
            identity_check_tangent(r, u)


class TestSpecialRadii:
    def test_convexity_constant(self):
        sp = solve_special_radii()
        assert sp.r_convex == pytest.approx(R_CONVEX, abs=1e-12)

    def test_starlikeness_constant(self):
        sp = solve_special_radii()
        assert sp.r_star == pytest.approx(R_STAR, abs=1e-10)

    def test_class_level_constants(self):
        sp = solve_special_radii()
        assert sp.r_close_to_convex_star == pytest.approx(0.65685424949238, abs=1e-11)
        assert sp.r_close_to_convex_convex == pytest.approx(R_CONVEX, abs=1e-15)

    def test_ordering_sandwich(self):
        sp = solve_special_radii()
        assert sp.r_close_to_convex_star <= sp.r_star
        assert sp.r_convex < sp.r_close_to_convex_star


class TestBracketedRoot:
    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x * x + 1, -1.0, 1.0),
        (lambda x: x * x - 0.25, -1.0, 1.0),  # two roots, no sign change at the ends
        (lambda x: -1.0, 0.0, 1.0),
    ])
    def test_no_sign_change_raises(self, f, a, b):
        with pytest.raises(ValueError):
            _bracketed_root(f, a, b, 1e-12)

    def test_endpoint_roots_come_back_exactly(self):
        assert _bracketed_root(lambda x: x - 0.3, 0.3, 1.0, 1e-12) == 0.3
        assert _bracketed_root(lambda x: x - 0.3, -1.0, 0.3, 1e-12) == 0.3
        # a double root at an end has no sign change, but is still a root
        assert _bracketed_root(lambda x: x * x, 0.0, 1.0, 1e-12) == 0.0

    def test_bracket_shrinks_on_a_step(self):
        # interpolation is useless on a jump; the bracket must still close in
        # on it, to xtol + 4 eps |x|
        x = _bracketed_root(lambda t: -1.0 if t < 0.3 else 1.0, 0.0, 1.0, 1e-12)
        assert abs(x - 0.3) <= 1e-12 + 4 * math.ulp(1.0) * 0.3

    def test_p_roots_match_brentq(self):
        us = np.linspace(-1.0, 0.95, 40)
        roots = [p_root_in_radius(u) for u in us]
        ref = [brentq(lambda r: polynomial_p(r, u), 0.0, 1.0, xtol=1e-14) for u in us]
        assert max(abs(a - b) for a, b in zip(roots, ref)) <= 1e-14
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_evaluations_against_brentq(self, monkeypatch):
        # the 40 p roots of the radii suite and the 2 special radii, counted
        # at their real call sites and re-solved by brentq on the same brackets
        calls = []
        original = radius._bracketed_root

        def counted(f, a, b, xtol):
            n = [0]

            def g(x):
                n[0] += 1
                return f(x)

            calls.append((f, a, b, xtol, n))
            return original(g, a, b, xtol)

        monkeypatch.setattr(radius, "_bracketed_root", counted)
        for u in np.linspace(-1.0, 0.95, 40):
            p_root_in_radius(u)
        solve_special_radii()
        assert len(calls) == 42
        ours = sum(n[0] for *_, n in calls)
        theirs = sum(brentq(f, a, b, xtol=xtol, full_output=True)[1].function_calls
                     for f, a, b, xtol, _ in calls)
        assert ours <= 1.5 * theirs
