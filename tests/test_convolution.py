import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import same_coeffs
from hmap.catalog import f_alpha, l_hadamard_l, map_F, map_L, parse_function, shear_vertical
from hmap.convolution import (
    convex_combination_convolve,
    hadamard,
    hadamard_series,
    tilde_dilatation,
    tilde_dilatation_check,
)
from hmap import convolution, harmonic
from hmap.harmonic import HarmonicMap, dilatation
from hmap.radius import radius_search
from hmap.series import ClosedForm, TruncatedSeries, make_generator


class TestHadamard:
    def test_half_plane_square_coefficients(self):
        L = map_L(32)
        prod = hadamard(L, L)
        n = np.arange(1, 33)
        assert np.array_equal(prod.h.coeffs[1:].real, ((n + 1) / 2) ** 2)
        assert np.array_equal(prod.g.coeffs[1:].real, ((n - 1) / 2) ** 2)
        assert np.all(prod.h.coeffs[1:].imag == 0)

    def test_all_ones_is_identity(self):
        ones = TruncatedSeries(np.concatenate([[0], np.ones(32)]).astype(complex))
        e = HarmonicMap(ones, ones)
        for f in (map_F(32), f_alpha(0.3 + 0.4j, 32)):
            prod = hadamard(f, e)
            assert np.array_equal(prod.h.coeffs, f.h.coeffs)
            assert np.array_equal(prod.g.coeffs, f.g.coeffs)

    def test_conjugate_pair_product_equals_square(self):
        LL = hadamard(map_L(32), map_L(32))
        for alpha in (1, -1, 1j):
            prod = hadamard(f_alpha(alpha, 32), f_alpha(np.conj(alpha), 32))
            assert np.array_equal(prod.h.coeffs, LL.h.coeffs)
            assert np.array_equal(prod.g.coeffs, LL.g.coeffs)

    def test_unimodular_pair_product_close(self):
        LL = hadamard(map_L(32), map_L(32))
        alpha = np.exp(1j * math.pi / 7)
        prod = hadamard(f_alpha(alpha, 32), f_alpha(np.conj(alpha), 32))
        assert same_coeffs(prod.h, LL.h, tol=1e-12)
        assert same_coeffs(prod.g, LL.g, tol=1e-12)

    def test_matches_catalog_closed_form_map(self):
        LL = hadamard(map_L(32), map_L(32))
        cat = l_hadamard_l(32)
        assert same_coeffs(LL.h, cat.h, tol=0) and same_coeffs(LL.g, cat.g, tol=0)

    def test_normalization_preserved(self):
        prod = hadamard(map_F(16), map_L(16))
        assert prod.h.coefficient(1) == 1
        assert prod.h.coefficient(0) == 0

    def test_result_truncates_to_min_order(self):
        prod = hadamard(map_F(16), map_L(32))
        assert prod.order == 16

    def test_self_product_coefficients_escape_family_bound(self):
        # a_3 of the self-product is 4, above the in-family bound (3+1)/2 = 2
        prod = hadamard(f_alpha(1, 16), f_alpha(1, 16))
        assert abs(prod.h.coefficient(3)) == 4.0 > 2.0


class TestClosedProducts:
    """Maps built from closed forms multiply their forms, so their product keeps closed forms."""

    @pytest.mark.parametrize("text", ["conv(L,L)", "conv(F,L)", "conv(example22,F)", "conv(f_alpha:0.3,-0.4,L)"])
    def test_product_of_forms_has_closed_forms(self, text):
        assert parse_function(text).exact is not None

    def test_log_times_log_is_series_only(self):
        assert parse_function("conv(example22,example22)").exact is None

    def test_half_plane_square_near_the_circle(self):
        # (z - 3 z^2/4 + z^3/4)/(1 - z)^3 at 0.95; the degree-64 series gives 2544.24
        assert parse_function("conv(L,L)").h_at(0.95) == pytest.approx(3899.75, rel=1e-9)

    @pytest.mark.parametrize("kind", ["convexity", "starlikeness"])
    def test_radii_match_a_degree_2048_series(self, kind):
        F, L = map_F(2048), map_L(2048)
        series = HarmonicMap(hadamard_series(F.h, L.h), hadamard_series(F.g, L.g))
        tol = 1e-6
        closed, deep = radius_search(parse_function("conv(F,L)"), kind, tol), radius_search(series, kind, tol)
        assert abs(closed.r_lo - deep.r_lo) <= tol and abs(closed.r_hi - deep.r_hi) <= tol

    @pytest.mark.parametrize("order", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize("text", ["conv(conv(L,L),conv(L,L))", "conv(conv(conv(L,L),conv(L,L)),conv(L,L))"])
    def test_products_of_products_build(self, text, order):
        # coefficients growing like n^8 and n^12: the agreement check allows each route its exact tail
        f = parse_function(text, order)
        assert f.exact is not None and f.order == order

    def test_products_of_products_are_checked_on_their_tails(self):
        # each route may stray 1e-8 plus twice the exact tail of its series at
        # |z| = 1/2: at most 2.7e-6 here (for d2h), where the growth of the
        # last coefficients allowed 4.82
        f = parse_function("conv(conv(conv(L,L),conv(L,L)),conv(L,L))", 64)
        assert max(harmonic._agreement_allowances(f)) < 1e-5
        exact = dict(f.exact)
        for route in exact:
            right = exact[route]
            vars(f)["exact"] = {**exact, route: lambda z: right(z) + 1e-5}
            with pytest.raises(ValueError, match=f"closed-form {route} disagrees with its series"):
                harmonic._check_exact_agreement(f)

    def test_agreement_check_catches_a_shifted_log_part(self):
        f = parse_function("conv(example22,F)")
        h, g, alpha = f.forms
        assert g.log
        off = ClosedForm(g.num, g.k, g.log + 1e-6)
        with pytest.raises(ValueError, match="closed-form g disagrees with its series"):
            HarmonicMap(f.h, f.g, (h, off, alpha))


complexes = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
coeffs9 = st.lists(complexes, min_size=9, max_size=9)


class TestHadamardAlgebra:
    @given(coeffs9, coeffs9)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, ca, cb):
        # numpy's vectorized complex product commutes only up to 1 ulp
        a, b = TruncatedSeries(ca), TruncatedSeries(cb)
        lhs = hadamard_series(a, b)
        scale = max(1.0, float(np.max(np.abs(lhs.coeffs))))
        assert same_coeffs(lhs, hadamard_series(b, a), tol=1e-15 * scale)

    @given(coeffs9, coeffs9, coeffs9)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, ca, cb, cc):
        a, b, c = TruncatedSeries(ca), TruncatedSeries(cb), TruncatedSeries(cc)
        lhs = hadamard_series(hadamard_series(a, b), c)
        rhs = hadamard_series(a, hadamard_series(b, c))
        assert same_coeffs(lhs, rhs, tol=1e-12 * max(1.0, float(np.max(np.abs(lhs.coeffs)))))


class TestConvexCombination:
    def test_beta_zero_kills_coanalytic_part(self):
        phi = make_generator("half_plane_l", 16)
        out = convex_combination_convolve(phi, 0.0, map_F(16))
        assert np.allclose(out.g.coeffs, 0)
        assert np.array_equal(out.h.coeffs, map_F(16).h.coeffs)

    def test_half_plane_phi_is_identity(self):
        phi = make_generator("half_plane_l", 16)
        F = map_F(16)
        out = convex_combination_convolve(phi, 1.0, F)
        assert np.array_equal(out.h.coeffs, F.h.coeffs)
        assert np.array_equal(out.g.coeffs, F.g.coeffs)

    def test_origin_derivative_dominance(self):
        phi = make_generator("half_plane_l", 16)
        for beta in (1.0, -0.5, 0.8j):
            for f in (map_F(16), f_alpha(0.9j, 16)):
                out = convex_combination_convolve(phi, beta, f)
                assert abs(out.g.coefficient(1)) < abs(out.h.coefficient(1))

    def test_beta_conjugation(self):
        phi = TruncatedSeries(np.r_[0, 1 / np.sqrt(np.arange(1.0, 17))])  # a_n = 1/sqrt(n)
        beta = 0.3 + 0.4j
        f = f_alpha(0.6 - 0.7j, 16)
        out = convex_combination_convolve(phi, beta, f)
        assert out.g.coefficient(2) == pytest.approx(np.conj(beta) * phi.coefficient(2) * f.g.coefficient(2))
        # H = phi*h and G = conj(beta)(phi*g), formed by hand, within a few ulp
        assert np.array_equal(out.h.coeffs, phi.coeffs * f.h.coeffs)
        G = np.conj(beta) * (phi.coeffs * f.g.coeffs)
        assert np.all(np.abs(out.g.coeffs - G) <= 4 * np.spacing(np.abs(G)))
        assert out.label == f"(combination)*({f.label})"

    def test_phi_must_be_normalized(self):
        bad = TruncatedSeries(np.array([0, 2, 0], dtype=complex))
        almost = TruncatedSeries(np.array([0, 1 + 1e-13, 0.5], dtype=complex))  # within HarmonicMap's 1e-12
        for phi in (bad, almost):
            with pytest.raises(ValueError, match="phi must be normalized"):
                convex_combination_convolve(phi, 0.5, map_F(16))


class TestTildeDilatation:
    def test_zero_at_origin(self):
        assert tilde_dilatation(0j, 1, 0.0) == 0

    def test_n2_collapses_to_eps_z_squared(self):
        # for n = 2 the closed form reduces to e^{i theta} z^2
        rng = np.random.default_rng(9)
        z = 0.95 * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        for theta in (0.0, 1.1, math.pi):
            eps = np.exp(1j * theta)
            assert np.max(np.abs(tilde_dilatation(z, 2, theta) - eps * z * z)) < 1e-12

    def test_point_value_inside(self):
        assert abs(tilde_dilatation(0.9 + 0j, 2, 0.0)) == pytest.approx(0.81, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("theta", [0.0, 1.1, math.pi])
    def test_products_match_complex_powers(self, n, theta):
        # the closed form as written with numpy's complex power
        z = harmonic._polar_grid(0.999, 64, 256)
        eps = np.exp(1j * theta)
        w = eps * z ** n
        wp = n * eps * z ** (n - 1)
        mid = w - 0.5 * wp * z
        ref = z * (w * w + mid + 0.5 * wp) / (1 + mid + 0.5 * wp * z * z)
        out = tilde_dilatation(z, n, theta)
        assert out.shape == z.shape
        assert np.all(np.abs(out - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
        scalar = tilde_dilatation(complex(z[40, 17]), n, theta)
        assert type(scalar) is complex
        assert abs(scalar - out[40, 17]) <= 1e-15 * max(1.0, abs(out[40, 17]))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n >= 1"):
            tilde_dilatation(0.5j, 0, 0.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi])
    def test_grid_max_below_one(self, n, theta):
        rep = tilde_dilatation_check(n, theta)
        assert rep.passed
        assert rep.max_abs < 1.0

    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi])
    def test_cross_check_against_product_series(self, theta):
        for n in (1, 2):
            rep = tilde_dilatation_check(n, theta)
            assert rep.cross_check_passed
            assert rep.cross_check_max_err < 1e-6

    @pytest.mark.parametrize("n,theta", [(1, 0.0), (2, math.pi / 3), (1, math.pi)])
    def test_cross_check_at_degree_2048(self, monkeypatch, n, theta):
        # the shear's division takes about sqrt(N) numpy calls for these
        # one-term dilatations; a cubic inverse takes seconds per case at
        # 2048, so a return of it shows in the suite's time
        monkeypatch.setattr(convolution, "_CROSS_ORDER", 2048)
        rep = tilde_dilatation_check(n, theta)
        assert rep.cross_check_passed
        assert rep.cross_check_max_err < 1e-6

    def test_cross_check_builds_no_map_with_closed_forms(self, monkeypatch):
        # the product reads only F's coefficients: its closed forms, and
        # their agreement check, would be thrown away
        calls = []
        monkeypatch.setattr(harmonic, "_check_exact_agreement", calls.append)
        rep = tilde_dilatation_check(2, math.pi / 3)
        assert rep.cross_check_passed
        assert calls == []

    def test_cross_check_samples_the_product_without_horner(self, monkeypatch):
        # the product's h' and g' are sampled on the grid by inverse FFT; the one
        # series evaluated is the shear's guard on w = e^{i theta} z^2
        products, evaluated, derived = [], [], []
        monkeypatch.setattr(convolution, "hadamard", lambda f, F: products.append(hadamard(f, F)) or products[-1])
        evaluate, differentiate = TruncatedSeries.evaluate, TruncatedSeries.differentiate
        monkeypatch.setattr(TruncatedSeries, "evaluate", lambda s, z: evaluated.append(s) or evaluate(s, z))
        monkeypatch.setattr(TruncatedSeries, "differentiate",
                            lambda s, times=1: derived.append((s, differentiate(s, times))) or derived[-1][1])
        rep = tilde_dilatation_check(2, math.pi / 3)
        assert rep.cross_check_passed
        (prod,) = products
        built = [d for s, d in derived if s is prod.h or s is prod.g]
        assert prod.exact is None and {id(s) for s, _ in derived} >= {id(prod.h), id(prod.g)}
        assert not any(s is t for s in evaluated for t in [prod.h, prod.g, *built])
        assert [np.flatnonzero(s.coeffs).tolist() for s in evaluated] == [[2]]

    def test_direct_product_dilatation_matches(self):
        # independent reconstruction at one point, all plumbing inlined
        order = 256
        theta, n = math.pi / 5, 1
        w = np.zeros(order + 1, dtype=complex)
        w[n] = np.exp(1j * theta)
        right = shear_vertical(make_generator("half_plane_l", order), TruncatedSeries(w))
        prod = hadamard(map_F(order), right)
        z = 0.5 * np.exp(0.7j)
        assert abs(dilatation(prod, z) - tilde_dilatation(z, n, theta)) < 1e-10

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            tilde_dilatation_check(3, 0.0)


class TestHalfPlaneCrossProduct:
    # L*F has real coefficients, so f(conj z) = conj(f(z)): any non-real point
    # with a real image collides with its conjugate.  Im(h+g) changes sign on
    # the circle r = 0.9, and a root-find there pins an exact collision pair,
    # falsifying injectivity even though the product stays sense-preserving.

    def _build(self, order=512):
        prod = hadamard(map_L(order), map_F(order))
        return prod

    def test_coefficients(self):
        prod = self._build(32)
        n = np.arange(1, 33)
        assert np.allclose(prod.h.coeffs[1:], ((n + 1) / 2) ** 2)
        assert np.allclose(prod.g.coeffs[1:], -(((n - 1) / 2) ** 2))

    def test_sense_preserving_but_not_injective(self):
        from scipy.optimize import brentq

        from hmap.harmonic import injectivity_sample_check, sense_preserving_check

        prod = self._build()

        def im_h_plus_g(th, r=0.9):
            z = r * np.exp(1j * th)
            return float(np.imag((z * (1 + z) ** 2 / (1 - z) ** 3
                                  + 2 * z / (1 - z) ** 2 + z / (1 - z)) / 4))

        th_star = brentq(im_h_plus_g, 1.5, 1.6, xtol=1e-15)
        z_star = 0.9 * np.exp(1j * th_star)

        sp = sense_preserving_check(prod, 0.9)
        assert sp.passed
        rep = injectivity_sample_check(prod, 0.95, include=(z_star, np.conj(z_star)))
        assert rep.collision
        assert rep.min_image_distance < 1e-12
