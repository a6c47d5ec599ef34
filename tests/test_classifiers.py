import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad  # reference quadrature; hmap itself must not import it

from hmap import harmonic
from hmap.catalog import example21, f_alpha, g_alpha, make_M_alpha_member, map_F
from hmap.classifiers import (
    _fe_circle,
    _kaplan_steps,
    _kaplan_sweep,
    _worst_subarc,
    area_series,
    coefficient_relation_residual,
    growth_bound,
    kaplan_integral_check,
    kaplan_integrand,
    coefficient_sum_orders,
    m_alpha_check,
    poisson_kernel,
    analytic_part_classify,
    family_bounds_check,
)
from hmap.harmonic import HarmonicMap, SingularPointError, _unit_circle, jacobian
from hmap.series import TruncatedSeries, make_generator


def padded(coeffs, order=16):
    c = np.zeros(order + 1, dtype=complex)
    c[: len(coeffs)] = coeffs
    return TruncatedSeries(c)


def degree_512_twin_of_F() -> HarmonicMap:
    """F's coefficients to degree 512, without closed forms: the member with h = (L + K)/2 and alpha = 1."""
    return make_M_alpha_member(0.5 * (make_generator("half_plane_l", 512) + make_generator("koebe_k", 512)), 1.0)


class TestLemma13:
    def test_quarter_square_order(self):
        f = HarmonicMap(padded([0, 1, 0.25]), padded([0]))
        rep1, rep2 = coefficient_sum_orders(f)
        assert rep1.passed and rep1.condition_value == 0.5
        assert rep1.order_starlike == pytest.approx(0.4, abs=1e-15)

    def test_identity_is_degenerate(self):
        f = HarmonicMap(padded([0, 1]), padded([0]))
        rep1, rep2 = coefficient_sum_orders(f)
        assert rep1.passed and rep1.degenerate
        assert rep1.order_starlike < 1.0  # capped into [0, 1)
        assert rep2.degenerate

    def test_boundary_lambda_gives_order_zero(self):
        f = HarmonicMap(padded([0, 1, 0.5]), padded([0]))
        rep1, _ = coefficient_sum_orders(f)
        assert rep1.passed
        assert rep1.condition_value == 1.0
        assert rep1.order_starlike == 0.0

    def test_failing_sum_reports_no_order(self):
        f = HarmonicMap(padded([0, 1, 1.0]), padded([0]))
        rep1, rep2 = coefficient_sum_orders(f)
        assert not rep1.passed and rep1.order_starlike is None
        assert not rep2.passed

    def test_quadratic_sum_gives_convexity(self):
        # sum n^2 |a_n| = 4 * 0.25 = 1: starlike order 2/5 and convex order 2/5... no:
        # starlike 2(2-1)/(4+1) = 0.4 and convex 2(1-1)/(2+1) = 0
        f = HarmonicMap(padded([0, 1, 0.25]), padded([0]))
        _, rep2 = coefficient_sum_orders(f)
        assert rep2.passed
        assert rep2.order_starlike == pytest.approx(0.4)
        assert rep2.order_convex == pytest.approx(0.0)

    def test_b1_must_vanish(self):
        f = HarmonicMap(padded([0, 1]), padded([0, 0.5]))
        with pytest.raises(ValueError):
            coefficient_sum_orders(f)

    def test_order_monotone_in_lambda(self):
        # growing the coefficient shrinks the certified order
        orders = []
        for a2 in (0.05, 0.15, 0.25, 0.35, 0.45):
            f = HarmonicMap(padded([0, 1, a2]), padded([0]))
            rep1, _ = coefficient_sum_orders(f)
            orders.append(rep1.order_starlike)
        assert all(x > y for x, y in zip(orders, orders[1:]))

    def test_report_serialization(self):
        f = HarmonicMap(padded([0, 1, 0.25]), padded([0]))
        d = coefficient_sum_orders(f)[0].to_dict()
        assert d["order_starlike"] == pytest.approx(0.4)
        assert d["truncation_order"] == 16


class TestTheorem2:
    def test_alpha_zero_power2(self):
        rep = analytic_part_classify(padded([0, 1, 0.25]), 0.0, power=2)
        assert rep.passed and rep.close_to_convex
        assert rep.order_starlike == pytest.approx(0.4, abs=1e-15)

    def test_alpha_third_gives_order_zero(self):
        rep = analytic_part_classify(padded([0, 1, 0.25]), 1 / 3, power=2)
        assert rep.close_to_convex
        assert rep.order_starlike == pytest.approx(0.0, abs=1e-15)

    def test_alpha_above_third_no_starlike_order(self):
        rep = analytic_part_classify(padded([0, 1, 0.25]), 0.5, power=2)
        assert rep.close_to_convex and rep.order_starlike is None

    def test_power3_orders(self):
        rep = analytic_part_classify(padded([0, 1, 0.125]), 2 / 11, power=3)
        assert rep.passed
        assert rep.order_starlike == pytest.approx(2 * (6 - 2) / (18 + 2), abs=1e-12)
        assert rep.order_convex == pytest.approx(0.0, abs=1e-12)

    def test_sum_above_one_fails(self):
        rep = analytic_part_classify(padded([0, 1, 0.5]), 0.0, power=2)
        assert not rep.passed  # 4 * 0.5 = 2 > 1

    def test_agrees_with_linear_classifier_on_analytic_inputs(self):
        # when sum n^2 |a_n| <= 1 the linear sum is at most 1/2, so the
        # linear classifier certifies an order at least 2/5
        rng = np.random.default_rng(8)
        for _ in range(20):
            raw = rng.uniform(0, 1, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            n = np.arange(2, 8, dtype=float)
            raw /= np.sum(n * n * np.abs(raw)) * rng.uniform(1.0, 2.0)
            h = padded(np.concatenate([[0, 1], raw]))
            t2 = analytic_part_classify(h, 0.0, power=2)
            f = HarmonicMap(h, padded([0]))
            l13, _ = coefficient_sum_orders(f)
            assert t2.passed and l13.passed
            assert l13.order_starlike >= t2.order_starlike - 1e-15


class TestMAlphaCheck:
    def test_F_passes(self):
        rep = m_alpha_check(map_F(), 1.0, r_max=0.99)
        assert rep.passed and rep.relation_passed and rep.curvature_passed
        assert rep.curvature_grid_min > -0.5

    def test_g_alpha_passes(self):
        alpha = 0.6 - 0.3j
        rep = m_alpha_check(g_alpha(alpha), alpha, r_max=0.95)
        assert rep.passed
        # h = z means the curvature term is identically 1
        assert rep.curvature_grid_min == pytest.approx(1.0)

    def test_zero_g_against_nonzero_alpha_fails_relation(self):
        f = HarmonicMap(make_generator("half_plane_l", 16), padded([0]))
        rep = m_alpha_check(f, 1.0)
        assert not rep.relation_passed and not rep.passed

    def test_report_is_labeled_necessary(self):
        assert m_alpha_check(map_F(), 1.0).to_dict()["check_kind"] == "necessary"

    @pytest.mark.parametrize("alpha", [0.5 - 0.3j, -0.7])
    def test_series_only_twin_matches_the_catalog_map(self, alpha):
        # the twin's curvature grid is sampled by inverse FFT, the catalog map's by its closed forms;
        # by r = 0.9 the sum for h'' near z = -r cancels terms 1e5 times its value, and the FFT's
        # rounding, spread over the whole circle, reaches a few 1e-12 there: the comparison stops at 0.7
        mix = 0.5 * (make_generator("half_plane_l", 512) + make_generator("koebe_k", 512))
        twin = make_M_alpha_member(mix, alpha)
        assert twin.exact is None
        got, want = m_alpha_check(twin, alpha, r_max=0.7), m_alpha_check(f_alpha(alpha, 512), alpha, r_max=0.7)
        assert (got.passed, got.curvature_passed) == (want.passed, want.curvature_passed)
        assert abs(got.curvature_grid_min - want.curvature_grid_min) <= 1e-12 * max(1, abs(want.curvature_grid_min))


class TestBoundsCheck:
    def test_extremal_equalities(self):
        for alpha in (1, -1, 1j, 0.5):
            rep = family_bounds_check(f_alpha(alpha), alpha, samples=500)
            assert rep.passed
            assert abs(rep.coeff_slack_a) < 1e-12
            assert abs(rep.coeff_slack_b) < 1e-12

    def test_growth_equality_on_real_axis(self):
        F = map_F()
        for r in (0.1, 0.4, 0.7, 0.9):
            fv = abs(complex(np.real(r / (1 - r) ** 2)))
            assert abs(growth_bound(1.0, r) - fv) < 1e-12

    def test_g_alpha_b2_attains_bound(self):
        alpha = 0.8j
        rep = family_bounds_check(g_alpha(alpha), alpha, samples=200)
        assert rep.passed
        assert abs(rep.coeff_slack_b) < 1e-12  # |b_2| = |alpha|/2 is the bound

    def test_relation_precondition(self):
        f = HarmonicMap(make_generator("half_plane_l", 16), padded([0]))
        with pytest.raises(ValueError):
            family_bounds_check(f, 1.0)

    @pytest.mark.parametrize("r_max", [0.0, -0.5, 1.0, 1.5])
    def test_radius_outside_the_disk_rejected(self, r_max):
        # r_max = 0 sampled copies of the origin and passed; a negative one
        # reached numpy's "high - low < 0"
        with pytest.raises(ValueError, match=r"0 < r_max < 1"):
            family_bounds_check(map_F(), 1.0, r_max=r_max)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match=f"need samples >= 1, got {samples}"):
            family_bounds_check(map_F(), 1.0, samples=samples)

    def test_member_with_small_h_has_positive_slack(self):
        h = padded([0, 1, 0.1])
        m = make_M_alpha_member(h, 0.5)
        rep = family_bounds_check(m, 0.5, samples=500)
        assert rep.passed
        assert rep.coeff_slack_a > 0 and rep.growth_min_slack > 0


class TestAreaSeries:
    def test_unimodular_g_alpha_is_half_pi(self):
        assert area_series(g_alpha(1.0), 1.0) == pytest.approx(math.pi / 2, abs=1e-12)
        assert area_series(g_alpha(1j), 1j) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_alpha_zero_identity_full_disk(self):
        assert area_series(g_alpha(0.0), 0.0) == pytest.approx(math.pi, abs=1e-12)

    def test_floor_for_members(self):
        for alpha, f in ((0.7, f_alpha(0.7)), (1j, f_alpha(1j)), (0.5, g_alpha(0.5))):
            assert area_series(f, alpha) >= math.pi * (1 - abs(alpha) ** 2 / 2) - 1e-9

    def test_matches_polar_jacobian_quadrature(self):
        # midpoint rule over a 400 x 400 polar grid as an independent oracle
        for alpha in (1.0, 0.6j):
            g = g_alpha(alpha)
            nr = nt = 400
            rg = (np.arange(nr) + 0.5) / nr
            tg = 2 * np.pi * (np.arange(nt) + 0.5) / nt
            zg = rg[:, None] * np.exp(1j * tg[None, :])
            quad_area = float(np.sum(jacobian(g, zg) * rg[:, None]) / nr * (2 * np.pi / nt))
            assert quad_area == pytest.approx(area_series(g, alpha), rel=1e-4)

    def test_relation_precondition(self):
        f = HarmonicMap(make_generator("half_plane_l", 16), padded([0]))
        with pytest.raises(ValueError):
            area_series(f, 0.5)


class TestPoissonKernel:
    def test_center_is_one(self):
        for t in (0.0, 1.0, 3.0):
            assert poisson_kernel(0.0, t) == pytest.approx(1.0, abs=1e-15)

    def test_normalization_by_quadrature(self):
        total, _ = quad(lambda t: poisson_kernel(0.5, t), 0, 2 * math.pi, limit=200, epsabs=1e-12)
        assert total == pytest.approx(2 * math.pi, abs=1e-9)

    def test_point_value(self):
        assert poisson_kernel(0.5, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_positive(self):
        th = np.linspace(0, 2 * np.pi, 64)
        assert np.all(poisson_kernel(0.3 + 0.4j, th) > 0)

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            poisson_kernel(1.0, 0.0)


class TestKaplan:
    def test_full_period_is_two_pi(self):
        F = map_F()
        for eps in (1, -1, 1j, np.exp(0.3j)):
            val = kaplan_integral_check(F, eps, 0.9, 0.0, 2 * math.pi)
            assert val == pytest.approx(2 * math.pi, abs=1e-6)

    def test_g_alpha_subarcs_above_minus_pi(self):
        f = g_alpha(0.9)
        for t1, t2 in ((0.0, 1.0), (2.0, 5.5), (3.0, 3.2)):
            assert kaplan_integral_check(f, 1.0, 0.5, t1, t2) > -math.pi

    def test_worst_subarc_scan_and_requadrature(self):
        F = map_F()
        epsilons = np.array([-1.0, 1.0, 1j, np.exp(0.3j)])
        for eps, (_, worst, (t1, t2)) in zip(epsilons, _kaplan_sweep(F, epsilons, 0.95)):
            assert worst > -math.pi
            # both read the same phase of z Fe'(z) at the arc's end nodes
            recheck = kaplan_integral_check(F, eps, 0.95, t1, t2)
            assert recheck == pytest.approx(worst, abs=1e-12)

    @pytest.mark.parametrize("r", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("eps", [1, -1, 1j])
    def test_phase_increase_matches_adaptive_quadrature(self, r, eps):
        F = map_F()
        for t1, t2 in ((0.0, 1.0), (-0.4, 0.4), (0.5, 3.0), (3.0, 3.2), (2.0, 5.5)):
            ref, _ = quad(lambda t: float(kaplan_integrand(F, eps, r, t)), t1, t2,
                          limit=400, epsabs=1e-12, epsrel=1e-12)
            assert kaplan_integral_check(F, eps, r, t1, t2) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("r,windings", [(0.3, 1), (0.9, 2)])
    def test_full_period_counts_zeros(self, r, windings):
        # h = z + z^2: z Fe' = z (1 + 2z) has zeros at 0 and -1/2
        f = HarmonicMap(padded([0, 1, 1]), padded([0]))
        val = kaplan_integral_check(f, 1.0, r, 0.0, 2 * math.pi)
        assert val == pytest.approx(2 * math.pi * windings, abs=1e-12)

    def test_branch_guard_refuses_coarse_grid(self, monkeypatch):
        # h' = 1 + 4 z^12 has twelve zeros at |z| = 4^(-1/12) < 0.9, so the
        # phase of z Fe' turns 13 times: the grid rule resolves it, 8 nodes
        # cannot, and with the cap patched down to 8 the sweep refuses
        f = HarmonicMap(padded([0, 1] + [0] * 11 + [4 / 13]), padded([0]))
        val = kaplan_integral_check(f, 1.0, 0.9, 0.0, 2 * math.pi)
        assert val == pytest.approx(26 * math.pi, abs=1e-10)
        monkeypatch.setattr(harmonic, "_MAX_THETA_POINTS", 8)
        with pytest.raises(ValueError, match="ambiguous"):
            _kaplan_sweep(f, np.array([1.0]), 0.9)

    @staticmethod
    def brute_worst(phase):
        """Least phase increase over all arcs from node i to node j != i, forward, O(n^2)."""
        n = phase.size - 1
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        gain = np.where(j > i, phase[j] - phase[i], phase[n] - phase[i] + phase[j])
        gain[i == j] = np.inf
        return float(gain.min())

    @pytest.mark.parametrize("case", [*range(6), (0,), (63,), (127,), (0, 127), (0, 1, 126, 127), -0.01])
    def test_worst_subarc_matches_brute_force(self, case):
        # phase steps on 128 nodes: random with a mean gain of 2 pi per turn
        # (an int case is the seed); +0.1 but for drops of -1 at the given
        # steps, whose worst arc starts at node 0, ends at node n = 2 pi, or
        # runs on through theta = 0 when the drops sit at both ends; or all
        # equal and negative, where the full turn, left out, would gain least
        n = 128
        theta = np.append(_unit_circle(n)[0], 2 * np.pi)
        if isinstance(case, int):
            steps = np.random.default_rng(case).normal(2 * np.pi / n, 0.3, n)
        elif isinstance(case, float):
            steps = np.full(n, case)
        else:
            steps = np.full(n, 0.1)
            steps[list(case)] = -1.0
        phase = np.concatenate([[0.0], np.cumsum(steps)])
        worst, (t1, t2) = _worst_subarc(theta, phase)
        assert worst == pytest.approx(self.brute_worst(phase), abs=1e-12)
        assert 0 <= t1 < t2 <= t1 + 2 * np.pi
        # the gain of the returned arc, read off the phase, is the least
        i, j = round(t1 / theta[1]), round(t2 / theta[1])
        gain = phase[j] - phase[i] if j <= n else phase[n] - phase[i] + phase[j - n]
        assert gain == pytest.approx(worst, abs=1e-12)

    def test_worst_subarc_through_zero(self):
        # F rotated by pi, -F(-z), has coefficients a_n (-1)^(n-1) and
        # b_n (-1)^(n-1): its worst arcs straddle theta = 0
        F = map_F(512)
        sign = (-1.0) ** (np.arange(513) - 1)
        f = HarmonicMap(TruncatedSeries(F.h.coeffs * sign), TruncatedSeries(F.g.coeffs * sign))
        assert f.exact is None
        epsilons = np.exp(2j * np.pi * np.arange(16) / 16)
        r = 0.5
        n = _kaplan_steps(f, epsilons, r)[0]
        theta = np.append(_unit_circle(n)[0], 2 * np.pi)
        z = r * np.exp(1j * theta)
        sweep = _kaplan_sweep(f, epsilons, r)
        for eps, (_, worst, (t1, t2)) in zip(epsilons, sweep):
            # the phase of z Fe' at the nodes, from the series evaluation route
            curve = z * (f.dh_at(z) + eps * f.dg_at(z))
            phase = np.concatenate([[0.0], np.cumsum(np.angle(curve[1:] / curve[:-1]))])
            assert worst == pytest.approx(self.brute_worst(phase), abs=1e-12)
            assert kaplan_integral_check(f, eps, r, t1, t2) == pytest.approx(worst, abs=1e-12)
        # F's worst arc, about theta = pi, moves onto theta = 0
        _, worst, (t1, t2) = min(sweep, key=lambda rec: rec[1])
        assert t1 < 2 * np.pi < t2
        assert worst == pytest.approx(-0.9755, abs=1e-4)

    @pytest.mark.parametrize("r,grid", [(0.5, 128), (0.9, 1024)])
    def test_sweep_grid_is_the_first_that_chops(self, r, grid):
        # the circles' rule: the first power of two >= 128 on which the
        # integrand of every epsilon row chops and every phase step passes
        # the branch guard
        F = map_F()
        epsilons = np.exp(2j * np.pi * np.arange(16) / 16)

        def resolved(n):
            # z Fe' and Re(1 + z Fe''/Fe') from the *_at methods, at the nodes and back at 2 pi
            theta = _unit_circle(n)[0]
            z = r * np.exp(1j * np.append(theta, 2 * np.pi))
            dfe = np.stack([F.dh_at(z) + eps * F.dg_at(z) for eps in epsilons])
            rate = np.real(1 + z * np.stack([F.d2h_at(z) + eps * F.d2g_at(z) for eps in epsilons]) / dfe)
            spectrum = np.abs(np.fft.rfft(rate[:, :-1]))
            tail = np.max(spectrum[:, -(-3 * n // 8):].max(axis=1) / spectrum.max(axis=1))
            steps = np.angle((z * dfe)[:, 1:] / (z * dfe)[:, :-1])
            trap = 0.5 * (rate[:, 1:] + rate[:, :-1]) * theta[1]
            return tail <= harmonic._CHOP_TAIL and np.max(np.abs(steps - trap)) <= math.pi / 2

        n = _kaplan_steps(F, epsilons, r)[0]
        assert n == grid
        assert resolved(n)
        assert n == 128 or not resolved(n // 2)

    def test_scan_matches_quadrature_on_fixed_arc(self):
        F = map_F()
        direct = kaplan_integral_check(F, 1j, 0.5, 1.0, 4.0)
        theta = np.linspace(1.0, 4.0, 20001)
        vals = kaplan_integrand(F, 1j, 0.5, theta)
        trap = float(np.trapezoid(vals, theta))
        assert direct == pytest.approx(trap, abs=1e-6)

    def test_sweep_matches_arc_integrals(self):
        F = map_F()
        epsilons = np.exp(2j * np.pi * np.arange(16) / 16)
        for r in (0.5, 0.9):
            for eps, (full, _, _) in zip(epsilons, _kaplan_sweep(F, epsilons, r)):
                assert full == pytest.approx(kaplan_integral_check(F, eps, r, 0.0, 2 * math.pi), abs=1e-12)

    def test_series_only_twin_matches_closed_form(self):
        # F is the member with h = (L + K)/2 and dilatation z; its degree-512
        # twin is sampled by inverse FFT of h', g', h'', g'' instead of closed forms
        F = map_F()
        twin = degree_512_twin_of_F()
        assert twin.exact is None
        epsilons = np.exp(2j * np.pi * np.arange(16) / 16)
        for r in (0.5, 0.9):
            for (full, worst, _), (full_t, worst_t, _) in zip(_kaplan_sweep(F, epsilons, r),
                                                              _kaplan_sweep(twin, epsilons, r)):
                assert full_t == pytest.approx(full, abs=1e-9)
                assert worst_t == pytest.approx(worst, abs=1e-9)

    @pytest.mark.parametrize("series_only", [False, True])
    def test_sweep_evaluates_no_point(self, series_only, monkeypatch):
        f = make_M_alpha_member(make_generator("half_plane_l", 64), 0.5j) if series_only else map_F()
        inside, routes, eval_routes = [], [], HarmonicMap._eval_routes
        evaluate = TruncatedSeries.evaluate

        def refuse(*args, **kwargs):
            raise AssertionError("Kaplan sweep evaluated pointwise")

        def through_routes(s, z):  # Horner only on the map's own pointwise route
            assert inside, "arc check evaluated a series outside _eval_routes"
            return evaluate(s, z)

        def recording(self, which, z):
            inside.append(which)
            routes.append((which, np.shape(z)))
            try:
                return eval_routes(self, which, z)
            finally:
                inside.pop()

        monkeypatch.setattr(TruncatedSeries, "evaluate", refuse)
        for which in ("h", "g", "dh", "dg", "d2h", "d2g"):
            monkeypatch.setattr(HarmonicMap, which + "_at", refuse)
        epsilons = np.exp(2j * np.pi * np.arange(16) / 16)
        for r in (0.5, 0.9):
            assert len(_kaplan_sweep(f, epsilons, r)) == 16
        # the arc check reads its angles through the map's pointwise route, once per arc
        monkeypatch.setattr(TruncatedSeries, "evaluate", through_routes)
        monkeypatch.setattr(HarmonicMap, "_eval_routes", recording)
        for r in (0.5, 0.9):
            kaplan_integral_check(f, 1j, r, 1.0, 4.0)
        # closed forms read the grid of _kaplan_steps there too, as one (1, n) row
        assert {which for which, _ in routes} == {("dh", "dg", "d2h", "d2g")}
        assert sum(len(shape) == 1 and shape[0] > 1 for _, shape in routes) == 2
        assert all(len(shape) == 1 or shape[0] == 1 and not series_only for _, shape in routes)

    @pytest.mark.parametrize("r", [0.5, 0.9])
    @pytest.mark.parametrize("series_only", [False, True], ids=["F", "degree-512 twin"])
    def test_grid_route_matches_the_pointwise_one(self, series_only, r):
        # on the uniform grid h', g', h'', g'' come from the polar-grid route
        # (one inverse FFT each on a series-only map); at the same angles off
        # the grid, from the pointwise one (Horner on a series-only map).  The
        # rate divides by the curve d1, so its rounding grows by max|d1| / |d1|
        # where the curve is small (near theta = pi at r = 0.9)
        f = degree_512_twin_of_F() if series_only else map_F()
        epsilons = np.exp(2j * np.pi * np.arange(16) / 16)
        theta = _unit_circle(256)[0]
        rate, d1 = _fe_circle(f, epsilons, r, theta, on_grid=True)
        rate_off, d1_off = _fe_circle(f, epsilons, r, theta)
        assert rate.shape == rate_off.shape == d1.shape == d1_off.shape == (16, 256)
        size = np.abs(d1_off) / np.abs(d1_off).max(axis=1, keepdims=True)
        assert np.max(np.abs(d1 - d1_off)) <= 1e-13 * np.max(np.abs(d1_off))
        assert np.max(np.abs(rate - rate_off) * size) <= 1e-13 * np.max(np.abs(rate_off))

    def test_singular_point_raises(self):
        # Fe' = h' = 1 + 2z vanishes at z = -1/2 on the circle r = 1/2
        f = HarmonicMap(padded([0, 1, 1]), padded([0]))
        for check in (lambda: kaplan_integrand(f, 1.0, 0.5, math.pi),
                      lambda: kaplan_integral_check(f, 1.0, 0.5, 0.0, 2 * math.pi)):
            with pytest.raises(SingularPointError) as err:
                check()
            assert err.value.z == pytest.approx(-0.5)

    def test_epsilon_must_be_unimodular(self):
        with pytest.raises(ValueError):
            kaplan_integral_check(map_F(), 0.5, 0.5, 0.0, 1.0)

    def test_bad_arc(self):
        with pytest.raises(ValueError):
            kaplan_integral_check(map_F(), 1.0, 0.5, 1.0, 1.0)


# the five calls of the benchmark's cli-cold workload, plus the radii suite,
# which runs every root solve hmap makes.  The last two run circle tests,
# which read the spectrum of their rate, so they load numpy.fft
NO_SCIPY_CLI_CALLS = [
    ["classify", "--function", "F", "--check", "m-alpha"],
    ["convolve", "--left", "L", "--right", "L", "--emit", "coeffs"],
    ["plot", "--function", "example22", "--radii", "0.5,0.9", "--out", "curves.csv"],
    ["verify", "--suite", "coefficients", "--out", "report.json"],
    ["radius", "--function", "F", "--kind", "convex"],
    ["verify", "--suite", "radii", "--out", "radii.json"],
]
FFT_CLI_CALLS = 2  # how many calls at the end of the list may load numpy.fft

# numpy.fft is loaded on first use (numpy >= 2 imports it lazily); it is
# checked up to the calls that run circle tests
NO_SCIPY_SCRIPT = """
import json, sys
import numpy
fft_lazy = "numpy.fft" not in sys.modules
def unwanted(fft_ok=False):
    mods = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    if fft_lazy and not fft_ok:
        mods += [m for m in sys.modules if m.startswith("numpy.fft")]
    return sorted(mods)
import hmap
assert not unwanted(), ("import hmap", unwanted())
import hmap.cli
calls, fft_calls = json.loads(sys.argv[1])
for i, argv in enumerate(calls):
    assert hmap.cli.dispatch(argv) == 0, argv
    fft_ok = i >= len(calls) - fft_calls
    assert not unwanted(fft_ok), (argv, unwanted(fft_ok))
"""


def test_import_and_cli_calls_leave_scipy_unloaded(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps([NO_SCIPY_CLI_CALLS, FFT_CLI_CALLS])],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestRelationResidual:
    def test_example21_has_dilatation_z(self):
        assert coefficient_relation_residual(example21(), 1.0) < 1e-14

    def test_f_alpha_members(self):
        for alpha in (1, -1, 0.5j):
            assert coefficient_relation_residual(f_alpha(alpha), alpha) < 1e-12
