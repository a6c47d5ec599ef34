import mpmath  # 40-digit reference evaluation
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import same_coeffs
from hmap import series
from hmap.series import TruncatedSeries, make_generator


def geometric_tail_bound(z_abs: float, order: int, growth: float = 1.0) -> float:
    # |sum_{n>N} c_n z^n| <= growth * (N+1) * |z|^{N+1} / (1 - |z|) for |c_n| <= growth*n
    return growth * (order + 1) * z_abs ** (order + 1) / (1 - z_abs)


class TestGenerators:
    def test_half_plane_table(self):
        s = make_generator("half_plane_l", 3)
        assert np.allclose(s.coeffs, [0, 1, 1, 1])

    def test_koebe_table(self):
        s = make_generator("koebe_k", 4)
        assert np.allclose(s.coeffs, [0, 1, 2, 3, 4])

    def test_log_table(self):
        s = make_generator("log_one_minus_z", 3)
        assert np.allclose(s.coeffs, [0, -1, -1 / 2, -1 / 3])

    def test_identity_table(self):
        s = make_generator("identity", 5)
        assert np.allclose(s.coeffs, [0, 1, 0, 0, 0, 0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_generator("bogus", 8)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            make_generator("identity", 0)

    @pytest.mark.parametrize("k", [-1, 1.5])
    def test_closed_form_needs_an_integer_k(self, k):
        with pytest.raises(ValueError, match=r"k must be an integer >= 0"):
            series.ClosedForm((0, 1), k)

    @pytest.mark.parametrize("kind,closed,growth", [
        ("half_plane_l", lambda z: z / (1 - z), 1.0),
        ("koebe_k", lambda z: z / (1 - z) ** 2, 1.0),
        ("log_one_minus_z", lambda z: np.log(1 - z), 1.0),
        ("identity", lambda z: z, 1.0),
    ])
    def test_closed_form_within_tail_bound(self, kind, closed, growth):
        s = make_generator(kind, 64)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = 0.5 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            bound = geometric_tail_bound(abs(z), 64, growth)
            assert abs(s.evaluate(z) - closed(z)) <= bound + 1e-12


class TestEvaluate:
    def test_half_plane_at_half(self):
        s = make_generator("half_plane_l", 50)
        # closed form z/(1-z) = 1.0; tail below 0.5^50/(1-0.5)
        assert abs(s.evaluate(0.5) - 1.0) <= 0.5 ** 50 / 0.5

    def test_at_zero_returns_constant(self):
        s = TruncatedSeries([3 + 1j, 2, 5])
        assert s.evaluate(0) == 3 + 1j

    def test_koebe_at_03(self):
        s = make_generator("koebe_k", 60)
        assert abs(s.evaluate(0.3) - 0.3 / 0.49) < 1e-12

    def test_outside_disk_rejected(self):
        s = make_generator("identity", 4)
        with pytest.raises(ValueError):
            s.evaluate(1.0)
        with pytest.raises(ValueError):
            s.evaluate(1.2j)

    def test_array_evaluation_matches_scalar(self):
        s = make_generator("koebe_k", 30)
        z = np.array([0.1, 0.2j, -0.3 + 0.1j])
        arr = s.evaluate(z)
        for zi, vi in zip(z, arr):
            assert vi == s.evaluate(complex(zi))


# the fewest terms (1, 2, 3), around a power of two (63, 64, 65) and long
# series (511 and 2048), where Horner's rounding error grows with the degree
EVAL_DEGREES = (1, 2, 3, 63, 64, 65, 511, 2048)


def _random_series(order: int, seed: int) -> TruncatedSeries:
    rng = np.random.default_rng(seed)
    return TruncatedSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))


def _random_disk_points(n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 0.999, n) * np.exp(2j * np.pi * rng.uniform(size=n))


def _horner_inputs(monkeypatch) -> list:
    """Record the coefficient array that each evaluation hands to Horner's rule."""
    seen, horner = [], series._horner
    monkeypatch.setattr(series, "_horner", lambda c, z: seen.append(c) or horner(c, z))
    return seen


class TestBlockedEvaluate:
    @pytest.mark.parametrize("order", EVAL_DEGREES)
    def test_matches_mpmath_reference(self, order):
        s = _random_series(order, seed=order)
        radii = np.array([0.0, 0.5, 0.9, 0.999])
        thetas = 2 * np.pi * np.arange(16) / 16
        z = (radii[:, None] * np.exp(1j * thetas[None, :])).ravel()
        got = s.evaluate(z)
        coeffs = [mpmath.mpc(c.real, c.imag) for c in s.coeffs[::-1]]
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for zi, vi in zip(z, got):
                ref = mpmath.polyval(coeffs, mpmath.mpc(zi.real, zi.imag))
                err = float(abs(mpmath.mpc(vi.real, vi.imag) - ref))
                scale = float(np.sum(np.abs(s.coeffs) * abs(zi) ** np.arange(order + 1)))
                assert err <= 8 * (order + 1) * eps * scale, (order, zi)

    @pytest.mark.parametrize("order", (1, 2, 65, 511))
    def test_point_value_independent_of_batch(self, order):
        # Horner's rule treats every point alone, so 67 points (several whole
        # SIMD vectors of any width and a ragged end) cover every way numpy
        # splits one elementwise product.  numpy rounds an in-place complex
        # product on a one-element array apart from the same product in a
        # longer one: scalars and batches of one point catch that
        z = _random_disk_points(67)
        complex_series = _random_series(order, seed=3)
        for s in (complex_series, TruncatedSeries(complex_series.coeffs.real)):
            full = s.evaluate(z)
            alone = np.array([s.evaluate(complex(zi)) for zi in z])
            assert np.array_equal(alone, full)
            for size in (1, 2, 3, 17):
                batched = np.concatenate([s.evaluate(z[i : i + size]) for i in range(0, z.size, size)])
                assert np.array_equal(batched, full), size

    @pytest.mark.parametrize("real", (False, True))
    @pytest.mark.parametrize("degree", (0, 1, 3, 64))
    def test_zero_padded_series_equals_its_trimmed_copy(self, degree, real, monkeypatch):
        # the zeros above the last nonzero coefficient are not evaluated
        c = _random_series(max(degree, 1), seed=degree).coeffs[: degree + 1]
        if real:
            c = c.real
        padded = TruncatedSeries(np.concatenate([c, np.zeros(2048 - degree)]))
        trimmed = TruncatedSeries(c if degree else np.r_[c, 0])
        assert padded.order == 2048
        seen = _horner_inputs(monkeypatch)
        padded.evaluate(0.5j), trimmed.evaluate(0.5j)
        assert seen[0].size == seen[1].size == degree + 1 and np.array_equal(seen[0], seen[1])
        z = _random_disk_points(300)
        assert np.array_equal(padded.evaluate(z), trimmed.evaluate(z))
        assert padded.evaluate(0.3 - 0.2j) == trimmed.evaluate(0.3 - 0.2j)

    def test_real_product_matches_the_complex_one(self, monkeypatch):
        s = _random_series(2048, seed=5)
        real = TruncatedSeries(s.coeffs.real)
        as_complex = TruncatedSeries(s.coeffs.real + 1j * np.where(np.arange(2049) == 2048, 1e-300, 0))
        seen = _horner_inputs(monkeypatch)
        z = _random_disk_points(500)
        got, want = real.evaluate(z), as_complex.evaluate(z)
        assert [c.size for c in seen] == [2049, 2049] and not seen[0].imag.any() and seen[1].imag.any()
        scale = np.sum(np.abs(s.coeffs.real) * np.abs(z[:, None]) ** np.arange(2049), axis=1)
        assert np.all(np.abs(got - want) <= 8 * 2049 * np.finfo(float).eps * scale)

    def test_scalar_returns_complex(self):
        s = _random_series(64, seed=1)
        for z in (0.3, 0.2 - 0.1j, np.complex128(0.4j), 0):
            value = s.evaluate(z)
            assert type(value) is complex
            assert value == s.evaluate(np.array([z, z]))[0]

    def test_array_shapes_preserved(self):
        s = _random_series(64, seed=2)
        z = _random_disk_points(12).reshape(3, 4)
        grid = s.evaluate(z)
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.ravel(), s.evaluate(z.ravel()))
        assert np.shape(s.evaluate(np.array(0.5j))) == ()
        assert s.evaluate(np.array(0.5j)) == s.evaluate(0.5j)
        for empty in (np.zeros(0, dtype=complex), np.zeros((0, 3), dtype=complex)):
            out = s.evaluate(empty)
            assert out.shape == empty.shape and out.dtype == complex

    def test_any_point_outside_disk_rejected(self):
        s = _random_series(64, seed=4)
        z = _random_disk_points(5000)
        z[4500] = 1.0
        with pytest.raises(ValueError):
            s.evaluate(z)


class TestCombine:
    def test_add_coefficient(self):
        l = make_generator("half_plane_l", 8)
        k = make_generator("koebe_k", 8)
        assert (l + k).coefficient(2) == 3  # 1 + 2

    def test_mul_identity_squared(self):
        i = make_generator("identity", 6)
        sq = i * i
        expect = np.zeros(7)
        expect[2] = 1
        assert np.allclose(sq.coeffs, expect)

    def test_sub_cancels(self):
        l = make_generator("half_plane_l", 8)
        assert np.allclose((l - l).coeffs, 0)

    def test_scalar_premultiplies_rhs(self):
        l = make_generator("half_plane_l", 8)
        k = make_generator("koebe_k", 8)
        got = l + 2j * k
        assert got.coefficient(2) == 1 + 4j

    def test_mul_truncates_to_min_order(self):
        a = make_generator("half_plane_l", 10)
        b = make_generator("half_plane_l", 4)
        assert (a * b).order == 4


class TestDivide:
    ORDER = 512

    @staticmethod
    def _toeplitz_solve(p, d):
        # reference: d * q = p is the lower-triangular Toeplitz system T q = p
        n = p.size
        i, j = np.indices((n, n))
        t = np.where(i >= j, d[np.clip(i - j, 0, n - 1)], 0)
        return np.linalg.solve(t, p)

    @classmethod
    def _divisors(cls):
        rng = np.random.default_rng(7)
        out = []
        for n in (1, 2):
            c = np.zeros(cls.ORDER + 1, dtype=complex)
            c[0], c[n] = 1, np.exp(1j * np.pi / 3)
            out.append(TruncatedSeries(c))
        # dense, geometrically decaying, well inside the disk of convergence
        c = (rng.normal(size=cls.ORDER + 1) + 1j * rng.normal(size=cls.ORDER + 1)) * 0.5 ** np.arange(cls.ORDER + 1)
        c[0] = 2.0
        out.append(TruncatedSeries(c))
        return out

    def test_one_over_one_minus_z_is_all_ones(self):
        e = np.eye(33)
        q = TruncatedSeries(e[0]) / TruncatedSeries(e[0] - e[1])
        assert np.array_equal(q.coeffs, np.ones(33, dtype=complex))

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_product_recovers_numerator(self, which):
        d = self._divisors()[which]
        p = make_generator("half_plane_l", self.ORDER)
        back = (p / d) * d
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-13

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_matches_triangular_solve(self, which):
        d = self._divisors()[which]
        rng = np.random.default_rng(11)
        p = rng.normal(size=self.ORDER + 1) + 1j * rng.normal(size=self.ORDER + 1)
        q = (TruncatedSeries(p) / d).coeffs
        ref = self._toeplitz_solve(p, d.coeffs)
        # relative to the largest coefficient: 1/(1 + e^{it} z^n) does not
        # decay, so q grows like a random walk (to 20-60 here)
        assert np.max(np.abs(q - ref)) < 1e-13 * np.max(np.abs(ref))

    @staticmethod
    def _forward_substitution(p, d):
        # reference: the triangular solve of d * q = p, one coefficient at a
        # time (a dense 2049 x 2049 system would take 67 MB)
        q = np.zeros(p.size, dtype=complex)
        for m in range(p.size):
            q[m] = (p[m] - np.dot(d[1 : m + 1], q[m - 1 :: -1] if m else q[:0])) / d[0]
        return q

    @pytest.mark.parametrize("term", [1, 2, None])
    def test_degree_2048_matches_triangular_solve(self, term):
        # one-term divisors 1 + e^{i pi/3} z^term, and a dense one
        n = 2048
        rng = np.random.default_rng(13)
        if term is None:
            d = (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)) * 0.5 ** np.arange(n + 1)
            d[0] = 2.0
        else:
            d = np.zeros(n + 1, dtype=complex)
            d[0], d[term] = 1, np.exp(1j * np.pi / 3)
        p = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        q = (TruncatedSeries(p) / TruncatedSeries(d)).coeffs
        ref = self._forward_substitution(p, d)
        assert np.max(np.abs(q - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [1, 2, 15, 16, 17, 64, 300])
    def test_block_edges(self, order):
        # the blocks hold max(16, ceil(sqrt(N + 1))) coefficients: degrees
        # below, at and past one block, and a last block that is cut short
        rng = np.random.default_rng(order)
        d = (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) * 0.5 ** np.arange(order + 1)
        d[0] = 1.5
        p = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        q = (TruncatedSeries(p) / TruncatedSeries(d)).coeffs
        ref = self._forward_substitution(p, d)
        assert np.max(np.abs(q - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_zero_constant_term_raises(self):
        with pytest.raises(ValueError):
            make_generator("half_plane_l", 8) / make_generator("identity", 8)

    def test_truncates_to_min_order(self):
        d = TruncatedSeries([1, 0.5, 0, 0, 0])
        a = make_generator("half_plane_l", 10)
        assert (a / d).order == 4
        assert (TruncatedSeries([1, 2, 3]) / TruncatedSeries(np.eye(9)[0])).order == 2


class TestDifferentiate:
    def test_half_plane_derivative(self):
        # d/dz z/(1-z) = 1/(1-z)^2 with coefficients 1, 2, 3, ...
        d = make_generator("half_plane_l", 6).differentiate()
        assert np.allclose(d.coeffs, [1, 2, 3, 4, 5, 6])

    def test_log_derivative(self):
        # d/dz log(1-z) = -1/(1-z): all coefficients -1
        d = make_generator("log_one_minus_z", 6).differentiate()
        assert np.allclose(d.coeffs, -np.ones(6))

    def test_second_derivative_of_identity_vanishes(self):
        d = make_generator("identity", 5).differentiate(times=2)
        assert np.allclose(d.coeffs, 0)

    def test_coefficient_shift_rule(self):
        s = TruncatedSeries([1, 2, 3, 4, 5])
        d2 = s.differentiate(2)
        # c_n -> (n+2)(n+1) c_{n+2}
        assert np.allclose(d2.coeffs, [2 * 1 * 3, 3 * 2 * 4, 4 * 3 * 5])

    def test_order_too_small(self):
        s = TruncatedSeries([0, 1])
        with pytest.raises(ValueError):
            s.differentiate(2)

    def test_bad_times(self):
        s = make_generator("identity", 5)
        with pytest.raises(ValueError):
            s.differentiate(3)


coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    min_size=5, max_size=9,
)


class TestAlgebraProperties:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_differentiate_is_linear(self, ca, cb):
        n = min(len(ca), len(cb))
        a, b = TruncatedSeries(ca[:n]), TruncatedSeries(cb[:n])
        lhs = (a + b).differentiate()
        rhs = a.differentiate() + b.differentiate()
        assert same_coeffs(lhs, rhs, tol=1e-9)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_mul_commutes(self, ca, cb):
        a, b = TruncatedSeries(ca), TruncatedSeries(cb)
        assert same_coeffs(a * b, b * a, tol=1e-12)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_mul_associates_up_to_truncation(self, ca, cb, cc):
        n = min(len(ca), len(cb), len(cc))
        a, b, c = (TruncatedSeries(x[:n]) for x in (ca, cb, cc))
        assert same_coeffs((a * b) * c, a * (b * c), tol=1e-9)

    def test_arithmetic_never_extends_order(self):
        a = make_generator("half_plane_l", 12)
        b = make_generator("koebe_k", 7)
        assert (a + b).order == 7
        assert (a - b).order == 7
        assert (a * b).order == 7
