import re

import numpy as np
import pytest

from conftest import same_coeffs
from hmap.catalog import (
    CatalogEntry,
    example22,
    f_alpha,
    l_hadamard_l,
    make_M_alpha_member,
    make_named,
    map_F,
    map_L,
    parse_function,
    shear_horizontal,
    shear_vertical,
)
from hmap.classifiers import m_alpha_check
from hmap.harmonic import dilatation, evaluate_f
from hmap import catalog, series
from hmap.series import TruncatedSeries, make_generator


class TestNamedMaps:
    def test_f_alpha_coefficients(self):
        f = make_named(CatalogEntry("f_alpha", 1j), 16)
        assert f.h.coefficient(3) == 2  # (3+1)/2
        assert f.g.coefficient(3) == 1j  # (3-1) i / 2

    def test_example22_g_coefficients(self):
        f = make_named(CatalogEntry("example22"), 32)
        n = np.arange(2, 33)
        assert np.allclose(f.g.coeffs[2:], 1 - 1 / n, atol=1e-14)
        assert f.g.coefficient(1) == 0

    def test_L_dilatation(self):
        L = make_named(CatalogEntry("L"))
        assert dilatation(L, 0.2j) == pytest.approx(-0.2j, abs=1e-12)

    def test_b1_zero_for_family(self):
        for alpha in (1, -1, 1j, 0.5, 0.3 - 0.2j):
            assert f_alpha(alpha).g.coefficient(1) == 0

    def test_alpha_validation(self):
        for build in (lambda: f_alpha(1.5), lambda: catalog.g_alpha(-1.1j), lambda: CatalogEntry("g_alpha", 2j),
                      lambda: m_alpha_check(map_F(16), 1.5)):
            with pytest.raises(ValueError, match=r"\|alpha\| <= 1"):
                build()
        with pytest.raises(ValueError):
            CatalogEntry("f_alpha")  # missing parameter

    @pytest.mark.parametrize("name", ["F", "L", "example21", "example22"])
    def test_fixed_alpha_takes_no_parameter(self, name):
        with pytest.raises(ValueError, match=f"{name} takes no parameter alpha"):
            CatalogEntry(name, 0.5)

    def test_min_order(self):
        with pytest.raises(ValueError):
            make_named(CatalogEntry("F"), 4)
        # only make_named asks for order >= 8; the constructors build any order
        assert map_F(4).h.order == 4 and f_alpha(0.5, 4).label == "f_alpha(0.5)"

    @pytest.mark.parametrize("order", [8, 64, 2048])
    @pytest.mark.parametrize("name", catalog._TABLE)
    def test_constructor_make_named_and_parser_agree(self, name, order):
        alpha = 0.3 - 0.4j
        takes_alpha = name in ("f_alpha", "g_alpha")
        ctor = {"L": map_L, "F": map_F}.get(name) or getattr(catalog, name)
        maps = [
            ctor(alpha, order) if takes_alpha else ctor(order),
            make_named(CatalogEntry(name, alpha if takes_alpha else None), order),
            parse_function(f"{name}:{alpha.real},{alpha.imag}" if takes_alpha else name, order),
        ]
        for m in maps:
            assert m.label == (f"{name}({alpha})" if takes_alpha else name)
            assert m.h.coeffs.tobytes() == maps[0].h.coeffs.tobytes()
            assert m.g.coeffs.tobytes() == maps[0].g.coeffs.tobytes()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            CatalogEntry("foo")

    def test_F_equals_f_alpha_at_one(self):
        F = map_F(32)
        f1 = f_alpha(1, 32)
        assert same_coeffs(F.h, f1.h) and same_coeffs(F.g, f1.g)

    @pytest.mark.parametrize("build,label", [
        (lambda: map_F(512), "F"), (lambda: map_L(), "L"), (lambda: f_alpha(0.5j), "f_alpha(0.5j)"),
    ], ids=["map_F", "map_L", "f_alpha"])
    def test_one_agreement_check_per_map(self, monkeypatch, build, label):
        import hmap.harmonic

        calls = []
        check = hmap.harmonic._check_exact_agreement
        monkeypatch.setattr(hmap.harmonic, "_check_exact_agreement", lambda m: calls.append(m) or check(m))
        f = build()
        assert f.label == label
        assert calls == [f]

    def test_l_hadamard_l_closed_forms(self):
        ll = l_hadamard_l(32)
        n = np.arange(1, 33)
        assert np.allclose(ll.h.coeffs[1:], ((n + 1) / 2) ** 2)
        assert np.allclose(ll.g.coeffs[1:], ((n - 1) / 2) ** 2)
        # construction ran the exact/series agreement check already
        assert ll.exact is not None


class TestShears:
    def test_horizontal_shear_of_half_plane_gives_F(self):
        # dilatation w(z) = z: coefficients must match the extremal member at 1
        phi = make_generator("half_plane_l", 24)
        w = make_generator("identity", 24)
        sheared = shear_horizontal(phi, w)
        target = f_alpha(1, 24)
        assert same_coeffs(sheared.h, target.h, tol=1e-12)
        assert same_coeffs(sheared.g, target.g, tol=1e-12)

    def test_vertical_shear_of_half_plane_gives_L(self):
        phi = make_generator("half_plane_l", 24)
        w = -1 * make_generator("identity", 24)
        sheared = shear_vertical(phi, w)
        target = f_alpha(-1, 24)
        assert same_coeffs(sheared.h, target.h, tol=1e-12)
        assert same_coeffs(sheared.g, target.g, tol=1e-12)

    def test_vertical_shear_h_is_half_l_plus_k(self):
        phi = make_generator("half_plane_l", 24)
        w = -1 * make_generator("identity", 24)
        sheared = shear_vertical(phi, w)
        half = 0.5 * (make_generator("half_plane_l", 24) + make_generator("koebe_k", 24))
        assert same_coeffs(sheared.h, half, tol=1e-12)

    def test_zero_dilatation_keeps_phi(self):
        phi = make_generator("half_plane_l", 16)
        zero = TruncatedSeries(np.zeros(17, dtype=complex))
        for shear in (shear_horizontal, shear_vertical):
            out = shear(phi, zero)
            assert same_coeffs(out.h, phi, tol=1e-14)
            assert np.allclose(out.g.coeffs, 0)

    @pytest.mark.parametrize("shear,sign", [(shear_horizontal, -1), (shear_vertical, 1)])
    def test_roundtrip_h_minus_plus_g_is_phi(self, shear, sign):
        phi = make_generator("half_plane_l", 20)
        w = 0.5j * make_generator("identity", 20)
        out = shear(phi, w)
        recon = out.h + sign * out.g if sign > 0 else out.h - out.g
        assert same_coeffs(recon, phi, tol=1e-12)

    def test_resulting_dilatation_is_w(self):
        phi = make_generator("half_plane_l", 48)
        w = 0.7 * make_generator("identity", 48)
        out = shear_horizontal(phi, w)
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = 0.5 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(dilatation(out, z) - 0.7 * z) < 1e-9

    def test_dilatation_must_vanish_at_origin(self):
        phi = make_generator("half_plane_l", 8)
        w = TruncatedSeries(np.array([0.5, 0, 0, 0, 0, 0, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            shear_horizontal(phi, w)

    def test_large_dilatation_rejected(self):
        phi = make_generator("half_plane_l", 8)
        w = 2.0 * make_generator("identity", 8)  # |w| = 2|z| reaches 1 inside
        with pytest.raises(ValueError):
            shear_vertical(phi, w)

    def test_guard_reads_w_to_its_last_nonzero_coefficient(self, monkeypatch):
        # evaluate's Horner sum stops at w's last nonzero coefficient: the
        # zeros above it would add exact zeros to the guard's sums
        seen = []
        horner = series._horner
        monkeypatch.setattr(series, "_horner", lambda c, z: seen.append(c.tolist()) or horner(c, z))
        phi = make_generator("half_plane_l", 512)
        shear_vertical(phi, -make_generator("identity", 512))
        assert seen == [[0, -1]]  # degree 1
        with pytest.raises(ValueError):  # |2 z^3| reaches 1.7 on the guard grid
            shear_vertical(phi, TruncatedSeries(np.r_[0, 0, 0, 2, np.zeros(509)]))
        assert seen[1:] == [[0, 0, 0, 2]]  # degree 3


class TestMAlphaMember:
    def test_half_plane_gives_example22_g(self):
        h = make_generator("half_plane_l", 32)
        member = make_M_alpha_member(h, 1.0)
        target = example22(32)
        assert same_coeffs(member.g, target.g, tol=1e-14)

    def test_identity_h_gives_g_alpha(self):
        h = make_generator("identity", 16)
        alpha = 0.4 - 0.1j
        member = make_M_alpha_member(h, alpha)
        assert member.g.coefficient(2) == pytest.approx(alpha / 2)
        assert np.allclose(np.delete(member.g.coeffs, 2), 0)

    def test_alpha_zero_gives_analytic_map(self):
        member = make_M_alpha_member(make_generator("koebe_k", 16), 0.0)
        assert np.allclose(member.g.coeffs, 0)

    def test_recurrence_holds(self):
        h = 0.5 * (make_generator("half_plane_l", 24) + make_generator("koebe_k", 24))
        alpha = 0.3 + 0.4j
        m = make_M_alpha_member(h, alpha)
        for n in range(1, 24):
            lhs = (n + 1) * m.g.coefficient(n + 1)
            rhs = n * alpha * m.h.coefficient(n)
            assert abs(lhs - rhs) < 1e-12

    def test_alpha_bound(self):
        with pytest.raises(ValueError, match=r"\|alpha\| <= 1"):
            make_M_alpha_member(make_generator("identity", 8), 1.2)


class TestParseFunction:
    def test_plain_names(self):
        assert parse_function("F", 16).label == "F"
        assert parse_function("example21", 16).label == "example21"

    def test_parameterized(self):
        f = parse_function("f_alpha:0,1", 16)
        assert f.g.coefficient(3) == 1j

    def test_convolution_expression(self):
        prod = parse_function("conv(L,L)", 16)
        assert prod.h.coefficient(2) == (3 / 2) ** 2

    def test_nested_convolution(self):
        prod = parse_function("conv(conv(L,L),F)", 16)
        assert prod.h.coefficient(2) == (3 / 2) ** 3

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_function("f_alpha:1", 16)
        with pytest.raises(ValueError):
            parse_function("conv(L)", 16)

    @pytest.mark.parametrize("text", ["conv(f_alpha:0.5,0,L)", "conv(L,f_alpha:0.5,0)"])
    def test_parameterized_operand_in_either_order(self, text):
        # the parameter's own comma is not the one between the operands
        prod = parse_function(text, 16)
        n = np.arange(17)
        # f_alpha(0.5) has b_n = (n - 1)/4 and L has b_n = -(n - 1)/2
        assert np.array_equal(prod.h.coeffs[1:], ((n[1:] + 1) / 2) ** 2)
        assert np.array_equal(prod.g.coeffs[1:], -0.5 * ((n[1:] - 1) / 2) ** 2)

    def test_nested_parameterized_convolution(self):
        prod = parse_function("conv(conv(f_alpha:0.5,0,L),f_alpha:0,1)", 16)
        n = np.arange(17)
        assert np.array_equal(prod.h.coeffs[1:], ((n[1:] + 1) / 2) ** 3)
        assert prod.g.coefficient(3) == 0.5 * -1 * 1j  # (0.5)(-1)(i) ((3 - 1)/2)^3

    @pytest.mark.parametrize("text, message", [
        ("conv(L,L,L)", "malformed convolution expression 'conv(L,L,L)': expected ')'"),
        ("conv(f_alpha:0.5,L)", "parameter must be re,im in 'f_alpha:0.5,L'"),
        ("conv(bogus,L)", "unknown catalog name 'bogus'"),
        ("conv(f_alpha:0.5,0,0)", "unknown catalog name '0'"),
        ("conv(conv(L,F),)", "unknown catalog name ''"),
        ("conv(L,L)F", "unexpected 'F' after the function"),
        ("conv(L:0.3,0.1,F)", "L takes no parameter alpha, got (0.3+0.1j)"),
        ("conv(F,example22:0,0)", "example22 takes no parameter alpha, got 0j"),
    ])
    def test_malformed_product_names_what_is_wrong(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_function(text, 16)

    def test_operand_errors_still_surface(self):
        with pytest.raises(ValueError, match=r"\|alpha\| <= 1"):
            parse_function("conv(f_alpha:2,0,L)", 16)


class TestEvaluatorsAgainstDefinitions:
    def test_F_value_formula(self):
        # F = Re(z/(1-z)^2) + i Im(z/(1-z)) pointwise
        F = map_F()
        rng = np.random.default_rng(3)
        z = 0.95 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
        expect = np.real(z / (1 - z) ** 2) + 1j * np.imag(z / (1 - z))
        # the closed forms evaluate every point, so only rounding separates them
        assert np.max(np.abs(evaluate_f(F, z) - expect)) < 1e-12
        # F is real on the real axis, and F(0.5) = 0.5 / 0.5^2 = 2
        x = np.array([-0.9, 0.1, 0.5, 0.9]) + 0j
        assert np.all(evaluate_f(F, x).imag == 0.0)
        assert evaluate_f(F, 0.5 + 0j) == pytest.approx(2.0, abs=1e-14)

    def test_L_value_formula(self):
        L = map_L()
        rng = np.random.default_rng(4)
        z = 0.95 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
        expect = np.real(z / (1 - z)) + 1j * np.imag(z / (1 - z) ** 2)
        assert np.max(np.abs(evaluate_f(L, z) - expect)) < 1e-12

    def test_example22_value_formula(self):
        f = example22()
        z = 0.9 * np.exp(1j * np.linspace(0.1, 6.2, 17))
        expect = 2 * np.real(z / (1 - z)) + np.conj(np.log(1 - z))
        assert np.max(np.abs(evaluate_f(f, z) - expect)) < 1e-9


# the closed forms as written with numpy's power of 1 - z; the catalog
# evaluates the same expressions with the powers as products
TEXTBOOK = {
    "f_alpha": (lambda: f_alpha(0.5 - 0.5j), {
        "h": lambda z: 0.5 * (z / (1 - z) + z / (1 - z) ** 2),
        "g": lambda z: 0.5 * (0.5 - 0.5j) * (z / (1 - z) ** 2 - z / (1 - z)),
        "dh": lambda z: 1 / (1 - z) ** 3,
        "dg": lambda z: (0.5 - 0.5j) * z / (1 - z) ** 3,
        "d2h": lambda z: 3 / (1 - z) ** 4,
        "d2g": lambda z: (0.5 - 0.5j) * (1 + 2 * z) / (1 - z) ** 4,
    }),
    "example22": (example22, {
        "dh": lambda z: 1 / (1 - z) ** 2,
        "dg": lambda z: z / (1 - z) ** 2,
        "d2h": lambda z: 2 / (1 - z) ** 3,
        "d2g": lambda z: (1 + z) / (1 - z) ** 3,
    }),
    "l_hadamard_l": (l_hadamard_l, {
        "h": lambda z: (z * (1 + z) / (1 - z) ** 3 + 2 * z / (1 - z) ** 2 + z / (1 - z)) / 4,
        "g": lambda z: z * z * (1 + z) / (4 * (1 - z) ** 3),
        "dh": lambda z: ((1 + 4 * z + z * z) / (1 - z) ** 4 + 2 * (1 + z) / (1 - z) ** 3 + 1 / (1 - z) ** 2) / 4,
        "dg": lambda z: z * (1 + 2 * z) / (2 * (1 - z) ** 4),
        "d2h": lambda z: ((8 + 14 * z + 2 * z * z) / (1 - z) ** 5 + (8 + 4 * z) / (1 - z) ** 4
                          + 2 / (1 - z) ** 3) / 4,
        "d2g": lambda z: (1 + 7 * z + 4 * z * z) / (2 * (1 - z) ** 5),
    }),
}


@pytest.mark.parametrize("name", sorted(TEXTBOOK))
def test_powers_of_one_minus_z_match_textbook_forms(name):
    build, forms = TEXTBOOK[name]
    f = build()
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for r in (0.5, 0.9, 0.999):
        z = r * np.exp(1j * theta)
        for which, textbook in forms.items():
            want = textbook(z)
            got = f.exact[which](z)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (which, r)


# every part of every catalog map and every stock generator, as its closed form: an
# M(alpha) map is written as its h, and its g is h's partner; L*L's are the squares of L's
_H = catalog._FORMS["f_alpha"]
FORMS = {**{f"{name}.{part}": form for name, h in catalog._FORMS.items() for part, form in zip("hg", (h, h.partner))},
         "L*L.h": _H.hadamard(_H), "L*L.g": _H.partner.hadamard(_H.partner), **series._GENERATORS}


def _rule(order, start, fn):
    """c[0] .. c[order] with c[n] = fn(n) from n = start on, zero below."""
    c = np.zeros(order + 1)
    c[start:] = fn(np.arange(start, order + 1, dtype=float))
    return c


def _polynomial(*p):
    return lambda order: np.pad(np.array(p, dtype=float), (0, order + 1 - len(p)))


RULES = {
    "f_alpha.h": lambda order: _rule(order, 1, lambda n: (n + 1) / 2),
    "f_alpha.g": lambda order: _rule(order, 2, lambda n: (n - 1) / 2),
    "L*L.h": lambda order: _rule(order, 1, lambda n: ((n + 1) / 2) ** 2),
    "L*L.g": lambda order: _rule(order, 2, lambda n: ((n - 1) / 2) ** 2),
    "example22.h": lambda order: _rule(order, 1, lambda n: 1 + 0 * n),
    "example22.g": lambda order: _rule(order, 1, lambda n: 1 - 1 / n),
    "half_plane_l": lambda order: _rule(order, 1, lambda n: 1 + 0 * n),
    "koebe_k": lambda order: _rule(order, 0, lambda n: n),
    "log_one_minus_z": lambda order: _rule(order, 1, lambda n: -1 / n),
    "identity": _polynomial(0, 1),
    "g_alpha.h": _polynomial(0, 1),
    "g_alpha.g": _polynomial(0, 0, 0.5),
    "example21.h": _polynomial(0, 1, -0.5),
    "example21.g": _polynomial(0, 0, 0.5, -1 / 3),
}


def test_every_form_has_a_coefficient_rule():
    assert sorted(RULES) == sorted(FORMS)


@pytest.mark.parametrize("order", [8, 64, 2048])
@pytest.mark.parametrize("name", sorted(FORMS))
def test_form_coefficients_follow_the_rule(name, order):
    assert np.array_equal(FORMS[name].series(order).coeffs, RULES[name](order))


@pytest.mark.parametrize("left", sorted(FORMS))
def test_hadamard_of_two_forms_is_the_coefficientwise_product(left):
    # with both log parts the product has a 1/n^2 part, a dilogarithm, and no form
    a = FORMS[left]
    for right, b in FORMS.items():
        p = a.hadamard(b)
        assert (p is None) == bool(a.log and b.log), right
        for order in (8, 64, 2048) if p is not None else ():
            np.testing.assert_array_max_ulp(p.coefficients(order), a.coefficients(order) * b.coefficients(order),
                                            maxulp=1)


@pytest.mark.parametrize("order", [8, 64, 2048])
@pytest.mark.parametrize("name", sorted(FORMS))
def test_form_derivatives_have_the_series_derivative_coefficients(name, order):
    form = FORMS[name]
    s = form.series(order)
    for times, d in ((1, form.derivative), (2, form.derivative.derivative)):
        got, want = d.coefficients(order - times), s.differentiate(times).coeffs.real
        if form.log:  # the series side rounds: n * (-1/n) is not -1 at n = 49, 98, ...
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        else:
            assert np.array_equal(got, want), times


@pytest.mark.parametrize("order", [8, 64, 2048])
@pytest.mark.parametrize("name", sorted(FORMS))
def test_partner_follows_the_recurrence(name, order):
    # G' = z h' and G(0) = 0: b_n = (n - 1) a_(n-1) / n, and G's derivative is z h' as a series
    form = FORMS[name]
    n = np.arange(1.0, order + 1)
    a, b = form.coefficients(order), form.partner.coefficients(order)
    np.testing.assert_array_max_ulp(b, np.concatenate([[0.0], (n - 1) / n * a[:-1]]), maxulp=4)
    z_dh = np.concatenate([[0.0], form.derivative.coefficients(order - 2)])
    assert np.array_equal(form.partner.derivative.coefficients(order - 1), z_dh)


def test_partners_are_the_hand_written_co_analytic_parts():
    # g of each M(alpha) catalog map, as the forms wrote it before it was derived
    assert catalog._FORMS["f_alpha"].partner == series.ClosedForm((0, 0, 0.5), 2)
    assert catalog._FORMS["g_alpha"].partner == series.ClosedForm((0, 0, 0.5))
    assert catalog._FORMS["example21"].partner == series.ClosedForm((0, 0, 0.5, -1 / 3))
    assert catalog._FORMS["example22"].partner == series.ClosedForm((0, 1), 1, 1)


@pytest.mark.parametrize("order", [8, 64, 2048])
def test_f_alpha_scales_g_by_alpha(order):
    alpha = 0.3 - 0.4j
    f = f_alpha(alpha, order)
    assert np.array_equal(f.h.coeffs, RULES["f_alpha.h"](order))
    assert np.array_equal(f.g.coeffs, alpha * RULES["f_alpha.g"](order))
