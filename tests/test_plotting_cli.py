import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmap.catalog import g_alpha, map_F, parse_function
from hmap.cli import dispatch
from hmap.plotting import PlotSpec, curves_to_csv, plot_command, sample_curves
from hmap.radius import convex_test_at_radius, radius_search


class TestSampling:
    def test_identity_circles_have_constant_modulus(self):
        f = g_alpha(0.0, 16)
        spec = PlotSpec(radii=(0.3, 0.7), n_rays=4, samples_per_curve=64)
        for c in sample_curves(f, spec):
            if c.kind == "circle":
                assert np.max(np.abs(np.abs(c.w) - c.param)) < 1e-12

    def test_default_circle_count(self):
        f = g_alpha(0.0, 16)
        curves = sample_curves(f, PlotSpec(n_rays=6, n_circles=5, samples_per_curve=64))
        assert sum(c.kind == "circle" for c in curves) == 5
        assert sum(c.kind == "ray" for c in curves) == 6

    def test_figure_C_analog(self):
        # the circle at the convexity radius still bounds a convex curve, the
        # outer one does not
        spec = PlotSpec(radii=(2 - math.sqrt(3), 0.5), samples_per_curve=64)
        curves = sample_curves(map_F(), spec)
        radii = [c.param for c in curves if c.kind == "circle"]
        assert convex_test_at_radius(map_F(), radii[0]).passed
        assert not convex_test_at_radius(map_F(), radii[1]).passed

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlotSpec(radii=(1.5,))
        with pytest.raises(ValueError):
            PlotSpec(samples_per_curve=10)
        with pytest.raises(ValueError):
            PlotSpec(output_format="png")


class TestEmission:
    def test_csv_deterministic(self, tmp_path):
        f = map_F()
        spec = PlotSpec(radii=(0.5, 0.9), output_format="csv", samples_per_curve=64)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        plot_command(f, spec, str(p1))
        plot_command(f, spec, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_schema(self):
        f = g_alpha(0.0, 16)
        text = curves_to_csv(sample_curves(f, PlotSpec(radii=(0.5,), n_rays=2, samples_per_curve=64)))
        lines = text.strip().split("\n")
        assert lines[0] == "curve_id,kind,param,t,u,v"
        row = lines[1].split(",")
        assert row[1] == "circle"
        assert len(row) == 6

    def test_svg_structure(self, tmp_path):
        f = map_F()
        out = tmp_path / "fig.svg"
        plot_command(f, PlotSpec(radii=(0.5,), samples_per_curve=64), str(out))
        text = out.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "viewBox" in text

    def test_nonstarlike_lobe_visible_in_csv(self):
        # the sheared half-plane map turns back in angle at r = 0.95: some
        # consecutive CSV points on that circle must lose argument
        from hmap.catalog import example22
        from hmap.radius import starlike_test_at_radius

        f = example22()
        curves = sample_curves(f, PlotSpec(radii=(0.95,), samples_per_curve=512))
        circle = [c for c in curves if c.kind == "circle"][0]
        args = np.unwrap(np.angle(circle.w))
        assert np.min(np.diff(args)) < 0
        assert not starlike_test_at_radius(f, 0.95).passed


# Without --alpha, classify reads alpha = 2 b_2 off the map; on catalog maps
# that is the catalog parameter.  example21 has dilatation z, so the relation
# holds exactly and only the curvature condition fails (-98 < -0.5); g_alpha
# has h = z, so its curvature term is 1.  conv(L,L) has b_2 = 1/4 but is no
# family member: the relation fails from n = 2 on.
ALPHA_OFF_THE_MAP = [
    ("F", [1.0, 0.0], "0.000e+00", None, 0),
    ("L", [-1.0, 0.0], "0.000e+00", None, 0),
    ("example21", [1.0, 0.0], "0.000e+00", -98.0, 1),
    ("example22", [1.0, 0.0], "0.000e+00", None, 0),
    ("f_alpha:0.5,0.2", [0.5, 0.2], "0.000e+00", None, 0),
    ("g_alpha:0.3,-0.1", [0.3, -0.1], "0.000e+00", 1.0, 0),
    ("conv(L,L)", [0.5, 0.0], "3.125e+04", None, 1),
]


class TestCli:
    def test_plot_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = dispatch(["plot", "--function", "L", "--radii", "0.9", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("curve_id,kind,param")

    def test_plot_svg(self, tmp_path):
        out = tmp_path / "fig.svg"
        rc = dispatch(["plot", "--function", "L", "--radii", "0.9", "--out", str(out)])
        assert rc == 0
        assert "<svg" in out.read_text()

    def test_radius_convex(self, tmp_path, capsys):
        out = tmp_path / "rad.json"
        rc = dispatch(["radius", "--function", "F", "--kind", "convex",
                       "--tol", "1e-6", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "0.267949" in printed
        assert "certify every circle up to r = 0.090333074" in printed
        assert "the search took 13 circle tests and 15 single values of the rate" in printed
        data = json.loads(out.read_text())
        assert data["r_lo"] <= 2 - math.sqrt(3) <= data["r_hi"]
        # three scan circles below the certified radius are not tested
        assert (data["circle_tests"], data["point_evals"]) == (13, 15)
        assert data["r_certified"] == pytest.approx(0.0903330742578, abs=1e-12)

    def test_radius_of_a_product_with_a_parameterized_operand(self, tmp_path, capsys):
        # the comma inside f_alpha:0.5,0 does not split the product
        out = tmp_path / "rad.json"
        rc = dispatch(["radius", "--function", "conv(f_alpha:0.5,0,L)", "--kind", "convex", "--out", str(out)])
        assert rc == 0
        assert "convexity radius of conv(f_alpha:0.5,0,L): bracket [" in capsys.readouterr().out
        want = radius_search(parse_function("conv(f_alpha:0.5,0,L)"), "convexity", tol=1e-6)
        data = json.loads(out.read_text())
        assert (data["r_lo"], data["r_hi"]) == (want.r_lo, want.r_hi)

    def test_radius_certified_to_the_cap(self, tmp_path, capsys):
        out = tmp_path / "rad.json"
        rc = dispatch(["radius", "--function", "g_alpha:0.3,0", "--kind", "convex", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "certify every circle up to r = 1.000000000, past the search cap" in printed
        assert "one circle was tested, at r = 0.999" in printed
        data = json.loads(out.read_text())
        assert data["upper_limit_hit"] and data["circle_tests"] == 1 and data["r_certified"] == 1.0

    def test_radius_first_loss(self, capsys):
        # convexity of f_alpha(-0.75) is lost at 0.5803479 and comes back
        # between about 0.834 and 0.87: the radius is the first loss
        rc = dispatch(["radius", "--function", "f_alpha:-0.75,0", "--kind", "convex"])
        assert rc == 0
        printed = capsys.readouterr().out
        lo, hi = (float(x) for x in printed.split("[")[1].split("]")[0].split(","))
        assert hi - lo <= 1e-6
        assert lo <= 0.580348 <= hi

    def test_radius_guard_only_circles_refine_the_grid(self, tmp_path, capsys):
        # on 4096 uniform angles the starlike circles of f_alpha(-0.75) fail
        # on the branch guard from 0.9964 on, and 65536 left the rate
        # unresolved; the clustered grid resolves them on 4096 nodes, and the
        # search ends on 8192.  The radius is 0.99790034, the root of the
        # margin on 2^20 angles refined between them (0.997900 rounded)
        out = tmp_path / "rad.json"
        rc = dispatch(["radius", "--function", "f_alpha:-0.75,0", "--kind", "starlike", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        lo, hi = (float(x) for x in printed.split("[")[1].split("]")[0].split(","))
        assert hi - lo <= 1e-6
        assert lo <= 0.99790034 <= hi
        assert printed.splitlines()[1].endswith("the finest grid they needed has 8192 angles")
        assert json.loads(out.read_text())["grid_theta"] == 8192

    def test_radius_names_the_finest_grid(self, tmp_path, capsys):
        # F's convexity circles are resolved on at most 256 angles, L's
        # starlikeness circles near its radius 0.87185 on 1024 clustered
        # nodes (8192 uniform angles)
        for name, kind, grid in (("F", "convex", 256), ("L", "starlike", 1024)):
            out = tmp_path / f"{name}.json"
            assert dispatch(["radius", "--function", name, "--kind", kind, "--out", str(out)]) == 0
            second = capsys.readouterr().out.splitlines()[1]
            assert second.endswith(f"the finest grid they needed has {grid} angles")
            assert json.loads(out.read_text())["grid_theta"] == grid

    def test_classify_m_alpha_pass(self):
        rc = dispatch(["classify", "--function", "f_alpha:0,1", "--check", "m-alpha"])
        assert rc == 0

    @pytest.mark.parametrize("name, alpha, residual, curvature_min, rc", ALPHA_OFF_THE_MAP,
                             ids=[row[0] for row in ALPHA_OFF_THE_MAP])
    def test_classify_m_alpha_reads_alpha_off_the_map(self, tmp_path, capsys, name, alpha,
                                                      residual, curvature_min, rc):
        out = tmp_path / "m.json"
        assert dispatch(["classify", "--function", name, "--check", "m-alpha",
                         "--out", str(out)]) == rc
        assert f"relation residual {residual}" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["alpha"] == alpha
        exact = residual == "0.000e+00"
        assert (data["relation_residual"] == 0.0) == exact and data["relation_passed"] == exact
        assert data["curvature_passed"] == data["passed"] == (rc == 0)
        if curvature_min is not None:
            assert data["curvature_grid_min"] == pytest.approx(curvature_min, abs=1e-9)

    def test_classify_failure_exit_code(self):
        # the identity-like map with g = 0 cannot satisfy the recurrence at alpha = 1
        rc = dispatch(["classify", "--function", "g_alpha:0,0", "--check", "m-alpha",
                       "--alpha", "1,0"])
        assert rc == 1

    def test_classify_coefficient_orders(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = dispatch(["classify", "--function", "g_alpha:0.2,0", "--check", "coefficient-orders",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload[0]["passed"]

    def test_classify_analytic_sums(self, capsys):
        rc = dispatch(["classify", "--function", "g_alpha:0,0", "--check", "analytic-sums",
                       "--alpha", "0,0", "--power", "2"])
        assert rc == 0
        assert "starlike" in capsys.readouterr().out

    def test_classify_bounds(self):
        rc = dispatch(["classify", "--function", "f_alpha:0.5,0", "--check", "bounds",
                       "--alpha", "0.5,0"])
        assert rc == 0

    def test_classify_bounds_on_non_member_is_check_failure(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        rc = dispatch(["classify", "--function", "conv(L,L)", "--check", "bounds", "--out", str(out)])
        assert rc == 1
        assert "[FAIL] bounds: relation residual 3.125e+04" in capsys.readouterr().out
        assert not out.exists()

    def test_classify_bounds_bad_radius_is_usage_error(self):
        rc = dispatch(["classify", "--function", "F", "--check", "bounds", "--r-max", "1.5"])
        assert rc == 2

    def test_classify_bounds_at_the_origin_is_usage_error(self, capsys):
        # r_max = 0 sampled copies of the origin and printed PASS
        rc = dispatch(["classify", "--function", "F", "--check", "bounds", "--r-max", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "0 < r_max < 1" in captured.err and captured.out == ""

    def test_classify_bounds_samples_up_to_r_max(self, tmp_path):
        default, half = tmp_path / "d.json", tmp_path / "h.json"
        for path, extra in ((default, []), (half, ["--r-max", "0.5"])):
            assert dispatch(["classify", "--function", "F", "--check", "bounds",
                             "--out", str(path)] + extra) == 0
        d, h = json.loads(default.read_text()), json.loads(half.read_text())
        assert d["r_max"] == 0.9 and h["r_max"] == 0.5
        assert h["growth_min_slack"] != d["growth_min_slack"]

    def test_convolve_coeffs(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        rc = dispatch(["convolve", "--left", "L", "--right", "L", "--emit", "coeffs",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,a_re,a_im,b_re,b_im"
        n3 = lines[4].split(",")
        assert float(n3[1]) == 4.0  # ((3+1)/2)^2

    def test_convolve_report(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = dispatch(["convolve", "--left", "F", "--right", "F", "--emit", "report",
                       "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["sense_preserving"]["passed"]

    def test_verify_coefficients_suite(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = dispatch(["verify", "--suite", "coefficients", "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in printed
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert all(rec["passed"] for rec in data["records"])

    def test_verify_writes_a_report_only_when_asked(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert dispatch(["verify", "--suite", "coefficients"]) == 0
        assert "suite coefficients: PASS" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["radius", "--function", "F", "--kind", "wobbly"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "1e-20", "nan", "inf"])
    def test_radius_tol_out_of_reach_is_usage_error(self, tmp_path, tol):
        # a fresh process with a timeout, so that a bisection that cannot end fails the test
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "hmap.cli", "radius", "--function", "F", "--kind", "convex",
                               "--tol", tol], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
        assert proc.returncode == 2
        assert "tol must be finite and at least 1e-12" in proc.stderr

    @pytest.mark.parametrize("option,value,message", [
        ("--circles", "0", "at least one circle"),
        ("--circles", "-2", "at least one circle"),
        ("--rays", "-3", "rays cannot be negative"),
    ])
    def test_plot_counts_out_of_range_are_usage_errors(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "x.svg"
        assert dispatch(["plot", "--function", "F", option, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_function_is_check_failure(self, tmp_path):
        rc = dispatch(["plot", "--function", "nonsense", "--out", str(tmp_path / "x.svg")])
        assert rc == 2

    def test_parameter_on_a_fixed_alpha_is_usage_error(self, capsys):
        rc = dispatch(["radius", "--function", "F:0.5,0", "--kind", "convex"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "F takes no parameter alpha" in captured.err
        assert captured.out == ""

    def test_truncation_order_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HMAP_TRUNC_ORDER", "16")
        out = tmp_path / "c.csv"
        rc = dispatch(["convolve", "--left", "L", "--right", "L", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 17  # header + coefficients 0..16

    def test_bad_env_value(self, monkeypatch, tmp_path, capsys):
        # a usage error: "error: ..." on stderr, nothing on stdout, exit 2
        for raw, message in (("banana", "must be an integer, got 'banana'"), ("4", "must be >= 8, got 4")):
            monkeypatch.setenv("HMAP_TRUNC_ORDER", raw)
            rc = dispatch(["convolve", "--left", "L", "--right", "L",
                           "--out", str(tmp_path / "c.csv")])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: HMAP_TRUNC_ORDER {message}\n" and captured.out == ""
            assert not (tmp_path / "c.csv").exists()

    def test_verify_exit_status_is_and_of_records(self, monkeypatch, tmp_path):
        import hmap.verify as verify_mod

        bad = verify_mod.ClaimRecord("x.fail", "forced failure", 1.0, 0.0, 0.0,
                                     "abs_diff", False)
        good = verify_mod.ClaimRecord("x.ok", "forced pass", 0.0, 0.0, 0.0,
                                      "abs_diff", True)
        monkeypatch.setitem(verify_mod._SUITE_FUNCS, "coefficients",
                            lambda order: [good, bad])
        rc = dispatch(["verify", "--suite", "coefficients",
                       "--out", str(tmp_path / "v.json")])
        assert rc == 1
        data = json.loads((tmp_path / "v.json").read_text())
        assert data["passed"] is False
