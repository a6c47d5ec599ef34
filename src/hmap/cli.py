"""Command-line interface.

Subcommands: plot, classify, radius, convolve, verify.  The function grammar
is ``name[:re,im]`` for catalog entries and ``conv(left,right)`` for Hadamard
products.  ``classify`` reads the family parameter alpha off the map as
2 b_2, from (n+1) b_{n+1} = n alpha a_n at n = 1, unless ``--alpha`` is given;
``classify --check bounds`` on a map outside that family prints a FAIL line
with the relation residual, writes no report and exits 1.
JSON reports (``--out``) are the reports' ``to_dict`` (see
:mod:`hmap.report`).  Exit codes: 0 success, 1 check failure, 2 usage error.
The environment variable ``HMAP_TRUNC_ORDER`` overrides the default
truncation degree 64; a value that is not an integer of at least 8 is a
usage error.  Each subcommand imports the modules it runs, so a call
loads no others.
"""

from __future__ import annotations

import argparse
import os
import sys

from .defaults import DEFAULT_ORDER, RELATION_ABS_TOL, SUITES


def _order_from_env() -> int:
    """The truncation degree: ``HMAP_TRUNC_ORDER`` if set, else 64; ValueError unless an integer >= 8."""
    raw = os.environ.get("HMAP_TRUNC_ORDER")
    if raw is None:
        return DEFAULT_ORDER
    try:
        order = int(raw)
    except ValueError as exc:
        raise ValueError(f"HMAP_TRUNC_ORDER must be an integer, got {raw!r}") from exc
    if order < 8:
        raise ValueError(f"HMAP_TRUNC_ORDER must be >= 8, got {order}")
    return order


def _parse_alpha(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("alpha must be given as re,im")
    return complex(float(parts[0]), float(parts[1]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmap",
        description="Construct, classify, convolve and scan planar harmonic maps on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plot = sub.add_parser("plot", help="write circle/ray images as SVG or CSV")
    p_plot.add_argument("--function", required=True)
    p_plot.add_argument("--radii", default="", help="comma-separated circle radii in (0,1)")
    p_plot.add_argument("--rays", type=int, default=12)
    p_plot.add_argument("--circles", type=int, default=8)
    p_plot.add_argument("--samples", type=int, default=256)
    p_plot.add_argument("--format", choices=("svg", "csv"), default=None,
                        help="defaults to the --out extension")
    p_plot.add_argument("--out", required=True)

    p_cls = sub.add_parser("classify", help="run a coefficient or membership classifier")
    p_cls.add_argument("--function", required=True)
    p_cls.add_argument("--check", required=True,
                       choices=("coefficient-orders", "analytic-sums", "m-alpha", "bounds"))
    p_cls.add_argument("--alpha", type=_parse_alpha, default=None,
                       help="re,im; defaults to 2 b_2 of the map")
    p_cls.add_argument("--power", type=int, choices=(2, 3), default=2)
    p_cls.add_argument("--r-max", type=float, default=None,
                       help="largest sampled radius; defaults to 0.99 for m-alpha, 0.9 for bounds")
    p_cls.add_argument("--out", default=None, help="optional JSON report path")

    p_rad = sub.add_parser("radius", help="bracket a convexity/starlikeness transition radius")
    p_rad.add_argument("--function", required=True)
    p_rad.add_argument("--kind", required=True, choices=("convex", "starlike"))
    p_rad.add_argument("--tol", type=float, default=1e-6)
    p_rad.add_argument("--out", default=None, help="optional JSON result path")

    p_conv = sub.add_parser("convolve", help="Hadamard product of two catalog maps")
    p_conv.add_argument("--left", required=True)
    p_conv.add_argument("--right", required=True)
    p_conv.add_argument("--emit", choices=("coeffs", "report"), default="coeffs")
    p_conv.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run a verification suite and print its summary")
    p_ver.add_argument("--suite", choices=SUITES, default="all")
    p_ver.add_argument("--out", default=None, help="optional JSON report path")
    return parser


def _write_json(path: str | None, payload) -> None:
    """Write ``payload`` as JSON to ``path``, or print it without one; only this loads json."""
    import json

    text = json.dumps(payload, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_plot(args, order: int) -> int:
    from .catalog import parse_function
    from .plotting import PlotSpec, plot_command

    f = parse_function(args.function, order)
    radii = tuple(float(r) for r in args.radii.split(",") if r) if args.radii else ()
    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.out.lower().endswith(".csv") else "svg"
    spec = PlotSpec(radii=radii, n_rays=args.rays, n_circles=args.circles,
                    samples_per_curve=args.samples, output_format=fmt)
    plot_command(f, spec, args.out)
    print(f"wrote {fmt} curves for {args.function} to {args.out}")
    return 0


def _cmd_classify(args, order: int) -> int:
    from .catalog import parse_function
    from .classifiers import (
        analytic_part_classify,
        coefficient_relation_residual,
        coefficient_sum_orders,
        family_bounds_check,
        m_alpha_check,
    )

    f = parse_function(args.function, order)
    # the relation (n+1) b_{n+1} = n alpha a_n at n = 1 reads alpha = 2 b_2
    alpha = args.alpha if args.alpha is not None else 2 * f.g.coefficient(2)
    sampled = {} if args.r_max is None else {"r_max": args.r_max}
    if args.check == "coefficient-orders":
        rep1, rep2 = coefficient_sum_orders(f)
        payload = [rep1.to_dict(), rep2.to_dict()]
        ok = rep1.passed or rep2.passed
        for rep in (rep1, rep2):
            status = "PASS" if rep.passed else "FAIL"
            print(f"[{status}] {rep.condition_name}: sum = {rep.condition_value:.6g}, "
                  f"orders = (starlike {rep.order_starlike}, convex {rep.order_convex})")
    elif args.check == "analytic-sums":
        rep = analytic_part_classify(f.h, alpha, args.power)
        payload = rep.to_dict()
        ok = rep.passed
        print(f"[{'PASS' if ok else 'FAIL'}] {rep.condition_name}: sum = {rep.condition_value:.6g}, "
              f"orders = (starlike {rep.order_starlike}, convex {rep.order_convex}), "
              f"close_to_convex = {rep.close_to_convex}")
    elif args.check == "m-alpha":
        rep = m_alpha_check(f, alpha, **sampled)
        payload = rep.to_dict()
        ok = rep.passed
        print(f"[{'PASS' if ok else 'FAIL'}] membership: relation residual {rep.relation_residual:.3e}, "
              f"curvature grid min {rep.curvature_grid_min:.6f} (needs > -0.5)")
    else:  # bounds
        residual = coefficient_relation_residual(f, alpha)
        if residual > RELATION_ABS_TOL:
            print(f"[FAIL] bounds: relation residual {residual:.3e} (needs <= {RELATION_ABS_TOL:g}); "
                  "the bounds only apply to family members")
            return 1
        rep = family_bounds_check(f, alpha, **sampled)
        payload = rep.to_dict()
        ok = rep.passed
        print(f"[{'PASS' if ok else 'FAIL'}] bounds: coeff slack ({rep.coeff_slack_a:.3e}, "
              f"{rep.coeff_slack_b:.3e}), growth min slack {rep.growth_min_slack:.3e}")
    if args.out:
        _write_json(args.out, payload)
    return 0 if ok else 1


def _cmd_radius(args, order: int) -> int:
    from . import radius
    from .catalog import parse_function

    radius._require_tol(args.tol)  # a usage error (exit 2), not a failed search (exit 1)
    f = parse_function(args.function, order)
    kind = "convexity" if args.kind == "convex" else "starlikeness"
    try:
        result = radius.radius_search(f, kind, tol=args.tol)
    except ValueError as exc:
        print(f"radius search failed: {exc}", file=sys.stderr)
        return 1
    cert = result.r_certified
    if cert > 0:
        sums = f"the coefficient sums certify every circle up to r = {cert:.9f}"
        start = "the last scan radius at or below that"
    else:
        sums, start = "the coefficient sums certify no circle", "the first scan radius"
    if not result.upper_limit_hit:
        print(f"{kind} radius of {args.function}: bracket [{result.r_lo:.9f}, {result.r_hi:.9f}]")
        print(f"{sums}; the circle tests start at {start}, and the finest grid "
              f"they needed has {result.grid_theta} angles")
        print(f"the search took {result.circle_tests} circle tests and {result.point_evals} "
              "single values of the rate")
    elif cert >= result.r_lo:
        print(f"{kind} of {args.function}: {sums}, past the search cap; one circle was tested, at r = {result.r_lo}")
    else:
        print(f"{kind} of {args.function}: holds at every tested radius up to {result.r_lo}; "
              f"{sums}, and circles were tested from {start} to {result.r_lo}")
    if args.out:
        _write_json(args.out, result.to_dict())
    return 0


def _cmd_convolve(args, order: int) -> int:
    from . import convolution
    from .catalog import parse_function

    left = parse_function(args.left, order)
    right = parse_function(args.right, order)
    prod = convolution.hadamard(left, right)
    if args.emit == "coeffs":
        lines = ["n,a_re,a_im,b_re,b_im"]
        for k in range(prod.order + 1):
            a = prod.h.coefficient(k)
            b = prod.g.coefficient(k)
            lines.append(f"{k},{a.real:.12g},{a.imag:.12g},{b.real:.12g},{b.imag:.12g}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0
    from .harmonic import sense_preserving_check

    # products of catalog maps keep closed forms, but a product with a log part
    # in both g is series-only: 0.7 is the largest radius where the default
    # truncation degree resolves such a product's Jacobian sign reliably
    sp = sense_preserving_check(prod, 0.7)
    payload = {
        "left": args.left,
        "right": args.right,
        "order": prod.order,
        "sense_preserving": sp.to_dict(),
    }
    _write_json(args.out, payload)
    return 0 if sp.passed else 1


def _cmd_verify(args, order: int) -> int:
    from . import verify

    report = verify.run_suite(args.suite, order)
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        _write_json(args.out, report.to_dict())
    return 0 if report.passed else 1


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        order = _order_from_env()  # a bad value is a usage error, like a bad argument
        if args.command == "plot":
            return _cmd_plot(args, order)
        if args.command == "classify":
            return _cmd_classify(args, order)
        if args.command == "radius":
            return _cmd_radius(args, order)
        if args.command == "convolve":
            return _cmd_convolve(args, order)
        if args.command == "verify":
            return _cmd_verify(args, order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
