"""What ``import hmap`` and each CLI command load, read off ``sys.modules``.

Every case runs in a fresh interpreter, since the test process itself has
imported everything long before.
"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(script: str, *args: str, cwd=None):
    """Run ``script`` in a fresh interpreter and return the JSON of its last output line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED = """
import json
import sys

def loaded(*prefixes):
    return sorted(m for m in sys.modules if m in prefixes or m.startswith(tuple(p + "." for p in prefixes)))
"""


def test_import_hmap_loads_no_submodule_and_no_numpy():
    found = _run(LOADED + """
import hmap
print(json.dumps([loaded("hmap", "numpy"), hmap.__version__]))
""")
    assert found == [["hmap"], "0.1.0"]


# the five calls of the benchmark's cli-cold workload: the module each one
# runs, and the command modules it must not load
CLI_CALLS = {
    "radius": (["radius", "--function", "F", "--kind", "convex"],
               "hmap.radius", ("hmap.verify", "hmap.plotting", "hmap.convolution")),
    "classify": (["classify", "--function", "F", "--check", "m-alpha"],
                 "hmap.classifiers", ("hmap.verify", "hmap.plotting", "hmap.convolution", "hmap.radius")),
    "convolve": (["convolve", "--left", "L", "--right", "L", "--emit", "coeffs"],
                 "hmap.convolution", ("hmap.verify", "hmap.plotting", "hmap.radius", "hmap.classifiers")),
    "plot": (["plot", "--function", "example22", "--radii", "0.5,0.9", "--out", "curves.csv"],
             "hmap.plotting", ("hmap.verify", "hmap.convolution", "hmap.radius", "hmap.classifiers")),
    "verify": (["verify", "--suite", "coefficients", "--out", "report.json"],
               "hmap.verify", ("hmap.plotting",)),
}

CLI_SCRIPT = LOADED + """
import hmap.cli
code = hmap.cli.dispatch(json.loads(sys.argv[1]))
print()
print(json.dumps([code, loaded("hmap", "numpy.random", "numpy.polynomial", "fractions")]))
"""


@pytest.mark.parametrize("name", list(CLI_CALLS))
def test_cli_call_loads_only_what_its_command_runs(tmp_path, name):
    argv, runs, unused = CLI_CALLS[name]
    code, loaded = _run(CLI_SCRIPT, json.dumps(argv), cwd=tmp_path)
    assert code == 0
    assert runs in loaded
    assert not set(unused) & set(loaded)
    # each of these costs milliseconds of import on every call, and no command needs one
    assert not {"numpy.random", "numpy.polynomial", "fractions"} & set(loaded)


def test_cli_loads_json_only_to_write_a_report(tmp_path):
    # the script imports json itself, so look for it from a bare dispatch
    script = """
import sys
import hmap.cli
hmap.cli.dispatch(sys.argv[1:])
print()
print("[%d]" % ("json" in sys.modules))
"""
    assert _run(script, *CLI_CALLS["radius"][0], cwd=tmp_path) == [0]
    assert _run(script, *CLI_CALLS["radius"][0], "--out", "r.json", cwd=tmp_path) == [1]


def test_star_import_binds_every_public_name():
    # each name is its submodule's own object, and none is cached on the package
    wrong = _run(LOADED + """
import hmap
names = {}
exec("from hmap import *", names)
owner = {n: sys.modules[m] for m in loaded("hmap") for n in vars(sys.modules[m])}
print(json.dumps(sorted(n for n in hmap.__all__
                        if n not in names or n in vars(hmap) or names[n] is not getattr(owner[n], n))))
""")
    assert wrong == []


def test_dir_lists_every_public_name_without_loading_it():
    found = _run(LOADED + """
import hmap
print(json.dumps([sorted(set(hmap.__all__) - set(dir(hmap))), loaded("hmap")]))
""")
    assert found == [[], ["hmap"]]


def test_unknown_name_raises_attribute_error():
    found = _run(LOADED + """
import hmap
try:
    hmap.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), loaded("hmap")]))
""")
    assert found == ["module 'hmap' has no attribute 'no_such_name'", ["hmap"]]


def test_names_are_read_from_their_submodule_on_every_access():
    # nothing is cached on the package, so a patched function is what hmap returns
    same = _run(LOADED + """
import hmap
import hmap.radius
original = hmap.radius_search
hmap.radius.radius_search = patched = lambda *a, **k: None
print(json.dumps([hmap.radius_search is patched, "radius_search" in vars(hmap), original is not patched]))
""")
    assert same == [True, False, True]



# every defaulted parameter of the public API, as ``name(param)`` for a
# function, ``Class.method(param)`` for a public method and ``Class.field``
# for a defaulted init field of a dataclass: a new option is added here on
# purpose, or the census below fails
PUBLIC_OPTIONS = set("""
    CatalogEntry.alpha f_alpha(order) g_alpha(order) example21(order) example22(order) l_hadamard_l(order)
    make_named(order) map_F(order) map_L(order) parse_function(order) ClassificationReport.order_starlike
    ClassificationReport.order_convex ClassificationReport.close_to_convex ClassificationReport.degenerate
    ClassificationReport.truncation_order m_alpha_check(r_max) family_bounds_check(samples)
    family_bounds_check(r_max) GridCheckReport.first_failure HarmonicMap.forms HarmonicMap.label
    injectivity_sample_check(include) PlotSpec.radii PlotSpec.n_rays PlotSpec.n_circles
    PlotSpec.samples_per_curve PlotSpec.output_format radius_search(tol) TruncatedSeries.differentiate(times)
    run_suite(order)
""".split())


def _defaulted(name: str, obj) -> list[str]:
    """The defaulted parameters of one public name, in the notation of PUBLIC_OPTIONS."""
    def params(label, fn):
        return [f"{label}({p.name})" for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]

    if not inspect.isclass(obj):
        return params(name, obj) if callable(obj) else []
    is_data = dataclasses.is_dataclass(obj)
    found = [f"{name}.{f.name}" for f in dataclasses.fields(obj) if f.init and (
        f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)] if is_data else []
    for attr, member in vars(obj).items():
        fn = getattr(member, "__func__", member)  # a classmethod or staticmethod's function
        if inspect.isfunction(fn) and (not attr.startswith("_") or attr == "__init__" and not is_data):
            found += params(f"{name}.{attr}", fn)
    return found


def test_public_options_are_the_listed_ones():
    import hmap

    found = [option for name in hmap.__all__ for option in _defaulted(name, getattr(hmap, name))]
    assert set(found) - PUBLIC_OPTIONS == set(), "options not listed in PUBLIC_OPTIONS"
    assert PUBLIC_OPTIONS - set(found) == set(), "listed options the API no longer has"
    assert [option for option in found if found.count(option) > 1] == [], "options found twice"


# pointwise series evaluation (``TruncatedSeries.evaluate``, Horner's rule)
# per workload of the benchmark, as (calls, most terms up to the last nonzero
# coefficient in one call).  Circle tests, polar grids and Kaplan's uniform
# grids read series-only maps by inverse FFT and closed forms directly; the
# only series the four verify suites evaluate are the shear guards' dilatations
# in the convolution suite.  Routing hot work through Horner is done here on
# purpose, or the census below fails
EVAL_TRAFFIC = {"verify-all": (6, 3), "radius-scan": (0, 0), "cli-cold": (0, 0)}


def _eval_traffic(monkeypatch, run) -> tuple[int, int]:
    """(calls, most terms in one call) of ``TruncatedSeries.evaluate`` while ``run()`` runs in this process."""
    import numpy as np
    from hmap.series import TruncatedSeries

    calls, evaluate = [], TruncatedSeries.evaluate

    def counting(s, z):
        calls.append(int(np.flatnonzero(s.coeffs).max(initial=0)) + 1)
        return evaluate(s, z)

    with monkeypatch.context() as patch:
        patch.setattr(TruncatedSeries, "evaluate", counting)
        run()
    return len(calls), max(calls, default=0)


def test_eval_traffic_of_each_workload(monkeypatch, tmp_path):
    from hmap import catalog, cli, radius, verify
    from hmap.series import make_generator

    def radius_scan():
        mix = 0.5 * (make_generator("half_plane_l", 64) + make_generator("koebe_k", 64))
        for f in (catalog.make_M_alpha_member(mix, 0.5 + 0.3j), catalog.map_F()):
            for kind in ("convexity", "starlikeness"):
                radius.radius_search(f, kind, tol=1e-6)

    def cli_cold():
        for argv, _, _ in CLI_CALLS.values():
            assert cli.dispatch(argv) == 0

    monkeypatch.chdir(tmp_path)  # the plot and verify calls write their files here
    found = {"verify-all": _eval_traffic(monkeypatch, lambda: verify.run_suite("all")),
             "radius-scan": _eval_traffic(monkeypatch, radius_scan),
             "cli-cold": _eval_traffic(monkeypatch, cli_cold)}
    assert found == EVAL_TRAFFIC
