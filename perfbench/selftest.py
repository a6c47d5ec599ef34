"""Quick self-test of the benchmark itself (not of hmap).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names what run.py prints, that the reference maps
are right (against their Taylor coefficients and the paper's constants), the
tracer's self-time arithmetic, the record judge, one short run with and one
without tracing, and that a directory without the hmap sources makes the
benchmark fail without a result.  The tier-1 suite does not collect this
file; it takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_cost", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _taylor(coeffs, z):
    return sum(c * z ** n for n, c in enumerate(coeffs))


def test_reference_maps_match_their_coefficients():
    n = np.arange(200, dtype=float)
    z = 0.35 * np.exp(1j * np.linspace(0, 2 * np.pi, 7))
    alpha = 0.3 - 0.4j
    tables = {
        "f_alpha": (ref.f_alpha(alpha), np.where(n >= 1, (n + 1) / 2, 0), np.where(n >= 2, alpha * (n - 1) / 2, 0)),
        "square": (ref.half_plane_square(), np.where(n >= 1, ((n + 1) / 2) ** 2, 0), np.where(n >= 2, ((n - 1) / 2) ** 2, 0)),
        "example22": (ref.example22(), np.where(n >= 1, 1.0, 0), np.where(n >= 1, 1 - 1 / np.maximum(n, 1), 0)),
    }
    for name, (cf, a, b) in tables.items():
        for fn, coeffs in ((cf.h, a), (cf.g, b), (cf.dh, a[1:] * n[1:]), (cf.dg, b[1:] * n[1:]),
                           (cf.d2h, a[2:] * n[2:] * n[1:-1]), (cf.d2g, b[2:] * n[2:] * n[1:-1])):
            assert np.max(np.abs(fn(z) - _taylor(coeffs, z))) < 1e-10, name


def test_reference_radii():
    assert checks.reference_self_check() is None
    assert abs(ref.true_radius(ref.f_alpha(-1), "convexity") - (math.sqrt(2) - 1)) < 1e-12
    assert abs(ref.true_radius(ref.example22(), "convexity") - 1 / 3) < 1e-12


def test_bracket_check():
    target = checks.RadiusReference(ref.f_alpha(1), "convexity")
    r = ref.R_CONVEX_F
    assert target.check(r - 5e-7, r + 4e-7, 1e-6) is None
    assert target.check(r + 1e-7, r + 9e-7, 1e-6) is not None  # misses
    assert target.check(r - 9e-7, r + 9e-7, 1e-6) is not None  # too wide


def test_tracer_self_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.span("leaf", leaf)
        tracer.span("outer", lambda: None)  # nested call of the same key

    tracer.span("outer", outer)
    totals = tracer.collect()
    assert totals["outer"]["calls"] == 1 and totals["leaf"]["calls"] == 1
    assert abs(totals["outer"]["incl_s"] - totals["outer"]["self_s"] - totals["leaf"]["incl_s"]) < 1e-3
    assert 0.009 < totals["outer"]["self_s"] < 0.02
    assert tracer.collect() == {}


def test_judge():
    rec = {"computed": 1.0, "expected": 1.5, "tolerance": 0.5, "comparison": "abs_diff", "passed": True}
    assert checks.judge(rec)
    assert not checks.judge({**rec, "comparison": "at_least", "tolerance": 0.1})
    assert checks.judge({**rec, "comparison": "at_most"})
    assert checks.check_records([{**rec, "claim_id": "x", "passed": False}], headline=False)[1]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_short_runs():
    for trace in ("0", "1"):
        proc = _run(ROOT, "--workload", "radius-scan", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["correct"] and out["attempted"] == 20 * (1 + int(trace)) and out["failed"] * 10 == out["attempted"]
        names = [n for n, _ in run.PER_LAYER] if trace == "1" else ["setup_s", "op_cost", "peak_rss_mb"]
        assert list(out["metrics"]) == names
        if trace == "1":
            m = {k: v["value"] for k, v in out["metrics"].items()}
            assert m["radius.searches.closed"] == 14 and m["radius.searches.series"] == 6
            assert m["series.horner_calls"] == m["series.horner_calls.closed"] + m["series.horner_calls.series"]
    assert not list(BENCH.glob("work-*")), "run left its scratch directory behind"


def test_fails_without_sources():
    bare = Path(tempfile.mkdtemp(prefix="work-selftest-", dir=BENCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("work-*", "__pycache__"))
        proc = _run(bare, "--workload", "verify-all", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
