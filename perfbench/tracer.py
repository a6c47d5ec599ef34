"""Span tracing for the traced benchmark run, installed from outside hmap.

``Tracer.install`` replaces public functions and methods of hmap with
wrappers that record a span (key, start, end, parent) and a call count.  A
function is replaced under every name an hmap module binds it to, so a module
that imported it by name (``radius`` imports ``angular_derivatives``, ``cli``
imports ``parse_function``) calls the wrapper too.  ``uninstall`` puts the
originals back; an untraced run never installs anything.

Spans stay in memory until ``collect`` folds them into per-key totals:
outermost calls, self time (span minus the time its child spans cover) and
inclusive time of the outermost calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

_EVAL_METHODS = ("h_at", "g_at", "dh_at", "dg_at", "d2h_at", "d2g_at")
_CATALOG_BUILDERS = (
    "f_alpha", "map_L", "map_F", "g_alpha", "example21", "example22", "l_hadamard_l",
    "make_named", "parse_function", "make_M_alpha_member", "shear_horizontal", "shear_vertical",
)


def _horner_work(args, kwargs):
    series, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    points = int(np.size(z))
    return {"points": points, "terms": points * (series.order + 1)}


def _eval_work(args, kwargs):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["z"]))}


def add_totals(into: dict[str, dict], totals: dict[str, dict]) -> None:
    """Add per-key totals (as ``Tracer.collect`` returns them) into ``into``."""
    for key, fields in totals.items():
        slot = into.setdefault(key, {})
        for field, value in fields.items():
            slot[field] = slot.get(field, 0) + value


def per_round(totals: dict[str, dict], rounds: int) -> dict[str, dict]:
    return {key: {f: v / rounds for f, v in fields.items()} for key, fields in totals.items()}


class Tracer:
    def __init__(self):
        self.tag = ""  # appended to the key of every span recorded while it is set
        self._spans: list[list] = []  # [key, start, end, parent, child_time, outermost]
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._work: dict[tuple[str, str], int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, key: str, fn, args=(), kwargs=None, work=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``key``.

        ``work(args, kwargs)`` may return units of work to add to the key's counts.
        """
        kwargs = kwargs or {}
        key += self.tag
        parent = self._stack[-1] if self._stack else -1
        rec = [key, 0.0, 0.0, parent, 0.0, self._depth[key] == 0]
        self._spans.append(rec)
        self._stack.append(len(self._spans) - 1)
        self._depth[key] += 1
        if work is not None:
            for name, n in work(args, kwargs).items():
                self._work[(key, name)] += n
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._depth[key] -= 1
            self._stack.pop()
            if parent >= 0:
                self._spans[parent][4] += rec[2] - rec[1]

    def collect(self) -> dict[str, dict]:
        """Fold the recorded spans into per-key totals and clear them."""
        totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for key, start, end, _parent, child, outermost in self._spans:
            t = totals[key]
            t["self_s"] += (end - start) - child
            if outermost:
                t["calls"] += 1
                t["incl_s"] += end - start
        for (key, name), n in self._work.items():
            totals[key][name] = totals[key].get(name, 0) + n
        self._spans.clear()
        self._work.clear()
        return dict(totals)

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, key, fn, work=None, key_from_args=None):
        tracer = self

        def traced(*args, **kwargs):
            k = key_from_args(args, kwargs) if key_from_args else key
            return tracer.span(k, fn, args, kwargs, work)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(self, fn, key, work=None, key_from_args=None):
        """Replace ``fn`` under every name an imported hmap module binds it to."""
        wrapper = self._wrapper(key, fn, work, key_from_args)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hmap" or name.startswith("hmap.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, wrapper)

    def wrap_method(self, cls, attr, key, work=None):
        self._patch(cls, attr, self._wrapper(key, cls.__dict__[attr], work))

    def install(self) -> None:
        import hmap.catalog
        import hmap.classifiers
        import hmap.convolution
        import hmap.harmonic
        import hmap.plotting
        import hmap.radius
        import hmap.verify
        from hmap.harmonic import HarmonicMap
        from hmap.series import TruncatedSeries

        self.wrap_method(TruncatedSeries, "evaluate", "series.horner", work=_horner_work)
        for m in _EVAL_METHODS:
            self.wrap_method(HarmonicMap, m, "harmonic.eval", work=_eval_work)
        self.wrap_function(hmap.harmonic.angular_derivatives, "harmonic.angular_derivatives")
        self.wrap_function(hmap.radius.radius_search, "radius.search")
        self.wrap_function(hmap.radius.convex_test_at_radius, "radius.circle_test")
        self.wrap_function(hmap.radius.starlike_test_at_radius, "radius.circle_test")
        self.wrap_function(hmap.classifiers.kaplan_integral_check, "classifiers.kaplan_integral")
        self.wrap_function(hmap.classifiers.kaplan_integrand, "classifiers.kaplan_integrand")
        self.wrap_function(hmap.classifiers.family_bounds_check, "classifiers.family_bounds")
        self.wrap_function(hmap.convolution.hadamard, "convolution.hadamard")
        self.wrap_function(hmap.convolution.tilde_dilatation_check, "convolution.tilde_check")
        for name in _CATALOG_BUILDERS:
            self.wrap_function(getattr(hmap.catalog, name), "catalog.build")
        self.wrap_function(
            hmap.verify.run_suite, "verify.suite",
            key_from_args=lambda a, kw: f"verify.{a[0] if a else kw['name']}",
        )
        self.wrap_function(hmap.plotting.sample_curves, "plotting.sample_curves")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
