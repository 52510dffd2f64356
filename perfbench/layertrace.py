"""Spans and counters around the public functions of each scrollcurves layer.

A traced unit wraps every function in TRACED at every module attribute that
holds it (``make_semigroup`` is reached as ``scrollcurves.curves.make_semigroup``,
``analyze`` as ``scrollcurves.catalog.analyze``, and so on), so calls made
between modules and within one module both pass through a wrapper.  Each
call records a span (name, start, end, parent) in memory; the per-layer
metrics are computed from the spans after the unit, and the spans are
written to a CSV file.  The originals are put back by ``remove``.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import Counter

from scrollcurves.errors import NonIntegralGenus, PathsDisagree

PACKAGE = "scrollcurves"
MODULES = ("semigroups", "curves", "scrolls", "chow", "catalog", "cli", "fixtures", "errors")
TRACED = {
    "semigroups": ("make_semigroup", "enumerate_genus", "eta_local", "mu_local"),
    "curves": (
        "analyze",
        "canonical_exponents",
        "gonality",
        "sheaf_degree_h0",
        "verify_dualizing_candidate",
    ),
    "scrolls": ("scroll_structures", "min_scroll_dimension", "run_decomposition"),
    "chow": (
        "euler_characteristic",
        "h0_class",
        "pa_from_bundle",
        "genus_on_surface",
        "genus_on_cone",
        "chow_mul",
    ),
    "catalog": ("build_catalog", "row_for_curve", "audit_fixture", "render"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
EXIT_CODES = (0, 1, 2, 3)


class Tracer:
    """Wraps the traced functions and keeps their spans and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.raised: dict[int, str] = {}
        self.counts = Counter()
        self._stack: list[int] = []
        self._seen_disagree: set[int] = set()
        self._patched: list = []

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{layer}.{function}", layer, original)
                for module in modules:
                    if getattr(module, function, None) is original:
                        setattr(module, function, wrapper)
                        self._patched.append((module, function, original))

    def remove(self) -> None:
        for module, function, original in reversed(self._patched):
            setattr(module, function, original)
        self._patched.clear()

    def _wrap(self, name: str, layer: str, function):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, observe = self.spans, self._stack, _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                self.raised[index] = type(exc).__name__
                if isinstance(exc, PathsDisagree) and id(exc) not in self._seen_disagree:
                    self._seen_disagree.add(id(exc))
                    self.counts[f"{layer}.paths_disagree"] += 1
                raise
            else:
                if observe is not None:
                    observe(self.counts, args, result)
                return result
            finally:
                spans[index] = (name_id, start, time.perf_counter(), parent)
                stack.pop()

        wrapper.__wrapped__ = function
        return wrapper

    def metrics(self, items: int) -> dict:
        """Per-layer metrics of everything traced so far; `items` is the
        number of workload items the spans cover."""
        names, counts = self.names, self.counts
        calls = Counter()
        self_s = Counter()
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        under_gonality = [False] * len(self.spans)
        sheaf_under_gonality = 0
        chow_roots = chow_nonintegral = 0
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            name = names[name_id]
            parent_name = names[self.spans[parent][0]] if parent >= 0 else ""
            calls[name] += 1
            self_s[name] += end - start - child[index]
            under_gonality[index] = parent >= 0 and (
                under_gonality[parent] or parent_name == "curves.gonality"
            )
            sheaf_under_gonality += name == "curves.sheaf_degree_h0" and under_gonality[index]
            if name.startswith("chow.") and not parent_name.startswith("chow."):
                chow_roots += 1
                chow_nonintegral += self.raised.get(index) == NonIntegralGenus.__name__

        out = {}
        for name in names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (float(self_s[name]), "s")
        window = counts["window_bytes"]
        out["semigroups.make_semigroup.window_bytes"] = (window, "bytes")
        out["semigroups.make_semigroup.useful_ratio"] = (
            counts["useful_bytes"] / window if window else 0.0, "ratio"
        )
        out["semigroups.enumerate_genus.semigroups"] = (counts["semigroups"], "count")
        gonality_calls = calls["curves.gonality"]
        out["curves.gonality.pencils_per_call"] = (
            sheaf_under_gonality / gonality_calls if gonality_calls else 0.0, "ratio"
        )
        out["curves.gonality.calls_per_item"] = (gonality_calls / items, "ratio")
        out["curves.analyze.calls_per_item"] = (calls["curves.analyze"] / items, "ratio")
        out["scrolls.scroll_structures.structures"] = (counts["structures"], "count")
        out["chow.nonintegral_ratio"] = (
            chow_nonintegral / chow_roots if chow_roots else 0.0, "ratio"
        )
        out["catalog.render.bytes"] = (counts["render_bytes"], "bytes")
        out["catalog.audit_fixture.flagged"] = (counts["flagged"], "count")
        for code in EXIT_CODES:
            out[f"cli.main.exit_{code}"] = (counts[f"exit_{code}"], "count")
        for layer in LAYERS:
            out[f"{layer}.paths_disagree"] = (counts[f"{layer}.paths_disagree"], "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "name", "start_s", "end_s", "raised"])
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                writer.writerow(
                    [index, parent, self.names[name_id], repr(start), repr(end),
                     self.raised.get(index, "")]
                )


def _observe_semigroup(counts, args, semigroup) -> None:
    # the reachability window make_semigroup allocates, computed from its
    # input rather than measured
    counts["window_bytes"] += 4 * max(int(g) for g in args[0]) ** 2 + 4
    counts["useful_bytes"] += semigroup.beta + semigroup.alpha


def _observe_main(counts, args, code) -> None:
    counts[f"exit_{code}"] += 1


_OBSERVERS = {
    "semigroups.make_semigroup": _observe_semigroup,
    "semigroups.enumerate_genus": lambda counts, args, result: counts.update(
        semigroups=len(result)
    ),
    "scrolls.scroll_structures": lambda counts, args, result: counts.update(
        structures=len(result)
    ),
    "catalog.render": lambda counts, args, result: counts.update(
        render_bytes=len(result.encode())
    ),
    "catalog.audit_fixture": lambda counts, args, result: counts.update(
        flagged=len(result.flagged)
    ),
    "cli.main": _observe_main,
}
