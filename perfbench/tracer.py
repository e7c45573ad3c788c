"""Tracing psiring from outside: wrap each layer's public functions, record spans.

psiring has no tracing of its own yet, so the benchmark wraps the functions at
each layer boundary.  ``from .x import y`` copies a binding, so a wrapper is
installed under every name in every psiring module (and class) that holds the
original function, e.g. ``psiring.slices.rank_mod_p`` and
``psiring.koszul.nullspace_mod_p`` as well as ``psiring.exactla.rank_mod_p``.

A span is (id, name, start, end, parent, run id, attributes, error).  Spans
are kept in memory, the parent is the innermost open span of the same thread
(or, inside parallel_map's workers, the map's span), and the run id is the
index of the CLI command that caused the span.  Recording takes a lock, so the
--threads 2 pool can record concurrently.  Hot inner helpers such as
MonomialOrder.key and exp_divides (over a million calls each) are never
wrapped.

Layer seconds are summed over threads: under --threads 2 they include time a
thread waits for the interpreter lock.  Counts are exact and must repeat
between two traced passes of one seed.  exactla's _ops and _bytes are computed
from array shapes (8-byte entries), not measured.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# name -> unit for every per-layer metric, in report order
LAYER_UNITS = {
    "presentation.build_s": "s", "presentation.calls": "count",
    "series.s": "s", "series.coeff_calls": "count",
    "slices.self_s": "s", "slices.rowbuild_s": "s", "slices.slices": "count",
    "slices.rows": "count", "slices.nnz": "count", "slices.rational_frac": "ratio",
    "slices.bad_prime": "count",
    "exactla.rational_s": "s", "exactla.rational_calls": "count", "exactla.rational_nnz": "count",
    "exactla.int64_s": "s", "exactla.int64_calls": "count", "exactla.int64_entries": "count",
    "exactla.float64_s": "s", "exactla.float64_calls": "count",
    "exactla.float64_entries": "count",
    "exactla.matmul_s": "s", "exactla.matmul_ops": "op", "exactla.matmul_bytes": "B",
    "groebner.s": "s", "groebner.nf_s": "s", "groebner.nf_calls": "count",
    "groebner.spairs": "count", "groebner.useful_frac": "ratio", "groebner.basis_size": "count",
    "groebner.linear_s": "s",
    "koszul.s": "s", "koszul.relspace_s": "s", "koszul.stage_entries": "count",
    "koszul.towers": "count", "koszul.refuse_after_s": "s",
    "geometry.sample_s": "s", "geometry.points": "count", "geometry.minors_s": "s",
    "geometry.minors": "count", "geometry.singular_s": "s",
    "reports.render_s": "s", "reports.bytes": "B",
    "util.map_s": "s", "util.items": "count", "util.parallel_speedup": "ratio",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self, serial_baseline: bool = False):
        self.serial_baseline = serial_baseline
        self.run_id = 0
        self.spans: list[tuple] = []
        self.map_pairs: list[tuple[float, float, bool]] = []  # (serial s, threaded s, equal)
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._paused = False
        self._spoly: dict[int, object] = {}  # id -> S-polynomial not yet reduced
        self._origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, info=None):
        """fn inside a span; name may be a callable of the call's arguments.

        info(args, kwargs, result) returns the span's attributes.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            stack.append(sid)
            error, result = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = info(args, kwargs, result) if info and error is None else {}
                with self._lock:
                    self.spans.append((sid, label, t0 - self._origin, t1 - self._origin,
                                       parent, self.run_id, attrs, error))

        return wrapper

    def _wrap_map(self, fn):
        """parallel_map in a span whose id its worker threads inherit as parent.

        With serial_baseline, each threaded map first runs once at threads=1
        untraced: the single-threaded baseline of util.parallel_speedup.  Its
        results must equal the threaded ones.
        """

        def body(item_fn, items, threads):
            parent = self._stack()[-1]

            def in_thread(x):
                stack = self._stack()
                stack.append(parent)
                try:
                    return item_fn(x)
                finally:
                    stack.pop()

            return fn(in_thread, items, threads)

        traced = self.wrap("util.parallel_map", body,
                           lambda a, k, r: {"items": len(a[1]), "threads": a[2]})

        @functools.wraps(fn)
        def parallel_map(item_fn, items, threads):
            if self._paused:
                return fn(item_fn, items, threads)
            items = list(items)
            if not (self.serial_baseline and threads > 1):
                return traced(item_fn, items, threads)
            self._paused = True
            t = time.perf_counter()
            try:
                ref = fn(item_fn, items, 1)
            finally:
                self._paused = False
            serial = time.perf_counter() - t
            t = time.perf_counter()
            out = traced(item_fn, items, threads)
            self.map_pairs.append((serial, time.perf_counter() - t, out == ref))
            return out

        return parallel_map

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary under every name that binds it."""
        from psiring import exactla, geometry, groebner, koszul, presentation, reports
        from psiring import series, slices, util
        from psiring.exactla import FLOAT_LANE_MAX_PRIME

        def lane(a, p, *rest, **kw):
            # the documented dispatch: float64 panel lane for p below
            # FLOAT_LANE_MAX_PRIME when both dimensions are at least 64
            shape = np.shape(a)
            return ("exactla.float64" if p < FLOAT_LANE_MAX_PRIME and min(shape) >= 64
                    else "exactla.int64")

        def entries(args, kwargs, result):
            rows, cols = np.shape(args[0])
            return {"entries": rows * cols}

        def matmul(args, kwargs, result):
            (m, k), n = args[0].shape, args[1].shape[1]
            return {"ops": 2 * m * k * n, "bytes": 8 * (m * k + k * n + m * n)}

        def spoly(args, kwargs, result):
            self._spoly[id(result)] = result
            return {}

        def nform(args, kwargs, result):
            if self._spoly.pop(id(args[0]), None) is None:
                return {}
            return {"spair": 1, "useful": int(not result.is_zero())}

        def slice_info(args, kwargs, r):
            return {"rows": r.rows, "nonempty": int(r.method != "empty"),
                    "rational": int("rational" in r.method),
                    "bad_prime": int("bad-prime" in r.method or "max" in r.method)}

        targets = [
            (presentation.build_an, "presentation.build_an", None),
            (presentation.build_bnm, "presentation.build_bnm", None),
            (presentation.tensor_relation_space, "presentation.tensor_relation_space", None),
            (series.lee_series, "series.lee_series", None),
            (series.lee_series_restricted, "series.lee_series_restricted", None),
            (series.curve_module_series, "series.curve_module_series", None),
            (series.lee_coefficient, "series.lee_coefficient", None),
            (series.total_hilbert, "series.total_hilbert", None),
            (slices.slice_dimension, "slices.slice_dimension", slice_info),
            (slices.relation_product_rows, "slices.relation_product_rows",
             lambda a, k, r: {"nnz": sum(len(row) for row in r[0])}),
            (exactla.rank_sparse_rational, "exactla.rational",
             lambda a, k, r: {"nnz": sum(len(row) for row in a[0])}),
            (exactla.echelon_mod_p, lane, entries),
            (exactla.rank_mod_p, lane, entries),
            (exactla.nullspace_mod_p, lane, entries),
            (exactla.mod_matmul, "exactla.matmul", matmul),
            (groebner.groebner_for, "groebner.groebner_for", None),
            (groebner.buchberger, "groebner.buchberger",
             lambda a, k, r: {"basis": len(r.basis)}),
            (groebner.s_poly, "groebner.s_poly", spoly),
            (groebner.normal_form, "groebner.normal_form", nform),
            (groebner.linear_interreduce, "groebner.linear_interreduce", None),
            (groebner.krull_dimension, "groebner.krull_dimension", None),
            (groebner.leading_terms_agree, "groebner.leading_terms_agree", None),
            (koszul.koszul_summary, "koszul.koszul_summary", None),
            (koszul.koszul_prediction, "koszul.koszul_prediction", None),
            (koszul.dual_tower, "koszul.dual_tower", None),
            (koszul.relation_space_matrices, "koszul.relation_space_matrices", None),
            (geometry.sample_config, "geometry.sample_config", None),
            (geometry.alpha_values, "geometry.alpha_values", None),
            (geometry.verify_vanishing, "geometry.verify_vanishing", None),
            (geometry.cij_values, "geometry.cij_values", None),
            (geometry.singular_minors, "geometry.singular_minors",
             lambda a, k, r: {"minors": len(r)}),
            (geometry.singular_locus_dim, "geometry.singular_locus_dim", None),
            (reports.render, "reports.render", lambda a, k, r: {"bytes": len(r)}),
        ]
        for fn, name, info in targets:
            _rebind(fn, self.wrap(name, fn, info))
        _rebind(util.parallel_map, self._wrap_map(util.parallel_map))
        to_field = presentation.PresentationSpec.to_field
        presentation.PresentationSpec.to_field = self.wrap("presentation.to_field", to_field)

    # -- output -------------------------------------------------------------------

    def write(self, path: str) -> None:
        """The spans as JSON lines, written once when the pass ends."""
        keys = ("id", "name", "start", "end", "parent", "run", "attrs", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, from this pass's spans."""
        names = {s[0]: s[1] for s in self.spans}
        layer = {sid: name.split(".")[0] for sid, name in names.items()}
        child_s: dict[int, float] = defaultdict(float)
        for sid, name, t0, t1, parent, *_ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        secs: dict[str, float] = defaultdict(float)   # per span name
        calls: dict[str, int] = defaultdict(int)
        outer: dict[str, float] = defaultdict(float)  # per layer, outermost spans only
        outer_s: dict[str, float] = defaultdict(float)  # per span name, outermost only
        outer_calls: dict[str, int] = defaultdict(int)
        attrs: dict[str, int] = defaultdict(int)  # name:attr totals
        self_s: dict[str, float] = defaultdict(float)
        refused_after = 0.0
        stage_entries = 0
        for sid, name, t0, t1, parent, run, at, error in self.spans:
            d = t1 - t0
            ly = layer[sid]
            secs[name] += d
            calls[name] += 1
            self_s[name] += d - child_s[sid]
            for k, v in at.items():
                attrs[f"{name}:{k}"] += v
            if parent is None or layer.get(parent) != ly:
                outer[ly] += d
                outer_s[name] += d
                outer_calls[name] += 1
                if ly == "exactla":
                    attrs[f"{name}:outer_entries"] += at.get("entries", 0)
                if name == "koszul.koszul_summary" and error == "BudgetError":
                    refused_after += d
            if (name == "exactla.float64" or name == "exactla.int64") and parent is not None \
                    and names.get(parent) == "koszul.dual_tower":
                stage_entries += at.get("entries", 0)

        pres = ("presentation.build_an", "presentation.build_bnm",
                "presentation.tensor_relation_space", "presentation.to_field")
        serial = sum(s for s, _, _ in self.map_pairs)
        threaded = sum(t for _, t, _ in self.map_pairs)
        nonempty = attrs["slices.slice_dimension:nonempty"]
        spairs = attrs["groebner.normal_form:spair"]
        return {
            "presentation.build_s": outer["presentation"],
            "presentation.calls": sum(calls[n] for n in pres),
            "series.s": outer["series"],
            "series.coeff_calls": calls["series.lee_coefficient"],
            "slices.self_s": self_s["slices.slice_dimension"],
            "slices.rowbuild_s": secs["slices.relation_product_rows"],
            "slices.slices": calls["slices.slice_dimension"],
            "slices.rows": attrs["slices.slice_dimension:rows"],
            "slices.nnz": attrs["slices.relation_product_rows:nnz"],
            "slices.rational_frac": _ratio(attrs["slices.slice_dimension:rational"], nonempty),
            "slices.bad_prime": attrs["slices.slice_dimension:bad_prime"],
            "exactla.rational_s": outer_s["exactla.rational"],
            "exactla.rational_calls": outer_calls["exactla.rational"],
            "exactla.rational_nnz": attrs["exactla.rational:nnz"],
            "exactla.int64_s": outer_s["exactla.int64"],
            "exactla.int64_calls": outer_calls["exactla.int64"],
            "exactla.int64_entries": attrs["exactla.int64:outer_entries"],
            "exactla.float64_s": outer_s["exactla.float64"],
            "exactla.float64_calls": outer_calls["exactla.float64"],
            "exactla.float64_entries": attrs["exactla.float64:outer_entries"],
            "exactla.matmul_s": secs["exactla.matmul"],
            "exactla.matmul_ops": attrs["exactla.matmul:ops"],
            "exactla.matmul_bytes": attrs["exactla.matmul:bytes"],
            "groebner.s": outer["groebner"],
            "groebner.nf_s": secs["groebner.normal_form"],
            "groebner.nf_calls": calls["groebner.normal_form"],
            "groebner.spairs": spairs,
            "groebner.useful_frac": _ratio(attrs["groebner.normal_form:useful"], spairs),
            "groebner.basis_size": attrs["groebner.buchberger:basis"],
            "groebner.linear_s": secs["groebner.linear_interreduce"],
            "koszul.s": outer["koszul"],
            "koszul.relspace_s": secs["koszul.relation_space_matrices"],
            "koszul.stage_entries": stage_entries,
            "koszul.towers": calls["koszul.dual_tower"],
            "koszul.refuse_after_s": refused_after,
            "geometry.sample_s": sum(secs[f"geometry.{n}"] for n in (
                "sample_config", "alpha_values", "verify_vanishing", "cij_values")),
            "geometry.points": calls["geometry.sample_config"],
            "geometry.minors_s": secs["geometry.singular_minors"],
            "geometry.minors": attrs["geometry.singular_minors:minors"],
            "geometry.singular_s": secs["geometry.singular_locus_dim"],
            "reports.render_s": secs["reports.render"],
            "reports.bytes": attrs["reports.render:bytes"],
            "util.map_s": secs["util.parallel_map"],
            "util.items": attrs["util.parallel_map:items"],
            "util.parallel_speedup": serial / threaded if threaded else 1.0,
        }


def _rebind(original, wrapper) -> None:
    """Replace original under every psiring module-level name (and class) bound to it."""
    for name, mod in list(sys.modules.items()):
        if name != "psiring" and not name.startswith("psiring."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
