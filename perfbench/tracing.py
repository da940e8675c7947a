"""Span recording for the traced benchmark mode.

The benchmark wraps the public functions of each geosplit layer from the
outside: every module attribute that is one of the target functions,
including the names other modules imported from it, is rebound to a timing
wrapper.  Nothing under src/ is edited.

A span records its name, start, end, parent span and counts.  Spans are
kept in memory and written out when the run ends.  Leaf functions that run
hundreds of thousands of times (the coset action, cycle and Moebius type
extraction, element orders, norm tests, primitivity reductions, tensor
products) are aggregated into one span per (name, parent), which carries
the call count and the summed time, so tracing stays affordable.

A layer's self time is its span time minus the time of the spans it
caused.  Pool workers fork from the patched parent, so spans recorded in
them are lost; the trace-range enumeration is therefore one span in the
parent, and only the work the parent does under it (primitivity marking,
norm tests) is attributed to child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

clock = time.perf_counter


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, prefix=""):
        self.prefix = prefix
        self.spans = []
        self._stack = []  # open frames: [span id, time covered by child spans]
        self._leaves = {}  # (name, parent id) -> aggregated leaf span

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, counts=None):
        """Wrapper recording one span per call; `counts(args, kwargs, result)`
        returns the span's counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{self.prefix}{len(spans)}"
            rec = {"id": sid, "name": name, "parent": self._parent(), "calls": 1, "counts": {}}
            spans.append(rec)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                rec.update(start=start, end=end, time=end - start,
                           self=end - start - frame[1])
            if counts:
                rec["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def wrap_leaf(self, name, fn, counts=None):
        """Wrapper for a function that calls no traced function: calls are
        summed into one span per (name, parent)."""
        leaves, stack = self._leaves, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            parent = stack[-1][0] if stack else None
            if stack:
                stack[-1][1] += end - start
            rec = leaves.get((name, parent))
            if rec is None:
                rec = {"id": f"{self.prefix}{name}@{parent}", "name": name, "parent": parent,
                       "start": start, "calls": 0, "time": 0.0, "counts": {}}
                leaves[(name, parent)] = rec
            rec["end"] = end
            rec["calls"] += 1
            rec["time"] += end - start
            if counts:
                for key, val in counts(args, kwargs, result).items():
                    rec["counts"][key] = rec["counts"].get(key, 0) + val
            return result

        return traced

    def record(self, name, start, end, counts=None):
        """Add a span measured by the caller (e.g. an import)."""
        self.spans.append({"id": f"{self.prefix}{len(self.spans)}", "name": name,
                           "parent": self._parent(), "calls": 1, "start": start, "end": end,
                           "time": end - start, "self": end - start, "counts": counts or {}})

    def all_spans(self):
        out = list(self.spans)
        for rec in self._leaves.values():
            out.append(dict(rec, self=rec["time"]))
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.all_spans(), fh)


# ---------------------------------------------------------------------------
# the layer functions that are wrapped, with their span names

def _n(key, value_of):
    return lambda args, kwargs, result: {key: value_of(args, result)}


_TARGETS = [
    # (module, attribute, span name, leaf?, counts)
    ("geosplit.core", "order_in_xi_tuple", "core.order_in_xi", True, None),
    ("geosplit.cosets", "build_coset_table", "cosets.build_coset_table", False,
     _n("cosets", lambda a, r: r.index)),
    ("geosplit.cosets", "act", "cosets.act", True, _n("points", lambda a, r: len(r))),
    ("geosplit.cosets", "cycle_type_of", "cosets.cycle_type", True, None),
    ("geosplit.cosets", "moebius_type_from_perm", "cosets.moebius_type", True, None),
    ("geosplit.cosets", "dual_type_report", "cosets.dual_type_report", False, None),
    ("geosplit.census", "conjugacy_classes", "census.conjugacy_classes", False,
     _n("classes", lambda a, r: len(r))),
    ("geosplit.census", "density_table", "census.density_table", False, None),
    ("geosplit.census", "closed_class_catalog", "census.closed_catalog", False,
     _n("classes", lambda a, r: len(r))),
    ("geosplit.census", "density_table_closed_form", "census.closed_form", False, None),
    ("geosplit.census", "convolve_tables", "census.convolve", False, None),
    ("geosplit.census", "tensor_partitions", "census.tensor_partitions", True, None),
    ("geosplit.census", "write_census", "census.cache_write", False,
     _n("bytes", lambda a, r: os.path.getsize(a[0]))),
    ("geosplit.census", "load_census", "census.cache_read", False,
     _n("bytes", lambda a, r: os.path.getsize(a[0]))),
    ("geosplit.geodesics", "enumerate_primitive_classes", "geodesics.enumerate", False,
     _n("classes", lambda a, r: len(r))),
    ("geosplit.geodesics", "class_of_matrix", "geodesics.primitivity", True, None),
    ("geosplit.geodesics", "norm_below", "geodesics.norm_below", True, None),
    ("geosplit.geodesics", "empirical_tally", "geodesics.tally", False,
     _n("tallied", lambda a, r: r.total)),
    ("geosplit.zeta", "ratio_identity_check", "zeta.ratio_check", False,
     _n("terms", lambda a, r: r["term_count"])),
    ("geosplit.zeta", "venkov_zograf_check", "zeta.venkov_check", False,
     _n("terms", lambda a, r: r["term_count"])),
]


def install(tracer: Tracer):
    """Rebind every module attribute that is a target function."""
    from geosplit import core, zeta  # the package import loads every layer but cli

    # every loaded module, so names imported into other modules (the CLI,
    # the benchmark's own workloads) are rebound too
    modules = [m for m in list(sys.modules.values()) if m is not None]
    swaps = []
    for modname, attr, name, leaf, counts in _TARGETS:
        orig = getattr(sys.modules[modname], attr)
        swaps.append((orig, (tracer.wrap_leaf if leaf else tracer.wrap)(name, orig, counts)))
    # enumerate_xi is lru_cached: trace the function behind a fresh cache of
    # the same size, so a span is a build of Xi(N) and cache hits cost nothing
    orig = core.enumerate_xi
    inner = tracer.wrap("core.enumerate_xi", orig.__wrapped__, _n("elements", lambda a, r: len(r)))
    swaps.append((orig, functools.lru_cache(maxsize=orig.cache_parameters()["maxsize"])(inner)))
    for orig, new in swaps:
        for mod in modules:
            for key in [k for k, v in getattr(mod, "__dict__", {}).items() if v is orig]:
                setattr(mod, key, new)
    zeta.ClassData.__init__ = tracer.wrap("zeta.class_data", zeta.ClassData.__init__)


# ---------------------------------------------------------------------------
# per-layer metrics from spans

CLI_COMMANDS = ["densities_tsv", "densities_composite", "densities_closed_form", "type",
                "type_words", "empirical", "census_write", "census_verify", "zeta_ratio",
                "zeta_venkov"]

LAYER_METRICS = [
    # (metric name, unit)
    ("core.enumerate_xi.s", "s"), ("core.enumerate_xi.elements", "count"),
    ("core.order_in_xi.calls", "count"), ("core.order_in_xi.s", "s"),
    ("cosets.build_coset_table.s", "s"), ("cosets.build_coset_table.cosets", "count"),
    ("cosets.act.calls", "count"), ("cosets.act.s", "s"), ("cosets.act.points", "count"),
    ("cosets.cycle_type.calls", "count"), ("cosets.cycle_type.s", "s"),
    ("cosets.moebius_type.calls", "count"), ("cosets.moebius_type.s", "s"),
    ("cosets.dual_type_report.s", "s"),
    ("census.conjugacy_classes.s", "s"), ("census.conjugacy_classes.classes", "count"),
    ("census.density_table.s", "s"),
    ("census.closed_catalog.s", "s"), ("census.closed_catalog.classes", "count"),
    ("census.closed_form.s", "s"), ("census.convolve.s", "s"),
    ("census.tensor_partitions.calls", "count"),
    ("census.cache_write.s", "s"), ("census.cache_read.s", "s"), ("census.cache.bytes", "bytes"),
    ("geodesics.enumerate.s", "s"), ("geodesics.classes", "count"),
    ("geodesics.primitivity.calls", "count"), ("geodesics.primitivity.s", "s"),
    ("geodesics.reduced_forms.s", "s"),
    ("geodesics.norm_below.calls", "count"), ("geodesics.norm_below.s", "s"),
    ("geodesics.tally.s", "s"), ("geodesics.tally.memo_hit_ratio", "ratio"),
    ("zeta.class_data.s", "s"), ("zeta.ratio_check.s", "s"), ("zeta.venkov_check.s", "s"),
    ("zeta.terms", "count"),
    ("cli.import.s", "s"),
] + [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]


def layer_metrics(spans):
    """Per-layer metric values from the spans of one repetition.

    `.s` is self time summed over calls, except `geodesics.enumerate.s`,
    which is the whole enumeration span; `geodesics.reduced_forms.s` is that
    span minus its child spans (primitivity marking and norm tests)."""
    calls, total, self_t, counts = {}, {}, {}, {}
    for sp in spans:
        n = sp["name"]
        calls[n] = calls.get(n, 0) + sp["calls"]
        total[n] = total.get(n, 0.0) + sp["time"]
        self_t[n] = self_t.get(n, 0.0) + sp["self"]
        for key, val in sp["counts"].items():
            counts[(n, key)] = counts.get((n, key), 0) + val
    tally_ids = {sp["id"] for sp in spans if sp["name"] == "geodesics.tally"}
    distinct = sum(sp["calls"] for sp in spans
                   if sp["name"] == "cosets.act" and sp["parent"] in tally_ids)
    tallied = counts.get(("geodesics.tally", "tallied"), 0)

    out = {}
    for metric, _unit in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "s":
            out[metric] = self_t.get(layer, 0.0)
        elif field == "calls":
            out[metric] = calls.get(layer, 0)
        else:
            out[metric] = counts.get((layer, field), 0)
    out["geodesics.enumerate.s"] = total.get("geodesics.enumerate", 0.0)
    out["geodesics.reduced_forms.s"] = self_t.get("geodesics.enumerate", 0.0)
    out["geodesics.classes"] = counts.get(("geodesics.enumerate", "classes"), 0)
    out["geodesics.tally.memo_hit_ratio"] = 1.0 - distinct / tallied if tallied else 0.0
    out["census.cache.bytes"] = (counts.get(("census.cache_write", "bytes"), 0)
                                 + counts.get(("census.cache_read", "bytes"), 0))
    out["zeta.terms"] = (counts.get(("zeta.ratio_check", "terms"), 0)
                         + counts.get(("zeta.venkov_check", "terms"), 0))
    return out
