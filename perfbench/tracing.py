"""Spans around scatterkit's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
scatterkit namespace that binds it (``finite.isomorphisms``,
``graphs.homeo_group``, ``flows.is_fully_transitive`` ...), and
``uninstall`` puts the originals back; nothing under ``src/`` changes.

A span is (op id, parent span, name, start, end), kept in flat arrays.
After each pass of the op list ``fold`` adds the pass's spans to the
per-layer totals; the spans of the first pass are kept and written out
when the run ends.  ``busy_s`` counts the outermost span of a name only
(so recursion is not counted twice); ``self_s`` is a span's duration
minus that of its direct children.

Which end-to-end metric each layer should move, written down before
measuring:

- cli.main (argparse, output formatting): op_p50_ms on group-census and
  homeo-enum.
- ordinal.*, classify.*, groups.*: wall_s and op_p50_ms on ordinal-stream,
  nothing elsewhere.
- kernels.isomorphisms.enum, kernels.search, kernels.refine_colors,
  finite.homeo_group, graphs.*: wall_s, op_p90_ms and peak_rss_mb on
  homeo-enum.
- kernels.isomorphisms.witness, finite.similarity_partition,
  finite.similar: op_p50_ms and op_p90_ms on group-census, whose p50 and
  p90 both fall in the band of small random-space queries.
- finite.is_fully_transitive, conjugacy_classes, normal_subgroups,
  verify_remark19, cb_data, FiniteSpace.parse, flows.*, verify.run_suite:
  wall_s and peak_rss_mb on group-census (verify.run_suite also wall_s on
  homeo-enum, through prop24).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from math import factorial, perm
from time import perf_counter

_ISO_ENUM = "kernels.isomorphisms.enum"
_ISO_WITNESS = "kernels.isomorphisms.witness"
_COUNTERS = (
    "kernels.isomorphisms.hits",
    "kernels.refine_colors.refuted",
    "finite.homeo_group.elements",
    "graphs.aut.perms_tested",
    "graphs.aut.kept",
    "finite.is_fully_transitive.tuples",
    "finite.normal_subgroups.found",
)


def _iso_name(args, kwargs):
    limit = kwargs["limit"] if "limit" in kwargs else (args[5] if len(args) > 5 else 0)
    return _ISO_WITNESS if limit == 1 else _ISO_ENUM


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_iso(counts, args, kwargs, result):
    counts["kernels.isomorphisms.hits"] += bool(result)


def _count_refine(counts, args, kwargs, result):
    counts["kernels.refine_colors.refuted"] += result is None


def _count_homeo(counts, args, kwargs, result):
    counts["finite.homeo_group.elements"] += result.order


def _count_aut(counts, args, kwargs, result):
    counts["graphs.aut.perms_tested"] += factorial(_first(args, kwargs, "g").size)
    counts["graphs.aut.kept"] += result.order


def _count_transitivity(counts, args, kwargs, result):
    n = _first(args, kwargs, "space").size
    counts["finite.is_fully_transitive.tuples"] += sum(perm(n, k) for k in range(1, n + 1))


def _count_normal(counts, args, kwargs, result):
    counts["finite.normal_subgroups.found"] += len(result)


def targets(backend):
    """(module, attribute path, span name or namer, counter) for every traced function."""
    search_module = "_kernels._native" if backend == "native" else "_kernels.pure"
    return [
        ("cli", "main", "cli.main", None),
        ("ordinal", "parse", "ordinal.parse", None),
        ("ordinal", "add", "ordinal.add", None),
        ("ordinal", "compare", "ordinal.compare", None),
        ("ordinal", "divide_by_power", "ordinal.divide_by_power", None),
        ("classify", "classify", "classify.classify", None),
        ("classify", "derived_order_type", "classify.derived_order_type", None),
        ("classify", "point_rank", "classify.point_rank", None),
        ("classify", "class_profile", "classify.class_profile", None),
        ("groups", "descriptor_of", "groups.descriptor_of", None),
        ("groups", "groups_isomorphic", "groups.groups_isomorphic", None),
        ("_kernels", "isomorphisms", _iso_name, _count_iso),
        (search_module, "search", "kernels.search", None),
        ("_kernels", "refine_colors", "kernels.refine_colors", _count_refine),
        ("finite", "FiniteSpace.parse", "finite.FiniteSpace.parse", None),
        ("finite", "cb_data", "finite.cb_data", None),
        ("finite", "similar", "finite.similar", None),
        ("finite", "similarity_partition", "finite.similarity_partition", None),
        ("finite", "homeo_group", "finite.homeo_group", _count_homeo),
        ("finite", "is_fully_transitive", "finite.is_fully_transitive", _count_transitivity),
        ("finite", "conjugacy_classes", "finite.conjugacy_classes", None),
        ("finite", "normal_subgroups", "finite.normal_subgroups", _count_normal),
        ("finite", "verify_remark19", "finite.verify_remark19", None),
        ("graphs", "encode", "graphs.encode", None),
        ("graphs", "aut", "graphs.aut", _count_aut),
        ("graphs", "verify_prop24", "graphs.verify_prop24", None),
        ("flows", "check_simply_transitive", "flows.check_simply_transitive", None),
        ("flows", "product_flow_check", "flows.product_flow_check", None),
        ("verify", "run_suite", "verify.run_suite", None),
    ]


class Tracer:
    def __init__(self, backend):
        self.names = []
        self._index = {}
        self._depth = []
        self._stack = []
        self.op_id = -1
        self._op = array("i")
        self._parent = array("i")
        self._name = array("i")
        self._nested = array("b")
        self._start = array("d")
        self._end = array("d")
        self.first_pass = None
        self.passes = 0
        self.calls = {}
        self.busy = {}
        self.self_time = {}
        self.counts = Counter(dict.fromkeys(_COUNTERS, 0))
        self._patches = []
        for name in (_ISO_ENUM, _ISO_WITNESS):
            self._name_id(name)
        for module, path, name, counter in targets(backend):
            self._patch(module, path, name, counter)

    def _name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._index[name]

    def _wrap(self, fn, name, counter):
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            sid = len(self._start)
            self._op.append(self.op_id)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._name.append(nid)
            self._nested.append(self._depth[nid] > 0)
            self._start.append(0.0)
            self._end.append(0.0)
            self._stack.append(sid)
            self._depth[nid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._depth[nid] -= 1
                self._start[sid] = start
                self._end[sid] = end
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, module_name, path, name, counter):
        owner = importlib.import_module("scatterkit." + module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            self._patches.append((owner, attr, raw, classmethod(self._wrap(raw.__func__, name, counter))))
            return
        wrapper = self._wrap(raw, name, counter)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "scatterkit" or mod_name.startswith("scatterkit."):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, key, raw, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def fold(self):
        """Add the spans of one finished pass to the totals and clear them."""
        n = len(self._start)
        child = [0.0] * n
        parent, start, end = self._parent, self._start, self._end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        for i in range(n):
            name = self.names[self._name[i]]
            duration = end[i] - start[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child[i]
            if not self._nested[i]:
                self.busy[name] = self.busy.get(name, 0.0) + duration
        if self.first_pass is None:
            self.first_pass = (self._op, self._parent, self._name, self._start, self._end)
        self._op, self._parent, self._name = array("i"), array("i"), array("i")
        self._nested, self._start, self._end = array("b"), array("d"), array("d")
        self.passes += 1

    def write_spans(self, path):
        """The first traced pass, one span per line: op, span, parent, name, start_s, duration_s."""
        if self.first_pass is None:
            return
        ops, parents, names, starts, ends = self.first_pass
        origin = starts[0] if starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_s\tduration_s\n")
            for i in range(len(starts)):
                handle.write(
                    f"{ops[i]}\t{i}\t{parents[i]}\t{self.names[names[i]]}\t"
                    f"{starts[i] - origin:.9f}\t{ends[i] - starts[i]:.9f}\n"
                )

    def metrics(self):
        """Every per-layer metric, per pass of the op list."""
        passes = max(self.passes, 1)
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls.get(name, 0) / passes
            out[f"{name}.busy_s"] = self.busy.get(name, 0.0) / passes
            out[f"{name}.self_s"] = self.self_time.get(name, 0.0) / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        counts = self.counts
        iso_calls = self.calls.get(_ISO_ENUM, 0) + self.calls.get(_ISO_WITNESS, 0)
        out["kernels.isomorphisms.hit_ratio"] = _ratio(counts["kernels.isomorphisms.hits"], iso_calls)
        out["kernels.refine_colors.refuted_ratio"] = _ratio(
            counts["kernels.refine_colors.refuted"], self.calls.get("kernels.refine_colors", 0)
        )
        out["graphs.aut.kept_ratio"] = _ratio(counts["graphs.aut.kept"], counts["graphs.aut.perms_tested"])
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0

