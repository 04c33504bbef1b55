"""Per-layer tracing for the benchmark, installed from outside the program.

``Tracer.install()`` rebinds public functions of the ``polytutte`` modules
to thin wrappers, in the module that defines each one and in every other
``polytutte`` module that imported it, and replaces the entries of
``acceptance.CRITERIA``.  No source file changes; only the traced process
is affected.  Each wrapped call records a span (name, start, end, parent
span) in memory; ``write_spans`` writes them out at the end.  A layer's self
time is the summed duration of its spans minus the time covered by their
child spans.

A name that the program no longer has is listed in ``absent`` and its
metrics read 0, so an older benchmark keeps running on a newer tree.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name).  Several attributes may share a span.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_input", "cli.load_input"),
    ("cli", "_read_json", "cli.load_input"),
    ("core", "Polymatroid.from_json", "core.load_bases"),
    ("core", "RankTable.validate", "core.rank_validate"),
    ("core", "enumerate_bases", "core.enumerate_bases"),
    ("core", "rank_from_bases", "core.rank_from_bases"),
    ("core", "Polymatroid.delete", "core.minor"),
    ("core", "Polymatroid.contract", "core.minor"),
    ("core", "Polymatroid.minor", "core.minor"),
    ("recursion", "tutte_dc", "recursion.tutte_dc"),
    ("recursion", "interior_dc", "recursion.interior_dc"),
    ("recursion", "exterior_dc", "recursion.exterior_dc"),
    ("recursion", "classical_tutte", "recursion.classical_tutte"),
    ("activity", "tutte_direct", "activity.tutte_direct"),
    ("activity", "interior_direct", "activity.interior_direct"),
    ("activity", "exterior_direct", "activity.exterior_direct"),
    ("formulas", "coefficient_report", "formulas.coefficient_report"),
    ("formulas", "search_by_tutte", "formulas.search_by_tutte"),
    ("hypergraph", "rank_table", "hypergraph.rank_table"),
    ("hypergraph", "connectivity_profile", "hypergraph.connectivity_profile"),
    ("bipoly", "BiPoly.__str__", "bipoly.render"),
    ("acceptance", "build_corpus", "acceptance.build_corpus"),
]

CRITERIA_COUNT = 9

# Per-layer metrics: (name, unit, better).  A "_s" metric is self time.
METRICS = [
    ("cli.self_s", "s", "lower"),
    ("cli.load_input_self_s", "s", "lower"),
    ("core.load_bases_s", "s", "lower"),
    ("core.rank_validate_s", "s", "lower"),
    ("core.rank_validate_calls", "count", "lower"),
    ("core.enumerate_bases_s", "s", "lower"),
    ("core.bases_emitted", "count", "lower"),
    ("core.rank_from_bases_s", "s", "lower"),
    ("core.rank_from_bases_calls", "count", "lower"),
    ("core.minor_s", "s", "lower"),
    ("recursion.tutte_dc_s", "s", "lower"),
    ("recursion.interior_dc_s", "s", "lower"),
    ("recursion.exterior_dc_s", "s", "lower"),
    ("recursion.memo_hits", "count", "higher"),
    ("recursion.memo_misses", "count", "lower"),
    ("recursion.memo_hit_ratio", "ratio", "higher"),
    ("recursion.classical_tutte_s", "s", "lower"),
    ("activity.tutte_direct_s", "s", "lower"),
    ("activity.interior_direct_s", "s", "lower"),
    ("activity.exterior_direct_s", "s", "lower"),
    ("activity.bases_visited", "count", "lower"),
    ("formulas.coefficient_report_s", "s", "lower"),
    ("formulas.search_by_tutte_s", "s", "lower"),
    ("hypergraph.rank_table_self_s", "s", "lower"),
    ("hypergraph.connectivity_profile_s", "s", "lower"),
    ("bipoly.render_s", "s", "lower"),
    ("acceptance.build_corpus_s", "s", "lower"),
    *((f"acceptance.c{k}_s", "s", "lower") for k in range(1, CRITERIA_COUNT + 1)),
    ("trace.overhead_share", "share", "lower"),
]

# Metrics named differently from "<span>_s".
_SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.load_input": "cli.load_input_self_s",
    "hypergraph.rank_table": "hypergraph.rank_table_self_s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()
            if count is not None:
                self.counters[count[0]] += count[1](args, result)
            return result

        return traced

    def install(self) -> None:
        counts = {
            "core.enumerate_bases": ("core.bases_emitted", lambda args, result: len(result)),
            "activity.tutte_direct": ("activity.bases_visited", lambda args, result: len(args[0])),
            "activity.interior_direct": ("activity.bases_visited", lambda args, result: len(args[0])),
            "activity.exterior_direct": ("activity.bases_visited", lambda args, result: len(args[0])),
        }
        for module, path, name in TARGETS:
            self._rebind(module, path, name, counts.get(name))
        self._trace_criteria()
        self._count_memo()

    def _rebind(self, module: str, path: str, name: str, count) -> None:
        owner = importlib.import_module(f"polytutte.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            self.absent.append(f"{module}.{path}")
            return
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, self.wrap(name, raw, count))
            return
        traced = self.wrap(name, raw, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "polytutte" or mod_name.startswith("polytutte."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, traced)

    def _trace_criteria(self) -> None:
        acceptance = importlib.import_module("polytutte.acceptance")
        criteria = getattr(acceptance, "CRITERIA", None)
        if criteria is None:
            self.absent.append("acceptance.CRITERIA")
            return
        for k, (ident, label, fn) in enumerate(criteria):
            criteria[k] = (ident, label, self.wrap(f"acceptance.c{ident}", fn))

    def _count_memo(self) -> None:
        recursion = importlib.import_module("polytutte.recursion")
        cache_cls = getattr(recursion, "LRUCache", None)
        if cache_cls is None or not hasattr(cache_cls, "get"):
            self.absent.append("recursion.LRUCache.get")
            return
        get = cache_cls.get
        counters = self.counters

        def counted_get(cache, key):
            value = get(cache, key)
            counters["recursion.memo_misses" if value is None else "recursion.memo_hits"] += 1
            return value

        cache_cls.get = counted_get

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric except the overhead, per traced pass."""
        spans = [s for s in self.spans if s is not None]
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            self_time[name] += end - start - covered[idx]
            calls[name] += 1
        values: dict[str, float] = {m: 0.0 for m, _, _ in METRICS}
        for name, seconds in self_time.items():
            values[_SELF_METRIC.get(name, f"{name}_s")] = seconds / passes
        values["core.rank_validate_calls"] = calls["core.rank_validate"] / passes
        values["core.rank_from_bases_calls"] = calls["core.rank_from_bases"] / passes
        for name, total in self.counters.items():
            values[name] = total / passes
        lookups = self.counters["recursion.memo_hits"] + self.counters["recursion.memo_misses"]
        values["recursion.memo_hit_ratio"] = (
            self.counters["recursion.memo_hits"] / lookups if lookups else 0.0
        )
        return values

    def write_spans(self, path) -> None:
        """One span per line: id, parent id, name, start and end in seconds."""
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent = span
                    fh.write(f"{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
