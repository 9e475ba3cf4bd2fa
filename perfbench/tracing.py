"""Per-layer tracing of finabel from outside the package.

``install`` rebinds each traced public function in every finabel module
that holds it (the defining module and each module that imported it by
name), and wraps ``AbelianFunction.__call__`` at class level.  Each call
becomes a span (name, start, end, parent) kept in memory; ``report`` turns
the spans into call counts and self times, and adds work counters read at
the same boundaries.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "grouptype", "lattice", "functions", "counting", "symgen", "oracle")

# (module, function, span name); the three Smith-form routes share a span name.
TRACED = (
    ("cli", "main", "cli.main"),
    ("grouptype", "types_of_order", "grouptype.types_of_order"),
    ("grouptype", "canonicalize", "grouptype.canonicalize"),
    ("grouptype", "primary_parts", "grouptype.primary_parts"),
    ("lattice", "subgroup_quotient_pairs", "lattice.subgroup_quotient_pairs"),
    ("lattice", "all_subgroups", "lattice.all_subgroups"),
    ("lattice", "generated_subgroup", "lattice.generated_subgroup"),
    ("lattice", "subgroup_type", "lattice.subgroup_type"),
    ("lattice", "smith_normal_form", "lattice.snf"),
    ("lattice", "subgroup_type_via_snf", "lattice.snf"),
    ("lattice", "quotient_type", "lattice.snf"),
    ("functions", "inverse", "functions.inverse"),
    ("functions", "n_t", "functions.n_t"),
    ("counting", "mono_count", "counting.mono_count"),
    ("counting", "aut_count", "counting.aut_count"),
    ("counting", "sub_count", "counting.sub_count"),
    ("counting", "subgroup_order_profile", "counting.subgroup_order_profile"),
    ("counting", "hom_count", "counting.hom_count"),
    ("symgen", "generates_full_symmetric", "symgen.generates_full_symmetric"),
    ("symgen", "isometry_group_order", "symgen.isometry_group_order"),
    ("oracle", "enumerate_homs", "oracle.enumerate_homs"),
    ("oracle", "count_generating_subsets", "oracle.count_generating_subsets"),
    ("oracle", "count_free_functions", "oracle.count_free_functions"),
    ("oracle", "permutation_closure", "oracle.permutation_closure"),
    ("oracle", "enumerate_isometries", "oracle.enumerate_isometries"),
)
EVAL_SPAN = "functions.eval"

# Per-function metrics (calls and self time) that the report always carries.
REPORTED_SPANS = (
    "grouptype.types_of_order", "grouptype.canonicalize", "grouptype.primary_parts",
    "lattice.subgroup_quotient_pairs", "lattice.all_subgroups",
    "lattice.generated_subgroup", "lattice.subgroup_type", "lattice.snf",
    "counting.mono_count", "counting.aut_count", "counting.sub_count",
    "counting.subgroup_order_profile", "counting.hom_count",
    "symgen.generates_full_symmetric", "symgen.isometry_group_order",
    "oracle.enumerate_homs", "oracle.count_generating_subsets",
    "oracle.count_free_functions", "oracle.permutation_closure",
    "oracle.enumerate_isometries",
)


class Tracer:
    def __init__(self, fin) -> None:
        self.fin = fin
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- work counters read at the span boundaries -------------------------

    def _pairs(self, fn):
        """subgroup_quotient_pairs: cold builds, subgroups built, refusals."""
        cache_info = self.fin.lattice._pairs_for_moduli.cache_info
        counts = self.counts
        refused = self.fin.errors.BoundExceededError

        def counted(T, *args, **kwargs):
            misses = cache_info().misses
            try:
                pairs = fn(T, *args, **kwargs)
            except refused:
                counts["lattice.subgroup_quotient_pairs.refusals"] += 1
                raise
            if cache_info().misses > misses:
                counts["lattice.subgroup_quotient_pairs.cold_calls"] += 1
                counts["lattice.subgroup_quotient_pairs.subgroups"] += sum(pairs.values())
            return pairs

        return counted

    def _evaluate(self, call):
        """AbelianFunction.__call__: memo hits and multiplicative splits."""
        counts = self.counts
        factorize = self.fin.grouptype.factorize

        def counted(f, G):
            if G in f._memo:
                counts["functions.memo_hits"] += 1
            elif f.multiplicative and G.invariant_factors:
                if len(factorize(G.invariant_factors[-1])) > 1:
                    counts["functions.multiplicative_splits"] += 1
            return call(f, G)

        return counted

    def _work(self, name: str):
        counts = self.counts
        work = {
            "oracle.enumerate_homs": ("maps", lambda a, r: r[0]),
            "oracle.count_generating_subsets": ("subsets", lambda a, r: 2 ** a[0].order),
            "oracle.count_free_functions": ("functions", lambda a, r: a[1] ** a[0].order),
            "oracle.permutation_closure": ("perms", lambda a, r: r),
            "oracle.enumerate_isometries": ("perms", lambda a, r: math.factorial(a[0].order)),
        }.get(name)
        if work is None:
            return None
        key, amount = f"{name}.{work[0]}", work[1]

        def after(args, result):
            counts[key] += amount(args, result)

        return after

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        fin = self.fin
        modules = [m for n, m in sys.modules.items() if n == "finabel" or n.startswith("finabel.")]
        for module_name, attr, span_name in TRACED:
            original = getattr(getattr(fin, module_name), attr)
            inner = self._pairs(original) if attr == "subgroup_quotient_pairs" else original
            wrapped = self.span(span_name, inner, self._work(span_name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        cls = fin.functions.AbelianFunction
        cls.__call__ = self.span(EVAL_SPAN, self._evaluate(cls.__call__))

    # -- report -------------------------------------------------------------

    def _memo_entries(self) -> int:
        cls = self.fin.functions.AbelianFunction
        return sum(len(o._memo) for o in gc.get_objects() if isinstance(o, cls))

    def report(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the finished run."""
        fin = self.fin
        spans = self.spans
        child = [0.0] * len(spans)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        rooted = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                rooted += end - start
        for (name, start, end, parent), inner in zip(spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out["bench.self_s"] = wall_s - rooted
        for name in REPORTED_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]

        evals = calls[EVAL_SPAN]
        hits = self.counts["functions.memo_hits"]
        out["functions.evals"] = evals
        out["functions.memo_hits"] = hits
        out["functions.memo_hit_ratio"] = hits / evals if evals else 0.0
        out["functions.memo_entries"] = self._memo_entries()
        out["functions.multiplicative_splits"] = self.counts["functions.multiplicative_splits"]

        for key in ("cold_calls", "subgroups", "refusals"):
            name = f"lattice.subgroup_quotient_pairs.{key}"
            out[name] = self.counts[name]
        pairs = fin.lattice._pairs_for_moduli.cache_info()
        lattices = fin.lattice._lattice.cache_info()
        out["lattice.pairs_cache.hits"] = pairs.hits
        out["lattice.pairs_cache.misses"] = pairs.misses
        out["lattice.lattice_cache.misses"] = lattices.misses
        out["lattice.lattice_cache.currsize"] = lattices.currsize
        out["lattice.arith_cache.misses"] = fin.lattice._arith.cache_info().misses
        out["counting.mono_memo.entries"] = len(fin.counting._mono_memo)
        for name in ("oracle.enumerate_homs.maps", "oracle.count_generating_subsets.subsets",
                     "oracle.count_free_functions.functions", "oracle.permutation_closure.perms",
                     "oracle.enumerate_isometries.perms"):
            out[name] = self.counts[name]
        return out

    def write_spans(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[ids[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def install(fin) -> Tracer:
    tracer = Tracer(fin)
    tracer.install()
    return tracer
