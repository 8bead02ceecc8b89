"""Outside-in tracing of metricat's layers, from the benchmark's own files.

`Tracer.install()` wraps public functions in every metricat namespace that
binds them, so a call is seen whichever module makes it (`mapping` calls
`vertical_compose` through its own import, `dagger` calls
`uniformly_continuous` through its own, and so on).  Each wrapped call
records a span (name, start, end, parent span, operation id) in memory;
`uninstall()` puts the original functions back.  A few boundaries are
counted instead of timed: `Weight` arithmetic and comparisons, pairs
yielded by `FiniteCategory.composable_pairs`, dagger candidates, metrization
stages and `arrow_star` calls.  Arguments and results pass through
unchanged, so every library guard and re-check still runs.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

from metricat import (
    coarse, continuity, dagger, fincat, fixedpoint, geometry, jsonio, limits, mapping, weights,
)
from metricat.fincat import FiniteCategory
from metricat.weight import Weight


def _public_functions(module) -> list[str]:
    return [
        name for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]


# module -> functions that get a span named "<module>.<function>"
SPANNED = {
    fincat: ["validate_category", "vertical_compose", "validate_transformation"],
    dagger: ["enumerate_daggers"],
    fixedpoint: ["find_natural_contractions", "banach_iterate"],
    geometry: ["gh_distance", "lipschitz_distance", "bilip_slice"],
    mapping: ["mapping_space", "enumerate_functors", "enumerate_transformations"],
    coarse: ["metrize"],
    continuity: _public_functions(continuity),
    limits: _public_functions(limits),
    jsonio: _public_functions(jsonio),
    weights: ["validate_metric1", "lawvere"],
}

# span name -> (counter, size of a result) added after each call
RESULT_SIZES = {
    "mapping.enumerate_functors": ("mapping.functors", len),
    "mapping.mapping_space": ("mapping.continuous_functors", lambda ms: len(ms.functors)),
    "mapping.enumerate_transformations": ("mapping.transformations", len),
    "dagger.enumerate_daggers": ("dagger.found", len),
}

WEIGHT_OPS = ("__add__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = None

    # --- recording --------------------------------------------------------

    def _span(self, name: str, fn, result_size=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(entry)
            entry[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                stack.pop()
            if result_size is not None:
                counts[result_size[0]] += result_size[1](result)
            return result

        return traced

    def run_op(self, op_id: str, call):
        """Run one benchmark operation under a root span named "op"."""
        self.op = op_id
        return self._span("op", call)()

    def _counted(self, counter: str, fn, size: bool = False):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += len(result) if size else 1
            return result

        return counted

    # --- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every metricat binding of `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "metricat" or mod_name.startswith("metricat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, names in SPANNED.items():
            for fname in names:
                name = f"{_short(module)}.{fname}"
                original = getattr(module, fname)
                self._rebind(original, self._span(name, original, RESULT_SIZES.get(name)))
        self._rebind(dagger.validate_dagger,
                     self._counted("dagger.candidates", dagger.validate_dagger))
        self._rebind(coarse.metrize_chain,
                     self._counted("coarse.stages", coarse.metrize_chain, size=True))
        self._rebind(coarse.arrow_star,
                     self._counted("coarse.arrow_star_calls", coarse.arrow_star))

        counts = self.counts
        for attr in WEIGHT_OPS:
            original = Weight.__dict__[attr]

            def op(a, b, _original=original):
                counts["weight.ops"] += 1
                return _original(a, b)

            self._patch(Weight, attr, op)
        abs_diff = Weight.__dict__["abs_diff"].__func__

        def counted_abs_diff(a, b):
            counts["weight.ops"] += 1
            return abs_diff(a, b)

        self._patch(Weight, "abs_diff", staticmethod(counted_abs_diff))

        pairs = FiniteCategory.composable_pairs

        def composable_pairs(cat):
            n = 0
            try:
                for pair in pairs(cat):
                    n += 1
                    yield pair
            finally:
                counts["fincat.composable_pairs"] += n

        self._patch(FiniteCategory, "composable_pairs", composable_pairs)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- reduction --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct child
        spans cover (calls are strictly nested: one thread, no overlap)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def call_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def write_spans(path, tracers: list[Tracer]) -> None:
    """Every span of every traced pass as gzipped CSV; `parent` indexes
    spans of the same pass, and spans of one operation share `op`."""
    import gzip

    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("pass,index,name,start,end,parent,op\n")
        for p, tracer in enumerate(tracers):
            for i, (name, start, end, parent, op) in enumerate(tracer.spans):
                out.write(f"{p},{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")
