"""Spans and counters recorded from outside the package.

The tracer replaces a layer's public functions with wrappers, in every
cleanmatrix module namespace that imported them, and puts the originals back
on uninstall.  A span is [name, start_ns, end_ns, parent_index, item_id];
spans stay in memory until the benchmark writes them out.  Ring element
operations and matrix products are far too frequent for spans, so they only
bump a counter.
"""

import json
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name); both companion reductions are one layer
SPANS = (
    ("literals", "parse_matrix", "literals.parse"),
    ("matrices", "is_invertible", "matrices.is_invertible"),
    ("matrices", "invert2", "matrices.invert2"),
    ("companion", "reduce_to_companion", "companion.reduce"),
    ("companion", "reduce_to_companion_pi", "companion.reduce"),
    ("quadratics", "find_roots_enumerate", "quadratics.enumerate"),
    ("quadratics", "lift_root_truncated", "quadratics.lift"),
    ("quadratics", "find_roots_rational", "quadratics.rational"),
    ("clean", "decide_strongly_clean", "clean.decide"),
    ("clean", "build_certificate", "clean.build_certificate"),
    ("clean", "verify_certificate", "clean.verify"),
    ("piregular", "decide_strongly_pi_regular", "piregular.decide"),
    ("piregular", "_nilpotency_index", "piregular.nilpotency_index"),
    ("piregular", "verify_pi_certificate", "piregular.verify"),
    ("bruteforce", "_tables", "bruteforce.tables"),
    ("bruteforce", "brute_clean", "bruteforce.clean"),
    ("bruteforce", "brute_pi", "bruteforce.pi"),
    ("integer_matrices", "classify_integer", "integer_matrices.classify"),
    ("integer_matrices", "integer_oracle", "integer_matrices.oracle"),
)

COUNTED_FUNCTIONS = (("quadratics", "left_eval", "quadratics.left_eval"),)
RING_METHODS = ("add", "mul", "neg", "sub", "invert")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._undo = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cleanmatrix" and not mod_name.startswith("cleanmatrix."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self, pkg):
        for mod, attr, name in SPANS:
            original = getattr(getattr(pkg, mod), attr)
            self._replace_everywhere(original, self._span_wrapper(name, original))
        for mod, attr, name in COUNTED_FUNCTIONS:
            original = getattr(getattr(pkg, mod), attr)
            self._replace_everywhere(original, self._count_wrapper(name, original))
        classes = [pkg.matrices.Mat2] + [
            cls
            for cls in vars(pkg.rings).values()
            if isinstance(cls, type) and issubclass(cls, pkg.rings.LocalRing)
        ]
        for cls in classes:
            methods = ("__mul__",) if cls is pkg.matrices.Mat2 else RING_METHODS
            for meth in methods:
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    name = "matrices.mat_mul" if meth == "__mul__" else f"rings.{meth}"
                    setattr(cls, meth, self._count_wrapper(name, original))
                    self._undo.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self):
        """{span name: (calls, self_ns)}; self time is a span's duration minus
        the part its direct children cover (spans nest, one thread)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, ns = out.get(name, (0, 0))
            out[name] = (calls + 1, ns + (end - start) - child_ns[i])
        return out

    def self_times_within(self, ancestor):
        """Like self_times, but only for spans made, directly or not, inside
        a span named `ancestor`: what the package spends on its own behalf,
        without the benchmark's own calls of the same functions."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        inside = [False] * len(spans)
        out = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            # a parent is recorded before its children
            inside[i] = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
            if inside[i]:
                calls, ns = out.get(name, (0, 0))
                out[name] = (calls + 1, ns + (end - start) - child_ns[i])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, separators=(",", ":")) + "\n")
