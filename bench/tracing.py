"""Spans and counters around the public functions of each polytnn module.

`Tracer.install(polytnn)` replaces each wrapped function in every polytnn
module namespace that holds it, so calls between modules (`cli` calling
`tnn.determinant`, `polyvec` calling `macaulay.is_m_sequence`) are seen as
well as the benchmark's own calls. Each span records its name, start, end,
parent span and the op it belongs to; spans stay in memory until `write`.
Pool workers forked by `tnn --jobs` run the original functions untraced.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# (module, attribute, span name): the layer boundaries the benchmark times
SPANS = [
    ("cli", "main", "cli.main"),
    ("tnn", "is_totally_nonnegative", "tnn.scan"),
    ("tnn", "determinant", "tnn.determinant"),
    ("tnn", "as_matrix", "tnn.as_matrix"),
    ("transfer", "transfer_matrix", "transfer.build"),
    ("transfer", "path_matrix", "transfer.build"),
    ("transfer", "parse_matrix_csv", "transfer.parse"),
    ("transfer", "parse_matrix_json", "transfer.parse"),
    ("lgv", "lattice_graph", "lgv.graph"),
    ("lgv", "nonintersecting_families", "lgv.families"),
    ("lgv", "path_weight_sum", "lgv.path_sum"),
    ("polyvec", "is_polytopal", "polyvec.feasible"),
    ("polyvec", "g_to_f", "polyvec.g_to_f"),
    ("polyvec", "f_to_g", "polyvec.f_to_g"),
    ("macaulay", "boundary", "macaulay.boundary"),
    ("macaulay", "is_m_sequence", "macaulay.is_m_sequence"),
    ("macaulay", "oracle_is_m_sequence", "macaulay.oracle"),
]

# modules whose calls to exactnum.binomial are counted separately
BINOMIAL_CALLERS = ["transfer", "polyvec", "macaulay", "lgv"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (span id, parent id, op id, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [span id, time covered by children]
        self._op = -1
        self._on = True
        os.register_at_fork(after_in_child=self._off)

    def _off(self) -> None:
        self._on = False

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) records counts at the boundary."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                spans.append((sid, parent, self._op, name, start, end))
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def run_op(self, op_id: int, kind: str, fn):
        """Run one op under a root span; every span it causes carries op_id."""
        self._op = op_id
        return self.span(f"op.{kind}", fn)()

    def install(self, pt) -> None:
        modules = [m for name, m in sys.modules.items() if name == "polytnn" or name.startswith("polytnn.")]

        def replace(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        after = {
            "lgv.families": lambda c, a, r: c.update({"lgv.families.count": len(r)}),
            "transfer.parse": lambda c, a, r: c.update({"transfer.parse.bytes": len(a[0])}),
        }
        for module, attr, name in SPANS:
            original = getattr(getattr(pt, module), attr)
            replace(original, self.span(name, original, after.get(name)))
        matrix = pt.tnn.ExactMatrix
        matrix.submatrix = self.span("tnn.submatrix", matrix.submatrix)

        for module in BINOMIAL_CALLERS:
            mod = getattr(pt, module)
            mod.binomial = self._counted(mod.binomial, f"exactnum.binomial.calls.{module}")

        tracer = self

        class CountingPool(ProcessPoolExecutor):
            """The scan's process pool, counting workers and tasks handed to it."""

            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.counts["tnn.workers"] = max(tracer.counts["tnn.workers"], max_workers or 0)
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                items = list(iterables[0])
                tracer.counts["tnn.tasks"] += len(items)
                return super().map(fn, items, *iterables[1:], **kwargs)

        pt.tnn.ProcessPoolExecutor = CountingPool

    def _counted(self, fn, key: str):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, op, name, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start,end\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{op},{name},{start:.9f},{end:.9f}\n")
