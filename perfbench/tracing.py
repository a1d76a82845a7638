"""Span tracing of matching_ramsey's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``FUNCTIONS`` by a timing
wrapper in every ``matching_ramsey`` module that holds a reference to it.
``from .x import f`` binds a copy of ``f`` in the importing module, so the
wrapper must replace each copy where its caller looks it up.  ``Graph`` and
``EdgeColoring`` are traced through their ``__post_init__``, which is their
validating construction.

Spans are aggregated in memory per (span, parent) pair: call count, total
time, self time (total minus the time of traced calls made inside it) and
the number of calls that returned ``True``.  Nothing is recorded while
``active`` is false, so the benchmark's own output checks stay untraced.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import matching_ramsey
from matching_ramsey import EdgeColoring, Graph

FUNCTIONS = {
    "canon.is_canonical": ("canon", "is_canonical"),
    "canon.perm_edge_table": ("canon", "perm_edge_table"),
    "search.verify_ramsey_exhaustive": ("search", "verify_ramsey_exhaustive"),
    "search.enumerate_critical": ("search", "enumerate_critical"),
    "matching.has_k_matching_on_masks": ("matching", "has_k_matching_on_masks"),
    "matching.has_matching_of_size": ("matching", "has_matching_of_size"),
    "matching.matching_number": ("matching", "matching_number"),
    "matching.is_factor_critical": ("matching", "is_factor_critical"),
    "gallai_edmonds.decompose": ("gallai_edmonds", "decompose"),
    "gallai_edmonds.verify_decomposition": ("gallai_edmonds", "verify_decomposition"),
    "graph.induced_subgraph": ("graph", "induced_subgraph"),
    "coloring.color_class": ("coloring", "color_class"),
    "coloring.is_free": ("coloring", "is_free"),
    "coloring.find_structure": ("coloring", "find_structure"),
    "star.verify_star_exhaustive": ("star", "verify_star_exhaustive"),
}

CONSTRUCTORS = {"graph.Graph": Graph, "coloring.EdgeColoring": EdgeColoring}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.classes = 0
        # (span, parent) -> [calls, total_s, self_s, true_returns]
        self.spans: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []  # [span, time spent in traced children]

    def progress(self, level: int, count: int) -> None:
        """``progress`` callback of the search entry points: sums per-level classes."""
        self.classes += count

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def wrap(self, span: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = self.spans.get((span, parent))
                if rec is None:
                    rec = self.spans[(span, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if out is True:
                rec[3] += 1
            return out

        return traced

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == matching_ramsey.__name__ or name.startswith(matching_ramsey.__name__ + ".")
        ]
        for span, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[f"{matching_ramsey.__name__}.{module}"], attr)
            wrapped = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for span, cls in CONSTRUCTORS.items():
            cls.__post_init__ = self.wrap(span, cls.__post_init__)

    def export(self) -> list[list]:
        """One ``[span, parent, calls, total_s, self_s, true_returns]`` row per pair."""
        return [[span, parent, *rec] for (span, parent), rec in sorted(
            self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]
