"""Shared oracles and generators for the test suite.

The naive orbit oracle here is deliberately independent of the search
engine: it iterates every labelled coloring, filters, and partitions into
orbits by canonical form.  Only the canonical-form routine is shared, and
that is cross-checked separately against hand-counted orbit numbers.
"""

from __future__ import annotations

import itertools
import random

from matching_ramsey import EdgeColoring, MatchParams, complete_graph, graph_from_edges, is_free
from matching_ramsey.canon import canonical_form


def random_graph(rng: random.Random, n: int, p: float):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def all_colorings(n: int, c: int):
    """Every labelled c-coloring of K_n."""
    host = complete_graph(n)
    for combo in itertools.product(range(1, c + 1), repeat=n * (n - 1) // 2):
        yield EdgeColoring(host, c, combo)


def naive_orbit_reps(n: int, c: int, params: MatchParams | None = None, free_only: bool = False):
    """Canonical forms of the (optionally free) colorings of K_n.

    The orbit partition is taken under vertex permutations and the color
    permutations allowed by ``params`` (all of S_c when params is None).
    """
    classes = params.sizes if params is not None else (0,) * c
    reps = set()
    for ec in all_colorings(n, c):
        if free_only and not is_free(ec, params):
            continue
        reps.add(canonical_form(coloring_word(ec), n, classes))
    return reps


def coloring_word(ec: EdgeColoring) -> bytes:
    return bytes(col - 1 for col in ec.colors)
