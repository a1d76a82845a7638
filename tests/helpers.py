"""Shared oracles and generators for the test suite.

The naive orbit oracle here is deliberately independent of the search
engine: it iterates every labelled coloring, filters, and partitions into
orbits by canonical form.  Only the canonical-form routine is shared, and
that is cross-checked separately against hand-counted orbit numbers.

The brute-force star oracle builds every spoke configuration of a base as a
host coloring and tests it with ``is_free``, independently of the
Gallai-Edmonds extension rule ``matching_ramsey.search.extension_state``.

The brute-force structure oracle tries every vertex subset of the right
size as V_1, independently of the forced-V_1 argument of
``matching_ramsey.find_structure``.

``insertion_makes_smaller`` builds each image of an extended word whose new
vertex moves to an earlier position as a whole word, independently of the
color rows ``matching_ramsey.canon.Prefix`` keeps.

``min_image`` computes an orbit minimum by its own backtracking search,
without ``matching_ramsey.canon``, for orders the brute-force
``canonical_form`` cannot reach.

Tests decorated with :func:`slow`, and cases given by :func:`slow_param`,
are too slow for tier-1; they run only with ``MATCHING_RAMSEY_SLOW=1``
(select them alone with ``-m slow``).
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from matching_ramsey import (
    EdgeColoring,
    MatchParams,
    StructureWitness,
    check_structure,
    find_structure,
    graph_from_edges,
    is_free,
)
from matching_ramsey.canon import Prefix, canonical_form, edge_index, is_canonical
from matching_ramsey.search import _word_from_coloring
from matching_ramsey.star import _attach_center


def _slow_marks():
    opted_in = os.environ.get("MATCHING_RAMSEY_SLOW") == "1"
    return [pytest.mark.slow, pytest.mark.skipif(not opted_in, reason="set MATCHING_RAMSEY_SLOW=1 to run")]


def slow(test):
    """Mark an opt-in test: skipped unless MATCHING_RAMSEY_SLOW=1."""
    for mark in _slow_marks():
        test = mark(test)
    return test


def slow_param(*values):
    """An opt-in case of a parametrized test, as :func:`slow`."""
    return pytest.param(*values, marks=_slow_marks())


def random_graph(rng: random.Random, n: int, p: float):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def all_colorings(n: int, c: int):
    """Every labelled c-coloring of K_n."""
    for combo in itertools.product(range(1, c + 1), repeat=n * (n - 1) // 2):
        yield EdgeColoring(n, c, combo)


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
        reps.add(canonical_form(_word_from_coloring(ec), n, classes))
    return reps


def prefix_of(word, m: int, classes: tuple[int, ...]) -> Prefix:
    """The canonicity state of the K_m ``word``: K_0's, grown by one block per vertex."""
    prefix = Prefix(classes)
    for k in range(m):
        prefix = prefix.child(word[k * (k - 1) // 2 : k * (k + 1) // 2])
    return prefix


def canonical(word, n: int, classes: tuple[int, ...]) -> bool:
    """Is the K_n ``word`` canonical?  Its K_{n-1} state and its last block
    go to ``is_canonical``; the empty word of K_0 is canonical."""
    cut = (n - 1) * (n - 2) // 2
    return n == 0 or is_canonical(prefix_of(word, n - 1, classes), word[cut:])


def min_image(word, n: int, classes: tuple[int, ...]) -> bytes:
    """The lexicographic minimum of the orbit of the K_n ``word`` (colex
    edge order), under vertex permutations and the color permutations that
    keep each color in its ``classes`` label.

    The image is built one vertex at a time; a color met for the first time
    maps to the least unused color of its label, and a branch whose image
    is larger than the least one found so far is dropped.  Of the unplaced
    twins (same color to every other vertex) only one is tried.
    """
    color = [[-1] * n for _ in range(n)]
    for (u, v), a in zip(((u, v) for v in range(n) for u in range(v)), word):
        color[u][v] = color[v][u] = a
    best = [bytes(word)]

    def twins(v, w):
        return all(color[v][x] == color[w][x] for x in range(n) if x not in (v, w))

    def place(placed, image, mapped):
        if image > best[0][: len(image)]:
            return
        if len(placed) == n:
            best[0] = image
            return
        tried = []
        for v in range(n):
            if v in placed or any(twins(v, w) for w in tried):
                continue
            tried.append(v)
            cmap = dict(mapped)
            for u in placed:
                a = color[u][v]
                if a not in cmap:
                    cmap[a] = min(b for b, label in enumerate(classes)
                                  if label == classes[a] and b not in cmap.values())
            place(placed + [v], image + bytes(cmap[color[u][v]] for u in placed), cmap)

    place([], b"", {})
    return best[0]


def insertion_makes_smaller(word, m: int, row) -> bool:
    """Brute force: is some image of the K_m ``word`` extended by ``row``,
    with the new vertex m moved to a position k < m, vertices 0..k-1 kept in
    place and the identity color map, smaller than the extended word in its
    first k + 1 blocks?

    Each image is built as a full K_{m+1} word with ``edge_index``; the
    vertices k..m-1 move up by one, and the new vertex takes position k.
    """
    n = m + 1
    full = bytes(word) + bytes(row)
    for k in range(m):
        order = [*range(k), m, *range(k, m)]  # order[p]: the vertex at position p
        image = bytes(
            full[edge_index(order[u], order[v])] for v in range(n) for u in range(v)
        )
        cut = (k + 1) * k // 2  # blocks 0..k
        if image[:cut] < full[:cut]:
            return True
    return False


def deleted(word, n: int, v: int) -> bytes:
    """The K_{n-1} word left when vertex v leaves the K_n ``word``."""
    edges = ((a, b) for b in range(n) for a in range(b))
    return bytes(col for (a, b), col in zip(edges, word) if v not in (a, b))


def free_spoke_configs(base: EdgeColoring, p: MatchParams, k: int):
    """Every (spokes, spoke_colors) with k spokes whose host coloring is free."""
    for spokes in itertools.combinations(range(base.host.n), k):
        for spoke_colors in itertools.product(range(1, p.c + 1), repeat=k):
            if is_free(_attach_center(base, spokes, spoke_colors), p):
                yield spokes, spoke_colors


def brute_force_max_free_spokes(base: EdgeColoring, p: MatchParams) -> int:
    """Largest k with a free k-spoke host coloring over ``base``.

    Dropping a spoke keeps a host free, so the first k without one ends
    the scan.
    """
    k = 0
    while k < base.host.n and next(free_spoke_configs(base, p, k + 1), None) is not None:
        k += 1
    return k


def brute_force_star(bases, p: MatchParams, m: int) -> tuple[bool, bool]:
    """(upper_ok, clique_spoke_color_ok) by exhausting spoke configurations.

    Upper bound: no placement of m + 1 spokes and no spoke coloring over any
    base is free.  Clique corollary: no free m-spoke host has a spoke into
    the base's clique V_1 in the clique's color.
    """
    nb = p.critical_order
    upper_ok = True
    for base in bases:
        for spokes in itertools.combinations(range(nb), m + 1):
            for spoke_colors in itertools.product(range(1, p.c + 1), repeat=m + 1):
                if is_free(_attach_center(base, spokes, spoke_colors), p):
                    upper_ok = False

    clique_ok = True
    for base in bases:
        witness = find_structure(base, p)
        if witness is None:
            clique_ok = False
            continue
        v1 = witness.parts[0]
        clique_color = witness.color_relabel.index(1) + 1
        for spokes in itertools.combinations(range(nb), m):
            for spoke_colors in itertools.product(range(1, p.c + 1), repeat=m):
                if not is_free(_attach_center(base, spokes, spoke_colors), p):
                    continue
                if any(v in v1 and col == clique_color for v, col in zip(spokes, spoke_colors)):
                    clique_ok = False
    return upper_ok, clique_ok


def brute_force_structure(ec: EdgeColoring, p: MatchParams) -> StructureWitness | None:
    """The first witness found by trying every (2 n_1 - 1)-subset as V_1.

    Tied colors m (n_m = n_1) are tried in increasing order and the subsets
    in lexicographic order.  Every vertex outside V_1 must see V_1 in one
    color j != m, which names its part.  Color m takes label 1 and the other
    colors labels 2..c in increasing order: labels of equal target size play
    symmetric roles in ``check_structure``, so this loses no witness.
    """
    n = ec.host.n
    for m in (i for i in range(1, p.c + 1) if p.sizes[i - 1] == p.sizes[0]):
        order = [m] + [j for j in range(1, p.c + 1) if j != m]
        relabel = tuple(order.index(j) + 1 for j in range(1, p.c + 1))
        for v1 in itertools.combinations(range(n), 2 * p.sizes[0] - 1):
            parts = [set(v1)] + [set() for _ in range(p.c - 1)]
            for v in range(n):
                if v in v1:
                    continue
                seen = {ec.color_of(v, u) for u in v1}
                if len(seen) != 1 or m in seen:
                    break
                parts[relabel[seen.pop() - 1] - 1].add(v)
            else:
                witness = StructureWitness(relabel, tuple(frozenset(part) for part in parts))
                if check_structure(ec, p, witness):
                    return witness
    return None
