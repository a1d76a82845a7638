"""Exact maximum matching in general graphs.

The workhorse is the classical augmenting-path algorithm with blossom
contraction (O(V^3)); it is exact on arbitrary simple graphs, which is
non-negotiable here because freeness of an edge coloring is decided by
matching numbers of its color classes.  A memoised exhaustive recursion over
vertex subsets serves as an independent oracle for small graphs.

All algorithms run on the raw adjacency bitmasks so that search-engine code
can call them on scratch masks without building :class:`~matching_ramsey.graph.Graph`
values in inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Edge, Graph

BRUTE_FORCE_LIMIT = 14


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, normalised and sorted."""

    edges: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def is_valid_matching(g: Graph, m: Matching) -> bool:
    """Every pair is an edge of ``g`` and no vertex is used twice."""
    seen: set[int] = set()
    for u, v in m.edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def _augment(rows: Sequence[int], n: int, match: list[int], roots: list[int]) -> list[bool] | None:
    """Grow alternating trees from the exposed ``roots``; contract blossoms
    on the fly.

    When an augmenting path turns up it is applied to ``match`` and the
    result is None.  Otherwise the result marks the outer vertices: those an
    even alternating path from a root reaches.  With several roots the
    matching must be maximum, so no edge joins two outer vertices of
    different trees.
    """
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    for root in roots:
        used[root] = True
    queue = list(roots)
    head = 0

    def lca(a: int, b: int) -> int:
        hit = [False] * n
        while True:
            a = base[a]
            hit[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if hit[b]:
                return b
            if match[b] == -1:
                raise RuntimeError("two alternating trees meet: the matching is not maximum")
            b = parent[match[b]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[child]

    while head < len(queue):
        v = queue[head]
        head += 1
        m = rows[v]
        while m:
            low = m & -m
            to = low.bit_length() - 1
            m ^= low
            if base[v] == base[to] or match[v] == to:
                continue
            if used[to]:
                # odd cycle: contract the blossom down to its stem
                stem = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augment along the tree path ending at `to`
                    while to != -1:
                        pv = parent[to]
                        follow = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = follow
                    return None
                used[match[to]] = True
                queue.append(match[to])
    return used


def _matching_on_masks(rows: Sequence[int], n: int, need: int | None = None) -> list[int]:
    """Maximum matching as a mate array (mate[v] = partner or -1).

    With ``need`` set, augmentation stops as soon as that many edges are
    matched; the result is then a matching of size >= need when one exists,
    not necessarily maximum.
    """
    match = [-1] * n
    size = 0
    for u in range(n):
        if match[u] == -1:
            m = rows[u]
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    size += 1
                    break
    if need is not None and size >= need:
        return match
    for root in range(n):
        if match[root] == -1 and rows[root]:
            if _augment(rows, n, match, [root]) is None:
                size += 1
                if need is not None and size >= need:
                    return match
    return match


def _mate_size(match: Sequence[int]) -> int:
    return sum(1 for v in match if v != -1) // 2


def has_k_matching_on_masks(rows: Sequence[int], n: int, k: int) -> bool:
    """Early-exit test for a matching of size ``k`` on raw adjacency masks."""
    if k <= 0:
        return True
    if 2 * k > n:
        return False
    return _mate_size(_matching_on_masks(rows, n, need=k)) >= k


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of ``g``.

    The cardinality is canonical; the edge set itself depends on internal
    tie-breaking and is not part of the contract.
    """
    match = _matching_on_masks(g.rows, g.n)
    edges = sorted((u, match[u]) for u in range(g.n) if match[u] > u)
    return Matching(tuple(edges))


def matching_number(g: Graph) -> int:
    """The matching number: size of a maximum matching."""
    return _mate_size(_matching_on_masks(g.rows, g.n))


def has_matching_of_size(g: Graph, k: int) -> bool:
    """True iff ``g`` contains ``k`` pairwise disjoint edges (early exit)."""
    return has_k_matching_on_masks(g.rows, g.n, k)


def brute_force_matching_number(g: Graph) -> int:
    """Independent oracle: exhaustive recursion over vertex availability.

    Branches on the lowest still-available vertex (leave it uncovered, or
    match it to each available neighbour), memoising on the availability
    mask.  Exponential state space, hence the hard size guard.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {g.n}")
    rows = g.rows
    memo: dict[int, int] = {}

    def best(avail: int) -> int:
        if avail == 0:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        low = avail & -avail
        v = low.bit_length() - 1
        rest = avail ^ low
        res = best(rest)
        m = rows[v] & rest
        while m:
            lowu = m & -m
            u = lowu.bit_length() - 1
            m ^= lowu
            res = max(res, 1 + best(rest ^ lowu))
        memo[avail] = res
        return res

    return best((1 << g.n) - 1)


def missed_mask(rows: Sequence[int], n: int, k: int) -> int:
    """Bitmask of the vertices v such that the graph minus v still has a
    matching of size ``k``.

    With ``k`` the matching number these are the vertices some maximum
    matching misses: the set D of the Gallai-Edmonds decomposition.
    """
    out = 0
    for v in range(n):
        keep = ~(1 << v)
        sub = [rows[u] & keep if u != v else 0 for u in range(n)]
        if has_k_matching_on_masks(sub, n, k):
            out |= 1 << v
    return out


def forest_d(rows: Sequence[int], n: int, match: list[int]) -> int:
    """The set D of :func:`missed_mask`, read off one alternating forest.

    ``match`` must be a maximum matching.  A vertex is missed by some
    maximum matching exactly when an even alternating path from an exposed
    vertex reaches it (Edmonds), so D is the outer set of the forest grown
    from every exposed vertex at once.
    """
    used = _augment(rows, n, match, [v for v in range(n) if match[v] == -1])
    return sum(1 << v for v in range(n) if used[v])


def is_factor_critical(g: Graph) -> bool:
    """True iff g - v has a perfect matching for every vertex v.

    Equivalently: n is odd and deleting any single vertex leaves matching
    number (n-1)/2.  The empty graph is not factor-critical; K_1 is.
    """
    return g.n % 2 == 1 and missed_mask(g.rows, g.n, g.n // 2) == (1 << g.n) - 1
