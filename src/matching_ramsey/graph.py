"""Simple undirected graphs on dense integer vertices with bitset adjacency.

Vertices are the integers 0..n-1 and the adjacency relation is stored as one
integer bitmask per vertex.  That keeps membership tests O(1), makes
vertex-subset operations plain mask arithmetic, and lets the search engine
share graphs freely between workers: a :class:`Graph` is immutable after
construction and every operation here is a pure function.  :func:`part_of`
is the package's one check that vertex sets partition 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, int]
VertexSet = frozenset[int]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def part_of(parts: Iterable[Iterable[int]], n: int) -> list[int]:
    """The index of each vertex's part; ValueError unless the parts partition 0..n-1."""
    owner = [-1] * n
    for i, part in enumerate(parts):
        for v in part:  # a vertex repeated inside one part is allowed
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside 0..{n - 1}")
            if owner[v] not in (-1, i):
                raise ValueError("parts overlap")
            owner[v] = i
    if -1 in owner:
        raise ValueError("parts do not cover the vertex set")
    return owner


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``rows[v]`` is the neighbour bitmask of ``v``."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError("adjacency needs exactly one row per vertex")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} mentions vertices outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            row = self.rows[v]
            for u in bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[Edge]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            above = self.rows[u] & ~((1 << (u + 1)) - 1)
            for v in bits(above):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


def graph_from_edges(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph on 0..n-1 from an edge list.

    Repeated edges are tolerated (the relation is a set); loops and
    out-of-range endpoints are rejected.
    """
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complete_graph(n: int) -> Graph:
    """K_n: all n(n-1)/2 edges present."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by the vertex set ``s``, relabelled to 0..|s|-1.

    Returns the subgraph together with the relabelling map: position i of the
    returned tuple holds the original index of new vertex i (original indices
    in increasing order).
    """
    order = sorted(set(s))
    if order and not (0 <= order[0] and order[-1] < g.n):
        raise ValueError("vertex out of range")
    index = {v: i for i, v in enumerate(order)}
    rows = [0] * len(order)
    for i, v in enumerate(order):
        for u in bits(g.rows[v]):
            j = index.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(order), tuple(rows)), tuple(order)


def connected_components(g: Graph) -> list[VertexSet]:
    """Partition of the vertex set into maximal connected sets.

    Components are sorted by their smallest member.
    """
    seen = 0
    out: list[VertexSet] = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            grown = comp
            for u in bits(frontier):
                grown |= g.rows[u]
            frontier = grown & ~comp
            comp = grown
        seen |= comp
        out.append(frozenset(bits(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1
