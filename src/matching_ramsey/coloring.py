"""Edge-colored graphs and the structure theory of matching-free colorings.

Throughout, the target is the family of matchings n_1 K_2, ..., n_c K_2 with
n_1 >= ... >= n_c >= 1 (:class:`MatchParams`).  A c-edge-coloring is *free*
when color class i never contains a matching of size n_i.

This module carries the constructive and structural side of the theory:

* the Cockayne-Lorimer coloring: parts V_1 (size 2 n_1 - 1) and V_i (size
  n_i - 1, i >= 2), each edge colored by the largest part index it touches --
  every color class i then has vertex cover V_i, hence matching number at
  most n_i - 1;
* the block-structure certificate for free colorings of the extremal
  complete graph (:class:`StructureWitness`, checked by
  :func:`check_structure`, read off the coloring by :func:`find_structure`);
* per-color Gallai-Edmonds bookkeeping used by the edge-counting argument
  (:func:`proof_ledger`);
* partition contraction and matching lifting, which transport monochromatic
  matchings between a host graph and its quotient (:func:`contract_partition`,
  :func:`lift_matching`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from .canon import edge_index
from .gallai_edmonds import decompose
from .graph import Edge, Graph, VertexSet, complete_graph, mask_of, part_of
from .matching import Matching, has_matching_of_size, matching_number, maximum_matching


@dataclass(frozen=True)
class MatchParams:
    """The tuple (n_1 >= n_2 >= ... >= n_c >= 1) of target matching sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("at least one color is required")
        if any(not isinstance(s, int) or s < 1 for s in self.sizes):
            raise ValueError("matching sizes must be positive integers")
        if any(self.sizes[i] < self.sizes[i + 1] for i in range(len(self.sizes) - 1)):
            raise ValueError("matching sizes must be non-increasing")

    @property
    def c(self) -> int:
        return len(self.sizes)

    @property
    def critical_order(self) -> int:
        """Order of the extremal complete graph: n_1 + sum_i (n_i - 1)."""
        return self.sizes[0] + sum(s - 1 for s in self.sizes)


@dataclass(frozen=True)
class EdgeColoring:
    """A color in 1..c for every edge of a host graph.

    Colors are stored densely over all vertex pairs in colex order; entry 0
    marks a non-edge of the host, so the invariant "every host edge has
    exactly one color" is a shape property of the tuple.
    """

    host: Graph
    c: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError("at least one color is required")
        n = self.host.n
        if len(self.colors) != n * (n - 1) // 2:
            raise ValueError("color table must cover every vertex pair")
        for v in range(n):
            for u in range(v):
                col = self.colors[edge_index(u, v)]
                if self.host.has_edge(u, v):
                    if not 1 <= col <= self.c:
                        raise ValueError(f"edge ({u}, {v}) has color {col} outside 1..{self.c}")
                elif col != 0:
                    raise ValueError(f"non-edge ({u}, {v}) carries color {col}")

    def color_of(self, u: int, v: int) -> int:
        col = self.colors[edge_index(u, v)]
        if col == 0:
            raise KeyError(f"({u}, {v}) is not an edge of the host")
        return col

    def edges_with_colors(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, color) for every host edge, u < v, in lexicographic order."""
        for u, v in self.host.edges():
            yield u, v, self.colors[edge_index(u, v)]


def coloring_from_map(host: Graph, c: int, colors: Mapping[Edge, int]) -> EdgeColoring:
    """Build an :class:`EdgeColoring` from an (u, v) -> color mapping.

    The constructor validates that the mapping covers exactly the host edges.
    """
    n = host.n
    table = [0] * (n * (n - 1) // 2)
    for (u, v), col in colors.items():
        table[edge_index(u, v)] = col
    return EdgeColoring(host, c, tuple(table))


def color_class(ec: EdgeColoring, i: int) -> Graph:
    """The spanning subgraph of edges colored ``i``."""
    if not 1 <= i <= ec.c:
        raise ValueError(f"color {i} outside 1..{ec.c}")
    rows = [0] * ec.host.n
    for u, v, col in ec.edges_with_colors():
        if col == i:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(ec.host.n, tuple(rows))


def matching_profile(ec: EdgeColoring) -> tuple[int, ...]:
    """Matching number of every color class, in color order."""
    return tuple(matching_number(color_class(ec, i)) for i in range(1, ec.c + 1))


def _check_color_count(ec: EdgeColoring, p: MatchParams) -> None:
    if ec.c != p.c:
        raise ValueError(f"coloring has {ec.c} colors, parameters expect {p.c}")


def is_free(ec: EdgeColoring, p: MatchParams) -> bool:
    """True iff no color class i contains a matching of size n_i."""
    _check_color_count(ec, p)
    for i, target in enumerate(p.sizes, start=1):
        if has_matching_of_size(color_class(ec, i), target):
            return False
    return True


def find_monochromatic_matching(ec: EdgeColoring, p: MatchParams) -> tuple[int, Matching] | None:
    """Some color i together with a monochromatic n_i-matching, if one exists."""
    _check_color_count(ec, p)
    for i, target in enumerate(p.sizes, start=1):
        mm = maximum_matching(color_class(ec, i))
        if mm.size >= target:
            return i, Matching(mm.edges[:target])
    return None


def critical_parts(p: MatchParams) -> tuple[VertexSet, ...]:
    """The canonical part layout: V_1 = first 2 n_1 - 1 vertices, then blocks
    of size n_i - 1 for i >= 2."""
    parts = []
    start = 0
    for i, s in enumerate(p.sizes, start=1):
        width = 2 * s - 1 if i == 1 else s - 1
        parts.append(frozenset(range(start, start + width)))
        start += width
    return tuple(parts)


def construct_critical(p: MatchParams) -> EdgeColoring:
    """The Cockayne-Lorimer free coloring of the extremal complete graph.

    Edge {x, y} receives the largest part index that {x, y} intersects.
    Every edge of color i is then incident to V_i (or lies inside V_1 for
    i = 1), so class i has no matching of size n_i.
    """
    n = p.critical_order
    owner = part_of(critical_parts(p), n)
    host = complete_graph(n)
    table = [0] * (n * (n - 1) // 2)
    for u, v in host.edges():
        table[edge_index(u, v)] = max(owner[u], owner[v]) + 1
    return EdgeColoring(host, p.c, tuple(table))


# ---------------------------------------------------------------------------
# Structure certificates for free colorings of the extremal complete graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureWitness:
    """A color relabelling plus a part partition certifying block structure.

    ``color_relabel[i - 1]`` is the new label of original color i; ``parts``
    are indexed by new labels, so ``parts[0]`` plays the role of V_1.
    """

    color_relabel: tuple[int, ...]
    parts: tuple[VertexSet, ...]


def check_structure(ec: EdgeColoring, p: MatchParams, w: StructureWitness) -> bool:
    """Verify that ``w`` certifies block structure for ``ec``.

    After applying the relabelling the parts must have the sizes of
    :func:`critical_parts`; edges inside V_i or between V_1 and V_i must have
    color i; edges between V_i and V_j (2 <= i < j) must have color i or j.
    Colors with n_i = 1 own empty parts and therefore cannot appear at all.

    A malformed witness (not a partition, or a relabelling that exchanges
    colors with different target sizes) raises; a well-formed witness that
    fails the clauses returns False.
    """
    _check_color_count(ec, p)
    relabel = w.color_relabel
    if sorted(relabel) != list(range(1, p.c + 1)):
        raise ValueError("color_relabel is not a permutation of 1..c")
    for old in range(1, p.c + 1):
        if p.sizes[relabel[old - 1] - 1] != p.sizes[old - 1]:
            raise ValueError("relabelling may only exchange colors with equal target sizes")
    if len(w.parts) != p.c:
        raise ValueError("witness needs one part per color")
    owner = part_of(w.parts, ec.host.n)
    if any(len(part) != len(want) for part, want in zip(w.parts, critical_parts(p))):
        return False

    for u, v, old in ec.edges_with_colors():
        col = relabel[old - 1]
        pu, pv = owner[u] + 1, owner[v] + 1
        if pu == pv:
            if col != pu:
                return False
        elif pu == 1 or pv == 1:
            if col != (pv if pu == 1 else pu):
                return False
        elif col not in (pu, pv):
            return False
    return True


def _is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def find_structure(ec: EdgeColoring, p: MatchParams) -> StructureWitness | None:
    """The block-structure witness of ``ec``, or None when none exists.

    The witness is forced, so nothing is searched.  A witness that gives V_1
    the old color m makes class m exactly the clique on V_1: edges inside V_1
    carry label 1, and every other edge carries the label of a part i >= 2.
    Hence V_1 is the set of vertices of degree at least 2 n_1 - 2 in class m
    (for n_1 = 1 the order is 1 and V_1 = {0}).  Every other vertex sees V_1
    in the color of its part, and the colors j != m take the labels 2..c in
    increasing order, which keeps the target sizes because every color below
    m is tied with n_1.  For each tied color m in turn the forced candidate
    is built and :func:`check_structure` alone accepts or rejects it.
    """
    _check_color_count(ec, p)
    if not _is_complete(ec.host):
        raise ValueError("structure search requires a complete host graph")
    if ec.host.n != p.critical_order:
        raise ValueError(
            f"host order {ec.host.n} differs from the extremal order {p.critical_order}"
        )
    n = ec.host.n
    n1 = p.sizes[0]
    for m in (i for i in range(1, p.c + 1) if p.sizes[i - 1] == n1):
        cls = color_class(ec, m)
        v1 = frozenset(v for v in range(n) if cls.degree(v) >= 2 * n1 - 2)
        if not v1:  # class m has no clique on 2 n_1 - 1 >= 3 vertices
            continue
        order = [m] + [j for j in range(1, p.c + 1) if j != m]
        relabel = tuple(order.index(j) + 1 for j in range(1, p.c + 1))
        # a vertex that sees V_1 in several colors is filed under the color of
        # its edge to `anchor`; check_structure then rejects the V_1 edges
        anchor = min(v1)
        parts: list[set[int]] = [set() for _ in range(p.c)]
        for v in range(n):
            parts[0 if v in v1 else relabel[ec.color_of(v, anchor) - 1] - 1].add(v)
        witness = StructureWitness(relabel, tuple(frozenset(part) for part in parts))
        if check_structure(ec, p, witness):
            return witness
    return None


# ---------------------------------------------------------------------------
# Per-color Gallai-Edmonds ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColorLedger:
    """Edge-counting data of one color class.

    ``a`` is |A| of the class decomposition, ``d_values`` lists |C|/2 followed
    by (|D_k| - 1)/2 per D-component, ``b = n_i - 1 - a``, and the bound pair
    is (edges inside C plus edges inside D) <= C(2b + 1, 2).
    """

    color: int
    a: int
    d_values: tuple[int, ...]
    b: int
    edge_bound_lhs: int
    edge_bound_rhs: int


@dataclass(frozen=True)
class ProofLedger:
    per_color: tuple[ColorLedger, ...]

    def as_dict(self) -> dict:
        return asdict(self)


def _edges_within(g: Graph, s: VertexSet) -> int:
    m = mask_of(s)
    return sum((g.rows[v] & m).bit_count() for v in s) // 2


def proof_ledger(ec: EdgeColoring, p: MatchParams) -> ProofLedger:
    """Decompose every color class and tabulate the edge-counting bound.

    Requires a free coloring: the bound C(2(n_i - 1 - a_i) + 1, 2) only
    carries meaning when class i has matching number at most n_i - 1.
    """
    if not is_free(ec, p):
        raise ValueError("proof ledger is only defined for free colorings")
    entries = []
    for i, target in enumerate(p.sizes, start=1):
        cls = color_class(ec, i)
        ged = decompose(cls)
        a = len(ged.a)
        if len(ged.c) % 2:
            raise RuntimeError("C side of a Gallai-Edmonds decomposition is odd")
        d_values = [len(ged.c) // 2]
        for comp in ged.d_components:
            if len(comp) % 2 == 0:
                raise RuntimeError("a D-component of a Gallai-Edmonds decomposition is even")
            d_values.append((len(comp) - 1) // 2)
        b = target - 1 - a
        lhs = _edges_within(cls, ged.c) + _edges_within(cls, ged.d)
        rhs = comb(2 * b + 1, 2)
        if sum(d_values) > b:
            raise RuntimeError("matching number exceeds the freeness budget")
        if lhs > rhs:
            raise RuntimeError("edge count exceeds the freeness bound")
        entries.append(
            ColorLedger(
                color=i,
                a=a,
                d_values=tuple(d_values),
                b=b,
                edge_bound_lhs=lhs,
                edge_bound_rhs=rhs,
            )
        )
    return ProofLedger(tuple(entries))


# ---------------------------------------------------------------------------
# Partition contraction
# ---------------------------------------------------------------------------


def contract_partition(
    ec: EdgeColoring, parts: Sequence[Iterable[int]]
) -> tuple[EdgeColoring, dict[Edge, Edge]]:
    """Contract each part to a vertex, keeping one representative edge per pair.

    Requires the parts to partition the host vertex set and every pair of
    parts to be joined by at least one host edge.  The representative of the
    contracted edge (i, j) is the lexicographically smallest host edge
    between part i and part j, recorded in the returned map.
    """
    owner = part_of(parts, ec.host.n)
    # host edges come in lexicographic order: the first met is the smallest
    first: dict[Edge, Edge] = {}
    for u, v in ec.host.edges():
        i, j = sorted((owner[u], owner[v]))
        if i != j:
            first.setdefault((i, j), (u, v))
    k = len(parts)
    rep_map: dict[Edge, Edge] = {}
    table = [0] * (k * (k - 1) // 2)
    for j in range(k):
        for i in range(j):
            best = first.get((i, j))
            if best is None:
                raise ValueError(f"no host edge joins part {i} and part {j}")
            rep_map[(i, j)] = best
            table[edge_index(i, j)] = ec.color_of(*best)
    contracted = EdgeColoring(complete_graph(k), ec.c, tuple(table))
    return contracted, rep_map


def lift_matching(m: Matching, rep_map: Mapping[Edge, Edge]) -> Matching:
    """Replace each contracted edge by its representative host edge.

    Disjointness is inherited from the parts being disjoint; sizes and (for a
    monochromatic matching) the color are preserved.
    """
    lifted = []
    for u, v in m.edges:
        key = (u, v) if (u, v) in rep_map else (v, u)
        lifted.append(rep_map[key])
    covered = [w for e in lifted for w in e]
    if len(set(covered)) != len(covered):
        raise ValueError("lifted edges are not disjoint; representative map is inconsistent")
    return Matching(tuple(sorted(lifted)))
