"""Gallai-Edmonds decomposition and verification of its five structure clauses.

For a graph G the canonical partition is

* D(G): vertices missed by at least one maximum matching,
* A(G): vertices outside D(G) with a neighbour in D(G),
* C(G): everything else.

The decomposition is computed straight from the definition rather than by
instrumenting the blossom search: one maximum matching gives nu, then
``matching.missed_mask`` asks, for each vertex v, whether G - v still has a
matching of size nu (an early-exit test).  That is n+1 matching runs on
adjacency masks, irrelevant at the graph sizes this library targets, and it
keeps the computation independently checkable.  The search reads D faster
off one alternating forest (``matching.forest_d``).  This module stays on
the definition: it is what the decomposition promises, and it is the
reference the forest is tested against, on every graph of order <= 7 and
on random graphs up to order 14.

The Gallai-Edmonds theorem asserts, for this partition:
(a) each component of G[D] is factor-critical;
(b) G[C] has a perfect matching;
(c) the bipartite graph on A versus the contracted D-components (C removed,
    edges inside A removed) has positive surplus viewed from A;
(d) every maximum matching contains a near-perfect matching of each
    D-component, a perfect matching of G[C], and matches A into distinct
    D-components;
(e) the matching number equals (|V| - omega(D) + |A|) / 2, with omega(D) the
    number of D-components.

:func:`verify_decomposition` checks each clause on a given partition.  Clause
(d) is certified through (b), (e) and a near-perfect matching in each odd
D-component instead of quantifying over all maximum matchings; a component
that passes (a) is odd with such a matching already, so only a component
that fails (a) is matched again, on the subgraph (a) built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graph import Graph, VertexSet, bits, connected_components, induced_subgraph, mask_of, part_of
from .matching import has_matching_of_size, is_factor_critical, matching_number, missed_mask

SURPLUS_SUBSET_LIMIT = 20


@dataclass(frozen=True)
class GEDecomposition:
    """The partition D/A/C with D stored as its list of components."""

    d_components: tuple[VertexSet, ...]
    a: VertexSet
    c: VertexSet

    @property
    def d(self) -> VertexSet:
        return frozenset(v for comp in self.d_components for v in comp)


@dataclass(frozen=True)
class VerificationReport:
    """One boolean per theorem clause plus both sides of the size formula."""

    components_factor_critical: bool  # (a)
    c_has_perfect_matching: bool      # (b)
    positive_surplus: bool            # (c)
    maximum_matching_structure: bool  # (d), certified via (e) + per-part numbers
    size_formula_holds: bool          # (e)
    matching_number: int
    formula_value: int

    @property
    def all_ok(self) -> bool:
        return (
            self.components_factor_critical
            and self.c_has_perfect_matching
            and self.positive_surplus
            and self.maximum_matching_structure
            and self.size_formula_holds
        )

    def as_dict(self) -> dict:
        return asdict(self)


def decompose(g: Graph) -> GEDecomposition:
    """Compute D(g), A(g), C(g) from the definition.

    v lies in D iff some maximum matching misses v, i.e. iff deleting v does
    not decrease the matching number.
    """
    d_mask = missed_mask(g.rows, g.n, matching_number(g))
    a_mask = 0
    for v in range(g.n):
        if not d_mask >> v & 1 and g.rows[v] & d_mask:
            a_mask |= 1 << v
    c_mask = ((1 << g.n) - 1) & ~(d_mask | a_mask)

    sub_d, order = induced_subgraph(g, bits(d_mask))
    comps = [frozenset(order[i] for i in comp) for comp in connected_components(sub_d)]
    return GEDecomposition(tuple(comps), frozenset(bits(a_mask)), frozenset(bits(c_mask)))


def matching_number_from_decomposition(g: Graph, ged: GEDecomposition) -> int:
    """Evaluate the size formula (|V| - omega(D) + |A|) / 2."""
    total = g.n - len(ged.d_components) + len(ged.a)
    if total % 2:
        raise ValueError("parity violation: decomposition cannot belong to this graph")
    return total // 2


def _surplus_positive(g: Graph, ged: GEDecomposition) -> bool:
    """Clause (c): |N(S)| > |S| for every nonempty S inside A.

    Neighbourhoods are taken in the bipartite graph from A to the contracted
    D-components; subsets of A are enumerated exhaustively.
    """
    a_list = sorted(ged.a)
    if not a_list:
        return True
    if len(a_list) > SURPLUS_SUBSET_LIMIT:
        raise ValueError(f"surplus check limited to |A| <= {SURPLUS_SUBSET_LIMIT}")
    comp_masks = [mask_of(comp) for comp in ged.d_components]
    reach = []
    for v in a_list:
        m = 0
        for k, comp in enumerate(comp_masks):
            if g.rows[v] & comp:
                m |= 1 << k
        reach.append(m)
    for subset in range(1, 1 << len(a_list)):
        nbhd = 0
        rest = subset
        while rest:
            low = rest & -rest
            nbhd |= reach[low.bit_length() - 1]
            rest ^= low
        if nbhd.bit_count() <= subset.bit_count():
            return False
    return True


def verify_decomposition(g: Graph, ged: GEDecomposition) -> VerificationReport:
    """Check the five structure clauses for the partition ``ged`` of ``g``."""
    part_of([*ged.d_components, ged.a, ged.c], g.n)
    subs = [induced_subgraph(g, comp)[0] for comp in ged.d_components]
    critical = [is_factor_critical(sub) for sub in subs]
    a_ok = all(critical)

    c_sub, _ = induced_subgraph(g, ged.c)
    b_ok = len(ged.c) % 2 == 0 and matching_number(c_sub) == len(ged.c) // 2

    c_ok = _surplus_positive(g, ged)

    nu = matching_number(g)
    formula = g.n - len(ged.d_components) + len(ged.a)
    e_ok = formula % 2 == 0 and nu == formula // 2

    # a factor-critical component is odd with a near-perfect matching, so
    # only the others need the (d) per-part test
    per_part_ok = all(
        fc or (sub.n % 2 == 1 and has_matching_of_size(sub, sub.n // 2))
        for fc, sub in zip(critical, subs)
    )
    d_ok = e_ok and b_ok and per_part_ok

    return VerificationReport(
        components_factor_critical=a_ok,
        c_has_perfect_matching=b_ok,
        positive_surplus=c_ok,
        maximum_matching_structure=d_ok,
        size_formula_holds=e_ok,
        matching_number=nu,
        formula_value=formula // 2 if formula % 2 == 0 else -1,
    )
