"""Star-critical Ramsey numbers for matchings.

For n = r(n_1 K_2, ..., n_c K_2), the host K_{n-1} + K_{1,k} is K_{n-1} plus
a center x joined to k of its vertices by spokes.  The star-critical value

    r* = 1 + sum_{i >= 2} (n_i - 1)

is the least k forcing a monochromatic target in every coloring of that
host.  With m = r* - 1, both directions are verified at desk scale:

* lower bound: the Cockayne-Lorimer coloring extends to a free coloring with
  m spokes, one per vertex of each part V_i (i >= 2), colored i;
* upper bound: no critical base coloring of K_{n-1} (non-critical bases
  already contain a target) has a free extension with m + 1 spokes.

Lemma (Gallai-Edmonds).  Joining x to a set S raises nu(G) exactly when S
meets D(G).  Proof: a maximum matching missing some v in S grows by xv;
conversely a larger matching uses some xv, and dropping xv leaves a maximum
matching of G that misses v.

Color class i of the host is G_i plus x joined to the spokes of color i,
and a free base has nu(G_i) <= n_i - 1, so a spoke of color i to v breaks
freeness exactly when class i is tight (nu(G_i) = n_i - 1) and v lies in
D(G_i).  This is exact for any number of colors: the center is one vertex
and the classes share no edges, so a spoke configuration is free exactly
when each of its spokes is allowed on its own, and a base has a free
k-spoke extension exactly when at least k of its vertices admit a spoke.
The rule is ``search.extension_state``, the same function that extends
free representatives by one vertex in the orderly search: a spoke set is a
partial row to a new vertex.

A corollary of the structure theorem is also checked: in a free coloring
with m spokes, no spoke into the monochromatic clique V_1 of the base
carries that clique's color.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .coloring import (
    EdgeColoring,
    MatchParams,
    coloring_from_map,
    construct_critical,
    critical_parts,
    is_free,
)
from .search import (
    DEFAULT_ORDER_GUARD,
    Progress,
    _word_from_coloring,
    enumerate_critical,
    extension_state,
)


def star_critical_value(p: MatchParams) -> int:
    """1 + sum_{i >= 2} (n_i - 1)."""
    return 1 + sum(s - 1 for s in p.sizes[1:])


def _attach_center(
    base: EdgeColoring, spokes: tuple[int, ...], spoke_colors: tuple[int, ...]
) -> EdgeColoring:
    """Extend a coloring of K_{n-1} by a center with colored spokes."""
    nb = base.n
    colors = {(u, v): col for u, v, col in base.edges_with_colors()}
    colors.update(((v, nb), col) for v, col in zip(spokes, spoke_colors))
    return coloring_from_map(nb + 1, base.c, colors)


def construct_star_free(p: MatchParams) -> EdgeColoring:
    """Free coloring of K_{n-1} + K_{1,m} with m = r* - 1 spokes.

    The base is the Cockayne-Lorimer coloring; the center sends one spoke to
    every vertex of each part V_i with i >= 2, colored i.  Color i keeps
    vertex cover V_i, so freeness survives the extension.
    """
    base = construct_critical(p)
    parts = critical_parts(p)
    spokes = []
    spoke_colors = []
    for i, part in enumerate(parts[1:], start=2):
        for v in sorted(part):
            spokes.append(v)
            spoke_colors.append(i)
    return _attach_center(base, tuple(spokes), tuple(spoke_colors))


@dataclass(frozen=True)
class StarReport:
    """Outcome of the two-sided star-critical verification.

    Over all critical bases, ``placements_checked`` counts the vertices tried
    as spoke ends and ``colorings_checked`` the (vertex, color) spokes decided.
    """

    params: MatchParams
    star_value: int
    lower_ok: bool
    upper_ok: bool
    clique_spoke_color_ok: bool
    base_class_count: int
    placements_checked: int
    colorings_checked: int

    @property
    def verified(self) -> bool:
        return self.lower_ok and self.upper_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "params": list(self.params.sizes)}


def verify_star_exhaustive(
    p: MatchParams,
    *,
    guard: int = DEFAULT_ORDER_GUARD,
    jobs: int = 1,
    progress: Progress | None = None,
) -> StarReport:
    """Verify r* at one parameter point from the spoke rule on every critical base.

    Critical classes suffice: a free host coloring restricts to a free base
    and freeness is isomorphism-invariant.  The upper bound holds when at
    most m = r* - 1 vertices of each base admit a spoke.  The clique
    corollary fails on a base exactly when some vertex of V_1 admits a spoke
    of the clique color and at least m vertices admit a spoke, so that spoke
    completes a free m-spoke host.  ``jobs`` and ``progress`` go to the
    class search, which applies the order guard before anything is built.
    """
    nb = p.critical_order
    m = star_critical_value(p) - 1

    crit = enumerate_critical(p, guard=guard, jobs=jobs, progress=progress)
    star = construct_star_free(p)
    lower_ok = is_free(star, p) and star.n == nb + 1 and star.host.degree(nb) == m

    upper_ok = clique_ok = True
    for base, witness in zip(crit.critical_classes, crit.witnesses):
        allowed = extension_state(_word_from_coloring(base), nb, p.sizes).allowed
        admitting = sum(1 for colors in allowed if colors)
        upper_ok = upper_ok and admitting <= m
        if witness is None:
            clique_ok = False
            continue
        clique_color = witness.color_relabel.index(1)  # 0-based, as in ``allowed``
        if m and admitting >= m and any(clique_color in allowed[v] for v in witness.parts[0]):
            clique_ok = False

    bases = len(crit.critical_classes)
    return StarReport(
        params=p,
        star_value=m + 1,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        clique_spoke_color_ok=clique_ok,
        base_class_count=bases,
        placements_checked=bases * nb,
        colorings_checked=bases * nb * p.c,
    )
