"""Exhaustive, symmetry-pruned search over edge colorings of small complete graphs.

The Ramsey number of the matchings n_1 K_2, ..., n_c K_2 is

    r = n_1 + 1 + sum_i (n_i - 1),

and verifying it at a parameter point means two finite facts: some free
coloring of K_{r-1} exists, and no free coloring of K_r exists.  Both are
settled by enumerating free colorings up to symmetry.

The generator is level-wise orderly generation (Read 1978; McKay 1998).
Colorings of K_m are ``bytes`` words in colex edge order (see
:mod:`matching_ramsey.canon`), so a K_m word is the prefix of every K_{m+1}
word extending it, and the canonical (lex-min) word of a class always
truncates to a canonical word.  The engine therefore keeps one canonical
representative per class of K_m colorings and, per level, colors the m
edges to a new vertex in every allowed way, keeping exactly the extensions
whose full word is again canonical.  Three prunes keep the tree small:

* freeness: by the Gallai-Edmonds lemma a free representative fixes, once,
  the colors each edge to the new vertex may take (``extension_colors``),
  and the rows are the product of those choices, so every candidate is free;
* symmetry of the representative: a row that swapping two of its twins, or
  two same-class colors it never uses, makes smaller is dropped without a
  canonicity test (``canon.Prefix.has_smaller_swap``);
* candidate extensions that are not lex-minimal in their orbit are discarded
  (and with them their entire subtree, since canonicity is prefix-inherited).

The symmetry group is given as color classes (see ``canon.is_canonical``):
the target sizes for the verification entry points, one shared class for
plain color enumeration, and one class per color for graph enumeration.
Canonicity is decided by a backtracking search, so no order limit comes
from the canonicity test; the order guard bounds the running time.

Work distribution splits a level's representatives across worker processes;
representative order is preserved when merging, so reports are byte-for-byte
deterministic regardless of the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable

from .canon import Prefix, edge_list, is_canonical
from .coloring import EdgeColoring, MatchParams, StructureWitness, find_structure, is_free
from .graph import Graph, complete_graph, graph_from_edges, is_connected
from .matching import has_k_matching_on_masks, missed_mask

DEFAULT_ORDER_GUARD = 8

Progress = Callable[[int, int], None]


def ramsey_value(p: MatchParams) -> int:
    """n_1 + 1 + sum_i (n_i - 1), one above the extremal order."""
    return p.critical_order + 1


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive run at one order.

    ``free_count`` counts the free canonical classes at ``order_checked``;
    ``critical_classes`` holds the free canonical representatives of the
    extremal order r - 1.  ``elapsed`` is wall time and stays out of
    :meth:`as_dict`, so serialised reports are deterministic.
    """

    params: MatchParams
    order_checked: int
    free_count: int
    critical_classes: tuple[EdgeColoring, ...]
    witnesses: tuple[StructureWitness | None, ...] = field(repr=False)
    elapsed: float = 0.0

    @property
    def verified(self) -> bool:
        """Upper bound (no free coloring at the checked order) plus lower
        bound (free colorings exist one order below)."""
        return self.free_count == 0 and len(self.critical_classes) > 0

    @property
    def structure_failures(self) -> tuple[EdgeColoring, ...]:
        """Critical classes without a block-structure witness."""
        return tuple(ec for ec, w in zip(self.critical_classes, self.witnesses) if w is None)

    @property
    def structure_ok(self) -> bool:
        return not self.structure_failures

    def as_dict(self) -> dict:
        from .formats import coloring_to_dict

        return {
            "params": list(self.params.sizes),
            "order_checked": self.order_checked,
            "free_count": self.free_count,
            "critical_classes": [coloring_to_dict(ec) for ec in self.critical_classes],
            "structure_failures": [coloring_to_dict(ec) for ec in self.structure_failures],
        }


# ---------------------------------------------------------------------------
# Level-wise orderly generation
# ---------------------------------------------------------------------------


def extension_colors(word: bytes, m: int, sizes: tuple[int, ...]) -> list[list[int]]:
    """For each vertex u of a free K_m word, the colors (0-based, increasing)
    the edge from u to a new vertex may take.

    Lemma (Gallai-Edmonds; proved in :mod:`matching_ramsey.star`): joining a
    new vertex to a set S raises nu(G) exactly when S meets D(G).  The word
    must be free, so every class i has nu <= n_i - 1; color i is then barred
    at u exactly when class i is tight (nu = n_i - 1) and u lies in its D,
    and by the lemma a whole row is free exactly when each of its edges is
    allowed on its own.  A class with n_i = 1 is tight with D every vertex,
    so its color is barred everywhere.
    """
    rows = [[0] * m for _ in sizes]
    for col, (u, v) in zip(word, edge_list(m)):
        rows[col][u] |= 1 << v
        rows[col][v] |= 1 << u
    barred = [
        missed_mask(r, m, s - 1) if has_k_matching_on_masks(r, m, s - 1) else 0
        for r, s in zip(rows, sizes)
    ]
    return [[i for i, d in enumerate(barred) if not d >> u & 1] for u in range(m)]


def _extend_representative(
    word: bytes,
    m: int,
    c: int,
    classes: tuple[int, ...],
    sizes: tuple[int, ...] | None,
) -> list[bytes]:
    """Canonical words of K_{m+1} whose K_m prefix is ``word``.

    With ``sizes`` given, each edge to the new vertex ranges over
    :func:`extension_colors`, so every candidate row is free; otherwise over
    all ``c`` colors.  Rows come in lexicographic order.  The prefix state of
    ``word`` is built once: it drops the rows a symmetry of ``word`` makes
    smaller and is extended by each remaining row in the canonicity test.
    """
    allowed = [range(c)] * m if sizes is None else extension_colors(word, m, sizes)
    prefix = Prefix(word, m, classes)
    out = []
    for row in map(bytes, product(*allowed)):
        if prefix.has_smaller_swap(row):
            continue
        cand = word + row
        if is_canonical(cand, m + 1, classes, prefix):
            out.append(cand)
    return out


def _generate_levels(
    n: int,
    c: int,
    *,
    sizes: tuple[int, ...] | None,
    classes: tuple[int, ...],
    jobs: int = 1,
    progress: Progress | None = None,
) -> list[list[bytes]]:
    """Canonical representatives of K_m colorings for every m <= n.

    ``levels[m]`` lists the canonical words of order m in increasing
    lexicographic order, under vertex permutations and the color
    permutations that keep each color inside its ``classes`` label.  With
    ``sizes`` set, only free colorings survive.
    """
    levels: list[list[bytes]] = [[b""], [b""]]  # K_0 and K_1: no edges
    if n <= 1:
        del levels[n + 1:]
        return levels
    for m in range(1, n):
        reps = levels[m]
        extend = partial(_extend_representative, m=m, c=c, classes=classes, sizes=sizes)
        if jobs > 1 and len(reps) > 2 * jobs:
            chunksize = max(1, len(reps) // (4 * jobs))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(extend, reps, chunksize=chunksize))
        else:
            results = list(map(extend, reps))
        nxt = [w for sub in results for w in sub]
        levels.append(nxt)
        if progress is not None:
            progress(m + 1, len(nxt))
    return levels


def _coloring_from_word(word: bytes, n: int, c: int) -> EdgeColoring:
    table = tuple(int(b) + 1 for b in word)
    return EdgeColoring(complete_graph(n), c, table)


def _word_from_coloring(ec: EdgeColoring) -> bytes:
    return bytes(col - 1 for col in ec.colors)


def _check_guard(order: int, guard: int) -> None:
    if order > guard:
        raise ValueError(
            f"order {order} exceeds the enumeration guard {guard}; "
            "raise the guard explicitly to proceed at your own risk"
        )


def enumerate_colorings(
    n: int,
    c: int,
    visitor: Callable[[EdgeColoring], None] | None = None,
    *,
    params: MatchParams | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
    jobs: int = 1,
) -> int:
    """Visit every c-edge-coloring of K_n once per canonical class.

    The acting group is vertex permutations crossed with the color
    permutations allowed by ``params`` (all of them when no parameters are
    attached).  Returns the number of classes.
    """
    _check_guard(n, guard)
    if params is not None and params.c != c:
        raise ValueError("params color count must match c")
    classes = params.sizes if params is not None else (0,) * c
    levels = _generate_levels(n, c, sizes=None, classes=classes, jobs=jobs)
    words = levels[n]
    if visitor is not None:
        for word in words:
            visitor(_coloring_from_word(word, n, c))
    return len(words)


def free_coloring_classes(
    p: MatchParams,
    order: int,
    *,
    guard: int = DEFAULT_ORDER_GUARD,
    jobs: int = 1,
    progress: Progress | None = None,
) -> list[EdgeColoring]:
    """All free colorings of K_order up to vertex/color symmetry."""
    _check_guard(order, guard)
    levels = _generate_levels(
        order, p.c, sizes=p.sizes, classes=p.sizes, jobs=jobs, progress=progress
    )
    return [_coloring_from_word(w, order, p.c) for w in levels[order]]


def _report(
    p: MatchParams, order: int, free_count: int, classes: list[EdgeColoring], started: float
) -> SearchReport:
    """Re-check each critical class through the public freeness test (a
    pruning bug cannot fabricate freeness) and read its block-structure
    witness."""
    for ec in classes:
        if not is_free(ec, p):
            raise RuntimeError("generator emitted a non-free coloring")
    return SearchReport(
        params=p,
        order_checked=order,
        free_count=free_count,
        critical_classes=tuple(classes),
        witnesses=tuple(find_structure(ec, p) for ec in classes),
        elapsed=time.perf_counter() - started,
    )


def enumerate_critical(
    p: MatchParams,
    *,
    guard: int = DEFAULT_ORDER_GUARD,
    jobs: int = 1,
    progress: Progress | None = None,
) -> SearchReport:
    """Enumerate the critical classes: free colorings of K_{r-1}.

    Every class is re-checked for freeness and given its block-structure
    witness; classes without one are reported in ``structure_failures``.
    """
    started = time.perf_counter()
    order = ramsey_value(p) - 1
    classes = free_coloring_classes(p, order, guard=guard, jobs=jobs, progress=progress)
    return _report(p, order, len(classes), classes, started)


def verify_ramsey_exhaustive(
    p: MatchParams,
    *,
    guard: int = DEFAULT_ORDER_GUARD,
    jobs: int = 1,
    progress: Progress | None = None,
) -> SearchReport:
    """Confirm the Ramsey value exhaustively at one parameter point.

    Upper bound: no free coloring of K_r survives generation (freeness is
    antitone in the order, so larger orders need no separate check).  Lower
    bound: the free classes of K_{r-1} are nonempty; they are re-checked and
    given witnesses as in :func:`enumerate_critical`.
    """
    started = time.perf_counter()
    r = ramsey_value(p)
    _check_guard(r, guard)
    levels = _generate_levels(
        r, p.c, sizes=p.sizes, classes=p.sizes, jobs=jobs, progress=progress
    )
    critical = [_coloring_from_word(w, r - 1, p.c) for w in levels[r - 1]]
    return _report(p, r, len(levels[r]), critical, started)


# ---------------------------------------------------------------------------
# Plain-graph enumeration (two colors, color group trivial)
# ---------------------------------------------------------------------------


def enumerate_graphs(
    n: int,
    *,
    connected_only: bool = False,
    guard: int = DEFAULT_ORDER_GUARD,
    jobs: int = 1,
) -> list[Graph]:
    """All graphs on n vertices up to isomorphism.

    A graph is a 2-coloring of K_n (present/absent) whose color group is
    trivial, so the coloring engine enumerates isomorphism classes directly.
    """
    _check_guard(n, guard)
    levels = _generate_levels(n, 2, sizes=None, classes=(0, 1), jobs=jobs)
    out = []
    pairs = edge_list(n)
    for word in levels[n]:
        edges = [pairs[e] for e, b in enumerate(word) if b == 1]
        g = graph_from_edges(n, edges)
        if not connected_only or is_connected(g):
            out.append(g)
    return out
