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
whose full word is again canonical.  Five prunes keep the tree small:

* freeness: by the Gallai-Edmonds lemma a free representative fixes, once,
  the colors each edge to the new vertex may take (``extension_state``),
  and the rows are the product of those choices, so every candidate is free;
* lookahead to a target order T: let s_i = n_i - 1 - nu_i be the slack of
  class i in a free K_{m+1} word.  If the word extends to a free coloring
  of K_T, any t of the T - m - 1 new vertices span a K_t, and a color-i
  matching inside that K_t is vertex-disjoint from one inside the word, so
  together they form a matching: class i of the K_t has nu <= s_i, hence
  at most ex(t, s_i) edges, the Erdos-Gallai maximum (Acta Math. Acad. Sci.
  Hungar. 10, 1959).  While two or more orders are missing, a row is
  dropped when C(t, 2) > sum_i ex(t, s_i) for some 2 <= t <= T - m - 1.
  Its slacks come free from the same lemma: the row raises nu_i exactly
  when it uses color i at a vertex of D_i.  The bound uses no Ramsey value,
  so nothing it prunes assumes what the search proves;
* symmetry of the representative: a row that swapping two of its twins, or
  two same-class colors it never uses, makes smaller is dropped without a
  canonicity test (``canon.Prefix.has_smaller_swap``);
* no dead vertex, when exactly one order is missing: by the same lemma one
  order up, the K_{m+1} word has no free one-vertex extension exactly when
  every class is tight and some vertex lies in every class's D, for then
  no color may join that vertex to a new one.  Each class's new D is one
  step of the search state's growth (``_grown``).  No Ramsey value is
  used; a row that leaves every class tight fails the lookahead at t = 2
  anyway;
* candidate extensions that are not lex-minimal in their orbit are discarded
  (and with them their entire subtree, since canonicity is prefix-inherited).

The state these prunes read grows with the words.  Each word travels to
the next level with its parent's state, a ``canon.Prefix`` and per class a
maximum matching and its D, and its own state is that plus its last block.

With a target, the levels below it keep only the classes that pass the
row filters, and the levels from the target on are complete.
``verify_ramsey_exhaustive`` therefore targets r - 1, not r: the critical
classes cannot reach order r, so a target of r could prune them away, and
order r is the plain extension of the complete critical level.

The symmetry group is given as color classes (see ``canon.is_canonical``):
the target sizes for the verification entry points, one shared class for
plain color enumeration, and one class per color for graph enumeration.
Canonicity is decided by a backtracking search, so no order limit comes
from the canonicity test; the order guard bounds the running time.

Work distribution splits a level's representatives across worker processes,
at most one per CPU, each word with its parent's state; representative order
is preserved when merging, so reports are byte-for-byte deterministic
regardless of the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, NamedTuple

from .canon import Prefix, edge_list, is_canonical
from .coloring import EdgeColoring, MatchParams, StructureWitness, find_structure, is_free
from .graph import Graph, bits, complete_graph, graph_from_edges, is_connected
from .matching import _augment, _mate_size, forest_d

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
    extremal order r - 1.
    """

    params: MatchParams
    order_checked: int
    free_count: int
    critical_classes: tuple[EdgeColoring, ...]
    witnesses: tuple[StructureWitness | None, ...] = field(repr=False)

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


class Extension(NamedTuple):
    """What the rows to a new vertex over a free K_m word share."""

    allowed: list[list[int]]  # per vertex u: the colors its edge to the new vertex may take
    slack: list[int]  # per class i: n_i - 1 - nu_i
    in_d: list[int]  # per vertex u: the mask of the classes whose D contains u
    # per class: its adjacency masks, a maximum matching as a mate array, and D
    states: list[tuple[list[int], list[int], int]]


def _grown(state: tuple, nbrs: int) -> tuple[list[int], list[int], int]:
    """A class's (masks, matching, D) once a new vertex x joins it with
    the neighbour mask ``nbrs``: one alternating search from x.

    If the search augments the kept matching M, M is maximum again and D is
    read off a fresh forest.  Otherwise M stays maximum and D gains exactly
    the outer vertices of x's tree.  Proof: x is exposed, so an alternating
    path meets it only as an end; an augmenting path avoiding x would be
    one of the old graph, and the search finds those ending at x.  D is the
    set of vertices an even alternating path from an exposed vertex reaches
    (Edmonds).  From an exposed y != x such a path cannot end at x, for it
    would augment; so it lies in the old graph, and these paths give the
    old D.  From x they reach the outer vertices of its tree.  A class x
    does not touch just gains x.
    """
    masks, mate, d = state
    x = len(masks)
    if not nbrs:
        return masks + [0], mate + [-1], d | 1 << x
    rows = [r | (nbrs >> u & 1) << x for u, r in enumerate(masks)] + [nbrs]
    match = mate + [-1]
    outer = _augment(rows, x + 1, match, [x])
    if outer is None:
        return rows, match, forest_d(rows, x + 1, match)
    return rows, match, d | sum(1 << v for v, o in enumerate(outer) if o)


def _neighbours(block, c: int) -> list[int]:
    """Per color: the mask of the vertices a new vertex with colors ``block`` sees in it."""
    nbrs = [0] * c
    for u, col in enumerate(block):
        nbrs[col] |= 1 << u
    return nbrs


def extension_state(
    word: bytes, m: int, sizes: tuple[int, ...], parent: Extension | None = None
) -> Extension:
    """The :class:`Extension` of a free K_m word: one :func:`_grown` step
    per class and block, from K_0, or from ``parent``, the Extension of a
    prefix of the word.

    Lemma (Gallai-Edmonds; proved in :mod:`matching_ramsey.star`): joining a
    new vertex to a set S raises nu(G) exactly when S meets D(G).  So a row
    raises nu_i by one exactly when it uses color i at a vertex of D_i.  The
    word is free, so every slack is >= 0; color i is barred at u exactly
    when class i is tight (slack 0) and u lies in its D, and a whole row is
    free exactly when each of its edges is allowed on its own.  A class with
    n_i = 1 is tight with D every vertex, so its color is barred everywhere.
    """
    states = [([], [], 0)] * len(sizes) if parent is None else parent.states
    for k in range(len(states[0][0]), m):
        nbrs = _neighbours(word[k * (k - 1) // 2 : k * (k + 1) // 2], len(sizes))
        states = [_grown(state, b) for state, b in zip(states, nbrs)]
    slack, in_d = [], [0] * m
    for i, ((_, mate, d), s) in enumerate(zip(states, sizes)):
        slack.append(s - 1 - _mate_size(mate))
        for u in bits(d):
            in_d[u] |= 1 << i
    allowed = [[i for i, s in enumerate(slack) if s or not d >> i & 1] for d in in_d]
    return Extension(allowed, slack, in_d, states)


def _raised(in_d: list[int], row: bytes) -> int:
    """The mask of the classes whose nu ``row`` raises: color i at a vertex of D_i."""
    hit = 0
    for d, col in zip(in_d, row):
        hit |= d & 1 << col
    return hit


def _ex(t: int, k: int) -> int:
    """Erdos-Gallai: the most edges a graph on t vertices with nu <= k has."""
    if t <= 2 * k:
        return t * (t - 1) // 2
    return max(k * (2 * k + 1), k * (k - 1) // 2 + k * (t - k))


def _can_reach(slack: list[int], more: int) -> bool:
    """Can a free word with these slacks gain ``more`` vertices?  Any t of
    them span a K_t whose class i has nu <= slack_i, so C(t, 2) edges must
    fit under the sum of ex(t, slack_i)."""
    return all(t * (t - 1) // 2 <= sum(_ex(t, s) for s in slack) for t in range(2, more + 1))


def _lookahead(ext: Extension, more: int) -> Callable[[bytes], bool]:
    """Row filter: can the word still gain ``more`` vertices after ``row``?

    A row lowers slack_i by one exactly when it uses color i in D_i, so the
    verdict depends only on that set of classes and is kept per set.
    """
    verdicts: dict[int, bool] = {}

    def keep(row: bytes) -> bool:
        hit = _raised(ext.in_d, row)
        ok = verdicts.get(hit)
        if ok is None:
            slack = [s - (hit >> i & 1) for i, s in enumerate(ext.slack)]
            ok = verdicts[hit] = _can_reach(slack, more)
        return ok

    return keep


def _extendable(ext: Extension, m: int) -> Callable[[bytes], bool] | None:
    """Row filter: does the word keep a free one-vertex extension after ``row``?

    It has none exactly when some vertex admits no color, that is, when
    every class is tight and some vertex lies in every class's D (the rule
    of :func:`extension_state`, one order up).  A row leaves every class
    tight exactly when it raises nu_i for each class with slack 1 and no
    slack is larger; None means that no row can.  For such a row each
    class's new D is one :func:`_grown` step, kept per class and neighbour
    mask.
    """
    if any(s > 1 for s in ext.slack):
        return None
    ones = sum(1 << i for i, s in enumerate(ext.slack) if s)
    everyone = (1 << (m + 1)) - 1
    grown: dict[tuple[int, int], int] = {}

    def keep(row: bytes) -> bool:
        if _raised(ext.in_d, row) != ones:
            return True
        dead = everyone
        for key in enumerate(_neighbours(row, len(ext.states))):
            d = grown.get(key)
            if d is None:
                d = grown[key] = _grown(ext.states[key[0]], key[1])[2]
            dead &= d
            if not dead:
                return True
        return False

    return keep


def _extend_representative(
    rep: tuple[tuple[Prefix, Extension | None], bytes],
    m: int,
    c: int,
    classes: tuple[int, ...],
    sizes: tuple[int, ...] | None,
    target: int | None = None,
) -> tuple[tuple[Prefix, Extension | None] | None, list[bytes]]:
    """Canonical words of K_{m+1} whose K_m prefix is ``word``; ``rep`` is
    the word with its parent's state, a :class:`Prefix` and, with
    ``sizes``, an :class:`Extension`.  The word's own state is its parent's
    plus its last block, and comes back with the words when there are any.

    With ``sizes`` given, each edge to the new vertex ranges over the
    allowed colors of :func:`extension_state`, so every candidate row is
    free; otherwise over all ``c`` colors.  Rows come in lexicographic
    order.  The prefix state drops the rows a symmetry of the word makes
    smaller; the canonicity test extends it by each remaining row.  With
    ``target`` given, one filter runs between the two: it drops rows after
    which the word cannot reach ``target`` while two or more orders are
    missing, or has no free extension when one is.
    """
    (parent, parent_ext), word = rep
    prefix = parent.child(word[(m - 1) * (m - 2) // 2 :])
    ext = keep = None
    if sizes is None:
        rows = map(bytes, product(range(c), repeat=m))
    else:
        ext = extension_state(word, m, sizes, parent_ext)
        rows = map(bytes, product(*ext.allowed))
        more = 0 if target is None else target - m - 1
        if more >= 2:
            keep = _lookahead(ext, more)
        elif more == 1:
            keep = _extendable(ext, m)
    out = []
    for row in rows:
        if prefix.has_smaller_swap(row) or (keep is not None and not keep(row)):
            continue
        cand = word + row
        if is_canonical(cand, m + 1, classes, prefix):
            out.append(cand)
    return ((prefix, ext) if out else None), out


def _generate_levels(
    n: int,
    c: int,
    *,
    sizes: tuple[int, ...] | None,
    classes: tuple[int, ...],
    target: int | None = None,
    jobs: int = 1,
    progress: Progress | None = None,
) -> list[list[bytes]]:
    """Canonical representatives of K_m colorings for every m <= n.

    ``levels[m]`` lists the canonical words of order m in increasing
    lexicographic order, under vertex permutations and the color
    permutations that keep each color inside its ``classes`` label.  With
    ``sizes`` set, only free colorings survive; with ``target`` set as well,
    only those that pass the row filters for order ``target``, so the
    lists are complete from order ``target`` on.

    Each word of the level being extended travels, also to a worker
    process, with its parent's state, which only representatives with
    children pass on.
    """
    levels: list[list[bytes]] = [[b""], [b""]][: n + 1]  # K_0 and K_1: no edges
    root = Prefix(b"", 0, classes), None if sizes is None else extension_state(b"", 0, sizes)
    reps = [(root, b"")]  # levels[m], each word with its parent's state
    workers = min(jobs, os.cpu_count() or 1)
    for m in range(1, n):
        extend = partial(
            _extend_representative, m=m, c=c, classes=classes, sizes=sizes, target=target
        )
        if workers > 1 and len(reps) > 2 * workers:
            from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

            chunksize = max(1, len(reps) // (4 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(extend, reps, chunksize=chunksize))
        else:
            results = list(map(extend, reps))
        reps = [(state, w) for state, sub in results for w in sub]
        nxt = [w for _, w in reps]
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
    if order < 0:
        raise ValueError(f"order {order} is negative")
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
    """All free colorings of K_order up to vertex/color symmetry (target ``order``)."""
    _check_guard(order, guard)
    levels = _generate_levels(
        order, p.c, sizes=p.sizes, classes=p.sizes, target=order, jobs=jobs, progress=progress
    )
    return [_coloring_from_word(w, order, p.c) for w in levels[order]]


def _report(
    p: MatchParams, order: int, free_count: int, classes: list[EdgeColoring]
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
    order = ramsey_value(p) - 1
    classes = free_coloring_classes(p, order, guard=guard, jobs=jobs, progress=progress)
    return _report(p, order, len(classes), classes)


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
    given witnesses as in :func:`enumerate_critical`.  The search targets
    r - 1, so order r is the plain extension of every free class of K_{r-1}.
    """
    r = ramsey_value(p)
    _check_guard(r, guard)
    levels = _generate_levels(
        r, p.c, sizes=p.sizes, classes=p.sizes, target=r - 1, jobs=jobs, progress=progress
    )
    critical = [_coloring_from_word(w, r - 1, p.c) for w in levels[r - 1]]
    return _report(p, r, len(levels[r]), critical)


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
