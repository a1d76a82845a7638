"""Canonical forms for edge colorings of complete graphs.

A coloring of K_n is a word over the color alphabet indexed by the edges of
K_n in *colex* order: edge {u, v} with u < v sits at index v(v-1)/2 + u.
Colex order has the property the level-wise generator relies on: the first
C(m, 2) positions of a K_n word are exactly the edges of K_m, so deleting the
last vertex is word truncation.

The acting group is (vertex permutations) x (color permutations).  The
allowed color permutations are given by *color classes*: one label per
color, and a permutation is allowed when it maps every color into its own
class (all of S_c when every label is equal, the identity when all labels
differ).  A word is canonical when it is the lexicographic minimum of its
orbit.

``is_canonical`` decides this by backtracking.  The colex word of K_n splits
into blocks: block k holds the colors of the edges from vertex k back to the
vertices 0..k-1.  An image word is built one block at a time by choosing
which vertex of the word goes to position k next.  A branch dies as soon as
its block is lexicographically larger than the word's block, and the search
stops at the first smaller block.  Color permutations are handled inside
the search: an image color met for the first time is mapped to the least
unused color of its class.  This is exact because any other choice is a
larger symbol at that position.  Twin vertices, which see every other vertex
in the same colors, are interchangeable, so only one of them is tried at
each position.  Nothing of size n! is built, so the test has no order limit.

A ``Prefix`` is the state that the one-vertex extensions of a K_m word
share: color classes and their members, color rows, unused colors and twin
classes, which only ``Prefix.joined`` computes (a class splits by the new
vertex's colors, and the new vertex joins at most one class).
``Prefix(classes)`` is the state of K_0, and ``Prefix.child`` is the one
way to grow a state, by one vertex, so a K_m state is m ``joined`` steps
from K_0's.  ``has_smaller_swap`` drops a row that swapping two twins, or
two same-class colors the prefix never uses, makes smaller;
``has_smaller_insertion`` drops a row whose new vertex, moved to an earlier
position k, already gives a smaller block k; and ``is_canonical(prefix,
row)`` tests the prefix's word extended by ``row``.

``perm_edge_table`` and ``canonical_form`` compute the orbit minimum by brute
force over every vertex and color permutation.  They are the reference the
tests compare ``is_canonical`` against, not part of the search.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

# The brute-force table has n! rows of C(n, 2) bytes: about 2.5 MB at n = 8.
# A numpy table of the same shape measured 566 MB at n = 9 and extrapolates to
# about 7 GB at n = 10, so the reference stays at n <= 8.
MAX_TABLE_ORDER = 8


def edge_index(u: int, v: int) -> int:
    """Colex index of the edge {u, v}."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def edge_list(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in colex order; the first C(m,2) entries are E(K_m)."""
    return [(u, v) for v in range(n) for u in range(v)]


class Prefix:
    """What every one-vertex extension of a K_m word shares.

    ``classes``: one label per color; ``members``: the colors of each
    label; ``rows[v]``: bytes, the colors from v to every vertex (its own
    byte is a placeholder), so ``rows[k][:k]`` is the word's block k;
    ``twins``: the twin classes in order of their least member; ``unused``:
    the colors of each class the word never uses; ``twin_pairs`` and
    ``free``: consecutive members of a twin class, and consecutive unused
    colors of a class.
    """

    __slots__ = ("classes", "members", "rows", "twins", "unused", "twin_pairs", "free")

    def __init__(self, classes: tuple[int, ...]) -> None:
        """The state of the empty word, K_0: every color is unused."""
        self.classes = classes
        self.members: dict[int, list[int]] = {}
        for col, label in enumerate(classes):
            self.members.setdefault(label, []).append(col)
        self.rows, self.twins = [], []
        self._pair(list(self.members.values()))

    def child(self, row) -> Prefix:
        """The state of the word extended by a vertex with colors ``row``."""
        state = Prefix.__new__(Prefix)
        state.classes, state.members = self.classes, self.members
        state.rows, state.twins = self.joined(row)
        state._pair([[col for col in cols if col not in row] for cols in self.unused])
        return state

    def _pair(self, unused: list[list[int]]) -> None:
        self.unused = unused
        self.twin_pairs = [pair for twins in self.twins for pair in zip(twins, twins[1:])]
        self.free = [pair for cols in unused for pair in zip(cols, cols[1:])]

    def joined(self, block) -> tuple[list[bytes], list[list[int]]]:
        """Rows and twin classes once a new vertex joins with colors ``block``.

        Twins see every other vertex in the same colors.  Being twins is
        transitive, so a twin class splits by its colors in ``block``, and the
        new vertex joins at most one class, checked against its first member.
        """
        k = len(self.rows)
        row = bytes(block)
        rows = [r + row[v : v + 1] for v, r in enumerate(self.rows)] + [row + b"\xff"]
        twins = []
        for old in self.twins:
            split: dict[int, list[int]] = {}
            for v in old:
                split.setdefault(row[v], []).append(v)
            twins.extend(split.values())
        for cls in twins:
            v = cls[0]
            if row[:v] == rows[v][:v] and row[v + 1 :] == rows[v][v + 1 : k]:
                cls.append(k)
                break
        else:
            twins.append([k])
        twins.sort()
        return rows, twins

    def has_smaller_swap(self, row: bytes) -> bool:
        """Does swapping two twins, or two unused colors of one class, make
        the new vertex's ``row`` smaller?

        Either swap is an automorphism of the prefix that fixes the new
        vertex, so the extended word is then not its orbit minimum.  Twins
        u < w need row[u] <= row[w]; unused colors of a class must first
        appear in increasing order.  Checking consecutive pairs is enough.
        """
        for u, w in self.twin_pairs:
            if row[u] > row[w]:
                return True
        for a, b in self.free:
            j = row.find(b)
            if j >= 0 and not 0 <= row.find(a) < j:
                return True
        return False

    def has_smaller_insertion(self, row: bytes) -> bool:
        """Does moving the new vertex to a position k < m, with 0..k-1 kept
        in place, make block k smaller?

        The image's first k blocks are the word's and its block k is
        ``row[:k]``, so with the identity color map, which every class
        allows, the extended word is then not its orbit minimum.
        """
        for k, seen in enumerate(self.rows):
            if row[:k] < seen[:k]:
                return True
        return False


def is_canonical(prefix: Prefix, row) -> bool:
    """Is the word of ``prefix``, a K_{n-1} state, extended by a vertex with
    colors ``row`` (bytes-like) the lexicographic minimum of its K_n orbit?

    The allowed color permutations are those that keep every color inside
    its label's class in ``prefix.classes``.
    """
    n = len(prefix.rows) + 1
    # Swapping two twins is an automorphism of the word, so only the first
    # unplaced vertex of each twin class is tried at each position.
    colors, twin_classes = prefix.joined(row)
    classes, members = prefix.classes, prefix.members
    # The greedy color mapping and the twin rule both take the first unused
    # member of a class, so one counter per class is the whole state.
    used_colors = dict.fromkeys(members, 0)
    used_twins = [0] * len(twin_classes)
    image = [-1] * len(classes)
    placed: list[int] = []

    def smaller_image(k: int) -> bool:
        """Does some placement of the unplaced vertices at positions k, k+1, ...
        give an image word smaller than the word?"""
        if k == n:
            return False
        # block k of the word: zip stops at the k placed vertices
        target = colors[k]
        for j, twins in enumerate(twin_classes):
            i = used_twins[j]
            if i == len(twins):
                continue
            v = twins[i]
            seen = colors[v]
            fresh = []
            diff = 0
            for u, t in zip(placed, target):
                a = seen[u]
                b = image[a]
                if b < 0:
                    label = classes[a]
                    b = image[a] = members[label][used_colors[label]]
                    used_colors[label] += 1
                    fresh.append(a)
                diff = b - t
                if diff:
                    break
            if diff < 0:
                return True
            if diff == 0:
                placed.append(v)
                used_twins[j] = i + 1
                if smaller_image(k + 1):
                    return True
                used_twins[j] = i
                placed.pop()
            for a in fresh:
                used_colors[classes[a]] -= 1
                image[a] = -1
        return False

    return not smaller_image(0)


def color_permutations(classes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every color permutation that keeps each color inside its class."""
    c = len(classes)
    return [
        perm for perm in permutations(range(c))
        if all(classes[perm[i]] == classes[i] for i in range(c))
    ]


@lru_cache(maxsize=None)
def perm_edge_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row p, column e: colex index of the image of edge e under permutation p.

    Permutations are enumerated in itertools order; row 0 is the identity.
    """
    if n > MAX_TABLE_ORDER:
        raise ValueError(
            f"brute-force canonical forms supported up to n = {MAX_TABLE_ORDER}, got {n}"
        )
    edges = edge_list(n)
    return tuple(
        tuple(edge_index(perm[u], perm[v]) for u, v in edges)
        for perm in permutations(range(n))
    )


def canonical_form(word, n: int, classes: tuple[int, ...]) -> bytes:
    """The lexicographic minimum of the orbit of ``word``, by brute force."""
    word = bytes(word)
    recolorings = [bytes(perm) + bytes(256 - len(perm)) for perm in color_permutations(classes)]
    images = (bytes(word[e] for e in row) for row in perm_edge_table(n))
    return min(img.translate(t) for img in images for t in recolorings)
