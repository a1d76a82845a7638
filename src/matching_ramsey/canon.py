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


def is_canonical(word, n: int, classes: tuple[int, ...]) -> bool:
    """Is ``word`` (a K_n word, bytes-like) the lexicographic minimum of its orbit?

    ``classes`` holds one label per color; the allowed color permutations are
    those that keep every color inside its label's class.
    """
    if n < 2:
        return True
    targets = [word[k * (k - 1) // 2 : k * (k + 1) // 2] for k in range(n)]
    colors = [[*targets[v], -1, *(targets[w][v] for w in range(v + 1, n))] for v in range(n)]
    # Twins see every other vertex in the same colors, so swapping two of them
    # is an automorphism of the word and they are interchangeable in the
    # search: only the first unplaced vertex of each twin class is tried.
    # Being twins is transitive, so comparing with a class's first member is enough.
    twin_classes: list[list[int]] = []
    for v, rv in enumerate(colors):
        for twins in twin_classes:
            u = twins[0]
            ru = colors[u]
            if ru[:u] == rv[:u] and ru[u + 1 : v] == rv[u + 1 : v] and ru[v + 1 :] == rv[v + 1 :]:
                twins.append(v)
                break
        else:
            twin_classes.append([v])
    members: dict[int, list[int]] = {}
    for col, label in enumerate(classes):
        members.setdefault(label, []).append(col)
    # The greedy color mapping and the twin rule both take the first unused
    # member of a class, so one counter per class is the whole state.
    used_colors = dict.fromkeys(members, 0)
    used_twins = [0] * len(twin_classes)
    image = [-1] * len(classes)
    placed: list[int] = []

    def smaller_image(k: int) -> bool:
        """Does some placement of the unplaced vertices at positions k, k+1, ...
        give an image word smaller than ``word``?"""
        if k == n:
            return False
        target = targets[k]
        for j, twins in enumerate(twin_classes):
            i = used_twins[j]
            if i == len(twins):
                continue
            v = twins[i]
            row = colors[v]
            fresh = []
            diff = 0
            for u, t in zip(placed, target):
                a = row[u]
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
