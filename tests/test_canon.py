"""The backtracking canonicity test against the brute-force orbit minimum."""

import itertools
import random

import pytest

from matching_ramsey.canon import MAX_TABLE_ORDER, canonical_form, is_canonical, perm_edge_table

# (order, number of colors, color classes): the full color group, the groups
# of the target sizes, and the identity group used for graphs.
EXHAUSTIVE_POINTS = [
    *((n, 2, (0, 0)) for n in range(6)),
    *((n, 2, (0, 1)) for n in range(6)),
    (4, 3, (2, 2, 2)),
    (4, 3, (3, 2, 2)),
    (4, 3, (2, 2, 1)),
    (4, 3, (0, 1, 2)),
]


@pytest.mark.parametrize("n,c,classes", EXHAUSTIVE_POINTS)
def test_is_canonical_matches_orbit_minimum_on_every_word(n, c, classes):
    for letters in itertools.product(range(c), repeat=n * (n - 1) // 2):
        word = bytes(letters)
        assert is_canonical(word, n, classes) is (canonical_form(word, n, classes) == word)


@pytest.mark.parametrize("n", [6, 7])
def test_is_canonical_matches_orbit_minimum_on_random_words(n):
    rng = random.Random(n)
    for _ in range(12):
        c = rng.randint(2, 4)
        classes = tuple(rng.randint(0, 1) for _ in range(c))
        # Few colors and long monochromatic runs make nontrivial automorphisms likely.
        word = bytes(rng.choice((0, rng.randrange(c))) for _ in range(n * (n - 1) // 2))
        minimum = canonical_form(word, n, classes)
        assert is_canonical(minimum, n, classes) is True
        assert is_canonical(word, n, classes) is (minimum == word)


def test_perm_edge_table_is_bounded():
    assert perm_edge_table(3)[0] == (0, 1, 2)
    with pytest.raises(ValueError):
        perm_edge_table(MAX_TABLE_ORDER + 1)
