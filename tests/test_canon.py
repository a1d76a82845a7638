"""The backtracking canonicity test against the brute-force orbit minimum."""

import itertools
import random

import pytest

from matching_ramsey.canon import (
    MAX_TABLE_ORDER,
    Prefix,
    canonical_form,
    edge_index,
    is_canonical,
    perm_edge_table,
)

from helpers import canonical, insertion_makes_smaller, prefix_of

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


def swap_makes_smaller(prefix: bytes, row: bytes, classes) -> bool:
    """Brute force: does one transposition of two twins of the K_m ``prefix``,
    or of two same-class colors it never uses, make ``row`` smaller?"""
    m = len(row)
    for u, w in itertools.combinations(range(m), 2):
        others = [x for x in range(m) if x not in (u, w)]
        if all(prefix[edge_index(u, x)] == prefix[edge_index(w, x)] for x in others):
            swapped = bytearray(row)
            swapped[u], swapped[w] = row[w], row[u]
            if swapped < row:
                return True
    for a, b in itertools.combinations(range(len(classes)), 2):
        if classes[a] == classes[b] and a not in prefix and b not in prefix:
            table = bytearray(range(256))
            table[a], table[b] = b, a
            if row.translate(table) < row:
                return True
    return False


@pytest.mark.parametrize("n,c,classes", EXHAUSTIVE_POINTS)
def test_is_canonical_matches_orbit_minimum_on_every_word(n, c, classes):
    # Also on every word: the row filter, which skips exactly the rows that
    # one twin or unused-color swap makes smaller, so only words that are
    # not canonical.
    cut = (n - 1) * (n - 2) // 2
    prefix_word, prefix, skipped = None, None, 0
    for letters in itertools.product(range(c), repeat=n * (n - 1) // 2):
        word = bytes(letters)
        is_minimum = canonical_form(word, n, classes) == word
        assert canonical(word, n, classes) is is_minimum
        if n < 2:
            continue
        if word[:cut] != prefix_word:
            prefix_word = word[:cut]
            prefix = prefix_of(prefix_word, n - 1, classes)
        skip = prefix.has_smaller_swap(word[cut:])
        assert skip is swap_makes_smaller(prefix_word, word[cut:], classes)
        if skip:
            assert not is_minimum
            skipped += 1
    assert skipped > 0 or n < 3


@pytest.mark.parametrize("classes", [(0, 0, 0, 0, 0), (0, 0, 1, 1, 1)])
def test_row_filter_matches_the_swap_oracle_on_random_prefixes(classes):
    # Prefixes over a few of five colors leave unused colors of one class and
    # fewer twins than the exhaustive points, so the color swap acts alone.
    rng = random.Random(sum(classes))
    for m in (4, 5):
        for _ in range(4):
            prefix = bytes(rng.choice((0, 1, rng.randrange(5))) for _ in range(m * (m - 1) // 2))
            state = prefix_of(prefix, m, classes)
            for row in map(bytes, itertools.product(range(5), repeat=m)):
                assert state.has_smaller_swap(row) is swap_makes_smaller(prefix, row, classes)


@pytest.mark.parametrize("n,c,classes", EXHAUSTIVE_POINTS)
def test_insertion_test_matches_its_oracle_on_every_word(n, c, classes):
    # Moving the new vertex earlier is a necessary condition only: a True
    # verdict must mean the word is not canonical.
    cut = (n - 1) * (n - 2) // 2
    prefix_word, prefix, dropped = None, None, 0
    for letters in itertools.product(range(c), repeat=n * (n - 1) // 2):
        word = bytes(letters)
        if n < 2:
            continue
        if word[:cut] != prefix_word:
            prefix_word = word[:cut]
            prefix = prefix_of(prefix_word, n - 1, classes)
        drop = prefix.has_smaller_insertion(word[cut:])
        assert drop is insertion_makes_smaller(prefix_word, n - 1, word[cut:])
        if drop:
            assert canonical_form(word, n, classes) != word
            dropped += 1
    assert dropped > 0 or n < 3


@pytest.mark.parametrize("m", [6, 7, 8])
def test_insertion_test_matches_its_oracle_on_random_prefixes(m):
    rng = random.Random(m)
    for _ in range(3):
        c = rng.randint(2, 3)
        classes = tuple(rng.randint(0, 1) for _ in range(c))
        prefix = bytes(rng.choice((0, rng.randrange(c))) for _ in range(m * (m - 1) // 2))
        state = prefix_of(prefix, m, classes)
        for row in map(bytes, itertools.product(range(c), repeat=m)):
            drop = state.has_smaller_insertion(row)
            assert drop is insertion_makes_smaller(prefix, m, row)
            if drop:
                assert canonical(prefix + row, m + 1, classes) is False


@pytest.mark.parametrize("n", [6, 7])
def test_is_canonical_matches_orbit_minimum_on_random_words(n):
    rng = random.Random(n)
    for _ in range(12):
        c = rng.randint(2, 4)
        classes = tuple(rng.randint(0, 1) for _ in range(c))
        # Few colors and long monochromatic runs make nontrivial automorphisms likely.
        word = bytes(rng.choice((0, rng.randrange(c))) for _ in range(n * (n - 1) // 2))
        minimum = canonical_form(word, n, classes)
        assert canonical(minimum, n, classes) is True
        cut = (n - 1) * (n - 2) // 2
        assert not prefix_of(minimum[:cut], n - 1, classes).has_smaller_swap(minimum[cut:])
        assert canonical(word, n, classes) is (minimum == word)


@pytest.mark.parametrize("classes", [(0, 0), (0, 1), (2, 2, 1)])
def test_the_one_vertex_word_is_canonical(classes):
    # K_1 is the K_0 state extended by an empty row
    assert is_canonical(Prefix(classes), b"") is True


def test_perm_edge_table_is_bounded():
    assert perm_edge_table(3)[0] == (0, 1, 2)
    with pytest.raises(ValueError):
        perm_edge_table(MAX_TABLE_ORDER + 1)
