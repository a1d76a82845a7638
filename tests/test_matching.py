import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from matching_ramsey import (
    Matching,
    brute_force_matching_number,
    complete_graph,
    enumerate_graphs,
    graph_from_edges,
    has_matching_of_size,
    is_connected,
    is_factor_critical,
    is_valid_matching,
    matching_number,
    maximum_matching,
)
from matching_ramsey.matching import _matching_on_masks, _mate_size, forest_d, missed_mask

from helpers import random_graph


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


def test_maximum_matching_examples():
    assert maximum_matching(complete_graph(4)).size == 2
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert maximum_matching(p3).size == 1
    pet = petersen()
    assert brute_force_matching_number(pet) == 5  # independent oracle
    assert maximum_matching(pet).size == 5


def test_matching_number_examples():
    assert matching_number(complete_graph(5)) == 2  # K_{2*3-1} has nu = 2
    assert matching_number(graph_from_edges(4, [])) == 0
    for m in range(1, 6):
        star = graph_from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
        assert matching_number(star) == 1


def test_matching_number_complete_graphs():
    for n in range(13):
        assert matching_number(complete_graph(n)) == n // 2


def test_brute_force_examples():
    c5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert brute_force_matching_number(c5) == 2
    assert brute_force_matching_number(complete_graph(6)) == 3
    with pytest.raises(ValueError):
        brute_force_matching_number(complete_graph(15))


def test_maximum_matching_is_valid():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        m = maximum_matching(g)
        assert is_valid_matching(g, m)
        assert m.size <= g.n // 2


def test_oracle_equivalence_bulk():
    rng = random.Random(2024)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert matching_number(g) == brute_force_matching_number(g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_equivalence_property(data):
    n = data.draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = graph_from_edges(n, edges)
    assert matching_number(g) == brute_force_matching_number(g)


def test_is_valid_matching_rejects_non_matchings():
    path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert is_valid_matching(path, Matching(((0, 1), (2, 3))))
    assert not is_valid_matching(path, Matching(((0, 2),)))  # not an edge
    assert not is_valid_matching(path, Matching(((3, 4),)))  # vertex 4 out of range
    assert not is_valid_matching(path, Matching(((0, 1), (1, 2))))  # vertex 1 used twice


def test_has_matching_of_size():
    k6 = complete_graph(6)
    assert has_matching_of_size(k6, 3)
    assert not has_matching_of_size(k6, 4)
    assert has_matching_of_size(graph_from_edges(2, []), 0)


def test_factor_critical_examples():
    assert is_factor_critical(complete_graph(3))
    assert not is_factor_critical(complete_graph(4))
    c5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_factor_critical(c5)
    assert is_factor_critical(complete_graph(1))
    assert not is_factor_critical(complete_graph(0))
    # two triangles sharing nothing: odd order fails anyway, disconnected even order fails
    assert not is_factor_critical(graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


def test_factor_critical_implies_connected_and_odd():
    rng = random.Random(99)
    seen = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        if is_factor_critical(g):
            seen += 1
            assert g.n % 2 == 1
            assert is_connected(g)
    assert seen > 0


def _corpus():
    # every graph of order <= 7, then seeded random graphs of order <= 14
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    rng = random.Random(13)
    graphs += [random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(3000)]
    return graphs


def test_forest_d_is_the_missed_set():
    # one alternating forest gives the D that the definition gives with a
    # matching run per vertex
    for g in _corpus():
        match = _matching_on_masks(g.rows, g.n)
        assert forest_d(g.rows, g.n, match) == missed_mask(g.rows, g.n, _mate_size(match)), g


def test_maximum_matching_edges_are_pinned():
    # sha256 of the edge lists over the corpus, measured before the blossom
    # routine took a list of roots: augmentation picks the same edges
    edges = [maximum_matching(g).edges for g in _corpus()]
    digest = "b0a3cdf5c9ca6149be681c482b67b792f961f9ae4318aa84a4af9b4d74a1b8c8"
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


def test_forest_d_rejects_a_matching_that_is_not_maximum():
    # the path 0-1-2-3 matched on its middle edge: the trees grown from 0
    # and 3 meet, so the matching has an augmenting path
    p4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(RuntimeError, match="not maximum"):
        forest_d(p4.rows, 4, [-1, 2, 1, -1])
