import pytest
from hypothesis import given, strategies as st

from matching_ramsey import (
    Graph,
    complete_graph,
    connected_components,
    graph_from_edges,
    induced_subgraph,
    is_connected,
)
from matching_ramsey.graph import part_of


def test_complete_graph_edge_counts():
    for n in range(65):
        assert complete_graph(n).edge_count == n * (n - 1) // 2


def test_complete_graph_small_examples():
    assert complete_graph(1).edge_count == 0
    assert complete_graph(5).edge_count == 10
    k4 = complete_graph(4)
    assert all(k4.degree(v) == 3 for v in range(4))


def test_graph_validation():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # row 0 claims edge to itself... asymmetric
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric: 0-1 present only on one side
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, ())
    with pytest.raises(ValueError, match="one row per vertex"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="outside 0..1"):
        Graph(2, (4, 0))
    with pytest.raises(ValueError, match="non-negative"):
        complete_graph(-1)


def test_induced_subgraph():
    k4 = complete_graph(4)
    sub, order = induced_subgraph(k4, {0, 1, 2})
    assert sub.edge_count == 3 and order == (0, 1, 2)

    empty, order = induced_subgraph(k4, set())
    assert empty.n == 0 and order == ()

    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    ends, order = induced_subgraph(p3, {0, 2})
    assert ends.n == 2 and ends.edge_count == 0

    with pytest.raises(ValueError):
        induced_subgraph(k4, {0, 9})


def test_induced_subgraph_identity():
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    same, order = induced_subgraph(g, range(5))
    assert same == g and order == (0, 1, 2, 3, 4)


def test_connected_components_examples():
    assert connected_components(complete_graph(5)) == [frozenset(range(5))]
    assert connected_components(graph_from_edges(3, [])) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]
    two = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    sizes = sorted(len(comp) for comp in connected_components(two))
    assert sizes == [2, 3]
    assert is_connected(complete_graph(1)) and is_connected(complete_graph(0))


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_edges(n, edges)


@given(graphs())
def test_components_partition_vertices(g):
    comps = connected_components(g)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))
    # no edges between different components
    for i, comp in enumerate(comps):
        for other in comps[i + 1 :]:
            assert all(not g.has_edge(u, v) for u in comp for v in other)


@given(graphs(max_n=7), st.data())
def test_induced_subgraph_preserves_adjacency(g, data):
    subset = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)) if g.n else set()
    sub, order = induced_subgraph(g, subset)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(order[i], order[j])


def test_part_of():
    assert part_of([{2}, [0, 3, 0], set(), (1,)], 4) == [1, 3, 0, 1]
    assert part_of([], 0) == []


@pytest.mark.parametrize(
    "parts,message",
    [
        ([{0, 1}, {2, 3}], "vertex 3 outside 0..2"),
        ([{0, -1}, {1, 2}], "vertex -1 outside 0..2"),
        ([{0, 1}, {1, 2}], "parts overlap"),
        ([{0}, {2}], "do not cover"),
        ([{0, 9}], "vertex 9 outside 0..2"),
        ([{0, 1}, {2}, {1}], "parts overlap"),
        ([{0, 1}], "do not cover"),
    ],
)
def test_part_of_rejects(parts, message):
    with pytest.raises(ValueError, match=message):
        part_of(parts, 3)
