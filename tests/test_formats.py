import pytest

from matching_ramsey import (
    MatchParams,
    coloring_from_map,
    complete_graph,
    construct_critical,
    construct_star_free,
    graph_from_edges,
)
from matching_ramsey.formats import (
    MAX_GRAPH_ORDER,
    coloring_from_dict,
    coloring_to_dict,
    format_adjlist,
    format_dot,
    format_ecg,
    format_partition,
    parse_adjlist,
    parse_ecg,
    parse_partition,
)


def test_ecg_golden_bytes():
    ec = construct_critical(MatchParams((2, 2)))
    assert format_ecg(ec) == "4 2\n1 1 2\n1 2\n2\n"


def test_ecg_round_trip():
    for sizes in [(2, 2), (3, 2), (2, 2, 2), (1,)]:
        ec = construct_critical(MatchParams(sizes))
        text = format_ecg(ec)
        back = parse_ecg(text)
        assert back == ec
        assert format_ecg(back) == text  # byte-exact round trip


def test_ecg_non_complete_host():
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    ec = coloring_from_map(p3, 2, {(0, 1): 1, (1, 2): 2})
    text = format_ecg(ec)
    assert text == "3 2\n1 0\n2\n"
    assert parse_ecg(text) == ec


def test_ecg_parse_errors():
    with pytest.raises(ValueError):
        parse_ecg("")
    with pytest.raises(ValueError):
        parse_ecg("4\n")  # missing color count
    with pytest.raises(ValueError):
        parse_ecg("3 2\n1 1\n")  # missing a data line
    with pytest.raises(ValueError):
        parse_ecg("3 2\n1 9\n1\n")  # color out of range
    with pytest.raises(ValueError):
        parse_ecg("3 2\n1 1 1\n1\n")  # too many entries on a line


def test_adjlist_round_trip_and_errors():
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert parse_adjlist(format_adjlist(g)) == g
    assert format_adjlist(complete_graph(1)) == "1\n"
    with pytest.raises(ValueError):
        parse_adjlist("")
    with pytest.raises(ValueError):
        parse_adjlist("3\n0 0\n")
    with pytest.raises(ValueError):
        parse_adjlist("3\n0 1\n1 0\n")  # duplicate edge
    with pytest.raises(ValueError):
        parse_adjlist("3\n0 7\n")
    with pytest.raises(ValueError):
        parse_adjlist("3\n0 1 2\n")


def test_adjlist_order_limit():
    assert parse_adjlist(f"{MAX_GRAPH_ORDER}\n").n == MAX_GRAPH_ORDER
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_adjlist(f"{MAX_GRAPH_ORDER + 1}\n")


def test_json_round_trip():
    ec = construct_critical(MatchParams((3, 2)))
    data = coloring_to_dict(ec)
    assert data["n"] == 6 and data["c"] == 2
    assert coloring_from_dict(data) == ec
    with pytest.raises(ValueError):
        coloring_from_dict({"n": 2, "c": 1})


@pytest.mark.parametrize(
    "edges", [[[0, 1, 1], [1, 0, 2]], [[0, 1, 1], [0, 1, 1]]], ids=["reversed", "same"]
)
def test_json_rejects_a_repeated_edge(edges):
    # as parse_adjlist does; taking the last color would hide the first
    with pytest.raises(ValueError, match="given twice"):
        coloring_from_dict({"n": 2, "c": 2, "edges": edges})


@pytest.mark.parametrize(
    "data",
    [
        {"n": True, "c": 2, "edges": []},
        {"n": 2, "c": 2.9, "edges": []},
        {"n": 2, "c": 2, "edges": [[0, 1.0, 1]]},
        {"n": 2, "c": 2, "edges": [[0, 1, "1"]]},
        {"n": 2, "c": 2, "edges": [[0, 1, False]]},
    ],
    ids=["n-true", "c-float", "endpoint-float", "color-string", "color-false"],
)
def test_json_rejects_values_that_are_not_integers(data):
    with pytest.raises(ValueError, match="not an integer"):
        coloring_from_dict(data)


def test_dot_output():
    ec = construct_critical(MatchParams((2, 2)))
    dot = format_dot(ec)
    assert dot.startswith("graph coloring {")
    assert '0 -- 1 [color="red", label="1"]' in dot
    assert '2 -- 3 [color="blue", label="2"]' in dot


def test_partition_round_trip_and_errors():
    parts = [frozenset({0, 2}), frozenset({1}), frozenset({3, 4})]
    text = format_partition(parts)
    assert parse_partition(text, 5) == parts
    with pytest.raises(ValueError):
        parse_partition("0 1\n1 2\n", 3)  # overlap
    with pytest.raises(ValueError):
        parse_partition("0 1\n", 3)  # missing vertex
    with pytest.raises(ValueError):
        parse_partition("0 9\n", 3)
    with pytest.raises(ValueError):
        parse_partition("0 x\n1 2\n", 3)


def test_star_host_ecg_round_trip():
    ec = construct_star_free(MatchParams((2, 2)))
    text = format_ecg(ec)
    # center vertex 4 is joined to the single V_2 vertex (3) in color 2
    assert text == "5 2\n1 1 2 0\n1 2 0\n2 0\n2\n"
    assert parse_ecg(text) == ec


def test_ecg_round_trip_random_hosts():
    import random

    from matching_ramsey import coloring_from_map, graph_from_edges

    rng = random.Random(515151)
    for _ in range(200):
        n = rng.randint(0, 9)
        c = rng.randint(1, 4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        host = graph_from_edges(n, edges)
        ec = coloring_from_map(host, c, {e: rng.randint(1, c) for e in host.edges()})
        text = format_ecg(ec)
        assert parse_ecg(text) == ec
        assert format_ecg(parse_ecg(text)) == text
