import pytest

from matching_ramsey import (
    MatchParams,
    color_class,
    coloring_from_map,
    complete_graph,
    construct_critical,
    matching_number,
    proof_ledger,
)


def test_ledger_on_the_four_vertex_construction():
    p = MatchParams((2, 2))
    led = proof_ledger(construct_critical(p), p)
    first, second = led.per_color

    # color 1 is a triangle plus an isolated vertex: D has two components
    # (the triangle and the isolated vertex), A and C are empty
    assert first.a == 0
    assert first.d_values == (0, 1, 0)
    assert first.b == 1
    assert (first.edge_bound_lhs, first.edge_bound_rhs) == (3, 3)

    # color 2 is the star at the extra vertex: A is the center, D the leaves
    assert second.a == 1
    assert second.d_values == (0, 0, 0, 0)
    assert second.b == 0
    assert (second.edge_bound_lhs, second.edge_bound_rhs) == (0, 0)


def test_ledger_with_unused_color():
    # (2, 1): color 2 must stay unused, its ledger row is all zeros
    p = MatchParams((2, 1))
    led = proof_ledger(construct_critical(p), p)
    empty = led.per_color[1]
    assert empty.a == 0 and empty.edge_bound_lhs == 0 and empty.edge_bound_rhs == 0
    assert set(empty.d_values) == {0}


def test_ledger_rejects_non_free():
    host = complete_graph(5)
    mono = coloring_from_map(host.n, 2, {e: 1 for e in host.edges()})
    with pytest.raises(ValueError):
        proof_ledger(mono, MatchParams((2, 2)))


def test_ledger_sum_matches_matching_number():
    # sum of the d-values plus a equals the class matching number
    for sizes in [(2, 2), (3, 2), (3, 3), (2, 2, 2)]:
        p = MatchParams(sizes)
        ec = construct_critical(p)
        led = proof_ledger(ec, p)
        for entry in led.per_color:
            nu = matching_number(color_class(ec, entry.color))
            assert entry.a + sum(entry.d_values) == nu
            assert entry.b == p.sizes[entry.color - 1] - 1 - entry.a


def test_ledger_serialization():
    p = MatchParams((2, 2))
    d = proof_ledger(construct_critical(p), p).as_dict()
    assert [e["color"] for e in d["per_color"]] == [1, 2]
    assert d["per_color"][0]["edge_bound_lhs"] == 3


def test_ledger_on_free_colorings_below_the_extremal_order():
    # the bound is meaningful for free colorings of any order, not just the
    # extremal one; sweep every free class a few orders down
    from matching_ramsey import free_coloring_classes

    for sizes, orders in [((3, 3), (4, 5, 6, 7)), ((2, 2, 2), (3, 4, 5))]:
        p = MatchParams(sizes)
        for order in orders:
            for ec in free_coloring_classes(p, order):
                led = proof_ledger(ec, p)
                for entry in led.per_color:
                    assert entry.edge_bound_lhs <= entry.edge_bound_rhs
                    assert sum(entry.d_values) <= entry.b
