import random

import pytest

from matching_ramsey import (
    GEDecomposition,
    Graph,
    brute_force_matching_number,
    complete_graph,
    decompose,
    enumerate_graphs,
    graph_from_edges,
    is_factor_critical,
    matching_number,
    matching_number_from_decomposition,
    verify_decomposition,
)

from helpers import random_graph


def test_decompose_path():
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    ged = decompose(p3)
    assert ged.d_components == (frozenset({0}), frozenset({2}))
    assert ged.a == frozenset({1})
    assert ged.c == frozenset()
    assert matching_number_from_decomposition(p3, ged) == 1


def test_decompose_complete_even():
    ged = decompose(complete_graph(4))
    assert ged.d_components == () and ged.a == frozenset()
    assert ged.c == frozenset(range(4))
    report = verify_decomposition(complete_graph(4), ged)
    assert report.all_ok and report.matching_number == 2 and report.formula_value == 2


def test_decompose_complete_odd():
    ged = decompose(complete_graph(3))
    assert ged.d_components == (frozenset({0, 1, 2}),)
    assert ged.a == frozenset() and ged.c == frozenset()
    assert matching_number_from_decomposition(complete_graph(3), ged) == 1


def test_formula_examples():
    k5 = complete_graph(5)
    assert matching_number_from_decomposition(k5, decompose(k5)) == 2
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    ged = decompose(two_triangles)
    assert len(ged.d_components) == 2
    assert matching_number_from_decomposition(two_triangles, ged) == 2
    assert matching_number(two_triangles) == 2


def test_parity_violation_rejected():
    # a fabricated partition with the wrong component count has odd total
    g = complete_graph(4)
    fake = GEDecomposition((frozenset({0}),), frozenset(), frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        matching_number_from_decomposition(g, fake)


def test_verify_rejects_non_partition():
    g = complete_graph(3)
    overlapping = GEDecomposition((frozenset({0, 1}),), frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError):
        verify_decomposition(g, overlapping)


def test_verify_a_fabricated_partition_of_p3():
    # P3 is odd with a near-perfect matching but not factor-critical, so
    # clause (d) holds although clause (a) fails
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    fake = GEDecomposition((frozenset({0, 1, 2}),), frozenset(), frozenset())
    assert verify_decomposition(p3, fake).as_dict() == {
        "components_factor_critical": False,
        "c_has_perfect_matching": True,
        "positive_surplus": True,
        "maximum_matching_structure": True,
        "size_formula_holds": True,
        "matching_number": 1,
        "formula_value": 1,
    }


def test_verify_a_partition_failing_only_the_surplus_clause():
    # A = {1} sees the single D-component {0}: |N(A)| = |A|, so clause (c)
    # fails while every other clause holds
    edge = graph_from_edges(2, [(0, 1)])
    fake = GEDecomposition((frozenset({0}),), frozenset({1}), frozenset())
    report = verify_decomposition(edge, fake)
    assert not report.positive_surplus and not report.all_ok
    assert report.as_dict() == {
        "components_factor_critical": True,
        "c_has_perfect_matching": True,
        "positive_surplus": False,
        "maximum_matching_structure": True,
        "size_formula_holds": True,
        "matching_number": 1,
        "formula_value": 1,
    }


def test_all_graphs_up_to_six_vertices():
    for n in range(7):
        for g in enumerate_graphs(n):
            ged = decompose(g)
            report = verify_decomposition(g, ged)
            assert report.all_ok, (g, report)
            assert matching_number_from_decomposition(g, ged) == matching_number(g)


def test_random_graphs_all_clauses():
    rng = random.Random(424242)
    for _ in range(300):
        g = random_graph(rng, 12, rng.random())
        ged = decompose(g)
        report = verify_decomposition(g, ged)
        assert report.all_ok
        assert report.matching_number == matching_number(g) == report.formula_value


def test_empty_d_iff_perfect_matching():
    rng = random.Random(5150)
    for _ in range(300):
        n = rng.randint(0, 10)
        g = random_graph(rng, n, rng.random())
        ged = decompose(g)
        has_pm = n % 2 == 0 and matching_number(g) == n // 2
        assert (ged.d == frozenset()) == has_pm


def test_decompose_deterministic():
    rng = random.Random(31337)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert decompose(g) == decompose(g)


def test_random_order_eight_graphs():
    rng = random.Random(2718281)
    for _ in range(500):
        g = random_graph(rng, 8, rng.random())
        ged = decompose(g)
        assert verify_decomposition(g, ged).all_ok
        assert matching_number_from_decomposition(g, ged) == matching_number(g)


def test_d_and_factor_criticality_match_the_brute_force_oracle():
    # D = {v : nu(G - v) = nu(G)}; factor-critical = n odd and every G - v
    # has a perfect matching; both read off the exhaustive matching number
    rng = random.Random(8128)
    seen = set()
    for _ in range(200):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.random())
        nu = brute_force_matching_number(g)
        nus = [
            brute_force_matching_number(
                Graph(n, tuple(0 if u == v else row & ~(1 << v) for u, row in enumerate(g.rows)))
            )
            for v in range(n)
        ]
        assert decompose(g).d == frozenset(v for v in range(n) if nus[v] == nu)
        critical = n % 2 == 1 and all(k == n // 2 for k in nus)
        assert is_factor_critical(g) == critical
        seen.add((critical and n > 1, 0 in g.rows))
    assert seen == {(False, False), (False, True), (True, False)}
