import itertools
import random

import pytest

from matching_ramsey import (
    EdgeColoring,
    MatchParams,
    Matching,
    StructureWitness,
    check_structure,
    color_class,
    coloring_from_map,
    complete_graph,
    construct_critical,
    contract_partition,
    critical_parts,
    enumerate_critical,
    find_monochromatic_matching,
    find_structure,
    graph_from_edges,
    is_free,
    is_valid_matching,
    lift_matching,
    matching_profile,
)
from matching_ramsey.canon import edge_index
from matching_ramsey.formats import coloring_from_dict, coloring_to_dict, format_ecg, parse_ecg

from helpers import all_colorings, brute_force_structure


def monochromatic(n, c=1, color=1):
    host = complete_graph(n)
    return coloring_from_map(host.n, max(c, color), {e: color for e in host.edges()})


def all_small_params(max_n1=3, max_c=3):
    for c in range(1, max_c + 1):
        for sizes in itertools.product(range(1, max_n1 + 1), repeat=c):
            if all(sizes[i] >= sizes[i + 1] for i in range(c - 1)):
                yield MatchParams(sizes)


def test_match_params_validation():
    with pytest.raises(ValueError):
        MatchParams(())
    with pytest.raises(ValueError):
        MatchParams((2, 3))
    with pytest.raises(ValueError):
        MatchParams((2, 0))
    with pytest.raises(ValueError):
        MatchParams((True,))  # a bool is no size, though isinstance(True, int)
    assert MatchParams((3, 2, 2)).c == 3
    assert MatchParams((3, 2, 2)).critical_order == 7


def test_edge_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, (1, 1))  # wrong table length
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, (1, 1, 3))  # color out of range
    with pytest.raises(ValueError, match="non-negative"):
        EdgeColoring(-1, 2, (0,))  # C(-1, 2) = 1, so the length alone would pass
    with pytest.raises(ValueError, match="loop at vertex 1"):
        coloring_from_map(3, 2, {(1, 1): 1})
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
        coloring_from_map(3, 2, {(0, 3): 1})
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has color 0 outside 1\.\.2"):
        coloring_from_map(3, 2, {(1, 0): 0})  # a mapped pair is an edge: 0 is no color
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="at least one color"):
        EdgeColoring(2, 0, (1,))
    ec = coloring_from_map(p3.n, 1, {(0, 1): 1, (1, 2): 1})
    assert ec.color_of(1, 0) == 1
    with pytest.raises(KeyError):
        ec.color_of(0, 2)


def test_a_random_color_table_is_its_coloring():
    # the host is read off the non-zero entries; both text forms round-trip
    rng = random.Random(2828)
    for _ in range(300):
        n, c = rng.randint(0, 7), rng.randint(1, 4)
        ec = EdgeColoring(n, c, tuple(rng.randint(0, c) for _ in range(n * (n - 1) // 2)))
        pairs = itertools.combinations(range(n), 2)
        nonzero = [(u, v) for u, v in pairs if ec.colors[edge_index(u, v)]]
        assert list(ec.host.edges()) == nonzero
        assert [(u, v) for u, v, _ in ec.edges_with_colors()] == nonzero
        assert parse_ecg(format_ecg(ec)) == ec
        assert coloring_from_dict(coloring_to_dict(ec)) == ec


def test_color_class_examples():
    mono = monochromatic(4, c=2)
    assert color_class(mono, 1).edge_count == 6
    assert color_class(mono, 2).edge_count == 0
    ec = construct_critical(MatchParams((2, 2)))
    cls1 = color_class(ec, 1)
    assert sorted(cls1.edges()) == [(0, 1), (0, 2), (1, 2)]  # triangle plus isolated vertex
    assert cls1.degree(3) == 0
    with pytest.raises(ValueError):
        color_class(ec, 3)


def test_is_free_examples():
    p = MatchParams((2, 2))
    assert is_free(construct_critical(p), p)
    mono5 = monochromatic(5, c=2)
    assert not is_free(mono5, p)
    # with n_i = 1 freeness means the color is unused
    ones = MatchParams((1, 1))
    host = complete_graph(2)
    used = coloring_from_map(host.n, 2, {(0, 1): 1})
    assert not is_free(used, ones)
    with pytest.raises(ValueError):
        is_free(mono5, MatchParams((2, 2, 2)))


def test_matching_profile():
    ec = construct_critical(MatchParams((2, 2)))
    assert matching_profile(ec) == (1, 1)
    ec33 = construct_critical(MatchParams((3, 3)))
    assert matching_profile(ec33) == (2, 2)


def test_construct_critical_layout():
    p = MatchParams((2, 2))
    ec = construct_critical(p)
    assert ec.host.n == 4
    assert dict(((u, v), col) for u, v, col in ec.edges_with_colors()) == {
        (0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 2, (1, 3): 2, (2, 3): 2,
    }
    assert critical_parts(p) == (frozenset({0, 1, 2}), frozenset({3}))

    single = construct_critical(MatchParams((3,)))
    assert single.host.n == 5 and matching_profile(single) == (2,)

    p222 = MatchParams((2, 2, 2))
    ec222 = construct_critical(p222)
    assert ec222.host.n == 5 and is_free(ec222, p222)


def test_construct_critical_free_for_all_small_params():
    for p in all_small_params():
        ec = construct_critical(p)
        assert is_free(ec, p), p
        w = find_structure(ec, p)
        assert w is not None and check_structure(ec, p, w), p


def test_check_structure_identity_witness():
    p = MatchParams((2, 2))
    ec = construct_critical(p)
    w = StructureWitness((1, 2), (frozenset({0, 1, 2}), frozenset({3})))
    assert check_structure(ec, p, w)
    # wrong part sizes: rejected as false, not as an error
    w_bad = StructureWitness((1, 2), (frozenset({0, 1}), frozenset({2, 3})))
    assert not check_structure(ec, p, w_bad)


def test_check_structure_color_swap():
    # swap the two colors of the (2,2) construction; n_1 = n_2 so the swapped
    # relabelling is legal and the witness still certifies the structure
    p = MatchParams((2, 2))
    ec = construct_critical(p)
    swapped = EdgeColoring(ec.n, 2, tuple(3 - col for col in ec.colors))
    w = StructureWitness((2, 1), (frozenset({0, 1, 2}), frozenset({3})))
    assert check_structure(swapped, p, w)
    # for distinct target sizes the same relabelling must be rejected
    p32 = MatchParams((3, 2))
    ec32 = construct_critical(p32)
    with pytest.raises(ValueError):
        check_structure(ec32, p32, StructureWitness((2, 1), (frozenset(range(5)), frozenset({5}))))


def test_check_structure_rejects_bad_witness():
    p = MatchParams((2, 2))
    ec = construct_critical(p)
    with pytest.raises(ValueError):
        check_structure(ec, p, StructureWitness((1, 2), (frozenset({0, 1, 2}), frozenset({2, 3}))))
    with pytest.raises(ValueError):
        check_structure(ec, p, StructureWitness((1, 1), (frozenset({0, 1, 2}), frozenset({3}))))
    with pytest.raises(ValueError, match="one part per color"):
        check_structure(ec, p, StructureWitness((1, 2), (frozenset(range(4)),)))


def test_find_structure_examples():
    p32 = MatchParams((3, 2))
    w = find_structure(construct_critical(p32), p32)
    assert w is not None
    assert len(w.parts[0]) == 5 and len(w.parts[1]) == 1

    p22 = MatchParams((2, 2))
    mono4 = monochromatic(4, c=2)
    assert find_structure(mono4, p22) is None

    with pytest.raises(ValueError):
        find_structure(monochromatic(5, c=2), p22)  # wrong order


# a K_4 in three colors: every edge in color 3, and a color-1 triangle
# whose fourth vertex sees it in color 3
K4_THREE_COLORS = ["4 3\n3 3 3\n3 3\n3\n", "4 3\n1 1 3\n1 3\n3\n"]


@pytest.mark.parametrize("text", K4_THREE_COLORS, ids=["all-color-3", "color-1-triangle"])
def test_find_structure_checks_the_color_count(text):
    with pytest.raises(ValueError, match="coloring has 3 colors, parameters expect 2"):
        find_structure(parse_ecg(text), MatchParams((2, 2)))


def test_find_structure_on_swapped_colors():
    p = MatchParams((2, 2))
    ec = construct_critical(p)
    swapped = EdgeColoring(ec.n, 2, tuple(3 - col for col in ec.colors))
    w = find_structure(swapped, p)
    assert w is not None and w.color_relabel == (2, 1)
    assert check_structure(swapped, p, w)


def test_find_monochromatic_matching():
    p = MatchParams((2, 2))
    hit = find_monochromatic_matching(monochromatic(5, c=2), p)
    assert hit is not None
    color, m = hit
    assert color == 1 and m.size == 2
    assert find_monochromatic_matching(construct_critical(p), p) is None


def cycle_coloring():
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    colors = {}
    for i, e in enumerate(sorted(c6.edges())):
        colors[e] = 1 + i % 2
    return coloring_from_map(c6.n, 2, colors)


def test_contract_partition_cycle():
    ec = cycle_coloring()
    contracted, rep_map = contract_partition(ec, [{0, 3}, {1, 4}, {2, 5}])
    assert contracted.host.n == 3 and contracted.host.edge_count == 3
    for (i, j), (u, v) in rep_map.items():
        assert ec.host.has_edge(u, v)
        assert contracted.color_of(i, j) == ec.color_of(u, v)


def test_contract_partition_identity_and_errors():
    ec = construct_critical(MatchParams((2, 2)))
    same, rep_map = contract_partition(ec, [{v} for v in range(4)])
    assert same == ec
    assert all(rep_map[e] == e for e in rep_map)

    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    colored = coloring_from_map(disconnected.n, 1, {(0, 1): 1, (2, 3): 1})
    with pytest.raises(ValueError):
        contract_partition(colored, [{0, 1}, {2, 3}])  # no cross edge
    with pytest.raises(ValueError):
        contract_partition(colored, [{0}, {1}])  # not a partition


def test_lift_matching():
    ec = cycle_coloring()
    contracted, rep_map = contract_partition(ec, [{0, 3}, {1, 4}, {2, 5}])
    assert lift_matching(Matching(()), rep_map) == Matching(())
    lifted = lift_matching(Matching(((0, 1),)), rep_map)
    assert lifted.size == 1 and is_valid_matching(ec.host, lifted)
    assert ec.color_of(*lifted.edges[0]) == contracted.color_of(0, 1)
    # a representative map whose edges share a vertex cannot come from a partition
    with pytest.raises(ValueError, match="not disjoint"):
        lift_matching(Matching(((0, 1), (1, 2))), {(0, 1): (0, 2), (1, 2): (2, 4)})


def test_lift_matching_monochromatic_pair():
    # partition a 2-colored K6 into 3 pairs; any matching in the contracted K3
    # lifts edge-for-edge with colors preserved
    host = complete_graph(6)
    colors = {e: 1 + (e[0] + e[1]) % 2 for e in host.edges()}
    ec = coloring_from_map(host.n, 2, colors)
    contracted, rep_map = contract_partition(ec, [{0, 1}, {2, 3}, {4, 5}])
    m = Matching(((0, 2),)) if contracted.host.has_edge(0, 2) else Matching(())
    lifted = lift_matching(m, rep_map)
    assert is_valid_matching(host, lifted)
    for (i, j), (u, v) in zip(m.edges, lifted.edges):
        assert contracted.color_of(i, j) == ec.color_of(u, v)


def permuted_critical(p, rng):
    """The Cockayne-Lorimer color table under a random vertex permutation."""
    ec = construct_critical(p)
    perm = list(range(ec.host.n))
    rng.shuffle(perm)
    table = [0] * len(ec.colors)
    for u, v, col in ec.edges_with_colors():
        table[edge_index(perm[u], perm[v])] = col
    return table


@pytest.mark.parametrize(
    "sizes",
    [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 2, 1), (2, 1, 1)],
    ids=lambda sizes: "-".join(map(str, sizes)),
)
def test_find_structure_matches_the_oracle_on_every_coloring(sizes):
    p = MatchParams(sizes)
    for ec in all_colorings(p.critical_order, p.c):
        assert find_structure(ec, p) == brute_force_structure(ec, p), ec.colors


def test_find_structure_matches_the_oracle_on_critical_and_perturbed_colorings():
    for sizes in [(2, 2, 2, 2), (3, 3, 2), (4, 3)]:
        p = MatchParams(sizes)
        classes = enumerate_critical(p, guard=9).critical_classes
        assert classes
        for ec in classes:
            assert find_structure(ec, p) == brute_force_structure(ec, p) is not None

    # relabelled critical colorings, and the same with one edge recolored
    rng = random.Random(6061)
    outcomes = set()
    for sizes in [(3, 3, 2), (4, 3), (3, 3, 3), (4, 4, 2, 2)]:
        p = MatchParams(sizes)
        host = complete_graph(p.critical_order)
        for _ in range(15):
            table = permuted_critical(p, rng)
            ec = EdgeColoring(host.n, p.c, tuple(table))
            assert find_structure(ec, p) == brute_force_structure(ec, p) is not None
            table[rng.randrange(len(table))] = rng.randint(1, p.c)
            ec = EdgeColoring(host.n, p.c, tuple(table))
            witness = find_structure(ec, p)
            assert witness == brute_force_structure(ec, p)
            outcomes.add(witness is None)
    assert outcomes == {True, False}


def test_find_structure_needs_a_complete_host():
    p = MatchParams((2, 2))
    host = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ec = coloring_from_map(host.n, 2, {e: 1 for e in host.edges()})
    with pytest.raises(ValueError, match="complete host"):
        find_structure(ec, p)
