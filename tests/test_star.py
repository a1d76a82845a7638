import random
from itertools import combinations, product

import pytest

from matching_ramsey import (
    EdgeColoring,
    MatchParams,
    construct_star_free,
    enumerate_critical,
    is_free,
    ramsey_value,
    star_critical_value,
    verify_star_exhaustive,
)
from matching_ramsey import star
from matching_ramsey.search import _word_from_coloring, extension_state
from matching_ramsey.star import _attach_center

from helpers import brute_force_max_free_spokes, brute_force_star


def allowed_spoke_colors(base, p):
    """The 1-based colors a spoke to each base vertex may carry, from the
    extension rule shared with the orderly search."""
    allowed = extension_state(_word_from_coloring(base), base.host.n, p.sizes).allowed
    return [{col + 1 for col in colors} for colors in allowed]


def test_star_critical_values():
    assert star_critical_value(MatchParams((2, 2))) == 2
    assert star_critical_value(MatchParams((3, 2))) == 2
    assert star_critical_value(MatchParams((2, 2, 2))) == 3
    assert star_critical_value(MatchParams((3,))) == 1
    # r*(s K_2, t K_2) = t for s >= t
    for s in range(1, 5):
        for t in range(1, s + 1):
            assert star_critical_value(MatchParams((s, t))) == t


def test_attach_center():
    base = EdgeColoring(4, 1, (1,) * 6)
    host = _attach_center(base, (0, 2), (1, 1)).host
    assert host.n == 5
    assert host.degree(4) == 2
    assert host.has_edge(0, 4) and host.has_edge(2, 4) and not host.has_edge(1, 4)
    small = EdgeColoring(3, 1, (1,) * 3)
    with pytest.raises(ValueError):
        _attach_center(small, (3,), (1,))


def test_star_guard_applies_before_the_construction(monkeypatch):
    def unreachable(p):
        raise AssertionError("construction built before the order guard")

    monkeypatch.setattr(star, "construct_star_free", unreachable)
    with pytest.raises(ValueError, match="enumeration guard"):
        verify_star_exhaustive(MatchParams((5, 5)))


def test_construct_star_free():
    for sizes in [(2, 2), (3, 2), (2, 2, 2), (3, 3), (3,)]:
        p = MatchParams(sizes)
        ec = construct_star_free(p)
        m = star_critical_value(p) - 1
        assert ec.host.n == ramsey_value(p)
        assert ec.host.degree(ec.host.n - 1) == m
        assert is_free(ec, p), sizes


def test_verify_star_22():
    report = verify_star_exhaustive(MatchParams((2, 2)))
    assert report.verified
    assert report.star_value == 2
    assert report.lower_ok and report.upper_ok
    assert report.clique_spoke_color_ok
    assert report.base_class_count == 1
    # one base of K_4: 4 spoke ends, each decided in 2 colors
    assert report.placements_checked == 4
    assert report.colorings_checked == 8


def test_verify_star_single_color():
    report = verify_star_exhaustive(MatchParams((3,)))
    assert report.verified and report.star_value == 1


def test_star_report_serialization():
    d = verify_star_exhaustive(MatchParams((2, 2))).as_dict()
    assert d["params"] == [2, 2] and d["star_value"] == 2
    assert d["lower_ok"] and d["upper_ok"]


def test_construct_star_free_over_small_parameter_universe():
    # freeness of the spoke construction needs no enumeration, so it can be
    # checked well past the search guard
    import itertools

    universe = []
    for c in range(1, 4):
        for sizes in itertools.product(range(1, 4), repeat=c):
            if all(sizes[i] >= sizes[i + 1] for i in range(c - 1)):
                universe.append(MatchParams(sizes))
    universe += [MatchParams((4, 3, 2)), MatchParams((5,)), MatchParams((4, 4))]
    for p in universe:
        ec = construct_star_free(p)
        assert is_free(ec, p), p.sizes
        assert ec.host.degree(ec.host.n - 1) == star_critical_value(p) - 1


def test_star_value_slack_below_ramsey():
    # for n_1 >= 2 the star threshold sits strictly below the full degree:
    # r* < r - 1, i.e. the last vertex never needs all its edges back
    import itertools

    for c in range(1, 4):
        for sizes in itertools.product(range(2, 5), repeat=c):
            if all(sizes[i] >= sizes[i + 1] for i in range(c - 1)):
                p = MatchParams(sizes)
                assert star_critical_value(p) < ramsey_value(p) - 1


ORACLE_POINTS = [
    (1,), (3,), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2),
    (2, 2, 1), (2, 2, 2), (3, 3), (3, 2, 2), (2, 2, 2, 2),
]


@pytest.mark.parametrize("sizes", ORACLE_POINTS)
def test_verify_star_matches_brute_force_oracle(sizes):
    p = MatchParams(sizes)
    m = star_critical_value(p) - 1
    bases = enumerate_critical(p).critical_classes
    report = verify_star_exhaustive(p)
    assert (report.upper_ok, report.clique_spoke_color_ok) == brute_force_star(bases, p, m)
    assert report.verified and report.clique_spoke_color_ok
    for base in bases:
        admitting = sum(1 for colors in allowed_spoke_colors(base, p) if colors)
        assert admitting == brute_force_max_free_spokes(base, p)


def test_spoke_rule_matches_is_free_on_random_free_colorings():
    # a spoke configuration is free iff each spoke is allowed on its own; a
    # spoke set is a partial row to a new vertex, so this also covers the
    # freeness prune of the orderly search
    rng = random.Random(1905)
    params = [MatchParams(s) for s in [(2, 2), (3, 2), (2, 2, 2), (3, 3), (3, 2, 2), (4, 3), (3, 3, 2)]]
    outcomes = set()
    bases = 0
    while bases < 300:
        p = rng.choice(params)
        n = rng.randint(3, 6)
        colors = tuple(rng.randint(1, p.c) for _ in range(n * (n - 1) // 2))
        base = EdgeColoring(n, p.c, colors)
        if not is_free(base, p):
            continue
        bases += 1
        allowed = allowed_spoke_colors(base, p)
        for k in range(4):
            for spokes in combinations(range(n), k):
                for spoke_colors in product(range(1, p.c + 1), repeat=k):
                    predicted = all(col in allowed[v] for v, col in zip(spokes, spoke_colors))
                    assert predicted == is_free(_attach_center(base, spokes, spoke_colors), p)
                    outcomes.add(predicted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("sizes,guard", [((2, 2, 2, 2, 2), 8), ((4, 3), 9)])
def test_verify_star_beyond_the_brute_force_reach(sizes, guard):
    p = MatchParams(sizes)
    report = verify_star_exhaustive(p, guard=guard)
    assert report.verified and report.clique_spoke_color_ok
    assert report.star_value == star_critical_value(p)
