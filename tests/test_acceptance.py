"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Every check is exact (boolean or integer equality); there are no
tolerances to tune.
"""

import random
import time

from matching_ramsey import (
    MatchParams,
    brute_force_matching_number,
    color_class,
    coloring_from_map,
    contract_partition,
    decompose,
    enumerate_critical,
    enumerate_graphs,
    find_monochromatic_matching,
    find_structure,
    graph_from_edges,
    is_valid_matching,
    lift_matching,
    matching_number,
    matching_number_from_decomposition,
    proof_ledger,
    ramsey_value,
    star_critical_value,
    verify_decomposition,
    verify_ramsey_exhaustive,
    verify_star_exhaustive,
)

from helpers import random_graph


def report(number, label, ok):
    print(f"ACCEPTANCE criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_formula_values():
    table = {(2, 2): 5, (3, 2): 7, (3, 3): 8, (2, 2, 2): 6, (3, 2, 2): 8}
    ok = all(ramsey_value(MatchParams(sizes)) == want for sizes, want in table.items())
    ok = ok and all(ramsey_value(MatchParams((n1,))) == 2 * n1 for n1 in range(1, 6))
    report(1, "formula values", ok)


def test_criterion_2_exhaustive_ramsey_verification():
    ok = True
    timings = []
    for sizes in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
        started = time.perf_counter()
        rep = verify_ramsey_exhaustive(MatchParams(sizes))
        elapsed = time.perf_counter() - started
        ok = ok and rep.verified and rep.free_count == 0 and len(rep.critical_classes) > 0
        timings.append(f"{sizes}:{elapsed:.2f}s")
    report(2, "exhaustive Ramsey verification " + " ".join(timings), ok)


def test_criterion_3_structure_theorem_desk_scale():
    ok = True
    for sizes in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
        rep = enumerate_critical(MatchParams(sizes))
        ok = ok and rep.structure_failures == () and len(rep.critical_classes) > 0
    report(3, "structure theorem at desk scale", ok)


def test_criterion_4_gallai_edmonds_suite():
    ok = True
    # exhaustive generation: all connected graphs on <= 7 vertices
    counts = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, want in counts.items():
        graphs = enumerate_graphs(n, connected_only=True)
        ok = ok and len(graphs) == want  # corpus completeness cross-check
        for g in graphs:
            ged = decompose(g)
            rep = verify_decomposition(g, ged)
            ok = ok and rep.all_ok
            ok = ok and matching_number_from_decomposition(g, ged) == matching_number(g)
            if not ok:
                break
        if not ok:
            break
    # 1000 random order-12 instances
    rng = random.Random(1_000_003)
    for _ in range(1000):
        if not ok:
            break
        g = random_graph(rng, 12, rng.random())
        ged = decompose(g)
        rep = verify_decomposition(g, ged)
        ok = ok and rep.all_ok and rep.matching_number == matching_number(g)
        ok = ok and matching_number_from_decomposition(g, ged) == matching_number(g)
    report(4, "Gallai-Edmonds property suite", ok)


def test_criterion_5_matching_oracle_equivalence():
    rng = random.Random(777_777)
    ok = True
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        if matching_number(g) != brute_force_matching_number(g):
            ok = False
            break
    report(5, "matching oracle equivalence", ok)


def test_criterion_6_proof_ledger():
    ok = True
    for sizes in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
        p = MatchParams(sizes)
        rep = enumerate_critical(p)
        for ec in rep.critical_classes:
            ledger = proof_ledger(ec, p)  # raises if lhs > rhs for some color
            ok = ok and all(e.edge_bound_lhs <= e.edge_bound_rhs for e in ledger.per_color)

            # relabelled color 1 must be K_{2 n_1 - 1} plus isolated vertices with a_1 = 0
            witness = find_structure(ec, p)
            ok = ok and witness is not None
            if witness is None:
                break
            clique = witness.parts[0]
            original = witness.color_relabel.index(1) + 1
            cls = color_class(ec, original)
            clique_edges = {(u, v) for u in clique for v in clique if u < v}
            ok = ok and set(cls.edges()) == clique_edges
            ok = ok and len(decompose(cls).a) == 0
    report(6, "proof ledger and color-1 clique", ok)


def test_criterion_7_star_critical():
    ok = True
    for sizes, want in [((2, 2), 2), ((3, 2), 2), ((2, 2, 2), 3)]:
        p = MatchParams(sizes)
        ok = ok and star_critical_value(p) == want
        rep = verify_star_exhaustive(p)
        ok = ok and rep.verified and rep.star_value == want
        ok = ok and rep.lower_ok and rep.upper_ok and rep.clique_spoke_color_ok
    report(7, "star-critical verification", ok)


def _random_contraction_instance(rng):
    p = MatchParams(rng.choice([(2, 2), (3, 2), (2, 2, 2)]))
    k = ramsey_value(p) + rng.randint(0, 1)
    sizes = [rng.randint(1, 3) for _ in range(k)]
    n = sum(sizes)
    parts = []
    start = 0
    for width in sizes:
        parts.append(frozenset(range(start, start + width)))
        start += width
    edges = set()
    # one guaranteed edge per part pair, then random extras
    for i in range(k):
        for j in range(i + 1, k):
            u = rng.choice(sorted(parts[i]))
            v = rng.choice(sorted(parts[j]))
            edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    host = graph_from_edges(n, edges)
    colors = {e: rng.randint(1, p.c) for e in host.edges()}
    return p, coloring_from_map(host, p.c, colors), parts


def test_criterion_8_contraction_corollary():
    rng = random.Random(8_888_888)
    ok = True
    for _ in range(100):
        p, ec, parts = _random_contraction_instance(rng)
        contracted, rep_map = contract_partition(ec, parts)
        hit = find_monochromatic_matching(contracted, p)
        ok = ok and hit is not None  # guaranteed: k >= r and the quotient is complete
        if hit is None:
            break
        color, small = hit
        lifted = lift_matching(small, rep_map)
        ok = ok and is_valid_matching(ec.host, lifted)
        ok = ok and lifted.size == p.sizes[color - 1]
        ok = ok and all(ec.color_of(u, v) == color for u, v in lifted.edges)
    report(8, "partition contraction corollary", ok)
