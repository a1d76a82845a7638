import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from matching_ramsey import (
    MatchParams,
    construct_critical,
    enumerate_colorings,
    enumerate_critical,
    enumerate_graphs,
    free_coloring_classes,
    is_connected,
    is_free,
    ramsey_value,
    verify_ramsey_exhaustive,
)
from matching_ramsey import search
from matching_ramsey.canon import canonical_form, edge_list
from matching_ramsey.graph import Graph
from matching_ramsey.matching import _matching_on_masks, matching_number, missed_mask
from matching_ramsey.search import (
    _can_reach,
    _coloring_from_word,
    _ex,
    _extendable,
    _generate_levels,
    _grown,
    _word_from_coloring,
    extension_state,
)

from helpers import deleted, min_image, naive_orbit_reps, prefix_of, slow, slow_param


def test_ramsey_value_table():
    cases = {(2, 2): 5, (3, 2): 7, (3, 3): 8, (2, 2, 2): 6, (3, 2, 2): 8}
    for sizes, want in cases.items():
        assert ramsey_value(MatchParams(sizes)) == want
    for n1 in range(1, 6):
        assert ramsey_value(MatchParams((n1,))) == 2 * n1


def test_enumerate_colorings_counts():
    # one edge, interchangeable colors
    assert enumerate_colorings(2, 2) == 1
    # a single color admits a single coloring
    assert enumerate_colorings(4, 1) == 1
    # triangle with two colors: 2 classes under the full action, 4 when the
    # attached parameters make the colors non-interchangeable
    assert enumerate_colorings(3, 2) == 2
    assert enumerate_colorings(3, 2, params=MatchParams((2, 1))) == 4


def test_enumerate_against_naive_orbit_oracle():
    for n in range(1, 5):
        for c in (1, 2):
            collected = []
            count = enumerate_colorings(n, c, lambda ec: collected.append(_word_from_coloring(ec)))
            naive = naive_orbit_reps(n, c)
            assert count == len(collected) == len(naive)
            assert set(collected) == naive


def test_free_enumeration_against_naive_oracle():
    p = MatchParams((2, 2))
    for order in (3, 4, 5):
        engine = {_word_from_coloring(ec) for ec in free_coloring_classes(p, order)}
        naive = naive_orbit_reps(order, 2, params=p, free_only=True)
        assert engine == naive


def test_visited_classes_are_canonical_words():
    p = MatchParams((2, 2))
    for ec in free_coloring_classes(p, 4):
        word = _word_from_coloring(ec)
        assert canonical_form(word, 4, p.sizes) == word


def test_verify_ramsey_small():
    for sizes in [(2, 2), (2, 2, 2), (3, 2), (1,), (2,)]:
        p = MatchParams(sizes)
        report = verify_ramsey_exhaustive(p)
        assert report.verified, sizes
        assert report.free_count == 0
        assert report.order_checked == ramsey_value(p)
        assert all(is_free(ec, p) for ec in report.critical_classes)


def test_verify_monotone_above_r():
    # freeness is antitone in the order: nothing survives past r either
    p = MatchParams((2, 2))
    assert free_coloring_classes(p, ramsey_value(p)) == []
    assert free_coloring_classes(p, ramsey_value(p) + 1) == []


def test_critical_classes_for_2_2():
    p = MatchParams((2, 2))
    report = enumerate_critical(p)
    # the naive orbit oracle over all 2^6 colorings of K_4 finds one class
    naive = naive_orbit_reps(4, 2, params=p, free_only=True)
    assert len(naive) == 1
    assert len(report.critical_classes) == len(naive) == 1
    assert report.structure_failures == ()

    # the explicit construction lands in the enumerated class
    cf = canonical_form(_word_from_coloring(construct_critical(p)), 4, p.sizes)
    assert cf in {_word_from_coloring(ec) for ec in report.critical_classes}


def test_reports_are_deterministic():
    p = MatchParams((2, 2, 2))

    def stable(report):
        return json.dumps(report.as_dict(), sort_keys=True)

    assert stable(enumerate_critical(p)) == stable(enumerate_critical(p))
    assert stable(enumerate_critical(p, jobs=2)) == stable(enumerate_critical(p, jobs=1))


def test_guard_violations():
    with pytest.raises(ValueError):
        enumerate_colorings(9, 2)
    with pytest.raises(ValueError):
        verify_ramsey_exhaustive(MatchParams((4, 4)))  # r = 12 > default guard
    with pytest.raises(ValueError):
        enumerate_critical(MatchParams((5, 5)), guard=8)


def test_enumerate_graphs_counts():
    # classes on n vertices (OEIS A000088) and connected classes (A001349), n <= 8
    graphs = [enumerate_graphs(n) for n in range(9)]
    assert [len(gs) for gs in graphs] == [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
    connected = [sum(map(is_connected, gs)) for gs in graphs[1:]]
    assert connected == [1, 1, 2, 6, 21, 112, 853, 11117]
    assert [len(enumerate_graphs(n, connected_only=True)) for n in range(1, 7)] == connected[:6]
    assert all(is_connected(g) for g in enumerate_graphs(5, connected_only=True))


@pytest.mark.parametrize(
    "sizes,counts",
    [
        ((3, 3, 2), [1, 1, 2, 6, 23, 142, 249, 55, 3, 0]),
        ((2, 2, 2, 2, 2), [1, 1, 1, 3, 9, 41, 37, 4, 0]),
        ((4, 3), [1, 1, 2, 4, 11, 34, 55, 81, 10, 1, 0]),
    ],
)
def test_free_class_counts_per_level(sizes, counts):
    # free classes at every order 0..r, measured with the brute-force n! table
    # engine; any change to a prune or to canonicity shows up here.  Each
    # order is its own search (target m): the row filter thins only the
    # levels below m, never m itself.
    p = MatchParams(sizes)
    r = ramsey_value(p)
    assert [len(free_coloring_classes(p, m, guard=r)) for m in range(r + 1)] == counts
    report = verify_ramsey_exhaustive(p, guard=r)
    assert report.verified and len(report.critical_classes) == counts[r - 1]


@pytest.mark.parametrize(
    "sizes,counts",
    [
        ((3, 3, 2), [1, 1, 2, 5, 15, 35, 35, 6, 3, 0]),
        ((2, 2, 2, 2, 2), [1, 1, 1, 3, 8, 11, 6, 4, 0]),
        ((4, 3), [1, 1, 2, 4, 6, 11, 9, 9, 2, 1, 0]),
        ((3, 2, 2), [1, 1, 2, 5, 9, 9, 2, 1, 0]),
        ((4, 3, 2), [1, 1, 3, 9, 28, 46, 77, 61, 51, 6, 3, 0]),
    ],
)
def test_targeted_level_counts(sizes, counts):
    # the levels of verify's own search (target r - 1), which the row
    # filter thins up to level r - 2
    p = MatchParams(sizes)
    r = ramsey_value(p)
    levels = _generate_levels(r, p.sizes, free=True, target=r - 1)
    assert [len(level) for level in levels] == counts


def test_slackless_words_cannot_grow():
    # a word with every class tight fails the Erdos-Gallai bound at t = 2
    for c in range(1, 7):
        for more in range(2, 6):
            assert not _can_reach([0] * c, more)


def _check_ex(t):
    # ex(t, k) is the most edges of a graph of order t with matching number <= k
    graphs = [(matching_number(g), g.edge_count) for g in enumerate_graphs(t)]
    for k in range(t // 2 + 2):
        assert _ex(t, k) == max(e for nu, e in graphs if nu <= k), (t, k)


def test_erdos_gallai_bound_is_the_exact_maximum():
    for t in range(8):
        _check_ex(t)


@slow
def test_erdos_gallai_bound_at_order_8():
    _check_ex(8)


def test_min_image_is_the_orbit_minimum():
    # the floor test's canonical form against the brute-force one: every
    # word where there are few, seeded random words otherwise
    rng = random.Random(5)
    for n in range(7):
        e = n * (n - 1) // 2
        for classes in [(0, 0), (0, 1), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]:
            c = len(classes)
            words = product(range(c), repeat=e) if c**e <= 300 else (
                [rng.randrange(c) for _ in range(e)] for _ in range(30)
            )
            for word in map(bytes, words):
                assert min_image(word, n, classes) == canonical_form(word, n, classes), (word, classes)


# sha256(repr(words)) of the critical list, and its length, at points whose
# unpruned search takes 30-90 s: each was measured with the unpruned
# engine, and the pruned search gave the same list
PINNED_CRITICAL = {
    (4, 4, 2): (4, "e9b1bfee652fccb7180f441f380f45b8956de5649c6b8b1dce37f8f046d73699"),
    (3, 3, 3, 2): (43, "bd244fe3b3a8837060fa2676497ac53a73d1b212165a7a4e901486f4edd39a23"),
    (3, 3, 2, 2, 2): (50, "d7f24eff3e35509bf197ad27916d906a3bdd870d1ca3d1b0050d4856f7088150"),
}


@functools.lru_cache(maxsize=None)
def _targeted_levels(sizes):
    # the levels of verify's search, target r - 1, computed once per point
    p = MatchParams(sizes)
    n = ramsey_value(p) - 1
    return _generate_levels(n, p.sizes, free=True, target=n)


@functools.lru_cache(maxsize=None)
def _reference_critical(sizes):
    # the critical list at order r - 1, computed once per point: from one
    # unpruned search, or at a PINNED_CRITICAL point, where that search is
    # too slow, the pruned list once its length and digest match the pin
    p = MatchParams(sizes)
    n = ramsey_value(p) - 1
    if sizes not in PINNED_CRITICAL:
        return _generate_levels(n, p.sizes, free=True)[n]
    words = _targeted_levels(sizes)[n]
    count, digest = PINNED_CRITICAL[sizes]
    assert len(words) == count
    assert hashlib.sha256(repr(words).encode()).hexdigest() == digest
    return words


@pytest.mark.parametrize(
    "sizes",
    [
        (3, 3, 2), (2, 2, 2, 2, 2), (4, 3), (3, 2, 2), (2, 2, 2, 2), (3, 3), (4, 2),
        (2, 2, 2, 2, 2, 2), (3, 3, 3), (4, 3, 2),
        slow_param((4, 4, 2)), slow_param((3, 3, 3, 2)), slow_param((3, 3, 2, 2, 2)),
    ],
)
def test_lookahead_keeps_every_critical_class(sizes):
    # the pruned search ends on the reference critical list, and verify
    # finds no free coloring of K_r and a witness for each class
    p = MatchParams(sizes)
    r = ramsey_value(p)
    critical = _reference_critical(sizes)
    assert critical
    assert _targeted_levels(sizes)[r - 1] == critical
    report = verify_ramsey_exhaustive(p, guard=r)
    assert report.verified and report.structure_ok
    assert [_word_from_coloring(ec) for ec in report.critical_classes] == critical


@pytest.mark.parametrize(
    "sizes",
    [
        (3, 3, 2), (4, 3), (4, 3, 2), (2, 2, 2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3), (4, 2),
        (2, 2, 2, 2, 2, 2), (3, 3, 3),
        slow_param((4, 4, 2)), slow_param((3, 3, 3, 2)), slow_param((3, 3, 2, 2, 2)),
    ],
)
def test_every_induced_subcoloring_of_a_critical_class_survives(sizes):
    # the floor of the row filter: an induced subcoloring of a critical
    # coloring extends to one, so verify's search keeps it at its order.
    # The reference list is non-empty, so a filter that drops too much
    # cannot leave this test with nothing to check
    p = MatchParams(sizes)
    n = ramsey_value(p) - 1
    levels = _targeted_levels(sizes)
    floor = set(_reference_critical(sizes))
    assert floor
    for m in range(n, 0, -1):
        assert floor <= set(levels[m]), m
        floor = {min_image(deleted(w, m, v), m - 1, p.sizes) for w in floor for v in range(m)}


@pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 2, 2), (4, 3)])
def test_dead_vertex_rule_is_exact(sizes):
    # on every unpruned word of order r - 2, the filter drops the word's
    # last row exactly when no row to one more vertex is free
    p = MatchParams(sizes)
    n = ramsey_value(p) - 2
    dropped = 0
    for word in _generate_levels(n, p.sizes, free=True)[n]:
        prefix, row = word[: -(n - 1)], word[-(n - 1):]
        dead = not _extendable(extension_state(prefix, n - 1, p.sizes), 1)(row)
        free_child = any(
            is_free(_coloring_from_word(word + bytes(nxt), n + 1, p.c), p)
            for nxt in product(range(p.c), repeat=n)
        )
        assert dead != free_child, word
        dropped += dead
    assert dropped > 0


def test_a_non_free_word_raises():
    # the carried matchings are maximum, so a negative slack means a
    # non-free word got into the search; the check holds under python -O
    with pytest.raises(RuntimeError, match="non-free"):
        extension_state(bytes(6), 4, (2, 2))  # K_4 in one color has nu = 2


PREFIX_FIELDS = ("rows", "twins", "twin_pairs", "free")


def assert_state_is_the_definition(ext, word, m, sizes):
    # per class: the masks of the word's class graph, a maximum matching of
    # it, and D = missed_mask; then the slacks, D rows and allowed colors
    masks = [[0] * m for _ in sizes]
    for col, (u, v) in zip(word, edge_list(m)):
        masks[col][u] |= 1 << v
        masks[col][v] |= 1 << u
    assert [state[0] for state in ext.states] == masks, word
    for i, (n_i, (rows, mate, d)) in enumerate(zip(sizes, ext.states)):
        nu = matching_number(Graph(m, tuple(rows)))
        assert len(mate) == m
        assert all(v < 0 or mate[v] == u and rows[u] >> v & 1 for u, v in enumerate(mate))
        assert sum(v >= 0 for v in mate) == 2 * nu
        assert d == missed_mask(rows, m, nu), (word, i)
        assert ext.slack[i] == n_i - 1 - nu
    assert ext.in_d == [
        sum(1 << i for i, state in enumerate(ext.states) if state[2] >> u & 1) for u in range(m)
    ]
    assert ext.allowed == [[i for i, s in enumerate(ext.slack) if s or not d >> i & 1] for d in ext.in_d]


@pytest.mark.parametrize("sizes", [(3, 3, 2), (2, 2, 2, 2, 2), (4, 3), (3, 2, 2)])
def test_reused_search_state_is_the_fresh_state(monkeypatch, sizes):
    # every representative verify's search extends: the state carried from
    # its parent, and the state it passes on, equal the definition from the
    # word alone; and at the dead-vertex level the filter keeps exactly the
    # rows whose grown word leaves every vertex a color
    p = MatchParams(sizes)
    r = ramsey_value(p)
    real_extend = search._extend_representative
    checked = {}

    def extend_spy(rep, m, **kw):
        state, out = real_extend(rep, m, **kw)
        parent, word = rep
        carried = [(parent, word[: (m - 1) * (m - 2) // 2], m - 1)]
        if state is not None:
            carried.append((state, word, m))
        for (prefix, ext), w, k in carried:
            want = prefix_of(w, k, p.sizes)
            assert [getattr(prefix, f) for f in PREFIX_FIELDS] == [getattr(want, f) for f in PREFIX_FIELDS]
            assert_state_is_the_definition(ext, w, k, p.sizes)
        ext = extension_state(word, m, p.sizes)
        assert_state_is_the_definition(ext, word, m, p.sizes)
        if kw["target"] - m - 1 == 1:
            keep = _extendable(ext, 1)
            for row in map(bytes, product(*ext.allowed)):
                assert keep(row) == all(extension_state(word + row, m + 1, p.sizes).allowed)
        checked[m] = checked.get(m, 0) + 1
        return state, out

    monkeypatch.setattr(search, "_extend_representative", extend_spy)
    levels = _generate_levels(r, p.sizes, free=True, target=r - 1)
    assert checked == {m: len(levels[m]) for m in range(1, r)}


@pytest.mark.parametrize(
    "sizes,accepts,rejects",
    [((3, 3, 2), 101, 19), ((2, 2, 2, 2, 2), 33, 74), ((4, 3), 44, 0)],
)
def test_canonicity_work_is_pinned(monkeypatch, sizes, accepts, rejects):
    # is_canonical's verdicts in one verify call: the accepts are the words
    # of every level, and the rejects are the rows the swap and insertion
    # tests and the row filter let through to it
    real_is_canonical = search.is_canonical
    verdicts = []

    def spy(prefix, row):
        verdicts.append(real_is_canonical(prefix, row))
        return verdicts[-1]

    monkeypatch.setattr(search, "is_canonical", spy)
    verify_ramsey_exhaustive(MatchParams(sizes), guard=10)
    assert (verdicts.count(True), verdicts.count(False)) == (accepts, rejects)


def test_one_vertex_growth_is_the_definition():
    # every graph of order <= 7, each vertex x in turn as the new one: grow
    # the state of the rest (a maximum matching and its D) by x, and the
    # result must be a maximum matching and the D of the whole graph
    cases = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for x in range(n):
                # swap x and the last vertex, so that x joins last
                perm = list(range(n))
                perm[x], perm[-1] = n - 1, x
                rows = [0] * n
                for u, v in g.edges():
                    rows[perm[u]] |= 1 << perm[v]
                    rows[perm[v]] |= 1 << perm[u]
                rest = [row & ~(1 << (n - 1)) for row in rows[:-1]]
                rest_nu = matching_number(Graph(n - 1, tuple(rest)))
                mate = _matching_on_masks(rest, n - 1)
                masks, match, d = _grown((rest, mate, missed_mask(rest, n - 1, rest_nu)), rows[-1])
                nu = matching_number(g)
                assert masks == rows
                assert all(v < 0 or match[v] == u and rows[u] >> v & 1 for u, v in enumerate(match))
                assert sum(v >= 0 for v in match) == 2 * nu
                assert d == missed_mask(rows, n, nu), (g, x)
                cases += 1
    assert cases == 8475


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_graphs(-1),
        lambda: enumerate_colorings(-2, 2),
        lambda: free_coloring_classes(MatchParams((2, 2)), -1),
    ],
    ids=["graphs", "colorings", "free-classes"],
)
def test_a_negative_order_is_rejected(call):
    with pytest.raises(ValueError, match="negative"):
        call()


@pytest.mark.parametrize(
    "sizes,count,guard",
    [((2,) * 6, 12, 8), ((2,) * 7, 56, 9), ((4, 4, 2), 4, 11)],
    ids=["2^6", "2^7", "4-4-2"],
)
def test_critical_class_counts_beyond_the_pinned_points(sizes, count, guard):
    # with all n_i = 2 the critical classes are the tournaments on c - 1
    # vertices (OEIS A000568: 12 on 5, 56 on 6)
    report = enumerate_critical(MatchParams(sizes), guard=guard)
    assert len(report.critical_classes) == count and report.structure_ok


def test_import_loads_no_process_pool():
    # only a run with jobs > 1 needs multiprocessing
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, matching_ramsey; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    # a fake pool that records its size and maps serially: no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr("matching_ramsey.search.os.cpu_count", lambda: 2)
    p = MatchParams((3, 3, 2))
    serial = _generate_levels(8, p.sizes, free=True)
    assert _generate_levels(8, p.sizes, free=True, jobs=1000) == serial
    assert sizes and set(sizes) == {2}


@pytest.fixture
def pools(monkeypatch):
    # the size of every real process pool the search starts, with two CPUs
    # reported whatever the host has
    import concurrent.futures

    sizes = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr("matching_ramsey.search.os.cpu_count", lambda: 2)
    return sizes


def test_a_real_pool_gives_the_serial_levels(pools):
    # verify's search at (3,3,2) has levels of 5, 15, 72, 35 and 6 words, so
    # two real worker processes extend them: each word's parent state, its
    # prefix state and per class a matching and D, is pickled to a worker,
    # and each word's own state comes back
    p = MatchParams((3, 3, 2))
    r = ramsey_value(p)
    serial = _generate_levels(r, p.sizes, free=True, target=r - 1)
    assert _generate_levels(r, p.sizes, free=True, target=r - 1, jobs=2) == serial
    assert pools == [2] * 5


def test_a_real_pool_gives_the_serial_enumerations(pools):
    # plain enumeration sends each word with a (Prefix, None) state to a
    # worker, and that state alone tells it to try every color
    serial_graphs = enumerate_graphs(7)
    assert enumerate_graphs(7, jobs=2) == serial_graphs
    serial_colorings = []
    enumerate_colorings(5, 3, serial_colorings.append)
    pooled = []
    assert enumerate_colorings(5, 3, pooled.append, jobs=2) == len(serial_colorings)
    assert pooled == serial_colorings
    assert pools and set(pools) == {2}


@pytest.mark.parametrize(
    "n,c,sizes,classes,digest",
    [
        (9, 3, (3, 3, 2), (3, 3, 2), "636db7c92ec8d226b34dd55cc2eed87e559862bdaa57c526baafa9ab26fec9d6"),
        (8, 5, (2, 2, 2, 2, 2), (2, 2, 2, 2, 2), "2c04e4f3ad9824763611329547c847b743ad9e1b8710a26714a4233713441e06"),
        (10, 2, (4, 3), (4, 3), "7f72851096a540b1c04e3872eb5db06f809823464ececf63e2cddfaff963f3ff"),
        (7, 2, None, (0, 1), "39728918fe5cbbeba51f8432cec1251272b09801b8860cbba13671ab7ce8673f"),
        (5, 4, None, (0, 0, 0, 0), "d70a003083e99e290c4ae900629bf6079a8b7166bcdb94a09f9c8d20102cc52a"),
        (5, 3, None, (0, 0, 1), "0ae306f9382066431122e87fd368804b7318a3bfc8f5f69779cfca14a2d98f9c"),
        (6, 4, (2, 2, 2, 2), (2, 2, 2, 2), "f5f640364ad600dcc39821b7859f2f491fd8f85a55278e6fc48add078914923c"),
    ],
    ids=["3-3-2", "2-2-2-2-2", "4-3", "graphs-7", "colorings-5-4", "colorings-5-3-labels-0-0-1", "2-2-2-2"],
)
def test_representative_lists_are_pinned(n, c, sizes, classes, digest):
    # sha256 of the representative lists at every order 0..n.  The first four
    # were measured with the earlier engine that pruned rows vertex by vertex
    # with a matching test per (vertex, color); the last case of those is
    # every graph of order <= 7.  The other three were measured before the
    # twin and unused-color row filter, whose color swaps they exercise.
    levels = _generate_levels(n, classes, free=sizes is not None)
    assert hashlib.sha256(repr(levels).encode()).hexdigest() == digest


def test_verify_beyond_the_old_table_ceiling():
    # r = 10: the brute-force table engine needed 10! rows here
    p = MatchParams((3, 3, 3))
    report = verify_ramsey_exhaustive(p, guard=10)
    assert report.verified and report.order_checked == 10
    assert len(report.critical_classes) == 4
    assert all(is_free(ec, p) for ec in report.critical_classes)


def test_enumerate_critical_rejects_a_non_free_class(monkeypatch):
    # the freeness re-check is an explicit exception, so it holds under python -O
    monkeypatch.setattr("matching_ramsey.search.is_free", lambda ec, p: False)
    with pytest.raises(RuntimeError, match="non-free"):
        enumerate_critical(MatchParams((2, 2)))


def test_structure_failures_are_the_classes_without_a_witness(monkeypatch):
    monkeypatch.setattr("matching_ramsey.search.find_structure", lambda ec, p: None)
    for entry in (enumerate_critical, verify_ramsey_exhaustive):
        report = entry(MatchParams((3, 2)))
        assert report.structure_failures == report.critical_classes != ()
        assert not report.structure_ok
        payload = report.as_dict()
        assert payload["structure_failures"] == payload["critical_classes"]


def test_structure_report_fields():
    p = MatchParams((3, 2))
    report = enumerate_critical(p)
    assert report.order_checked == 6
    assert report.structure_ok
    assert len(report.witnesses) == report.free_count
    payload = report.as_dict()
    assert payload["params"] == [3, 2]
    assert payload["critical_classes"][0]["n"] == 6


def test_recolored_critical_colorings_stay_inside_the_structured_family():
    # recoloring a single edge of a critical coloring either destroys
    # freeness or lands on another structured coloring; the only edges with
    # two legal colors run between small parts (structure clause for
    # V_i-V_j, i, j >= 2), so with two colors every flip must break freeness
    from matching_ramsey import EdgeColoring, find_structure
    from matching_ramsey.canon import edge_list

    for sizes in [(2, 2), (3, 3), (2, 2, 2)]:
        p = MatchParams(sizes)
        for ec in enumerate_critical(p).critical_classes:
            pairs = edge_list(ec.host.n)
            for idx, col in enumerate(ec.colors):
                for other in range(1, p.c + 1):
                    if other == col:
                        continue
                    flipped = list(ec.colors)
                    flipped[idx] = other
                    recolored = EdgeColoring(ec.host, ec.c, tuple(flipped))
                    if not is_free(recolored, p):
                        continue
                    if p.c == 2:
                        raise AssertionError("two-color flips can never stay free")
                    witness = find_structure(recolored, p)
                    assert witness is not None
                    part_of = {}
                    for label, part in enumerate(witness.parts, start=1):
                        for v in part:
                            part_of[v] = label
                    u, v = pairs[idx]
                    assert part_of[u] >= 2 and part_of[v] >= 2 and part_of[u] != part_of[v]
