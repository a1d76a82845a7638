import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matching_ramsey import cli
from matching_ramsey.cli import main
from matching_ramsey.formats import MAX_GRAPH_ORDER
from matching_ramsey.gallai_edmonds import SURPLUS_SUBSET_LIMIT, decompose, verify_decomposition
from matching_ramsey.graph import graph_from_edges


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value(capsys):
    code, out, _ = run(capsys, "value", "2", "2")
    assert code == 0 and out == "r=5 r*=2\n"


def test_value_sorts_with_warning(capsys):
    code, out, err = run(capsys, "value", "2", "3")
    assert code == 0 and out == "r=7 r*=2\n"
    assert "reordered" in err


def test_construct_free_check_structure_round_trip(capsys, tmp_path):
    path = tmp_path / "c.ecg"
    code, out, _ = run(capsys, "construct", "2", "2", "--output", str(path))
    assert code == 0
    assert path.read_text() == "4 2\n1 1 2\n1 2\n2\n"

    code, out, _ = run(capsys, "free-check", str(path), "--params", "2", "2")
    assert code == 0 and out == "FREE nu=[1,1]\n"

    code, out, _ = run(capsys, "structure", str(path), "--params", "2", "2")
    assert code == 0
    assert "relabel=1,2" in out and "V1=0,1,2" in out and "V2=3" in out


@pytest.mark.parametrize("sizes", [("3", "2"), ("2", "2", "2"), ("3", "3"), ("4", "2"), ("4",)])
def test_round_trip_many_params(capsys, tmp_path, sizes):
    path = tmp_path / "c.ecg"
    assert run(capsys, "construct", *sizes, "--output", str(path))[0] == 0
    assert run(capsys, "free-check", str(path), "--params", *sizes)[0] == 0
    code, out, _ = run(capsys, "structure", str(path), "--params", *sizes)
    assert code == 0 and "V1=" in out


def test_free_check_refuted(capsys, tmp_path):
    path = tmp_path / "mono.ecg"
    path.write_text("5 2\n1 1 1 1\n1 1 1\n1 1\n1\n")
    code, out, _ = run(capsys, "free-check", str(path), "--params", "2", "2")
    assert code == 1 and out.startswith("NOT-FREE")


def test_structure_none(capsys, tmp_path):
    path = tmp_path / "mono4.ecg"
    path.write_text("4 2\n1 1 1\n1 1\n1\n")
    code, out, _ = run(capsys, "structure", str(path), "--params", "2", "2")
    assert code == 1 and out == "NONE\n"


def test_verify_and_star(capsys):
    code, out, _ = run(capsys, "verify", "2", "2", "2")
    assert code == 0 and out == "VERIFIED r=6\n"
    code, out, _ = run(capsys, "star", "2", "2")
    assert code == 0 and out == "VERIFIED r*=2\n"


def test_critical(capsys, tmp_path):
    out_path = tmp_path / "classes.ecg"
    code, out, _ = run(capsys, "critical", "2", "2", "--output", str(out_path))
    assert code == 0
    assert "classes=1" in out and "structure_failures=0" in out
    assert out_path.read_text().startswith("4 2\n")


def test_decompose_adjlist(capsys, tmp_path):
    path = tmp_path / "p3.adjlist"
    path.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert "D={0};{2}" in out and "A={1}" in out
    assert "size_formula_holds=True" in out


def test_ledger_text_and_json(capsys, tmp_path):
    path = tmp_path / "c.ecg"
    run(capsys, "construct", "2", "2", "--output", str(path))
    code, out, _ = run(capsys, "ledger", str(path), "--params", "2", "2")
    assert code == 0 and "color 1: a=0" in out and "3 <= 3" in out
    code, out, _ = run(capsys, "ledger", str(path), "--params", "2", "2", "--format", "json")
    data = json.loads(out)
    assert data["per_color"][0]["edge_bound_rhs"] == 3


def test_ledger_rejects_non_free(capsys, tmp_path):
    path = tmp_path / "mono.ecg"
    path.write_text("5 2\n1 1 1 1\n1 1 1\n1 1\n1\n")
    code, _, err = run(capsys, "ledger", str(path), "--params", "2", "2")
    assert code == 2 and "free" in err


def test_contract(capsys, tmp_path):
    src = tmp_path / "c.ecg"
    run(capsys, "construct", "2", "2", "--output", str(src))
    part = tmp_path / "part.txt"
    part.write_text("0 1\n2\n3\n")
    code, out, err = run(capsys, "contract", str(src), str(part))
    assert code == 0
    assert out == "3 2\n1 2\n2\n"
    assert "edge 0-1 from" in err


def test_contract_missing_cross_edge(capsys, tmp_path):
    src = tmp_path / "path.ecg"
    src.write_text("4 1\n1 0 0\n1 0\n1\n")
    part = tmp_path / "part.txt"
    part.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "contract", str(src), str(part))
    assert code == 0  # pairs {0,1} and {2,3} are joined by edge 1-2
    part.write_text("0 3\n1 2\n")
    code, _, err = run(capsys, "contract", str(src), str(part))
    assert code == 0  # joined via 0-1
    bad = tmp_path / "disc.ecg"
    bad.write_text("4 1\n1 0 0\n0 0\n1\n")
    part.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "contract", str(bad), str(part))
    assert code == 2 and "no host edge" in err


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "free-check", str(tmp_path / "missing.ecg"), "--params", "2", "2")
    assert code == 2 and "cannot read" in err
    code, _, _ = run(capsys, "unknown-verb")
    assert code == 2
    code, _, err = run(capsys, "value", "0")
    assert code == 2 and "positive" in err
    code, _, err = run(capsys, "verify", "4", "4")
    assert code == 2 and "guard" in err


def test_construct_json_and_dot(capsys):
    code, out, _ = run(capsys, "construct", "2", "2", "--format", "json")
    data = json.loads(out)
    assert data["n"] == 4 and [0, 1, 1] in data["edges"]
    code, out, _ = run(capsys, "construct", "2", "2", "--format", "dot")
    assert code == 0 and out.startswith("graph coloring {")


def test_byte_identical_reruns(capsys, tmp_path):
    _, out1, _ = run(capsys, "construct", "3", "2")
    _, out2, _ = run(capsys, "construct", "3", "2")
    assert out1 == out2
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for path in (first, second):
        code, _, _ = run(capsys, "critical", "3", "2", "--format", "json", "-o", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_decompose_ecg_color_class(capsys, tmp_path):
    path = tmp_path / "c.ecg"
    run(capsys, "construct", "2", "2", "--output", str(path))
    code, out, _ = run(capsys, "decompose", str(path), "--color", "2")
    assert code == 0
    assert "A={3}" in out  # the star center of color class 2


@pytest.mark.parametrize("color", ["5", "0"])
def test_decompose_color_out_of_range(capsys, tmp_path, color):
    path = tmp_path / "c.ecg"
    run(capsys, "construct", "2", "2", "--output", str(path))
    code, _, err = run(capsys, "decompose", str(path), "--color", color)
    assert code == 2 and "error: color" in err


def test_decompose_a_side_beyond_the_surplus_limit(capsys, tmp_path):
    # 21 disjoint paths on 3 vertices: A holds the 21 middle vertices
    path = tmp_path / "paths.adjlist"
    edges = [f"{3 * i + j} {3 * i + j + 1}" for i in range(21) for j in range(2)]
    path.write_text("63\n" + "\n".join(edges) + "\n")
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2 and "error: surplus check limited" in err


def test_a_complete_bipartite_graph_past_the_surplus_limit(capsys, tmp_path):
    # K_{L+1,L+2} has A = the smaller side, one vertex past the limit L of
    # the exhaustive surplus check: the library raises, the CLI exits 2
    a, b = SURPLUS_SUBSET_LIMIT + 1, SURPLUS_SUBSET_LIMIT + 2
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    g = graph_from_edges(a + b, edges)
    ged = decompose(g)
    assert ged.a == frozenset(range(a))
    with pytest.raises(ValueError, match=f"surplus check limited to \\|A\\| <= {SURPLUS_SUBSET_LIMIT}"):
        verify_decomposition(g, ged)
    path = tmp_path / "k21-22.adjlist"
    path.write_text(f"{a + b}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 2 and out == ""
    assert f"error: surplus check limited to |A| <= {SURPLUS_SUBSET_LIMIT}" in err


def test_decompose_rejects_an_adjlist_above_the_order_limit(capsys, tmp_path):
    # rejected from the header line, before a graph of that order is built
    path = tmp_path / "big.adjlist"
    path.write_text("10000000\n")
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2 and f"exceeds the limit {MAX_GRAPH_ORDER}" in err


def test_decompose_rejects_a_color_class_above_the_order_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": MAX_GRAPH_ORDER + 1, "c": 1, "edges": []}))
    code, _, err = run(capsys, "decompose", str(path), "--color", "1")
    assert code == 2 and f"exceeds the limit {MAX_GRAPH_ORDER}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("free-check", "--params", "2", "2"),
        ("structure", "--params", "2", "2"),
        ("decompose", "--color", "1"),
    ],
)
def test_json_coloring_above_the_order_limit_is_rejected(capsys, tmp_path, argv):
    # rejected from its "n" field or ecg header, before a coloring of that
    # order is built
    huge_json = tmp_path / "huge.json"
    huge_json.write_text(json.dumps({"n": 1000000, "c": 2, "edges": []}))
    huge_ecg = tmp_path / "huge.ecg"
    huge_ecg.write_text("1000000 2\n")
    for path in (huge_json, huge_ecg):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and f"exceeds the limit {MAX_GRAPH_ORDER}" in err, path


def test_free_check_rejects_a_color_count_mismatch_first(capsys, tmp_path, monkeypatch):
    # an ecg header may claim any number of colors; none of them is walked
    def unreachable(ec):
        raise AssertionError("matching profile computed before the color count check")

    path = tmp_path / "c.ecg"
    run(capsys, "construct", "2", "2", "--output", str(path))
    monkeypatch.setattr(cli, "matching_profile", unreachable)
    code, out, err = run(capsys, "free-check", str(path), "--params", "2", "2", "2")
    assert code == 2 and out == ""
    assert "error: coloring has 2 colors, parameters expect 3" in err


def test_construct_respects_the_order_limit(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "201")
    assert code == 2 and out == "" and f"exceeds the limit {MAX_GRAPH_ORDER}" in err
    # the star host has order critical_order + 1 = 400
    path = tmp_path / "star.ecg"
    code, _, _ = run(capsys, "construct", "200", "--star", "--output", str(path))
    assert code == 0 and path.read_text().startswith(f"{MAX_GRAPH_ORDER} 1\n")


def test_non_utf8_input_exits_2(tmp_path):
    # a subprocess, so that the module's entrypoint() and its exit status run too
    path = tmp_path / "bad.ecg"
    path.write_bytes(b"\xff\xfe")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "matching_ramsey.cli", "free-check", str(path), "--params", "2", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_critical_json_output(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "critical", "2", "2", "--format", "json", "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["free_count"] == 1 and data["structure_failures"] == []
    assert data["critical_classes"][0]["n"] == 4


def test_verify_with_jobs(capsys):
    code, out, _ = run(capsys, "verify", "2", "2", "--jobs", "2")
    assert code == 0 and out == "VERIFIED r=5\n"


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-1"), ("--guard", "0")])
def test_search_flags_must_be_positive(capsys, flag, value):
    code, out, err = run(capsys, "verify", "2", "2", flag, value)
    assert code == 2 and out == ""
    assert flag in err and "at least 1" in err


K4_TWO_COLORS = "4 2\n1 2 2\n1 1\n1\n"  # color 1 holds the 2-matching {0-1, 2-3}


@pytest.mark.parametrize("verb", ["free-check", "structure", "ledger"])
def test_coloring_verbs_take_sizes_per_color(capsys, tmp_path, verb):
    # reordering the sizes of a coloring's colors would change the question
    path = tmp_path / "k4.ecg"
    path.write_text(K4_TWO_COLORS)
    code, out, err = run(capsys, verb, str(path), "--params", "2", "3")
    assert code == 2 and out == ""
    assert err == "error: matching sizes must be non-increasing\n"


@pytest.mark.parametrize(
    "rows", ["3 3 3\n3 3\n3\n", "1 1 3\n1 3\n3\n"], ids=["all-color-3", "color-1-triangle"]
)
@pytest.mark.parametrize("verb", ["free-check", "structure", "ledger"])
def test_coloring_verbs_reject_a_wrong_color_count(capsys, tmp_path, verb, rows):
    # a three-color K_4 against two sizes is a usage error, not NONE or a crash
    path = tmp_path / "k4.ecg"
    path.write_text("4 3\n" + rows)
    code, out, err = run(capsys, verb, str(path), "--params", "2", "2")
    assert code == 2 and out == ""
    assert err == "error: coloring has 3 colors, parameters expect 2\n"


@pytest.mark.parametrize(
    "record",
    [
        {"n": 2, "c": 2, "edges": [[0, 1, 1], [1, 0, 2]]},
        {"n": True, "c": 2, "edges": []},
        {"n": 2, "c": 2.9, "edges": [[0, 1, 1]]},
    ],
    ids=["repeated-edge", "n-true", "c-float"],
)
def test_free_check_rejects_a_json_coloring_the_text_readers_would(capsys, tmp_path, record):
    # read with its last color winning, the repeated edge would be FREE nu=[0,1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "free-check", str(path), "--params", "2", "2")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_free_check_with_sorted_sizes(capsys, tmp_path):
    path = tmp_path / "k4.ecg"
    path.write_text(K4_TWO_COLORS)
    code, out, err = run(capsys, "free-check", str(path), "--params", "3", "2")
    assert code == 0 and out == "FREE nu=[2,1]\n" and err == ""


@pytest.mark.parametrize("verb", ["critical", "construct"])
def test_unwritable_output_exits_2(capsys, tmp_path, verb):
    target = tmp_path / "missing" / "x.ecg"
    code, _, err = run(capsys, verb, "3", "2", "-o", str(target))
    # critical checks the path before it searches: no progress lines
    assert code == 2 and len(err.splitlines()) == 1 and err.startswith("error: cannot write")
    assert not target.exists()


@pytest.mark.parametrize("kind", ["directory", "read-only file"])
def test_critical_rejects_an_unwritable_output_before_it_searches(capsys, tmp_path, monkeypatch, kind):
    # an existing directory, or an existing file the user may not write,
    # exits 2 before any progress line, and no file is created or truncated
    if kind == "directory":
        target = tmp_path / "out"
        target.mkdir()
    else:
        target = tmp_path / "kept.ecg"
        target.write_text("keep\n")
        target.chmod(0o444)
        # root may write any file, so answer os.access as a user without write permission
        real_access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != target and real_access(path, mode))
    code, _, err = run(capsys, "critical", "3", "2", "-o", str(target))
    assert code == 2 and len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {target}")
    assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]
    assert target.is_dir() if kind == "directory" else target.read_text() == "keep\n"


def test_critical_output_check_touches_no_file(capsys, tmp_path):
    # the order guard fails after the path check: an existing file keeps
    # its bytes and a missing one is not created
    kept, missing = tmp_path / "kept.ecg", tmp_path / "new.ecg"
    kept.write_text("keep\n")
    for target in (kept, missing):
        code, _, err = run(capsys, "critical", "5", "5", "-o", str(target))
        assert code == 2 and "enumeration guard" in err
    assert kept.read_text() == "keep\n" and not missing.exists()


@pytest.mark.parametrize("fmt", ["ecg", "json"])
def test_critical_format_without_output_exits_before_it_searches(capsys, fmt):
    # the list goes only to a file, so a format with nowhere to go is a
    # usage error, raised before any progress line
    code, out, err = run(capsys, "critical", "3", "2", "--format", fmt)
    assert (code, out, err) == (2, "", "error: --format needs --output\n")
    code, out, _ = run(capsys, "critical", "3", "2")
    assert code == 0 and out == "order=6 classes=1 structure_failures=0\n"
