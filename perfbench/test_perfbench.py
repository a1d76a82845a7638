"""Checks of the benchmark itself.  Run: python3 -m pytest perfbench/test_perfbench.py

Traced passes must give identical deterministic counts for the same seed,
and the seed must change only the ge-corpus inputs.  The metric names
run.py reports must be exactly those BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workload  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(name: str, seed: int) -> dict:
    result = run.run_pass(name, seed, trace=True, timeout=120)
    assert result is not None
    assert all(result["ok"])
    return result


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_and_only_corpus_follows_seed(name):
    first = traced_pass(name, 7)
    again = traced_pass(name, 7)
    other = traced_pass(name, 8)
    assert run.deterministic_counts(first) == run.deterministic_counts(again)
    if name == "ge-corpus":
        assert run.deterministic_counts(first) != run.deterministic_counts(other)
    else:
        assert run.deterministic_counts(first) == run.deterministic_counts(other)
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    assert set(run.per_layer([first], [first])) == layer_names


def test_corpus_is_a_function_of_the_seed():
    assert workload.corpus_edges(7) == workload.corpus_edges(7)
    assert workload.corpus_edges(7) != workload.corpus_edges(8)


def test_end_to_end_names_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in BENCH["end_to_end"]]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
