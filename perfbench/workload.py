"""One pass of one benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/workload.py <workload> <seed> <trace 0|1>
(with ``src`` on PYTHONPATH).  Prints one JSON object: the monotonic time of
the first timed call, the pass's wall time, per-item seconds and check
verdicts, the peak RSS after the timed region and, when traced, the span
aggregate and the deterministic counts.

Outputs are checked after the timed region with tracing off, against
references that do not come from the code under test: the value formulas
for r and r*, ``is_free``/``check_structure`` on every critical class, and
(in the parent, see run.py) ``brute_force_matching_number`` for the corpus.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from contextlib import nullcontext

import matching_ramsey as mr

# Colour groups of size 2, 120 and 1.  (4, 3) has r = 10, above the default
# guard; no row survives the freeness prune at order 10, so only the order-9
# permutation table is built.
FREE_POINTS = ((3, 3, 2), (2, 2, 2, 2, 2), (4, 3))
FREE_GUARD = 10
STAR_POINTS = ((2, 2, 2, 2), (3, 3, 2))
CORPUS_SIZE = 4000
CORPUS_ORDERS = (8, 14)


def ramsey_formula(sizes: tuple[int, ...]) -> int:
    return sizes[0] + 1 + sum(s - 1 for s in sizes)


def star_formula(sizes: tuple[int, ...]) -> int:
    return 1 + sum(s - 1 for s in sizes[1:])


def corpus_edges(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Seeded random graphs: order uniform in CORPUS_ORDERS, density uniform in [0, 1]."""
    rng = random.Random(seed)
    out = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(*CORPUS_ORDERS)
        density = rng.random()
        out.append((n, [(u, v) for v in range(n) for u in range(v) if rng.random() < density]))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _critical_class_ok(ec: mr.EdgeColoring, p: mr.MatchParams) -> bool:
    if not mr.is_free(ec, p):
        return False
    witness = mr.find_structure(ec, p)
    return witness is not None and mr.check_structure(ec, p, witness)


def _timed(tracer, call, inputs) -> tuple[dict, list]:
    """Run ``call`` on each input inside the timed (and, if traced, recorded) region."""
    clock = time.perf_counter
    outputs, seconds = [], []
    first_call = time.monotonic()
    start = clock()
    with tracer.recording() if tracer else nullcontext():
        for x in inputs:
            t = clock()
            outputs.append(call(x))
            seconds.append(clock() - t)
    wall = clock() - start
    result = {"first_call": first_call, "wall_s": wall, "peak_rss_mb": _peak_rss_mb(),
              "seconds": seconds, "counts": {}}
    return result, outputs


def free_search(seed: int, tracer) -> dict:
    params = [mr.MatchParams(s) for s in FREE_POINTS]
    progress = tracer.progress if tracer else None
    result, reports = _timed(
        tracer, lambda p: mr.verify_ramsey_exhaustive(p, guard=FREE_GUARD, progress=progress), params
    )
    result["ok"] = [
        r.verified
        and r.order_checked == ramsey_formula(p.sizes)
        and all(_critical_class_ok(ec, p) for ec in r.critical_classes)
        for p, r in zip(params, reports)
    ]
    return result


def star_exhaust(seed: int, tracer) -> dict:
    params = [mr.MatchParams(s) for s in STAR_POINTS]
    progress = tracer.progress if tracer else None
    result, reports = _timed(tracer, lambda p: mr.verify_star_exhaustive(p, progress=progress), params)
    result["ok"] = [
        r.verified and r.clique_spoke_color_ok and r.star_value == star_formula(p.sizes)
        for p, r in zip(params, reports)
    ]
    result["counts"] = {
        "star.colorings_checked": sum(r.colorings_checked for r in reports),
        "star.placements_checked": sum(r.placements_checked for r in reports),
    }
    return result


def ge_corpus(seed: int, tracer) -> dict:
    graphs = [mr.graph_from_edges(n, edges) for n, edges in corpus_edges(seed)]
    result, reports = _timed(tracer, lambda g: mr.verify_decomposition(g, mr.decompose(g)), graphs)
    result["ok"] = [r.all_ok for r in reports]
    # Compared with brute_force_matching_number in run.py, computed once per run.
    result["matching_numbers"] = [[r.matching_number, r.formula_value] for r in reports]
    return result


WORKLOADS = {"free-search": free_search, "star-exhaust": star_exhaust, "ge-corpus": ge_corpus}


def main() -> None:
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = WORKLOADS[name](seed, tracer)
    if tracer:
        result["spans"] = tracer.export()
        result["counts"]["search.classes"] = tracer.classes
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
