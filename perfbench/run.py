"""Benchmark of matching_ramsey: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from anywhere; the library is loaded from ``src`` next to this directory.
Each pass of a workload runs in a fresh interpreter (workload.py), serially,
so every pass pays import, input generation and the lazy permutation tables
the way one CLI invocation does.  Passes repeat until ``--seconds`` have
passed (at least MIN_PASSES); each metric is the median over passes.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: from spawning the pass's interpreter to its first timed call
  (interpreter start, ``import matching_ramsey``, input generation);
* ``wall_s``: time to settle all of the workload's items;
* ``peak_rss_mb``: ``ru_maxrss`` of the pass's process after its timed region;
* ``item_p50_ms``, ``item_p99_ms``: nearest-rank percentiles of per-item
  latency within a pass.  An item is one graph on ``ge-corpus`` and one
  parameter point on the other workloads, where the p99 is the slowest point.

With ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones from the traced passes (see tracing.py), plus
``trace.overhead_s``, the median traced minus the median untraced wall time.

Every output is checked; items whose check fails, or whose pass crashed or
ran out of its memory cap, count as failed.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("free-search", "star-exhaust", "ge-corpus")
MIN_PASSES = 3
# Address-space cap of each pass (1.5 GiB).  free-search peaks near 0.7 GB of
# address space with the order-9 permutation table; an order-10 table would
# need about 7 GB and fails at its first large allocation.
MEMORY_CAP = 3 << 29
CPU_SWITCH_S = 0.1
RUN_DEADLINE = 170.0  # seconds into a workload's run after which no pass starts or waits

# Spans reported with .calls and .self_s.
CALL_SPANS = (
    "canon.is_canonical",
    "matching.has_k_matching_on_masks",
    "matching.matching_number",
    "matching.is_factor_critical",
    "matching.has_matching_of_size",
    "gallai_edmonds.decompose",
    "gallai_edmonds.verify_decomposition",
    "graph.induced_subgraph",
    "graph.Graph",
    "coloring.EdgeColoring",
    "coloring.color_class",
    "coloring.is_free",
    "coloring.find_structure",
)
# Share of calls returning True.
RATIOS = {
    "canon.is_canonical.accept_ratio": "canon.is_canonical",
    "matching.has_k_matching_on_masks.true_ratio": "matching.has_k_matching_on_masks",
    "coloring.is_free.free_ratio": "coloring.is_free",
}
# Layers whose public entry points are timed as a whole, reported by self time.
LAYER_SPANS = {
    "search": ("search.verify_ramsey_exhaustive", "search.enumerate_critical"),
    "star": ("star.verify_star_exhaustive",),
}
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "item_p50_ms", "item_p99_ms")
COUNTS = ("search.classes", "star.colorings_checked", "star.placements_checked")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_pass(name: str, seed: int, trace: bool, timeout: float) -> dict | None:
    """One pass in a fresh, memory-capped interpreter; None if it failed to finish.

    The host slows each CPU independently, for tens of seconds at a time.  The
    pass is moved to the next CPU every CPU_SWITCH_S, so it sees every CPU's
    contention for an equal share of its run instead of one CPU's slow spell.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONOPTIMIZE", None)  # the library's own asserts stay active
    cmd = [sys.executable, str(HERE / "workload.py"), name, str(seed), str(int(trace))]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        preexec_fn=_cap_memory,
    )
    cpus = sorted(os.sched_getaffinity(0))
    switches = 0
    while True:
        try:
            out, err = proc.communicate(timeout=CPU_SWITCH_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() - spawned > timeout:
                proc.kill()
                proc.communicate()
                print(f"{name}: pass killed after {timeout:.0f} s", file=sys.stderr)
                return None
        switches += 1
        try:
            os.sched_setaffinity(proc.pid, {cpus[switches % len(cpus)]})
        except ProcessLookupError:  # exited since the last wait
            pass
    if proc.returncode != 0:
        print(f"{name}: pass exited with {proc.returncode}", file=sys.stderr)
        sys.stderr.write(err.decode(errors="replace")[-4000:])
        return None
    result = json.loads(out)
    result["setup_s"] = result["first_call"] - spawned
    return result


def failed_items(result: dict, references: list[int] | None) -> int:
    ok = result["ok"]
    if references is not None:
        ok = [
            k and nu == ref and formula == ref
            for k, (nu, formula), ref in zip(ok, result["matching_numbers"], references)
        ]
    return ok.count(False)


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(xs)[max(0, math.ceil(q * len(xs)) - 1)]


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str, int]]:
    """name -> (median over passes, unit, sample count)."""

    def med(values, unit, samples=len(passes)):
        return statistics.median(values), unit, samples

    items = sum(len(p["seconds"]) for p in passes)
    return {
        "setup_s": med([p["setup_s"] for p in passes], "s"),
        "wall_s": med([p["wall_s"] for p in passes], "s"),
        "peak_rss_mb": med([p["peak_rss_mb"] for p in passes], "MB"),
        "item_p50_ms": med([1e3 * percentile(p["seconds"], 0.50) for p in passes], "ms", items),
        "item_p99_ms": med([1e3 * percentile(p["seconds"], 0.99) for p in passes], "ms", items),
    }


def _by_span(p: dict) -> dict[str, list]:
    """span -> [calls, total_s, self_s, true_returns], summed over parents."""
    out: dict[str, list] = {}
    for span, _parent, *rec in p["spans"]:
        acc = out.setdefault(span, [0, 0.0, 0.0, 0])
        for i, v in enumerate(rec):
            acc[i] += v
    return out


def deterministic_counts(p: dict) -> dict:
    """Everything in a traced pass that must repeat exactly: call and True counts
    per (span, parent), and the workload counters."""
    return {
        "spans": {f"{span}<-{parent}": [calls, trues] for span, parent, calls, _t, _s, trues in p["spans"]},
        "counts": p["counts"],
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, tuple[float, str, int]]:
    n = len(traced)
    spans = [_by_span(p) for p in traced]
    first = spans[0]
    absent = (0, 0.0, 0.0, 0)  # a span the workload never entered

    def self_s(names):
        return statistics.median(sum(s.get(x, absent)[2] for x in names) for s in spans)

    out: dict[str, tuple[float, str, int]] = {}
    for span in CALL_SPANS:
        out[f"{span}.calls"] = (first.get(span, absent)[0], "count", n)
        out[f"{span}.self_s"] = (self_s([span]), "s", n)
    for name, span in RATIOS.items():
        calls, _total, _self, trues = first.get(span, absent)
        out[name] = (trues / calls if calls else 0.0, "ratio", n)
    out["canon.perm_edge_table.s"] = (
        statistics.median(s.get("canon.perm_edge_table", absent)[1] for s in spans), "s", n)
    for layer, names in LAYER_SPANS.items():
        out[f"{layer}.self_s"] = (self_s(names), "s", n)
    for name in COUNTS:
        out[name] = (traced[0]["counts"].get(name, 0), "count", n)
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain)
    out["trace.overhead_s"] = (overhead, "s", n + len(plain))
    return out


def span_table(traced: list[dict]) -> list[str]:
    rows: dict[tuple, list] = {}
    for p in traced:
        for span, parent, calls, total, self_, _trues in p["spans"]:
            rows.setdefault((span, parent or "-"), [calls, [], []])
            rows[(span, parent or "-")][1].append(total)
            rows[(span, parent or "-")][2].append(self_)
    lines = [f"  {'span':36} {'parent':36} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
    for (span, parent), (calls, totals, selfs) in sorted(rows.items()):
        lines.append(f"  {span:36} {parent:36} {calls:9d} "
                     f"{statistics.median(totals):9.4f} {statistics.median(selfs):9.4f}")
    return lines


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of one workload; return its metrics, item counts and report lines."""
    import workload as wl

    started = time.monotonic()
    deadline = started + RUN_DEADLINE
    references = None
    if name == "ge-corpus":
        import matching_ramsey as mr

        references = [
            mr.brute_force_matching_number(mr.graph_from_edges(n, edges))
            for n, edges in wl.corpus_edges(seed)
        ]
    items_per_pass = {"free-search": len(wl.FREE_POINTS), "star-exhaust": len(wl.STAR_POINTS),
                      "ge-corpus": wl.CORPUS_SIZE}[name]

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    last_pass = 0.0
    crashed = False
    while not crashed:
        now = time.monotonic()
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        # Stop before a pass that would end after --seconds, so runs keep their length.
        if now >= deadline or (enough and now + last_pass - started > seconds):
            break
        use_trace = trace and len(traced) < len(plain)
        result = run_pass(name, seed, use_trace, deadline - now)
        last_pass = time.monotonic() - now
        attempted += items_per_pass
        if result is None:
            failed += items_per_pass
            crashed = True
            continue
        failed += failed_items(result, references)
        (traced if use_trace else plain).append(result)

    repeat_ok = all(deterministic_counts(p) == deterministic_counts(traced[0]) for p in traced)
    lines = [f"workload {name} seed {seed}: {len(plain)} untraced and {len(traced)} traced "
             f"passes, {attempted} items, {failed} failed"]
    if not repeat_ok:
        lines.append("  deterministic counts differ between traced passes")
    metrics: dict[str, tuple[float, str, int]] = {}
    if plain:
        metrics.update(end_to_end(plain))
    metrics["error_rate"] = (failed / attempted if attempted else 1.0, "ratio", attempted)
    if traced and plain:
        metrics.update(per_layer(traced, plain))
    for name, (value, unit, samples) in metrics.items():
        lines.append(f"  {name:46} {value:14.6f} {unit:6} n={samples}")
    if traced:
        lines += span_table(traced)
    return {
        "correct": failed == 0 and repeat_ok and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }


def environment() -> str:
    import numpy

    src_lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return (f"env python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} src_lines={src_lines}")


def main() -> int:
    args = parse_args()
    if not (SRC / "matching_ramsey" / "__init__.py").is_file():
        print(f"no matching_ramsey package under {SRC}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("run without -O: the library's assert checks must stay active", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(environment())
    runs = {}
    for name in workloads:
        runs[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(runs[name]["lines"]), flush=True)

    metrics = {}
    for name, r in runs.items():
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit, _n) in r["metrics"].items():
            if metric != "error_rate" and (metric in END_TO_END) != bool(args.trace):
                metrics[prefix + metric] = {"value": value, "unit": unit}
    wanted = "trace.overhead_s" if args.trace else "wall_s"
    if not all(wanted in r["metrics"] for r in runs.values()):
        print("no pass finished; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
