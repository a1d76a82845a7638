#!/usr/bin/env python3
"""Forcing monochromatic matchings through partition contraction.

If the vertex set of an edge-colored graph splits into k parts with at least
one edge between every pair, contracting each part (keeping one
representative edge per pair) yields a colored complete graph on k vertices.
Once k reaches the Ramsey value, the quotient contains a monochromatic
n_i K_2, and lifting its edges back through the representatives produces a
monochromatic n_i K_2 in the original graph: the parts are disjoint, so
disjointness survives the lift.
"""

import random

from matching_ramsey import (
    MatchParams,
    coloring_from_map,
    contract_partition,
    find_monochromatic_matching,
    graph_from_edges,
    is_valid_matching,
    lift_matching,
    ramsey_value,
)

# tiny worked example: a 2-colored 6-cycle contracted along antipodal pairs
cycle = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
colors = {e: 1 + i % 2 for i, e in enumerate(sorted(cycle.edges()))}
ec = coloring_from_map(cycle.n, 2, colors)
contracted, reps = contract_partition(ec, [{0, 3}, {1, 4}, {2, 5}])
print("6-cycle contracted along antipodal pairs -> colored K_3")
for (i, j), (u, v) in sorted(reps.items()):
    print(f"  quotient edge {i}-{j} represents host edge {u}-{v} (color {ec.color_of(u, v)})")

print()
rng = random.Random(20240607)
p = MatchParams((2, 2, 2))
k = ramsey_value(p)
sizes = [rng.randint(1, 3) for _ in range(k)]
parts, start = [], 0
for width in sizes:
    parts.append(frozenset(range(start, start + width)))
    start += width
n = start
edges = set()
for i in range(k):
    for j in range(i + 1, k):
        edges.add(tuple(sorted((rng.choice(sorted(parts[i])), rng.choice(sorted(parts[j]))))))
for u in range(n):
    for v in range(u + 1, n):
        if rng.random() < 0.25:
            edges.add((u, v))
host = graph_from_edges(n, edges)
ec = coloring_from_map(host.n, p.c, {e: rng.randint(1, p.c) for e in host.edges()})
print(f"random host on {n} vertices, {host.edge_count} edges, partitioned into {k} parts "
      f"(k = r{p.sizes} = {k})")

contracted, reps = contract_partition(ec, parts)
color, small = find_monochromatic_matching(contracted, p)
lifted = lift_matching(small, reps)
print(f"quotient contains a monochromatic {p.sizes[color - 1]}K_2 in color {color}: {small.edges}")
print(f"lifted host matching: {lifted.edges}")
print(f"valid in host: {is_valid_matching(host, lifted)}, "
      f"monochromatic: {all(ec.color_of(u, v) == color for u, v in lifted.edges)}")
