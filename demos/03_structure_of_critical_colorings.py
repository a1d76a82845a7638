#!/usr/bin/env python3
"""Every critical coloring is a relabelled Cockayne-Lorimer block picture.

A critical coloring is a free coloring of the complete graph one vertex below
the Ramsey value.  Enumerating all of them up to vertex and color symmetry
shows that each admits a block-structure witness: after relabelling colors,
a monochromatic clique V_1 on 2 n_1 - 1 vertices in color 1, parts V_i of
size n_i - 1 internally colored i, V_1 to V_i edges colored i, and V_i to
V_j edges colored i or j.

The per-color Gallai-Edmonds ledger shows the counting behind it: class 1
spends its entire edge budget on the clique (a_1 = 0, equality in the edge
bound) while every other class is a union of stars from A.
"""

from matching_ramsey import MatchParams, enumerate_critical, proof_ledger

for sizes in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
    p = MatchParams(sizes)
    report = enumerate_critical(p)
    print(f"{sizes}: {len(report.critical_classes)} critical class(es) of K_{report.order_checked}, "
          f"structure failures: {len(report.structure_failures)}")
    for ec, witness in zip(report.critical_classes, report.witnesses):
        parts = [sorted(part) for part in witness.parts]
        print(f"  relabel {witness.color_relabel}, parts {parts}")
        for entry in proof_ledger(ec, p).per_color:
            print(f"    color {entry.color}: a={entry.a} d={entry.d_values} "
                  f"edges {entry.edge_bound_lhs} <= {entry.edge_bound_rhs}")
