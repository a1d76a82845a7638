#!/usr/bin/env python3
"""Star-critical Ramsey numbers: how much of the last vertex is needed.

With n the Ramsey value, delete one vertex of K_n and reattach it with only k
edges.  The star-critical value r* is the least k at which every coloring is
again forced to contain a monochromatic target; for matchings it is

    r* = 1 + sum_{i >= 2} (n_i - 1),

strictly less than n - 1.  The lower bound extends the Cockayne-Lorimer
coloring with one spoke per vertex of each small part.  The upper bound is
checked on every critical base, one spoke at a time: a spoke of color i to
v breaks freeness exactly when class i is tight and v lies in its
Gallai-Edmonds set D, and at most r* - 1 base vertices admit any spoke.
"""

from matching_ramsey import MatchParams, construct_star_free, is_free, verify_star_exhaustive
from matching_ramsey.formats import format_ecg

for sizes in [(2, 2), (3, 2), (2, 2, 2)]:
    p = MatchParams(sizes)
    report = verify_star_exhaustive(p)
    verdict = "VERIFIED" if report.verified else "REFUTED"
    print(f"{verdict} r*{sizes} = {report.star_value}  "
          f"(free at {report.star_value - 1} spokes, never free at {report.star_value}; "
          f"{report.colorings_checked} single spokes decided on "
          f"{report.base_class_count} critical base(s))")
    print(f"  clique-spoke color exclusion held: {report.clique_spoke_color_ok}")

print()
p = MatchParams((2, 2))
ec = construct_star_free(p)
print(f"star witness for {p.sizes} (free: {is_free(ec, p)}), ecg format with 0 = non-edge:")
print(format_ecg(ec), end="")
