#!/usr/bin/env python3
"""Exhaustively confirming Ramsey values of matchings at desk scale.

For each parameter point the engine enumerates free colorings level by level
(adding one vertex at a time, keeping one canonical representative per
symmetry class, pruning as soon as any color class completes its target
matching).  Verification means: free classes exist at order r - 1 and none
survive at order r.  The class counts per order show how hard symmetry and
freeness squeeze the space; the naive search space at (3,3) would be
2^28 colorings of K_8.
"""

import sys
import time

from matching_ramsey import MatchParams, verify_ramsey_exhaustive
from matching_ramsey.search import _generate_levels

for sizes in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
    p = MatchParams(sizes)
    started = time.perf_counter()
    report = verify_ramsey_exhaustive(p)
    elapsed = time.perf_counter() - started
    verdict = "VERIFIED" if report.verified else "REFUTED"
    print(f"{verdict} r{sizes} = {report.order_checked}  "
          f"({len(report.critical_classes)} critical class(es), {elapsed:.2f}s)")

print()
print("free class counts by order for (3, 3):")
p = MatchParams((3, 3))
levels = _generate_levels(8, p.sizes, free=True)
for order, classes in enumerate(levels):
    print(f"  K_{order}: {len(classes)}")
if len(levels[8]) != 0:
    sys.exit(1)
