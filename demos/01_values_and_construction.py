#!/usr/bin/env python3
"""Ramsey values for matchings and the extremal coloring that attains them.

The Ramsey number of the matchings n_1 K_2 >= ... >= n_c K_2 is

    r = n_1 + 1 + sum_i (n_i - 1),

and the classical lower-bound witness is the Cockayne-Lorimer coloring of
the complete graph one vertex below r: split the vertices into a block V_1
of size 2 n_1 - 1 and blocks V_i of size n_i - 1, and color each edge by the
largest block index it touches.  Every color class i is then covered by V_i,
so it has no matching of size n_i.
"""

from matching_ramsey import (
    MatchParams,
    construct_critical,
    critical_parts,
    is_free,
    matching_profile,
    ramsey_value,
    star_critical_value,
)

TABLE = [(2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2), (4,), (5, 1)]

print("parameters          r    r*")
for sizes in TABLE:
    p = MatchParams(sizes)
    print(f"{str(sizes):18}  {ramsey_value(p):2}    {star_critical_value(p):2}")

print()
p = MatchParams((3, 2, 2))
ec = construct_critical(p)
print(f"Cockayne-Lorimer coloring for {p.sizes}: K_{ec.n} with parts")
for i, part in enumerate(critical_parts(p), start=1):
    print(f"  V_{i} = {sorted(part)}")
print(f"free: {is_free(ec, p)}")
print(f"matching number per color class: {matching_profile(ec)}")
print(f"freeness budget per class:       {tuple(s - 1 for s in p.sizes)}")
