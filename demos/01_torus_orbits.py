#!/usr/bin/env python3
"""Orbits of the block-scaling torus action on a split Grassmannian.

A one-parameter torus acts on Q^4 = W1 + W2 (two coordinate planes) by
scaling W1 with 1/x. Moving a subspace along the action traces a rational
curve in the Grassmannian whose two boundary limits, degree and Pluecker
weight profile are all readable from four block invariants. This script
walks through a two-dimensional example and cross-checks everything against
the brute-force minor-scaling oracle.
"""

from fractions import Fraction as F

from nodalseries import (
    Direction,
    Subspace,
    TorusSplit,
    act,
    block_profile,
    degree_via_pluecker,
    is_fixed,
    limit,
    limit_via_pluecker,
    orbit_degree,
    pluecker,
    weight_profile_via_pluecker,
)

split = TorusSplit(2, 2)
v = Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 1, 0, 1)])

print("ambient: Q^4 with blocks W1 = <e1, e2>, W2 = <f1, f2>")
print("v = span(e1 + f1, e2 + f2)")
print("fixed point?", is_fixed(split, v))
print()

print("a few points of the orbit x * v = (1/x on W1) v:")
for x in (F(1), F(2), F(-1, 3)):
    print(f"  x = {x}:", [tuple(map(str, row)) for row in act(split, x, v).rows])
print()

profile = block_profile(split, v)
print("block invariants:")
print("  v meet W1      dim", profile.inside_first.dim)
print("  v meet W2      dim", profile.inside_second.dim)
print("  v onto W1      dim", profile.onto_first.dim)
print("  v onto W2      dim", profile.onto_second.dim)
print()

zero = limit(split, v, Direction.ZERO)
infty = limit(split, v, Direction.INFINITY)
print("limit x -> 0:     ", [tuple(map(str, row)) for row in zero.rows])
print("limit x -> infty: ", [tuple(map(str, row)) for row in infty.rows])
print("both are fixed points:", is_fixed(split, zero), is_fixed(split, infty))
print()

print("orbit closure degree:", orbit_degree(split, v))
print("weight profile of nonzero minors:", sorted(weight_profile_via_pluecker(split, v)))
print("nonzero Pluecker coordinates:")
for cols, value in pluecker(v).items():
    if value != 0:
        print(f"  p_{cols} = {value}")
print()

print("independent oracle (scaling the minor table):")
print("  limit at zero agrees: ", limit_via_pluecker(split, v, Direction.ZERO) == zero)
print("  limit at infty agrees:", limit_via_pluecker(split, v, Direction.INFINITY) == infty)
print("  degree agrees:        ", degree_via_pluecker(split, v) == orbit_degree(split, v))
