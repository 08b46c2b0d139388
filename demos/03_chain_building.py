#!/usr/bin/env python3
"""From an exact minimal series to its chain of orbit closures and back.

A generated exact minimal series of degree 3 and rank 1 over a subdivided
ladder is assembled into a chain: one component per index, glued at the
shared orbit limits. The validator then re-derives every structural claim
(gluing, degree budget, node transversality, weight intervals, membership).
A chain is its series, so its base points, read back as ``chain.series``,
are the series we started from.
"""

from nodalseries import (
    build_chain,
    emit_dot,
    random_exact_lls,
    torus_equivalent,
    validate_chain,
)
from nodalseries.linalg import format_rational

g = random_exact_lls(d=3, r=1, delta=(1, 3, 1), seed=4)
print(f"series: degree {g.model.d}, rank {g.rank}, ladder steps {g.delta.steps}")
print("indices:", [format_rational(i) for i in g.delta.indices])
print()

chain = build_chain(g)
# a component is an index of the series; it is fixed when its orbit degree is 0
degrees = [profile.degree for profile in chain.series.profiles]
print("components:")
for (i, _), degree in zip(chain.series.items(), degrees):
    kind = "fixed" if degree == 0 else "orbit"
    print(f"  i = {format_rational(i):>4}  {kind:>5}  degree {degree}")
print("glued nodes:", len(chain.nodes))
print("degree budget:", sum(degrees), "= rank + 1")
print()

report = validate_chain(chain)
print(report.summary())
print()

print("base points recover the series exactly:", chain.series == g)
print("and hence up to torus scaling:", torus_equivalent(chain.series, g))
print()

print("DOT rendering:")
print(emit_dot(chain))
