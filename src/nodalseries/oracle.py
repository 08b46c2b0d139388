"""Independent brute-force verification of orbit limits, degrees and chains.

This module deliberately avoids the block-profile machinery: limits and
degrees are recomputed from scratch from the nonzero minors (found by a
cofactor expansion of its own) and their block weights, then the limiting
subspace is reconstructed from the surviving Pluecker vector by solving
incidence conditions. The first-order tangent certificate at each node of a
chain is read from the same weights. Agreement with the structural formulas
(the public ``torus.limit``, ``torus.orbit_degree`` and
``torus.orbit_intersection``) is exact, with zero tolerance;
:func:`compare_chain` checks it on a chain. Both chain checks walk the
chain's series, ``chain.series.items()``, and read whether a component is
fixed with ``torus.is_fixed``, off its space's block profile, so that
:func:`sample_orbit_check` tabulates no minors.

The nonzero minors of a ``Subspace`` are tabulated once, as integers over
one scale, and kept on the value. Every question about one value reads them
through one grouping by first-block weight: the limits are the top and
bottom levels, the degree is their distance, and the weight profile is the
set of levels. A ``Fraction`` is made only for an entry of a rebuilt
subspace. :func:`minor_table` builds the full table from them when asked;
the oracle's own path never does.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import lt
from types import MappingProxyType
from typing import Collection, Mapping, Sequence

from .chain import ContinuousChain
from .curve import section_space
from .linalg import ONE, ZERO, Subspace, format_rational
from .torus import Direction, TorusSplit, act, is_fixed, limit, orbit_degree, orbit_intersection

Minors = Mapping[tuple[int, ...], Fraction | int]


def _nonzero_minors(rows: Sequence[Sequence[Fraction]]) -> tuple[dict[tuple[int, ...], int], int]:
    """The nonzero len(rows)-sized minors, keyed by column index set, and a scale.

    Each row is first cleared of denominators: it is scaled by the lcm of its
    entries' denominators, so each minor kept is the true minor times the
    product of those scales, the returned scale. One row-by-row cofactor
    expansion on Python ints is shared by all the minors: those of the last
    j rows are built from the nonzero ones of the last j - 1 rows by
    expanding along row -j on its nonzero entries only. The entry in column
    c joins the sub-minor on cols at p = bisect_left(cols, c), with sign
    (-1) ** p, and a sum that cancels to 0 is dropped. No elimination.
    """
    k = len(rows)
    if k == 0:
        return {(): 1}, 1
    scale = 1
    cleared = []
    for row in rows:
        lcm = math.lcm(*(e.denominator for e in row))
        scale *= lcm
        cleared.append([(c, e.numerator * (lcm // e.denominator)) for c, e in enumerate(row) if e])
    minors = {(c,): e for c, e in cleared[-1]}
    for row in reversed(cleared[:-1]):
        expanded: dict[tuple[int, ...], int] = {}
        for cols, sub in minors.items():
            for c, e in row:
                p = bisect_left(cols, c)
                if p == len(cols) or cols[p] != c:
                    joined = cols[:p] + (c,) + cols[p:]
                    expanded[joined] = expanded.get(joined, 0) + (-e * sub if p & 1 else e * sub)
        minors = {cols: value for cols, value in expanded.items() if value}
    return minors, scale


def _kept_minors(v: Subspace) -> tuple[dict[tuple[int, ...], int], int]:
    """v's nonzero minors and scale, computed once and kept under ``_minor_table``."""
    kept = vars(v).get("_minor_table")
    if kept is None:
        kept = vars(v)["_minor_table"] = _nonzero_minors(v.rows)
    return kept


def minor_table(v: Subspace) -> Mapping[tuple[int, ...], Fraction]:
    """Every dim(v)-sized minor of the basis, keyed by column index set in lex order.

    A read-only view, built on each call from the nonzero minors kept on v;
    the others read as 0.
    """
    minors, scale = _kept_minors(v)
    return MappingProxyType(
        {
            cols: Fraction(minors[cols], scale) if cols in minors else ZERO
            for cols in combinations(range(v.ambient_dim), v.dim)
        }
    )


def subspace_from_minors(ambient_dim: int, dim: int, minors: Minors) -> Subspace:
    """Reconstruct a subspace from its Pluecker coordinates.

    The minors may be ``int`` or ``Fraction`` values, and the vanishing ones
    may be left out. A key that is not an increasing dim-sized column set in
    range(ambient_dim) raises ValueError naming it.

    For each column j outside a chosen base set I0, the incidence condition
    on the column set I0 + {j} expresses the j-th coordinate of any member
    vector through its coordinates on I0. Solving those conditions for the
    coordinate vectors on I0 yields a basis; each entry is
    Fraction(+-minor, minors[I0]), exact for both kinds of value.

    I0 is the lexicographically least column set with a nonzero minor, and
    the solved rows are already the canonical basis, so no elimination
    follows. Row k is 1 at I0[k] and 0 on the rest of I0. An entry at j
    before I0[k] comes from the minor on I0 with I0[k] swapped for j, a
    lexicographically earlier set, so it is 0. For a subspace, I0 is the
    pivot set of its canonical basis: a set that agrees with the pivots
    p_1 < ... < p_k up to position m - 1 and then takes a column before p_m
    picks m columns supported on the first m - 1 rows, and its minor is 0.
    """
    for cols in minors:
        if len(cols) != dim or not all(map(lt, (-1, *cols), (*cols, ambient_dim))):
            raise ValueError(
                f"minor key {cols!r} is not an increasing {dim}-subset of range({ambient_dim})"
            )
    base = min((cols for cols, value in minors.items() if value), default=None)
    if base is None:
        if dim == 0:
            return Subspace.zero(ambient_dim)
        raise ValueError("all minors vanish; not a Pluecker vector")
    rows = []
    for k, pivot in enumerate(base):
        vec = [ZERO] * ambient_dim
        vec[pivot] = ONE
        for j in range(pivot + 1, ambient_dim):
            if j in base:
                continue
            p = bisect_left(base, j)
            minor = minors.get(base[:k] + base[k + 1 : p] + (j,) + base[p:])
            if minor:
                # 0 = sign_k * minor + sign_j * w_j * minors[I0], where I0[k]
                # and j sit at k and p in I0 + {j}, so sign_k sign_j = (-1) ** (k + p)
                vec[j] = Fraction(minor if (k + p) & 1 else -minor, minors[base])
        rows.append(tuple(vec))
    return Subspace(ambient_dim, tuple(rows))


def _levels(split: TorusSplit, v: Subspace) -> dict[int, dict[tuple[int, ...], int]]:
    """v's kept nonzero minors, grouped by first-block weight in one pass.

    The weight of the minor on ``cols`` is its number of first-block
    columns, ``bisect_left(cols, split.dim1)``.
    """
    levels: dict[int, dict[tuple[int, ...], int]] = {}
    for cols, value in _kept_minors(v)[0].items():
        levels.setdefault(bisect_left(cols, split.dim1), {})[cols] = value
    return levels


def limit_via_pluecker(split: TorusSplit, v: Subspace, direction: Direction) -> Subspace:
    """Orbit limit recomputed by Pluecker scaling.

    Scaling by the torus multiplies the minor at I by the inverse first-block
    weight power, so toward zero only the minors of maximal first-block
    weight survive, and toward infinity only those of minimal weight. The
    survivors form the Pluecker vector of the limiting subspace. A direction
    that is not a :class:`Direction` raises ValueError, as in ``torus.limit``.
    """
    if not isinstance(direction, Direction):
        raise ValueError(f"unknown direction {direction!r}")
    levels = _levels(split, v)
    kept = max(levels) if direction is Direction.ZERO else min(levels)
    return subspace_from_minors(v.ambient_dim, v.dim, levels[kept])


def weight_profile_via_pluecker(split: TorusSplit, v: Subspace) -> set[tuple[int, int]]:
    """Block weights (n1, n2) of the nonzero minors of v.

    The first coordinates always form a gap-free integer interval
    [dim(v meet W1), dim(projection of v to W1)].
    """
    return {(first, v.dim - first) for first in _levels(split, v)}


def degree_via_pluecker(split: TorusSplit, v: Subspace) -> int:
    """Orbit degree recomputed as the spread of first-block minor weights."""
    levels = _levels(split, v)
    return max(levels) - min(levels)


def _tangent_certificate(ending: Collection[int], starting: Collection[int]) -> bool:
    """The first-order transversality certificate, read from two weight sets.

    Each set holds the first-block weights of one orbit's nonzero minors. The
    orbit of ``ending`` ends (toward infinity) where the orbit of
    ``starting`` begins (toward zero), as consecutive chain components do.
    At the node the surviving minors sit at the lowest weight of the ending
    orbit and the highest of the starting one; the first-order terms sit one
    level inward. Both must be nonzero, and the two end levels must agree.
    """
    end_level = min(ending)
    start_level = max(starting)
    return end_level + 1 in ending and start_level - 1 in starting and end_level == start_level


def compare_chain(chain: ContinuousChain) -> tuple[str, ...]:
    """Structural limits, degrees and node meetings against the oracle's.

    Groups each component's nonzero minors by first-block weight once and
    returns one line per disagreement; empty when everything agrees. The
    structural side is the public :func:`torus.limit`,
    :func:`torus.orbit_degree` and :func:`torus.orbit_intersection`. At each
    node between two orbit components, those whose spaces
    :func:`torus.is_fixed` finds moving, the tangent certificate read from the
    two weight sets must hold and must agree with the structural side, which
    is that the two orbit closures meet (a ValueError from
    ``orbit_intersection`` counts as no meeting): a meeting of linked orbits
    is always transverse (see :func:`chain.validate_chain`).
    """
    g = chain.series
    split = g.model.split
    mismatch = []
    items = tuple(g.items())
    levels = [_levels(split, v) for v in g.spaces]
    for (i, v), by_weight in zip(items, levels):
        top, bottom = max(by_weight), min(by_weight)
        for direction, kept in ((Direction.ZERO, top), (Direction.INFINITY, bottom)):
            if limit(split, v, direction) != subspace_from_minors(
                v.ambient_dim, v.dim, by_weight[kept]
            ):
                mismatch.append(f"limit mismatch at {format_rational(i)} ({direction.value})")
        if orbit_degree(split, v) != top - bottom:
            mismatch.append(f"degree mismatch at {format_rational(i)}")
    steps = zip(items, items[1:], levels, levels[1:])
    for (i, left), (j, right), left_levels, right_levels in steps:
        if is_fixed(split, left) or is_fixed(split, right):
            continue
        pair = f"({format_rational(i)}, {format_rational(j)})"
        certified = _tangent_certificate(left_levels.keys(), right_levels.keys())
        try:
            structural = orbit_intersection(split, left, right) is not None
        except ValueError:
            structural = False
        if not certified:
            mismatch.append(f"tangent certificate fails at {pair}")
        if certified != structural:
            mismatch.append(f"transversality mismatch at {pair}")
    return tuple(mismatch)


@dataclass(frozen=True)
class OrbitSampleReport:
    passed: bool
    samples_per_component: int
    failures: tuple[str, ...]


# distinct values of p/q with 1 <= |p| <= 9 and 1 <= q <= 9, the pool that
# _random_torus_elements draws from
MAX_SAMPLES = 110


def _random_torus_elements(rng: random.Random, count: int) -> list[Fraction]:
    out: set[Fraction] = set()
    while len(out) < count:
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        if num != 0:
            out.add(Fraction(num, den))
    return sorted(out)


def sample_orbit_check(
    chain: ContinuousChain, samples_per_component: int, seed: int
) -> OrbitSampleReport:
    """Sample each component's orbit and verify it stays in the right fiber.

    For random torus elements x, the moved base space must lie inside the
    matching twisted section space, which is the component's section space
    (built once per component) moved by the same x. On orbit components
    distinct x must give distinct points. Fixed components, those whose
    spaces :func:`torus.is_fixed` finds fixed, must not move at all:
    fixedness is read off the block profile, so no minor is tabulated. Takes
    1 to MAX_SAMPLES samples per component.
    """
    if not 1 <= samples_per_component <= MAX_SAMPLES:
        raise ValueError(
            f"samples per component must lie in 1..{MAX_SAMPLES},"
            f" got {samples_per_component}"
        )
    model = chain.series.model
    split = model.split
    rng = random.Random(seed)
    failures: list[str] = []
    for i, v in chain.series.items():
        stream = random.Random(rng.getrandbits(64))
        xs = _random_torus_elements(stream, samples_per_component)
        fiber = section_space(model, i)
        seen: set[Subspace] = set()
        for x in xs:
            moved = act(split, x, v)
            if not act(split, x, fiber).contains(moved):
                failures.append(f"component {i}: sample x={x} leaves the twisted section space")
            seen.add(moved)
        fixed = is_fixed(split, v)
        if not fixed and len(seen) != len(xs):
            failures.append(
                f"component {i}: {len(xs)} samples gave only"
                f" {len(seen)} distinct points on a moving orbit"
            )
        if fixed and seen != {v}:
            failures.append(f"component {i}: a fixed component moved under sampling")
    return OrbitSampleReport(not failures, samples_per_component, tuple(failures))
