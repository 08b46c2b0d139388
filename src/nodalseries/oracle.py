"""Independent brute-force verification of orbit limits, degrees and chains.

This module deliberately avoids the block-profile machinery: limits and
degrees are recomputed from scratch by enumerating minors (with a cofactor
determinant of its own) and scaling them by their block weights, then
reconstructing the limiting subspace from the surviving Pluecker vector by
solving incidence conditions. The first-order tangent certificate at each
node of a chain is read from the same minor tables. Agreement with the
structural formulas is exact, with zero tolerance; :func:`compare_chain`
checks it on a chain.

:func:`minor_table` computes the table of a ``Subspace`` once and keeps it
on the value, behind a read-only view, so both limits and the degree of
one value share one enumeration. The structural path never reads it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

from .chain import ComponentKind, ContinuousChain
from .curve import section_space
from .linalg import ONE, ZERO, Matrix, Subspace, format_rational
from .torus import Direction, TorusSplit, act, block_profile


def _laplace_minors(
    rows: Sequence[Sequence[Fraction]], ncols: int
) -> dict[tuple[int, ...], Fraction]:
    """Every len(rows)-sized minor, keyed by column index set in lex order.

    Each row is first cleared of denominators: it is scaled by the lcm of its
    entries' denominators, and each minor of the scaled rows is the true
    minor times the product of those scales. One row-by-row cofactor
    expansion on Python ints is shared by all the minors: the minors of the
    last j rows on every j-column set are built from those of the last j - 1
    rows by expanding along row -j, so each sub-minor is computed once. No
    elimination, and one division per nonzero minor at the end.
    """
    k = len(rows)
    if k == 0:
        return {(): ONE}
    scale = 1
    cleared = []
    for row in rows:
        lcm = math.lcm(*(e.denominator for e in row))
        scale *= lcm
        cleared.append([e.numerator * (lcm // e.denominator) for e in row])
    minors = {(c,): e for c, e in enumerate(cleared[-1])}
    for j in range(2, k + 1):
        row = cleared[k - j]
        expanded = {}
        for cols in combinations(range(ncols), j):
            total = 0
            for p, c in enumerate(cols):
                e = row[c]
                if e:
                    sub = minors[cols[:p] + cols[p + 1 :]]
                    if sub:
                        if p & 1:
                            total -= e * sub
                        else:
                            total += e * sub
            expanded[cols] = total
        minors = expanded
    return {
        cols: Fraction(value, scale) if value else ZERO
        for cols, value in minors.items()
    }


def _cofactor_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    return _laplace_minors(rows, n)[tuple(range(n))]


def minor_table(v: Subspace) -> Mapping[tuple[int, ...], Fraction]:
    """Every dim(v)-sized minor of the basis, keyed by column index set.

    The table is computed once per value and kept in v's instance
    dictionary under ``_minor_table``; callers get a read-only view of it.
    """
    table = vars(v).get("_minor_table")
    if table is None:
        table = MappingProxyType(_laplace_minors(v.basis_rows(), v.ambient_dim))
        vars(v)["_minor_table"] = table
    return table


def subspace_from_minors(
    ambient_dim: int, dim: int, minors: Mapping[tuple[int, ...], Fraction]
) -> Subspace:
    """Reconstruct a subspace from its Pluecker coordinates.

    For each column j outside a chosen base set I0 with nonzero minor, the
    incidence condition on the column set I0 + {j} expresses the j-th
    coordinate of any member vector through its coordinates on I0. Solving
    those conditions for the coordinate vectors on I0 yields a basis.

    I0 is the lexicographically first column set with a nonzero minor, and
    the solved rows are already the canonical basis, so no elimination
    follows. Row k is 1 at I0[k] and 0 on the rest of I0. An entry at j
    before I0[k] comes from the minor on I0 with I0[k] swapped for j, a
    lexicographically earlier set, so it is 0. For a subspace, I0 is the
    pivot set of its canonical basis: a set that agrees with the pivots
    p_1 < ... < p_k up to position m - 1 and then takes a column before p_m
    picks m columns supported on the first m - 1 rows, and its minor is 0.
    """
    if dim == 0:
        return Subspace.zero(ambient_dim)
    base = None
    for cols in combinations(range(ambient_dim), dim):
        if minors.get(cols, ZERO) != 0:
            base = cols
            break
    if base is None:
        raise ValueError("all minors vanish; not a Pluecker vector")
    base_value = Fraction(minors[base])
    entries = []
    for k in range(dim):
        vec = [ZERO] * ambient_dim
        vec[base[k]] = ONE
        for j in range(ambient_dim):
            if j in base:
                continue
            joined = tuple(sorted(base + (j,)))
            dropped_k = tuple(c for c in joined if c != base[k])
            minor = minors.get(dropped_k, ZERO)
            if minor:
                # 0 = sign_k * minors[dropped_k] + sign_j * w_j * minors[base],
                # with sign_k sign_j = (-1) ** (position of base[k] + position of j)
                value = minor / base_value
                odd = (joined.index(base[k]) + joined.index(j)) & 1
                vec[j] = value if odd else -value
        entries.extend(vec)
    return Subspace(ambient_dim, Matrix(dim, ambient_dim, tuple(entries)))


def _limit_from_table(
    split: TorusSplit,
    v: Subspace,
    table: Mapping[tuple[int, ...], Fraction],
    direction: Direction,
) -> Subspace:
    weights = {
        cols: sum(1 for c in cols if c < split.dim1) for cols in table
    }
    support = [cols for cols, value in table.items() if value != 0]
    if direction is Direction.ZERO:
        kept = max(weights[cols] for cols in support)
    else:
        kept = min(weights[cols] for cols in support)
    survivors = {
        cols: (value if weights[cols] == kept else ZERO)
        for cols, value in table.items()
    }
    return subspace_from_minors(v.ambient_dim, v.dim, survivors)


def _weight_profile(
    split: TorusSplit, table: Mapping[tuple[int, ...], Fraction]
) -> set[tuple[int, int]]:
    weights = set()
    for cols, value in table.items():
        if value != 0:
            first = sum(1 for c in cols if c < split.dim1)
            weights.add((first, len(cols) - first))
    return weights


def _degree(split: TorusSplit, table: Mapping[tuple[int, ...], Fraction]) -> int:
    levels = [first for first, _ in _weight_profile(split, table)]
    return max(levels) - min(levels)


def limit_via_pluecker(split: TorusSplit, v: Subspace, direction: Direction) -> Subspace:
    """Orbit limit recomputed by Pluecker scaling.

    Scaling by the torus multiplies the minor at I by the inverse first-block
    weight power, so toward zero only the minors of maximal first-block
    weight survive, and toward infinity only those of minimal weight. The
    survivors form the Pluecker vector of the limiting subspace.
    """
    return _limit_from_table(split, v, minor_table(v), direction)


def weight_profile_via_pluecker(split: TorusSplit, v: Subspace) -> set[tuple[int, int]]:
    """Block weights (n1, n2) of the nonzero minors of v.

    The first coordinates always form a gap-free integer interval
    [dim(v meet W1), dim(projection of v to W1)].
    """
    return _weight_profile(split, minor_table(v))


def degree_via_pluecker(split: TorusSplit, v: Subspace) -> int:
    """Orbit degree recomputed as the spread of first-block minor weights."""
    return _degree(split, minor_table(v))


def _tangent_certificate(
    split: TorusSplit,
    ending: Mapping[tuple[int, ...], Fraction],
    starting: Mapping[tuple[int, ...], Fraction],
) -> bool:
    """The first-order transversality certificate, read from two minor tables.

    The orbit of ``ending`` ends (toward infinity) where the orbit of
    ``starting`` begins (toward zero), as consecutive chain components do.
    At the node the surviving minors sit at the lowest first-block weight of
    the ending orbit and the highest of the starting one; the first-order
    terms sit one level inward. Both must be nonzero, and the two end levels
    must agree.
    """
    ending_levels = {first for first, _ in _weight_profile(split, ending)}
    starting_levels = {first for first, _ in _weight_profile(split, starting)}
    end_level = min(ending_levels)
    start_level = max(starting_levels)
    return (
        end_level + 1 in ending_levels
        and start_level - 1 in starting_levels
        and end_level == start_level
    )


def compare_chain(chain: ContinuousChain) -> tuple[str, ...]:
    """Structural limits, degrees and node certificates against the oracle's.

    Builds one minor table and one block profile per component and returns
    one line per disagreement; empty when everything agrees. At each node
    between two orbit components, the tangent certificate recomputed from the
    minor tables must hold and must agree with the structural certificate
    of :func:`torus.meeting_is_transverse`.
    """
    split = chain.model.split
    mismatch = []
    tables = []
    profiles = [block_profile(split, comp.base_space) for comp in chain.components]
    for comp, profile in zip(chain.components, profiles):
        v = comp.base_space
        table = minor_table(v)
        tables.append(table)
        for direction in (Direction.ZERO, Direction.INFINITY):
            if profile.limit(direction) != _limit_from_table(split, v, table, direction):
                mismatch.append(
                    f"limit mismatch at {format_rational(comp.index)} ({direction.value})"
                )
        if profile.degree != _degree(split, table):
            mismatch.append(f"degree mismatch at {format_rational(comp.index)}")
    steps = zip(
        chain.components, chain.components[1:], tables, tables[1:], profiles, profiles[1:]
    )
    for left, right, left_table, right_table, left_profile, right_profile in steps:
        if left.kind is not ComponentKind.ORBIT or right.kind is not ComponentKind.ORBIT:
            continue
        pair = f"({format_rational(left.index)}, {format_rational(right.index)})"
        certified = _tangent_certificate(split, left_table, right_table)
        try:
            structural = left_profile.meets_transversally(right_profile)
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
    distinct x must give distinct points. Fixed components must not move at
    all. Takes 1 to MAX_SAMPLES samples per component.
    """
    if not 1 <= samples_per_component <= MAX_SAMPLES:
        raise ValueError(
            f"samples per component must lie in 1..{MAX_SAMPLES},"
            f" got {samples_per_component}"
        )
    split = chain.model.split
    rng = random.Random(seed)
    failures: list[str] = []
    for comp in chain.components:
        stream = random.Random(rng.getrandbits(64))
        xs = _random_torus_elements(stream, samples_per_component)
        fiber = section_space(chain.model, comp.index).subspace
        seen: set[Subspace] = set()
        for x in xs:
            moved = act(split, x, comp.base_space)
            if not act(split, x, fiber).contains(moved):
                failures.append(
                    f"component {comp.index}: sample x={x} leaves the twisted"
                    " section space"
                )
            seen.add(moved)
        if comp.kind is ComponentKind.ORBIT and len(seen) != len(xs):
            failures.append(
                f"component {comp.index}: {len(xs)} samples gave only"
                f" {len(seen)} distinct points on a moving orbit"
            )
        if comp.kind is ComponentKind.FIXED and seen != {comp.base_space}:
            failures.append(
                f"component {comp.index}: a fixed component moved under sampling"
            )
    return OrbitSampleReport(not failures, samples_per_component, tuple(failures))
