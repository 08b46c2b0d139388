"""Chains of torus-invariant curves built from exact minimal series.

An exact minimal series determines a chain with one component per ladder
index: the component carries the series' subspace there as its base point,
is either a fixed point or a genuine orbit curve in the Grassmannian, and
consecutive components glue at the shared boundary limit of their orbits.
The construction fails precisely where exactness fails, at the pair the
exactness check reports.

A chain is its series: ``ContinuousChain`` has one field, ``series``, and
its model, rank, ladder and spaces are the series' (``c.series.model`` and
so on). Component k is no value of its own but position k of the series:
its index and base space are what ``series.items()`` gives there, and its
orbit degree is ``series.profiles[k].degree``, 0 exactly when it is fixed.
A chain file holds the series' ladder and one index and basis per
component (see ``serialize``). The nodes are read off the base spaces once,
when the value is made: node k, where components k and k + 1 are glued, is
the limit toward infinity of component k's space. So no value can hold a
node or degree that disagrees with its spaces, no file stores one, and
nothing checks one.

Construction and validation read ``series.profiles``, the block profiles
that ``torus.block_profile`` keeps on each space. A profile is a function of
the immutable space it is kept on; a chain built from a series holds the
series' ``Subspace`` objects and finds their profiles already there, while a
chain loaded from a file profiles its base spaces afresh when the chain is
made, once per distinct matrix of the file. A profile costs one
elimination for a moving space and none for a fixed one, so plain ``verify``
of a series makes one elimination per moving space in all, and ``emit_dot``
makes none: every node is a fixed point. Limits come from ``torus.limit`` on
the space held, which returns a fixed space itself, so a node beside a fixed
component on its left is that component's base space, the same object. A
moving space's profile keeps each limit it assembles, so the chain's nodes,
the gluing check of :func:`validate_chain` and the meeting points share one
value per moving space and direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delta import consecutive_pairs
from .linalg import format_rational
from .series import LimitLinearSeries, check_exact, membership_failures
from .torus import (
    Direction,
    IntersectionHypothesisError,
    block_profile,
    limit,
)


class ChainError(ValueError):
    """An operation received or produced a structurally invalid chain."""


class ChainBuildError(ChainError):
    """Chain construction failed; carries the first failing pair if any."""

    def __init__(self, message: str, failing_pair: tuple[Fraction, Fraction] | None = None):
        super().__init__(message)
        self.failing_pair = failing_pair


@dataclass(frozen=True)
class ContinuousChain:
    """The chain of a series: one component per index, in ladder order.

    Its one field is the series, whose constructor checks the shape: one
    space per index, each of dimension rank + 1 in the model's ambient
    space, on a ladder of the model's degree. Component k is the pair
    ``series.items()`` gives at position k, and its orbit degree is
    ``series.profiles[k].degree``, 0 exactly when it is fixed. A series
    with a fixed space at a non-integer index is refused: that component
    would be constant. ``nodes`` holds node k, where components k and k + 1
    are glued, for each consecutive pair: the limit toward infinity of
    component k's base space, which is that space itself when it is fixed.
    It is read off the series once, when the chain is made, and is not a
    field. A component maps to the unsubdivided target chain by its index:
    an integer index covers the target component of that number, and any
    other index collapses to the node at its ceiling.
    """

    series: LimitLinearSeries

    def __post_init__(self) -> None:
        g = self.series
        # an index's mobile dimension is its space's orbit degree
        lazy = [
            format_rational(i)
            for i, profile in zip(g.delta.indices, g.profiles)
            if i.denominator != 1 and profile.degree == 0
        ]
        if lazy:
            raise ChainBuildError(
                "series is not minimal: non-integer indices "
                + ", ".join(lazy)
                + " carry no mobile dimension and would give constant components"
            )
        nodes = tuple(limit(g.model.split, v, Direction.INFINITY) for v in g.spaces[:-1])
        object.__setattr__(self, "nodes", nodes)


def build_chain(g: LimitLinearSeries) -> ContinuousChain:
    """Assemble the chain of an exact minimal series.

    Gluing at a pair (i, j) asks the outgoing limit of V_i, inside_first(i)
    + onto_second(i), to equal the incoming limit of V_j, onto_first(j) +
    inside_second(j). That holds exactly when both linking equalities hold
    there, so gluing fails first at :func:`series.check_exact`'s first
    failing pair, and nothing compares the limits again. Then
    :class:`ContinuousChain` enforces minimality, so that no non-integer
    component degenerates to a constant.

    The degree budget needs no check here; :func:`validate_chain` reports
    it. A component's degree is dim onto_first - dim inside_first, and
    exactness gives onto_first(j) = inside_first(i) at each pair, so the
    degrees telescope to dim onto_first(0) - dim inside_first(d) = r + 1 -
    dim(V_0 ∩ W2) - dim(V_d ∩ W1). That is r + 1 for any series that lies in
    its section spaces: the one at index 0 meets W2 in 0 and the one at d
    meets W1 in 0.
    """
    pair = check_exact(g).first_failing_pair()
    if pair is not None:
        i, j = pair
        raise ChainBuildError(
            f"gluing failed at the pair ({format_rational(i)}, {format_rational(j)}):"
            " the outgoing and incoming orbit limits differ, so the series"
            " is not exact there",
            failing_pair=pair,
        )
    return ContinuousChain(g)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class ChainValidationReport:
    gluing: CheckResult
    degree: CheckResult
    transversality: CheckResult
    weight_intervals: CheckResult
    membership: CheckResult

    @property
    def checks(self) -> tuple[CheckResult, ...]:
        return (
            self.gluing,
            self.degree,
            self.transversality,
            self.weight_intervals,
            self.membership,
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.name}: {'pass' if c.passed else 'FAIL'}")
            lines.extend(f"  - {f}" for f in c.failures)
        return "\n".join(lines)


def validate_chain(c: ContinuousChain) -> ChainValidationReport:
    """Re-derive every structural claim about the chain; reports, never throws.

    Node transversality needs no minors. At the fixed point P shared by two
    consecutive orbit closures, the tangent space Hom(P, W/P) of the
    Grassmannian splits into torus weight spaces -1, 0 and +1. The orbit
    that ends at P and the orbit that starts at P have tangent lines in the
    two opposite nonzero weight spaces. Both are nonzero, because each
    orbit's Pluecker weight set is a gap-free interval with at least two
    points, so each curve is smooth at its limits. Hence the meeting is
    transverse whenever :func:`torus.orbit_intersection`'s hypotheses hold
    and the closures meet at the node, and that is all the check asks. Both
    spaces move and the chain gives every base space the same dimension, so
    the check fails exactly where :func:`torus.orbit_intersection` finds
    the pair unlinked, or the closures do not meet at the node: they are
    disjoint, or they meet where the right orbit ends and the left one
    begins. ``verify --oracle`` recomputes a first-order certificate
    independently, from the Pluecker minors.

    The node is the left space's limit toward infinity, so node gluing
    compares it with the right space's limit toward zero, and the degree
    budget sums the degrees read off the profiles.

    The weight-interval check is a named cross-check: it follows from node
    gluing plus section-space membership, so it fails only beside one of
    them. Its end conditions follow from membership, because the section
    space at index 0 projects injectively to the first block and the one at
    index d meets the first block in 0. Its inner condition follows from
    gluing, because the first-block parts of the two limits at a node are
    inside_first of the left space and onto_first of the right one.

    Every check reads ``c.series.profiles``, the profiles kept on the base
    spaces.
    """
    g = c.series
    split = g.model.split
    pairs = consecutive_pairs(g.delta)
    profiles = g.profiles

    glue_failures: list[str] = []
    for (i, j), node, right in zip(pairs, c.nodes, g.spaces[1:]):
        if node != limit(split, right, Direction.ZERO):
            glue_failures.append(
                f"node between {format_rational(i)} and {format_rational(j)}"
                " does not match both orbit limits"
            )

    degree_failures: list[str] = []
    total = sum(profile.degree for profile in profiles)
    if total != g.rank + 1:
        degree_failures.append(f"orbit degrees sum to {total}, expected {g.rank + 1}")

    transversality_failures: list[str] = []
    for (i, j), node, left_profile, right_profile in zip(pairs, c.nodes, profiles, profiles[1:]):
        if left_profile.degree == 0 or right_profile.degree == 0:
            continue
        try:
            point = left_profile.meeting_point(right_profile)
        except IntersectionHypothesisError as exc:
            transversality_failures.append(
                f"pair ({format_rational(i)}, {format_rational(j)}): {exc}"
            )
            continue
        if point != node:
            transversality_failures.append(
                f"pair ({format_rational(i)}, {format_rational(j)}): orbit"
                " closures do not meet at the node"
            )

    interval_failures: list[str] = []
    if profiles:
        if profiles[0].onto_first.dim != g.rank + 1:
            interval_failures.append(
                f"first component reaches first-block dimension"
                f" {profiles[0].onto_first.dim}, expected {g.rank + 1}"
            )
        if profiles[-1].inside_first.dim != 0:
            interval_failures.append(
                f"last component ends at first-block dimension"
                f" {profiles[-1].inside_first.dim}, expected 0"
            )
    for (i, j), left, right in zip(pairs, profiles, profiles[1:]):
        if left.inside_first.dim != right.onto_first.dim:
            interval_failures.append(
                f"weight intervals at ({format_rational(i)}, {format_rational(j)})"
                f" do not meet end-to-start: {left.inside_first.dim} vs"
                f" {right.onto_first.dim}"
            )

    outside = tuple(
        f"base space at {format_rational(i)} is not an (r+1)-dimensional"
        " subspace of its section space"
        for i in membership_failures(g)
    )

    return ChainValidationReport(
        gluing=CheckResult("node gluing", not glue_failures, tuple(glue_failures)),
        degree=CheckResult("degree budget", not degree_failures, tuple(degree_failures)),
        transversality=CheckResult(
            "node transversality", not transversality_failures, tuple(transversality_failures)
        ),
        weight_intervals=CheckResult(
            "weight intervals", not interval_failures, tuple(interval_failures)
        ),
        membership=CheckResult("section-space membership", not outside, outside),
    )


def emit_dot(c: ContinuousChain) -> str:
    """Deterministic DOT digraph: components as nodes, glued nodes as edges.

    Component labels carry the index, kind and orbit degree; edge labels carry
    the block dimension profile of the glued subspace, which for a node (a
    fixed point) is read off its canonical basis with no elimination. Equal
    chains produce byte-identical output.
    """
    split = c.series.model.split
    lines = ["digraph chain {", "  rankdir=LR;"]
    for i, profile in zip(c.series.delta.indices, c.series.profiles):
        name = format_rational(i)
        shape, kind = ("box", "fixed") if profile.degree == 0 else ("ellipse", "orbit")
        lines.append(
            f'  "{name}" [shape={shape} label="i={name}\\n{kind} deg={profile.degree}"];'
        )
    for (i, j), node in zip(consecutive_pairs(c.series.delta), c.nodes):
        profile = block_profile(split, node)
        label = f"({profile.inside_first.dim}|{profile.inside_second.dim})"
        lines.append(
            f'  "{format_rational(i)}" -> "{format_rational(j)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
