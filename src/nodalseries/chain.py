"""Chains of torus-invariant curves built from exact minimal series.

An exact minimal series determines a chain with one component per ladder
index: the component carries the series' subspace there as its base point,
is either a fixed point or a genuine orbit curve in the Grassmannian, and
consecutive components glue at the shared boundary limit of their orbits.
The construction fails precisely where exactness fails, and the failing
pair it reports is the same pair the exactness check reports.

A chain holds its model, rank, ladder and components, and a component only
its index and base space; a chain file holds the same (see ``serialize``).
Everything else is read off the base spaces once, when the value is made: a
component's orbit degree from its space's block profile, its kind from its
degree, and node k, where components k and k + 1 are glued, as the limit
toward infinity of component k's space. So no value can hold a node or
degree that disagrees with its spaces, no file stores one, and nothing
checks one.

Construction reads the series' ``g.profiles``; validation reads the chain's
``c.profiles``. Both are the block profiles that ``torus.block_profile``
keeps on each space. A profile is a function of the immutable space it is
kept on; a chain built from a series holds the series' ``Subspace`` objects
and finds their profiles already there, while a chain loaded from a file
profiles its base spaces afresh when its components are made, once per
distinct matrix of the file. A profile costs one elimination for a moving
space and none for a fixed one, so plain ``verify`` of a series makes one
elimination per moving space in all, and ``emit_dot`` makes none: every
node is a fixed point. Limits come from ``torus.limit`` on the space held,
which returns a fixed space itself, so a node beside a fixed component on
its left is that component's base space, the same object. A moving space's
profile keeps each limit it assembles, so the gluing loop of
:func:`build_chain`, the chain's nodes, the gluing check of
:func:`validate_chain` and the meeting points share one value per moving
space and direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .curve import CurveModel, is_generalized_linear_series
from .delta import DeltaSet, consecutive_pairs
from .linalg import Subspace, format_rational
from .series import LimitLinearSeries
from .torus import (
    BlockProfile,
    Direction,
    IntersectionHypothesisError,
    TorusSplit,
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


class ComponentKind(enum.Enum):
    FIXED = "fixed"
    ORBIT = "orbit"


@dataclass(frozen=True)
class ChainComponent:
    """One component of the chain: its index and base subspace.

    Its orbit degree, ``grassmann_degree``, is read off the base space's
    block profile once, when the component is made, under the split whose
    two blocks are each half the ambient width; a base space of odd width,
    or of width 0, is refused. It is not a field. Its ``kind`` is fixed
    exactly when its degree is 0. It maps to the unsubdivided target chain
    by its index: an integer index covers the target component of that
    number, and any other index collapses to the node at its ceiling.
    """

    index: Fraction
    base_space: Subspace

    def __post_init__(self) -> None:
        width = self.base_space.ambient_dim
        if width <= 0 or width % 2:
            raise ChainError(
                f"a base space lives in Q^{width}, but a chain needs an even, positive width"
            )
        half = width // 2
        degree = block_profile(TorusSplit(half, half), self.base_space).degree
        object.__setattr__(self, "grassmann_degree", degree)
        if degree == 0 and self.index.denominator != 1:
            raise ChainError("a fixed component is only allowed at an integer index")

    @property
    def kind(self) -> ComponentKind:
        return ComponentKind.FIXED if self.grassmann_degree == 0 else ComponentKind.ORBIT


@dataclass(frozen=True)
class ContinuousChain:
    """The full chain: its components in ladder order.

    ``nodes`` holds node k, where components k and k + 1 are glued, for each
    consecutive pair. It is read off the base spaces once, when the chain is
    made: node k is the limit toward infinity of component k's base space,
    which is that space itself when it is fixed. It is not a field.
    """

    model: CurveModel
    rank: int
    delta: DeltaSet
    components: tuple[ChainComponent, ...]

    def __post_init__(self) -> None:
        if type(self.rank) is not int:
            raise TypeError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 0:
            raise ChainError("rank must be nonnegative")
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            v = c.base_space
            if (v.ambient_dim, v.dim) != (self.model.ambient_dim, self.rank + 1):
                raise ChainError(
                    f"base space at {format_rational(c.index)} has dimension {v.dim} in"
                    f" Q^{v.ambient_dim}, expected {self.rank + 1} in Q^{self.model.ambient_dim}"
                )
        if len(self.components) != len(self.delta):
            raise ChainError("one component per ladder index is required")
        if tuple(c.index for c in self.components) != self.delta.indices:
            raise ChainError("components are not aligned with the ladder")
        split = self.model.split
        nodes = tuple(
            limit(split, c.base_space, Direction.INFINITY) for c in self.components[:-1]
        )
        object.__setattr__(self, "nodes", nodes)

    @property
    def profiles(self) -> tuple[BlockProfile, ...]:
        """One block profile per base space, each read from its space's memo."""
        return tuple(block_profile(self.model.split, c.base_space) for c in self.components)


def build_chain(g: LimitLinearSeries) -> ContinuousChain:
    """Assemble the chain of an exact minimal series.

    Gluing is attempted pair by pair: the outgoing limit of each space must
    equal the incoming limit of the next one, which holds exactly when the
    linking equalities do. Afterwards minimality is enforced so that no
    non-integer component degenerates to a constant. Limits, minimality and
    each component's degree are read off one block profile per space; the
    chain reads its nodes off the same limits.
    """
    split = g.model.split
    for (i, j), left, right in zip(consecutive_pairs(g.delta), g.spaces, g.spaces[1:]):
        if limit(split, left, Direction.INFINITY) != limit(split, right, Direction.ZERO):
            raise ChainBuildError(
                f"gluing failed at the pair ({format_rational(i)}, {format_rational(j)}):"
                " the outgoing and incoming orbit limits differ, so the series"
                " is not exact there",
                failing_pair=(i, j),
            )
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
    components = tuple(ChainComponent(i, v) for i, v in g.items())
    total_degree = sum(c.grassmann_degree for c in components)
    if total_degree != g.rank + 1:
        raise ChainBuildError(
            f"degree budget violated: component degrees sum to {total_degree},"
            f" expected {g.rank + 1}"
        )
    return ContinuousChain(g.model, g.rank, g.delta, components)


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

    Every check reads ``c.profiles``, the profiles kept on the base spaces.
    """
    split = c.model.split
    pairs = consecutive_pairs(c.delta)
    profiles = c.profiles

    glue_failures: list[str] = []
    for (i, j), node, right in zip(pairs, c.nodes, c.components[1:]):
        if node != limit(split, right.base_space, Direction.ZERO):
            glue_failures.append(
                f"node between {format_rational(i)} and {format_rational(j)}"
                " does not match both orbit limits"
            )

    degree_failures: list[str] = []
    total = sum(profile.degree for profile in profiles)
    if total != c.rank + 1:
        degree_failures.append(f"orbit degrees sum to {total}, expected {c.rank + 1}")

    transversality_failures: list[str] = []
    steps = zip(pairs, c.nodes, c.components, c.components[1:], profiles, profiles[1:])
    for (i, j), node, left, right, left_profile, right_profile in steps:
        if left.kind is not ComponentKind.ORBIT or right.kind is not ComponentKind.ORBIT:
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
        if profiles[0].onto_first.dim != c.rank + 1:
            interval_failures.append(
                f"first component reaches first-block dimension"
                f" {profiles[0].onto_first.dim}, expected {c.rank + 1}"
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

    membership_failures: list[str] = []
    for comp in c.components:
        if not is_generalized_linear_series(c.model, comp.base_space, comp.index, c.rank):
            membership_failures.append(
                f"base space at {format_rational(comp.index)} is not an"
                f" (r+1)-dimensional subspace of its section space"
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
        membership=CheckResult(
            "section-space membership", not membership_failures, tuple(membership_failures)
        ),
    )


def evaluate_at_base_points(c: ContinuousChain) -> LimitLinearSeries:
    """Read the series back off the chain's base points."""
    return LimitLinearSeries(
        c.model, c.rank, c.delta, tuple(comp.base_space for comp in c.components)
    )


def emit_dot(c: ContinuousChain) -> str:
    """Deterministic DOT digraph: components as nodes, glued nodes as edges.

    Component labels carry the index, kind and orbit degree; edge labels carry
    the block dimension profile of the glued subspace, which for a node (a
    fixed point) is read off its canonical basis with no elimination. Equal
    chains produce byte-identical output.
    """
    split = c.model.split
    lines = ["digraph chain {", "  rankdir=LR;"]
    for comp in c.components:
        name = format_rational(comp.index)
        shape = "box" if comp.kind is ComponentKind.FIXED else "ellipse"
        lines.append(
            f'  "{name}" [shape={shape} label="i={name}\\n{comp.kind.value}'
            f' deg={comp.grassmann_degree}"];'
        )
    for (i, j), node in zip(consecutive_pairs(c.delta), c.nodes):
        profile = block_profile(split, node)
        label = f"({profile.inside_first.dim}|{profile.inside_second.dim})"
        lines.append(
            f'  "{format_rational(i)}" -> "{format_rational(j)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
