"""Chains of torus-invariant curves built from exact minimal series.

An exact minimal series determines a chain with one component per ladder
index: the component carries the series' subspace there as its base point,
is either a fixed point or a genuine orbit curve in the Grassmannian, and
consecutive components glue at the shared boundary limit of their orbits.
The construction fails precisely where exactness fails, and the failing
pair it reports is the same pair the exactness check reports.

Construction reads the series' ``g.profiles``; validation and the Hilbert
data read the chain's ``c.profiles``. Both are the block profiles that
``torus.block_profile`` keeps on each space. A profile is a function of the
immutable space it is kept on, so validation still checks the chain's own
base spaces; a chain built from a series holds the series' ``Subspace``
objects and finds their profiles already there, while a chain loaded from a
file profiles its base spaces afresh. Plain ``verify`` of a 13-space series
makes 13 eliminations in all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .curve import CurveModel, is_generalized_linear_series
from .delta import DeltaSet, consecutive_pairs
from .linalg import Subspace, format_rational
from .series import LimitLinearSeries, numerical_data
from .torus import BlockProfile, Direction, IntersectionHypothesisError, block_profile


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
    """One component of the chain: a base subspace and its orbit data.

    ``target_kind`` records where the component maps in the unsubdivided
    target chain: integer indices cover a whole component there, non-integer
    ones collapse to the node numbered by the ceiling of the index.
    """

    index: Fraction
    base_space: Subspace
    kind: ComponentKind
    target_kind: str  # "component" | "node"
    target_index: int
    grassmann_degree: int

    def __post_init__(self) -> None:
        if self.target_kind not in ("component", "node"):
            raise ChainError(f"unknown target kind {self.target_kind!r}")
        integer = self.index.denominator == 1
        if integer and self.target_kind != "component":
            raise ChainError("integer indices map onto a target component")
        if not integer and self.target_kind != "node":
            raise ChainError("non-integer indices collapse to a target node")
        if self.kind is ComponentKind.FIXED and not integer:
            raise ChainError("a fixed component is only allowed at an integer index")
        if (self.grassmann_degree == 0) != (self.kind is ComponentKind.FIXED):
            raise ChainError("degree zero exactly characterizes fixed components")


@dataclass(frozen=True)
class ContinuousChain:
    """The full chain: components in ladder order and glued nodes."""

    model: CurveModel
    rank: int
    delta: DeltaSet
    components: tuple[ChainComponent, ...]
    nodes: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.components) != len(self.delta):
            raise ChainError("one component per ladder index is required")
        if tuple(c.index for c in self.components) != self.delta.indices:
            raise ChainError("components are not aligned with the ladder")
        if len(self.nodes) != max(len(self.delta) - 1, 0):
            raise ChainError("one glued node per consecutive pair is required")
        for comp in self.components:
            if not 0 <= comp.target_index <= self.model.d:
                raise ChainError(
                    f"component {format_rational(comp.index)} targets"
                    f" {comp.target_index}, outside 0..{self.model.d}"
                )

    @property
    def profiles(self) -> tuple[BlockProfile, ...]:
        """One block profile per base space, each read from its space's memo."""
        return tuple(block_profile(self.model.split, c.base_space) for c in self.components)

    def component_at(self, i: Fraction) -> ChainComponent:
        return self.components[self.delta.position(i)]


def _component_for(i: Fraction, v: Subspace, degree: int) -> ChainComponent:
    kind = ComponentKind.FIXED if degree == 0 else ComponentKind.ORBIT
    target_kind = "component" if i.denominator == 1 else "node"
    return ChainComponent(i, v, kind, target_kind, math.ceil(i), degree)


def build_chain(g: LimitLinearSeries) -> ContinuousChain:
    """Assemble the chain of an exact minimal series.

    Gluing is attempted pair by pair: the outgoing limit of each space must
    equal the incoming limit of the next one, which holds exactly when the
    linking equalities do. Afterwards minimality is enforced so that no
    non-integer component degenerates to a constant. Limits, minimality and
    each component's degree are read off one block profile per space.
    """
    profiles = g.profiles
    nodes: list[Subspace] = []
    for (i, j), left, right in zip(consecutive_pairs(g.delta), profiles, profiles[1:]):
        outgoing = left.limit(Direction.INFINITY)
        if outgoing != right.limit(Direction.ZERO):
            raise ChainBuildError(
                f"gluing failed at the pair ({format_rational(i)}, {format_rational(j)}):"
                " the outgoing and incoming orbit limits differ, so the series"
                " is not exact there",
                failing_pair=(i, j),
            )
        nodes.append(outgoing)
    data = numerical_data(g)
    if not data.is_minimal():
        lazy = [
            format_rational(i)
            for i, m in zip(g.delta.indices, data.mobile)
            if i.denominator != 1 and m == 0
        ]
        raise ChainBuildError(
            "series is not minimal: non-integer indices "
            + ", ".join(lazy)
            + " carry no mobile dimension and would give constant components"
        )
    components = tuple(
        _component_for(i, v, profile.degree) for (i, v), profile in zip(g.items(), profiles)
    )
    total_degree = sum(c.grassmann_degree for c in components)
    if total_degree != g.rank + 1:
        raise ChainBuildError(
            f"degree budget violated: component degrees sum to {total_degree},"
            f" expected {g.rank + 1}"
        )
    return ContinuousChain(g.model, g.rank, g.delta, components, nodes)


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
    and the closures meet at the stored node, and that is all the check
    asks. It fails exactly where :func:`torus.orbit_intersection` refuses
    the pair (unlinked, or a base space that is fixed or of the wrong size)
    or the closures do not meet at the stored node. ``verify --oracle``
    recomputes a first-order certificate independently, from the Pluecker
    minors.

    The weight-interval check is a named cross-check: it follows from node
    gluing plus section-space membership, so it fails only beside one of
    them. Its end conditions follow from membership, because the section
    space at index 0 projects injectively to the first block and the one at
    index d meets the first block in 0. Its inner condition follows from
    gluing, because the first-block parts of the two limits at a node are
    inside_first of the left space and onto_first of the right one.

    Every check reads ``c.profiles``, the profiles kept on the base spaces.
    """
    pairs = consecutive_pairs(c.delta)
    profiles = c.profiles

    glue_failures: list[str] = []
    for (i, j), node, left, right in zip(pairs, c.nodes, profiles, profiles[1:]):
        if not (left.limit(Direction.INFINITY) == node == right.limit(Direction.ZERO)):
            glue_failures.append(
                f"node between {format_rational(i)} and {format_rational(j)}"
                " does not match both orbit limits"
            )

    degree_failures: list[str] = []
    recomputed_total = 0
    for comp, profile in zip(c.components, profiles):
        actual = profile.degree
        recomputed_total += actual
        if actual != comp.grassmann_degree:
            degree_failures.append(
                f"component {format_rational(comp.index)} stores degree"
                f" {comp.grassmann_degree} but its orbit has degree {actual}"
            )
    if recomputed_total != c.rank + 1:
        degree_failures.append(
            f"orbit degrees sum to {recomputed_total}, expected {c.rank + 1}"
        )
    for comp in c.components:
        if comp.target_index != math.ceil(comp.index):
            degree_failures.append(
                f"component {format_rational(comp.index)} targets"
                f" {comp.target_index}, expected {math.ceil(comp.index)}"
            )

    transversality_failures: list[str] = []
    steps = zip(pairs, c.nodes, c.components, c.components[1:], profiles, profiles[1:])
    for (i, j), node, left, right, left_profile, right_profile in steps:
        if left.kind is not ComponentKind.ORBIT or right.kind is not ComponentKind.ORBIT:
            continue
        try:
            point = left_profile.meeting_point(right_profile)
        except (IntersectionHypothesisError, ValueError) as exc:
            transversality_failures.append(
                f"pair ({format_rational(i)}, {format_rational(j)}): {exc}"
            )
            continue
        if point != node:
            transversality_failures.append(
                f"pair ({format_rational(i)}, {format_rational(j)}): orbit"
                " closures do not meet at the stored node"
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


def hilbert_coefficients(c: ContinuousChain) -> tuple[int, int, tuple[int, ...], int]:
    """The chain's multivariate Hilbert data, computed from its components.

    Returns (total orbit degree, 0, per-target-component multiplicities, 1).
    Each multiplicity counts the chain components mapping onto one component
    of the target chain and must be exactly one; anything else means the
    chain is invalid and raises.
    """
    total = sum(profile.degree for profile in c.profiles)
    counts = [0] * (c.model.d + 1)
    for comp in c.components:
        if comp.target_kind == "component":
            counts[comp.target_index] += 1
    for t, count in enumerate(counts):
        if count != 1:
            raise ChainError(
                f"target component {t} is covered {count} times, expected exactly once"
            )
    return (total, 0, tuple(counts), 1)


def emit_dot(c: ContinuousChain) -> str:
    """Deterministic DOT digraph: components as nodes, glued nodes as edges.

    Component labels carry the index, kind and orbit degree; edge labels carry
    the block dimension profile of the glued subspace. Equal chains produce
    byte-identical output.
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
