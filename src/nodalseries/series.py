"""Level-delta limit linear series: linking conditions, numerical data,
minimal reduction, torus equivalence and projection to the integer ladder.

A series assigns to every index of a ladder a subspace of the concrete
section space there, all of one dimension r + 1. Consecutive spaces are
*compatible* when the second-block image of the earlier one sits inside the
second-block part of the later one and the first-block image of the later
one sits inside the first-block part of the earlier one; the series is
*exact* when both inclusions are equalities at every consecutive pair.

Every report reads ``g.profiles``, one block profile per space. Each profile
is kept on its space by ``torus.block_profile``, so the first report makes
one elimination per space, and later reports on the same spaces, or on the
chain built from them, make none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .curve import CurveModel, is_generalized_linear_series
from .delta import DeltaSet, NumericalData, build_delta, consecutive_pairs, support_subset
from .linalg import ONE, ZERO, Subspace, is_zero_vector
from .torus import BlockProfile, TorusSplit, act, block_profile


@dataclass(frozen=True)
class LimitLinearSeries:
    """A ladder-indexed family of equal-dimensional subspaces of U1 + U2.

    The constructor enforces the structural shape (one space per index, all
    of dimension rank + 1 in the model's ambient space). Membership of each
    space in its section space is a semantic invariant established by the
    generators and the loaders; use :func:`membership_failures` to audit it,
    e.g. for hand-built candidates.
    """

    model: CurveModel
    rank: int
    delta: DeltaSet
    spaces: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "spaces", tuple(self.spaces))
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if self.delta.d != self.model.d:
            raise ValueError("ladder degree does not match the model degree")
        if len(self.spaces) != len(self.delta):
            raise ValueError(
                f"expected one space per index ({len(self.delta)}), got {len(self.spaces)}"
            )
        for i, v in zip(self.delta.indices, self.spaces):
            if v.ambient_dim != self.model.ambient_dim:
                raise ValueError(f"space at index {i} lives in the wrong ambient space")
            if v.dim != self.rank + 1:
                raise ValueError(
                    f"space at index {i} has dimension {v.dim}, expected {self.rank + 1}"
                )

    @property
    def profiles(self) -> tuple[BlockProfile, ...]:
        """One block profile per space, each read from its space's memo."""
        return tuple(block_profile(self.model.split, v) for v in self.spaces)

    def space_at(self, i: Fraction) -> Subspace:
        return self.spaces[self.delta.position(i)]

    def items(self) -> Iterator[tuple[Fraction, Subspace]]:
        return iter(zip(self.delta.indices, self.spaces))


@dataclass(frozen=True)
class LinkFailure:
    """One violated condition at a consecutive pair."""

    left: Fraction
    right: Fraction
    side: str  # "forward" (second-block condition) or "backward" (first-block)
    message: str


@dataclass(frozen=True)
class LinkReport:
    passed: bool
    failures: tuple[LinkFailure, ...]

    def first_failing_pair(self) -> tuple[Fraction, Fraction] | None:
        if not self.failures:
            return None
        return (self.failures[0].left, self.failures[0].right)


def _pair_blocks(g: LimitLinearSeries):
    """Per consecutive pair (i, j): the second-block image at i and part at j,
    then the first-block image at j and part at i."""
    profiles = g.profiles
    for (i, j), pi, pj in zip(consecutive_pairs(g.delta), profiles, profiles[1:]):
        yield i, j, pi.onto_second, pj.inside_second, pj.onto_first, pi.inside_first


def check_compatible(g: LimitLinearSeries) -> LinkReport:
    """Both linking inclusions at every consecutive pair, with a report."""
    failures: list[LinkFailure] = []
    for i, j, fwd_img, fwd_ker, bwd_img, bwd_ker in _pair_blocks(g):
        if not fwd_ker.contains(fwd_img):
            failures.append(
                LinkFailure(
                    i, j, "forward",
                    f"second-block image at {i} (dim {fwd_img.dim}) is not inside"
                    f" the second-block part at {j} (dim {fwd_ker.dim})",
                )
            )
        if not bwd_ker.contains(bwd_img):
            failures.append(
                LinkFailure(
                    i, j, "backward",
                    f"first-block image at {j} (dim {bwd_img.dim}) is not inside"
                    f" the first-block part at {i} (dim {bwd_ker.dim})",
                )
            )
    return LinkReport(not failures, tuple(failures))


def check_exact(g: LimitLinearSeries) -> LinkReport:
    """Both linking equalities at every consecutive pair, with a report."""
    failures: list[LinkFailure] = []
    for i, j, fwd_img, fwd_ker, bwd_img, bwd_ker in _pair_blocks(g):
        if fwd_img != fwd_ker:
            failures.append(
                LinkFailure(
                    i, j, "forward",
                    f"second-block image at {i} has dim {fwd_img.dim} but the"
                    f" second-block part at {j} has dim {fwd_ker.dim}",
                )
            )
        if bwd_img != bwd_ker:
            failures.append(
                LinkFailure(
                    i, j, "backward",
                    f"first-block image at {j} has dim {bwd_img.dim} but the"
                    f" first-block part at {i} has dim {bwd_ker.dim}",
                )
            )
    return LinkReport(not failures, tuple(failures))


def numerical_data(g: LimitLinearSeries) -> NumericalData:
    """Block kernel dimensions at every index (uniformly, ends included)."""
    profiles = g.profiles
    down = tuple(p.inside_second.dim for p in profiles)
    up = tuple(p.inside_first.dim for p in profiles)
    return NumericalData(g.rank, g.delta.indices, down, up)


def membership_failures(g: LimitLinearSeries) -> tuple[Fraction, ...]:
    """Indices whose space leaves its section space (empty for valid series)."""
    return tuple(
        i
        for i, v in g.items()
        if not is_generalized_linear_series(g.model, v, i, g.rank)
    )


def reduce_minimal(g: LimitLinearSeries) -> LimitLinearSeries:
    """Forget the non-integer indices carrying no mobile dimension.

    Requires an exact input; the result is exact and minimal with the same
    degree and rank, and reducing again is the identity.
    """
    report = check_exact(g)
    if not report.passed:
        pair = report.first_failing_pair()
        raise ValueError(f"cannot reduce a non-exact series (first failing pair {pair})")
    reduced_delta, reindex = support_subset(g.delta, numerical_data(g))
    spaces = tuple(g.space_at(reindex[i]) for i in reduced_delta.indices)
    return LimitLinearSeries(g.model, g.rank, reduced_delta, spaces)


def _scaling_witness(split: TorusSplit, v1: Subspace, v2: Subspace) -> Fraction | None:
    """The nonzero c with act(c, v1) == v2, or None.

    Each basis row (w1|w2) of v1 must move into v2 as u*(w1|0) + (0|w2) with
    u = 1/c. Reducing against v2 is linear, so with residuals a of (w1|0) and
    b of (0|w2) the condition reads u*a + b = 0: the first row with a != 0
    fixes the only candidate. When every residual vanishes, v1 lies in v2 and
    only the identity can work.
    """
    if v1.dim != v2.dim:
        return None
    zeros1 = (ZERO,) * split.dim1
    zeros2 = (ZERO,) * split.dim2
    for row in v1.basis_rows():
        a = v2.residual(row[: split.dim1] + zeros2)
        b = v2.residual(zeros1 + row[split.dim1 :])
        k = next((k for k, e in enumerate(a) if e is not ZERO and e), None)
        if k is not None:
            if b[k] == 0:
                return None
            c = -a[k] / b[k]
            return c if act(split, c, v1) == v2 else None
        if not is_zero_vector(b):
            return None
    return ONE if v1 == v2 else None


def torus_equivalence_witnesses(
    g1: LimitLinearSeries, g2: LimitLinearSeries
) -> dict[Fraction, Fraction] | None:
    """Per-index scalings carrying g1 to g2, or None when none exist.

    Integer indices admit no rescaling (the witness there is forced to 1 and
    the spaces must agree on the nose); each non-integer index may be scaled
    independently.
    """
    if (g1.model, g1.rank, g1.delta) != (g2.model, g2.rank, g2.delta):
        raise ValueError("series live on different models, ranks or ladders")
    witnesses: dict[Fraction, Fraction] = {}
    for (i, v1), (_, v2) in zip(g1.items(), g2.items()):
        if i.denominator == 1:
            if v1 != v2:
                return None
            witnesses[i] = ONE
        else:
            c = _scaling_witness(g1.model.split, v1, v2)
            if c is None:
                return None
            witnesses[i] = c
    return witnesses


def torus_equivalent(g1: LimitLinearSeries, g2: LimitLinearSeries) -> bool:
    return torus_equivalence_witnesses(g1, g2) is not None


def project_level_one(g: LimitLinearSeries) -> LimitLinearSeries:
    """Restrict an exact series to the integer indices 0..d.

    The result is a compatible series on the unsubdivided ladder; its
    exactness is not asserted and may genuinely fail.
    """
    report = check_exact(g)
    if not report.passed:
        pair = report.first_failing_pair()
        raise ValueError(f"cannot project a non-exact series (first failing pair {pair})")
    ladder = build_delta(g.model.d, (1,) * g.model.d)
    spaces = tuple(g.space_at(Fraction(k)) for k in range(g.model.d + 1))
    projected = LimitLinearSeries(g.model, g.rank, ladder, spaces)
    if not check_compatible(projected).passed:
        raise AssertionError("integer restriction of an exact series must be compatible")
    return projected
