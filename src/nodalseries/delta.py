"""The subdivided index ladder Delta(delta) and per-index numerical data.

For a degree d and a tuple delta = (delta_1, ..., delta_d) of positive
integers, the ladder is the ordered set of rationals

    0, 1/delta_1, 2/delta_1, ..., 1, 1 + 1/delta_2, ..., 2, ..., d

with exactly 1 + sum(delta) members. Indices are exact Fractions; integer
members are exactly 0..d. Adjacent members are called consecutive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence


@dataclass(frozen=True)
class DeltaSet:
    """Ordered index ladder for a fixed degree and subdivision profile.

    Its fields are the degree and the subdivision counts, checked by
    :func:`check_steps`. ``indices`` is derived from them when the value is
    made and is not a field, so no ladder lists indices its counts do not
    give.
    """

    d: int
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        steps = check_steps(self.d, self.steps)
        indices = [Fraction(0)]
        for gap, count in enumerate(steps, start=1):
            for numerator in range(1, count + 1):
                indices.append(Fraction((gap - 1) * count + numerator, count))
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "indices", tuple(indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.indices)

    def position(self, i: Fraction) -> int:
        try:
            return self.indices.index(i)
        except ValueError:
            raise KeyError(f"index {i} not in the ladder") from None


def check_steps(d: int, delta: Sequence[int]) -> tuple[int, ...]:
    """The subdivision counts; one positive integer per gap, or TypeError/ValueError."""
    if type(d) is not int:
        raise TypeError(f"degree must be an integer, got {d!r}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if len(delta) != d:
        raise ValueError(f"expected {d} subdivision counts, got {len(delta)}")
    steps = tuple(delta)
    for s in steps:
        if type(s) is not int:
            raise TypeError(f"subdivision counts must be integers, got {s!r}")
        if s < 1:
            raise ValueError("subdivision counts must be positive")
    return steps


def build_delta(d: int, delta: Sequence[int]) -> DeltaSet:
    """Construct the ladder; delta must list one positive count per gap."""
    return DeltaSet(d, tuple(delta))


def consecutive_pairs(ladder: DeltaSet) -> tuple[tuple[Fraction, Fraction], ...]:
    """Adjacent index pairs in order; one fewer than the ladder has members."""
    return tuple(zip(ladder.indices, ladder.indices[1:]))


@dataclass(frozen=True)
class NumericalData:
    """Per-index block dimensions of a linked family of subspaces.

    ``down_kernels[k]`` is the dimension of the part of the k-th space lying
    entirely in the second block (killed by the map toward the previous
    index); ``up_kernels[k]`` is the part in the first block (killed by the
    map toward the next index). The mobile dimension at an index is
    rank + 1 minus both kernels; it equals the torus orbit degree there.

    At the two ends of the ladder the linking map in one direction is absent;
    the block formulas are applied uniformly anyway, and in the concrete
    section-space model the end kernels vanish automatically.
    """

    rank: int
    indices: tuple[Fraction, ...]
    down_kernels: tuple[int, ...]
    up_kernels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.indices) == len(self.down_kernels) == len(self.up_kernels)):
            raise ValueError("per-index sequences have unequal lengths")
        if any(p < 0 for p in self.down_kernels) or any(q < 0 for q in self.up_kernels):
            raise ValueError("kernel dimensions must be nonnegative")

    @property
    def mobile(self) -> tuple[int, ...]:
        return tuple(
            self.rank + 1 - p - q
            for p, q in zip(self.down_kernels, self.up_kernels)
        )

    def at(self, i: Fraction) -> tuple[int, int, int]:
        k = self.indices.index(i)
        return (self.down_kernels[k], self.up_kernels[k], self.mobile[k])

    def total_mobile(self) -> int:
        return sum(self.mobile)

    def is_exact(self) -> bool:
        """Exactness by counting: the mobile dimensions sum to rank + 1."""
        return self.total_mobile() == self.rank + 1

    def is_minimal(self) -> bool:
        """Every non-integer index carries positive mobile dimension."""
        return all(
            m > 0
            for i, m in zip(self.indices, self.mobile)
            if i.denominator != 1
        )


def support_subset(
    ladder: DeltaSet, data: NumericalData
) -> tuple[DeltaSet, dict[Fraction, Fraction]]:
    """Drop non-integer indices with zero mobile dimension; reindex the rest.

    Returns the unique ladder order-isomorphic to the surviving subset while
    fixing every integer, together with the order isomorphism as a map from
    new indices to the original ones.
    """
    if data.indices != ladder.indices:
        raise ValueError("numerical data is indexed by a different ladder")
    survivors = [
        i
        for i, m in zip(ladder.indices, data.mobile)
        if i.denominator == 1 or m != 0
    ]
    new_steps = []
    for gap in range(1, ladder.d + 1):
        inside = [i for i in survivors if gap - 1 < i <= gap]
        new_steps.append(len(inside))
    reduced = build_delta(ladder.d, new_steps)
    return reduced, dict(zip(reduced.indices, survivors))
