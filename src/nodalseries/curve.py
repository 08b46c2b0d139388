"""Concrete section-space model for two rational curves glued at one point.

The total space of sections is U1 + U2, where U1 holds polynomials of degree
at most d in a local coordinate t at the node on the first component, and U2
holds polynomials of degree at most d in a local coordinate s at the node on
the second component (the basis s^j spans the sections allowed a pole of
order j at the far point, i.e. U2 models the degree-d twist on that side).

Twisting i steps trades degree between the components. At a non-integer
index the space of sections splits as a flag on each side with no condition
at the node; at an integer index a single gluing condition matches the
leading coefficients: coeff of t^i equals coeff of s^(d-i). Every section
space has dimension d + 1. Membership is read off those equations (zero off
the flags, and the gluing condition at integer i), so testing it builds no
section space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import ONE, ZERO, Matrix, Rational, Subspace, exact_rational
from .torus import TorusSplit, act


@dataclass(frozen=True)
class CurveModel:
    """Fixes the degree d and with it the ambient U1 + U2 and its block split."""

    d: int

    def __post_init__(self) -> None:
        if type(self.d) is not int:
            raise TypeError(f"degree must be an integer, got {self.d!r}")
        if self.d < 0:
            raise ValueError("degree must be nonnegative")

    @property
    def split(self) -> TorusSplit:
        return TorusSplit(self.d + 1, self.d + 1)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.d + 2

    def t_coord(self, power: int) -> int:
        """Ambient coordinate of t^power in the first block."""
        if not 0 <= power <= self.d:
            raise ValueError(f"t^{power} is not a basis monomial for degree {self.d}")
        return power

    def s_coord(self, power: int) -> int:
        """Ambient coordinate of s^power in the second block."""
        if not 0 <= power <= self.d:
            raise ValueError(f"s^{power} is not a basis monomial for degree {self.d}")
        return self.d + 1 + power

    def first_flag_coords(self, level: int) -> tuple[int, ...]:
        """Coordinates of the first-block flag: t-vanishing order >= level."""
        return tuple(self.t_coord(j) for j in range(level, self.d + 1))

    def second_flag_coords(self, level: int) -> tuple[int, ...]:
        """Coordinates of the second-block flag allowing pole order <= level."""
        return tuple(self.s_coord(j) for j in range(self.d - level, self.d + 1))


def _section_rows(model: CurveModel, i: Fraction) -> list[tuple[int, ...]]:
    """The ambient coordinates of each row of S_i's canonical basis.

    Every entry of those rows is 0 or 1: at integer i the glue row
    t^i + s^(d-i) comes first (its s-entry is no other row's pivot), then
    the t and the s unit rows of the flags.
    """
    if i < 0 or i > model.d:
        raise ValueError(f"index {i} outside [0, {model.d}]")
    rows: list[tuple[int, ...]] = []
    if i.denominator == 1:
        level = int(i)
        rows.append((model.t_coord(level), model.s_coord(model.d - level)))
        t_low, s_high = level + 1, level - 1
    else:
        t_low, s_high = math.ceil(i), math.floor(i)
    rows.extend((c,) for c in model.first_flag_coords(t_low))
    rows.extend((c,) for c in model.second_flag_coords(s_high))
    return rows


def section_space(model: CurveModel, i: Rational) -> Subspace:
    """Sections of the i-step twist, as a subspace of U1 + U2.

    Non-integer i: the direct sum of the first-block flag at level ceil(i)
    and the second-block flag at level floor(i); no gluing. Integer i: inside
    the level-i flags, the kernel of the node condition
    coeff(t^i) = coeff(s^(d-i)). Either way the dimension is d + 1.
    """
    rows = _section_rows(model, exact_rational(i))
    n = model.ambient_dim
    entries = [ZERO] * (len(rows) * n)
    for r, coords in enumerate(rows):
        for c in coords:
            entries[r * n + c] = ONE
    return Subspace(n, Matrix(len(rows), n, tuple(entries)))


def twisted_space_at(model: CurveModel, i: Rational, x: Rational) -> Subspace:
    """Ambient section space at the point x of the orbit through index i.

    The torus moves the glued integer-index spaces and fixes the split
    non-integer ones; x = 1 recovers ``section_space`` itself.
    """
    return act(model.split, x, section_space(model, i))


def in_section_space(model: CurveModel, v: Subspace, i: Rational) -> bool:
    """Whether v lies inside the i-th section space S_i.

    Reads S_i's equations off its rows instead of building it: a vector lies
    in S_i exactly when it is zero off the rows' coordinates and, at integer
    i, its t^i and s^(d-i) coefficients agree. Each basis row of v is tested.
    """
    if v.ambient_dim != model.ambient_dim:
        return False
    rows = _section_rows(model, exact_rational(i))
    support = {c for coords in rows for c in coords}
    off = [c for c in range(model.ambient_dim) if c not in support]
    glue = rows[0] if len(rows[0]) == 2 else None
    for row in v.basis_rows():
        if any(row[c] is not ZERO and row[c] for c in off):
            return False
        if glue is not None:
            t, s = row[glue[0]], row[glue[1]]
            if t is not s and t != s:
                return False
    return True


def is_generalized_linear_series(
    model: CurveModel, v: Subspace, i: Rational, expected_r: int
) -> bool:
    """Membership test: v sits inside the i-th section space with dim r + 1."""
    if expected_r < 0 or v.dim != expected_r + 1:
        return False
    return in_section_space(model, v, i)
