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
space has dimension d + 1.

``section_shape`` is the one description of S_i: its glue pair and the
coordinates of its two flags. The section space, the membership test (zero
off the flags, and the gluing condition at integer i, so testing builds no
section space) and the generator's caps and free coordinates all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .linalg import ONE, ZERO, Rational, Subspace, exact_rational
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


class SectionShape(NamedTuple):
    """S_i's canonical basis by ambient coordinate.

    ``glue`` is the coordinate pair (t^i, s^(d-i)) of the row t^i + s^(d-i)
    at integer i, and None otherwise; ``t_flag`` and ``s_flag`` are the
    coordinates of the unit rows, which span S_i ∩ W1 and S_i ∩ W2. So the
    block dimensions of S_i are onto_first = |t_flag| + g, inside_first =
    |t_flag|, inside_second = |s_flag| and onto_second = |s_flag| + g, with
    g = 1 when there is a glue row.
    """

    glue: tuple[int, int] | None
    t_flag: tuple[int, ...]
    s_flag: tuple[int, ...]

    @property
    def block_dims(self) -> tuple[int, int, int, int]:
        """S_i's (onto_first, inside_first, inside_second, onto_second)."""
        g = self.glue is not None
        t, s = len(self.t_flag), len(self.s_flag)
        return t + g, t, s, s + g

    def contains(self, v: Subspace) -> bool:
        """Whether v, in this shape's ambient space, lies inside S_i.

        Reads S_i's equations instead of building it: a vector lies in S_i
        exactly when it is zero off the shape's coordinates and, at integer
        i, its t^i and s^(d-i) coefficients agree. Each basis row of v is
        tested.
        """
        glue = self.glue
        support = set(self.t_flag + self.s_flag + (glue or ()))
        off = [c for c in range(v.ambient_dim) if c not in support]
        for row in v.rows:
            if any(row[c] is not ZERO and row[c] for c in off):
                return False
            if glue is not None:
                t, s = row[glue[0]], row[glue[1]]
                if t is not s and t != s:
                    return False
        return True


def section_shape(model: CurveModel, i: Rational) -> SectionShape:
    """The shape of the i-th section space S_i, with no elimination.

    Non-integer i: the first-block flag t^ceil(i), ..., t^d and the
    second-block flag s^(d-floor(i)), ..., s^d, with no gluing. Integer i:
    the glue pair (t^i, s^(d-i)), and the flags one step inside it on each
    side, t^(i+1), ..., t^d and s^(d-i+1), ..., s^d. Either way there are
    d + 1 rows.
    """
    i = exact_rational(i)
    d, num, den = model.d, i.numerator, i.denominator
    if num < 0 or num > d * den:
        raise ValueError(f"index {i} outside [0, {d}]")
    # t^j sits at coordinate j and s^j at d + 1 + j
    t_low, s_high = -(-num // den), num // den
    glue = None
    if den == 1:
        glue = (num, 2 * d + 1 - num)
        t_low, s_high = num + 1, num - 1
    return SectionShape(
        glue, tuple(range(t_low, d + 1)), tuple(range(2 * d + 1 - s_high, 2 * d + 2))
    )


def section_space(model: CurveModel, i: Rational) -> Subspace:
    """Sections of the i-step twist, as a subspace of U1 + U2.

    Its canonical basis is written down from ``section_shape``: the glue row
    t^i + s^(d-i) first at integer i, then the unit rows of the t and the s
    flags. Every entry is 0 or 1, and the dimension is d + 1.
    """
    shape = section_shape(model, i)
    supports = ([shape.glue] if shape.glue else []) + [(c,) for c in shape.t_flag + shape.s_flag]
    n = model.ambient_dim
    rows = []
    for coords in supports:
        row = [ZERO] * n
        for c in coords:
            row[c] = ONE
        rows.append(tuple(row))
    return Subspace(n, tuple(rows))


def twisted_space_at(model: CurveModel, i: Rational, x: Rational) -> Subspace:
    """Ambient section space at the point x of the orbit through index i.

    The torus moves the glued integer-index spaces and fixes the split
    non-integer ones; x = 1 recovers ``section_space`` itself.
    """
    return act(model.split, x, section_space(model, i))


def is_generalized_linear_series(
    model: CurveModel, v: Subspace, i: Rational, expected_r: int
) -> bool:
    """Membership test: v sits inside the i-th section space with dim r + 1."""
    if expected_r < 0 or v.dim != expected_r + 1:
        return False
    return v.ambient_dim == model.ambient_dim and section_shape(model, i).contains(v)
