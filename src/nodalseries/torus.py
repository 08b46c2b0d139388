"""One-parameter torus action on Grass(n, W1 + W2) and its orbit geometry.

The ambient space splits into two coordinate blocks; the torus scales the
first block by 1/x and fixes the second. Orbit closures of nonfixed points
are rational curves whose boundary points and degree are computed
structurally from four block invariants of the moving subspace: its
intersection with each block and its projection onto each block.

Those four make up a :class:`BlockProfile`. :func:`block_profile` computes
it once per ``Subspace`` value and split and keeps it on the value, so the
limits, the degree, fixedness and the meetings of one value together make
one elimination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .linalg import ZERO, Matrix, Rational, Subspace, exact_rational, is_zero_vector, rref


class IntersectionHypothesisError(ValueError):
    """Raised when orbit closures are compared outside the supported regime."""


@dataclass(frozen=True)
class TorusSplit:
    """Ambient block decomposition: first-block coordinates come first."""

    dim1: int
    dim2: int

    def __post_init__(self) -> None:
        if self.dim1 < 0 or self.dim2 < 0:
            raise ValueError("block dimensions must be nonnegative")
        if self.dim1 + self.dim2 == 0:
            raise ValueError("ambient dimension must be positive")

    @property
    def ambient_dim(self) -> int:
        return self.dim1 + self.dim2

    def block_coords(self, block: int) -> range:
        if block == 1:
            return range(0, self.dim1)
        if block == 2:
            return range(self.dim1, self.ambient_dim)
        raise ValueError("block must be 1 or 2")


class Direction(enum.Enum):
    ZERO = "zero"
    INFINITY = "infinity"


@dataclass(frozen=True)
class BlockProfile:
    """The four block invariants of a subspace of W1 + W2.

    ``inside_*`` is the part of the subspace lying entirely in one block
    (reported inside that block); ``onto_*`` is its projection to the block.
    Always inside_first <= onto_first, inside_second <= onto_second, and
    dim V = dim inside_first + dim onto_second = dim onto_first + dim inside_second,
    so the orbit degree dim onto_first - dim inside_first equals
    dim onto_second - dim inside_second. Limits, the degree and the meeting
    of two orbits are all read off the profile: one elimination per space.
    """

    inside_first: Subspace
    inside_second: Subspace
    onto_first: Subspace
    onto_second: Subspace

    @property
    def degree(self) -> int:
        """Orbit degree, dim onto_first - dim inside_first; 0 iff fixed."""
        return self.onto_first.dim - self.inside_first.dim

    def limit(self, direction: Direction) -> Subspace:
        """Boundary point of the orbit closure in the given direction.

        Toward zero the first-block projection survives together with the
        part inside the second block; toward infinity the roles swap.
        """
        split = TorusSplit(self.onto_first.ambient_dim, self.onto_second.ambient_dim)
        if direction is Direction.ZERO:
            return assemble_split_subspace(split, self.onto_first, self.inside_second)
        if direction is Direction.INFINITY:
            return assemble_split_subspace(split, self.inside_first, self.onto_second)
        raise ValueError(f"unknown direction {direction!r}")

    def meeting_point(self, other: BlockProfile) -> Subspace | None:
        """Common point of this orbit closure and ``other``'s; see
        :func:`orbit_intersection`, which states the supported regime."""
        if self.inside_first.dim + self.onto_second.dim != (
            other.inside_first.dim + other.onto_second.dim
        ):
            raise ValueError("orbit intersection needs subspaces of equal dimension")
        if self.degree == 0 or other.degree == 0:
            raise ValueError("orbit intersection needs nonfixed subspaces")
        forward = other.onto_first == self.inside_first
        mirrored = other.onto_second == self.inside_second
        if not (forward or mirrored):
            raise IntersectionHypothesisError(
                "neither block condition links the two orbits; the dichotomy is"
                " only available when one orbit ends where the other begins"
            )
        if forward and self.onto_second == other.inside_second:
            return self.limit(Direction.INFINITY)
        if mirrored and self.onto_first == other.inside_first:
            return self.limit(Direction.ZERO)
        return None

    def meets_transversally(self, other: BlockProfile) -> bool:
        """First-order transversality certificate at the meeting point; see
        :func:`meeting_is_transverse` for the argument."""
        if self.meeting_point(other) is None:
            raise ValueError("orbits do not meet; no transversality to certify")
        # Forward linking: self ends (toward infinity) where other begins;
        # otherwise the roles are mirrored. At the node the ending orbit sits
        # at the low end of its weight interval, the starting one at the high end.
        forward = other.onto_first == self.inside_first
        ending, starting = (self, other) if forward else (other, self)
        end_level = ending.inside_first.dim
        start_level = starting.onto_first.dim
        ending_tangent = end_level + 1 <= ending.onto_first.dim
        starting_tangent = start_level - 1 >= starting.inside_first.dim
        # The first-order terms sit at weight levels end+1 and start-1; when the
        # levels agree at the point (end == start) those are eigenvectors for
        # distinct torus weights, hence independent once both are nonzero.
        return ending_tangent and starting_tangent and end_level == start_level


def _check_member(split: TorusSplit, v: Subspace) -> None:
    if v.ambient_dim != split.ambient_dim:
        raise ValueError(
            f"subspace lives in Q^{v.ambient_dim}, split expects Q^{split.ambient_dim}"
        )


def act(split: TorusSplit, x: Rational, v: Subspace) -> Subspace:
    """Image of v under the torus element x: first block scales by 1/x.

    Scaling columns keeps the echelon shape, so the canonical basis of the
    image needs no elimination. A row with its pivot in the first block is
    rescaled by x to restore the unit pivot: its first-block entries come
    back unchanged and its second-block entries are multiplied by x. Any
    other row is zero on the first block and stays as it is.
    """
    _check_member(split, v)
    x = exact_rational(x)
    if x == 0:
        raise ValueError("torus elements are nonzero")
    dim1 = split.dim1
    entries: list[Fraction] = []
    for row in v.basis_rows():
        if is_zero_vector(row[:dim1]):
            entries.extend(row)
        else:
            entries.extend(row[:dim1])
            entries.extend(e * x if e is not ZERO and e else e for e in row[dim1:])
    return Subspace(split.ambient_dim, Matrix(v.dim, split.ambient_dim, tuple(entries)))


def _canonical(ambient_dim: int, rows: list[tuple[Fraction, ...]]) -> Subspace:
    """The subspace whose canonical basis is given row by row."""
    entries = tuple(e for row in rows for e in row)
    return Subspace(ambient_dim, Matrix(len(rows), ambient_dim, entries))


def _split_echelon(
    rows: tuple[tuple[Fraction, ...], ...], cut: int, width: int
) -> tuple[Subspace, Subspace]:
    """Projection to the leading ``cut`` columns and part inside the rest.

    For reduced echelon rows, the leading parts of the rows with a pivot
    before the cut are the canonical basis of the projection. The other rows
    vanish before the cut, so their trailing parts are the canonical basis
    of the part lying in the trailing columns.
    """
    onto = [row[:cut] for row in rows if not is_zero_vector(row[:cut])]
    inside = [row[cut:] for row in rows if is_zero_vector(row[:cut])]
    return _canonical(cut, onto), _canonical(width - cut, inside)


def _onto_and_other_inside(
    split: TorusSplit, v: Subspace, block: int
) -> tuple[Subspace, Subspace]:
    """Projection of v onto a block and the part of v inside the other block.

    The canonical basis is reduced in [W1|W2] column order, so the first
    block is read off it directly; for the second block one elimination puts
    the basis in [W2|W1] order.
    """
    _check_member(split, v)
    if block == 1:
        return _split_echelon(v.basis_rows(), split.dim1, split.ambient_dim)
    if block == 2:
        dim1 = split.dim1
        swapped = tuple(e for row in v.basis_rows() for e in row[dim1:] + row[:dim1])
        reduced = rref(Matrix(v.dim, split.ambient_dim, swapped))
        return _split_echelon(reduced.rows(), split.dim2, split.ambient_dim)
    raise ValueError("block must be 1 or 2")


def project_block(split: TorusSplit, v: Subspace, block: int) -> Subspace:
    """Projection of v onto a block, as a subspace of that block."""
    return _onto_and_other_inside(split, v, block)[0]


def meet_block(split: TorusSplit, v: Subspace, block: int) -> Subspace:
    """Intersection of v with a block, reported inside that block."""
    return _onto_and_other_inside(split, v, 3 - block)[1]


def _padded_rows(
    split: TorusSplit, s: Subspace, block: int
) -> list[tuple[Fraction, ...]]:
    coords = split.block_coords(block)
    if s.ambient_dim != len(coords):
        raise ValueError("subspace does not live in the requested block")
    if s.dim == 0:
        return []
    pad = (ZERO,) * (split.ambient_dim - len(coords))
    if block == 1:
        return [row + pad for row in s.basis_rows()]
    return [pad + row for row in s.basis_rows()]


def embed_block(split: TorusSplit, s: Subspace, block: int) -> Subspace:
    """A block subspace viewed inside the ambient space.

    Zero padding keeps a canonical basis canonical.
    """
    return _canonical(split.ambient_dim, _padded_rows(split, s, block))


def assemble_split_subspace(split: TorusSplit, s1: Subspace, s2: Subspace) -> Subspace:
    """The direct sum of a first-block and a second-block subspace.

    The padded rows of s1 vanish on the second block and have their pivots
    in the first; those of s2 vanish on the first block. Stacked in that
    order they are already the canonical basis of the sum.
    """
    rows = _padded_rows(split, s1, 1) + _padded_rows(split, s2, 2)
    return _canonical(split.ambient_dim, rows)


def block_profile(split: TorusSplit, v: Subspace) -> BlockProfile:
    """All four block invariants of v, with one elimination per value.

    The profile is kept in v's instance dictionary under ``_block_profiles``,
    keyed by ``split.dim1`` (the ambient dimension fixes ``dim2``), so every
    later query on the same object and split reads it back. It is not a
    field: equality, hash, repr and file text ignore it.
    """
    _check_member(split, v)
    memo = vars(v).setdefault("_block_profiles", {})
    profile = memo.get(split.dim1)
    if profile is None:
        onto_first, inside_second = _onto_and_other_inside(split, v, 1)
        onto_second, inside_first = _onto_and_other_inside(split, v, 2)
        profile = memo[split.dim1] = BlockProfile(
            inside_first=inside_first,
            inside_second=inside_second,
            onto_first=onto_first,
            onto_second=onto_second,
        )
    return profile


def is_fixed(split: TorusSplit, v: Subspace) -> bool:
    """True when v is a fixed point, i.e. splits as (v meet W1) + (v meet W2)."""
    return block_profile(split, v).degree == 0


def limit(split: TorusSplit, v: Subspace, direction: Direction) -> Subspace:
    """Boundary point of the orbit closure of v; a fixed point is its own limit."""
    return block_profile(split, v).limit(direction)


def orbit_degree(split: TorusSplit, v: Subspace) -> int:
    """Degree of the orbit closure of v in the Grassmannian; 0 iff fixed.

    It is dim onto_first - dim inside_first = dim onto_second - dim
    inside_second of the block profile (:attr:`BlockProfile.degree`).
    """
    return block_profile(split, v).degree


def orbit_intersection(split: TorusSplit, v: Subspace, vp: Subspace) -> Subspace | None:
    """Common point of the two orbit closures, or None when they are disjoint.

    Supported regime: both subspaces nonfixed of equal dimension, and either
    the first-block projection of vp equals the first-block part of v, or the
    second-block part of v equals the second-block projection of vp. In that
    regime the closures meet in at most one point, a fixed point which is a
    shared boundary limit of both orbits. Outside it, ValueError says which
    hypothesis fails (equal dimension first, then nonfixedness), and
    IntersectionHypothesisError says that neither block condition holds.
    """
    return block_profile(split, v).meeting_point(block_profile(split, vp))


def meeting_is_transverse(split: TorusSplit, v: Subspace, vp: Subspace) -> bool:
    """First-order certificate that the two orbit closures meet transversally.

    The first-block weights of the nonzero Pluecker coordinates of a
    subspace form the gap-free interval [dim inside_first, dim onto_first],
    so both weight sets are read off the block profiles, with no minors. At
    an orbit's limit only the minors at one end of its interval survive, and
    the first-order term, which spans the curve's tangent line there, sits
    one level inward. The certificate checks that both first-order terms
    exist and that the two orbits sit at the same end level at the node.

    Why it cannot fail once the orbits meet: at the shared fixed point P the
    tangent space Hom(P, W/P) of the Grassmannian splits into torus weight
    spaces -1, 0 and +1. The orbit that ends at P and the orbit that starts
    at P have tangent lines in the two opposite nonzero weight spaces. Both
    are nonzero, because a nonfixed orbit's weight interval has at least two
    points, so each curve is smooth at its limits. Eigenvectors for distinct
    weights are independent, so the meeting is transverse.

    Raises ValueError when the closures are disjoint, and whatever
    :func:`orbit_intersection` raises outside its regime.
    """
    return block_profile(split, v).meets_transversally(block_profile(split, vp))
