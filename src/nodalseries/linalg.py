"""Exact rational linear algebra: matrices, canonical subspaces, minors.

All arithmetic uses :class:`fractions.Fraction`, so every result is exact and
subspace equality is decidable: a subspace is stored as the reduced row
echelon basis of its row space, which is the unique canonical representative.
Values are immutable and hashable.

Entries are coerced once, at the boundary. ``Matrix.from_rows``,
``Subspace.from_spanning``, ``Subspace.residual`` and the file loaders take
int, ``Fraction`` and ``"p/q"`` string entries, refuse floats and bools, and
keep an entry that is already a ``Fraction`` as it is;
``Subspace.from_spanning`` also keeps vectors that already form a canonical
basis as they are and reduces any others. Results computed inside the
library are built as ``Matrix(...)`` or ``Subspace(...)`` directly, and their
``__post_init__`` checks them again: every entry a ``Fraction``, every basis
canonical. Sharing one ``Fraction`` object between
matrices is safe, because it is immutable.

The bases the library handles are mostly zeros, so 0 and 1 are two shared
objects, ``ZERO`` and ``ONE``: ``parse_rational`` returns them, and every
zero that ``rref`` produces is ``ZERO``. Tests for zero look at identity
first (``e is not ZERO and e``) and fall back on the value, so a freshly
built ``Fraction(0)`` gives the same answers, only more slowly. ``rref``
updates the other rows only on the pivot row's nonzero columns, so its work
follows the nonzero entries, not the size of the matrix.

Besides its two fields, a ``Subspace`` keeps results derived from them in
its instance dictionary: its pivot columns (``_pivots``, set by the
canonicity guard) and the memos of the invariants other modules compute
from it, ``_block_profiles`` (``torus.block_profile``, one per first-block
size) and ``_minor_table`` (the oracle's nonzero minors of the basis, as a
pair: a dict from column set to nonzero int, and the positive int scale
that each of those ints is the true minor times). None of them is a
field, so equality, hash, repr and file text are the fields' alone. Every
constructor starts a value with no memo, and a pickle or copy carries the
fields and the pivots only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import is_not
from typing import Iterable, Sequence

Rational = Fraction

_Entry = int | Fraction | str

ZERO = Fraction(0)
ONE = Fraction(1)


_NOT_ZERO_OBJECT = partial(is_not, ZERO)


def is_zero_vector(entries: Iterable[Fraction]) -> bool:
    """Whether every entry is 0; the shared zeros are skipped by identity, in C."""
    return not any(filter(_NOT_ZERO_OBJECT, entries))


def format_rational(value: Fraction) -> str:
    """Render ``p/q``, or plain ``p`` when the denominator is 1."""
    if value is ZERO:
        return "0"
    if value is ONE:
        return "1"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# p or p/q in decimal digits, with an optional minus sign and q nonzero
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def exact_rational(value: _Entry) -> Fraction:
    """One exact value as a Fraction, refusing the floats and bools Fraction() takes."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"{type(value).__name__} values are not exact rationals")
    return Fraction(value)


def _exact(entries: Iterable[_Entry]) -> tuple[Fraction, ...]:
    """The entries as Fractions; those that already are stay as they are."""
    entries = tuple(entries)
    if set(map(type, entries)) <= {Fraction}:
        return entries
    return tuple(map(exact_rational, entries))


def parse_rational(text: str) -> Fraction:
    """Read ``p`` or ``p/q``; any other text raises ValueError.

    The match already holds both integers, so the text is parsed once. The
    values 0 and 1 come back as the shared ``ZERO`` and ``ONE``.
    """
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational of the form p or p/q: {text!r}")
    p, q = match.groups()
    p = int(p)
    q = int(q) if q else 1
    if not p:
        return ZERO
    if p == q:
        return ONE
    return Fraction(p, q) if q != 1 else Fraction(p)


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix; entries stored row-major."""

    nrows: int
    ncols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.nrows * self.ncols:
            raise ValueError(
                f"expected {self.nrows * self.ncols} entries, got {len(self.entries)}"
            )
        # exactness guard; from_rows is the coercing constructor
        if not set(map(type, self.entries)) <= {Fraction}:
            raise TypeError("matrix entries must be Fractions; use Matrix.from_rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[_Entry]], ncols: int | None = None) -> "Matrix":
        rows = [_exact(row) for row in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        flat = tuple(e for row in rows for e in row)
        return cls(len(rows), ncols, flat)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.nrows))

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(format_rational(e) for e in row) for row in self.rows()
        ) + "]"


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form (Gauss-Jordan); zero rows stay at the bottom.

    The result is the unique RREF of the input, so matrices with equal row
    space reduce to identical values once zero rows are discarded. The pivot
    row is zero before the pivot column, so the other rows change only on
    its nonzero columns after it; each pivot becomes ``ONE``, and each zero
    that the elimination produces becomes ``ZERO``.
    """
    ncols = m.ncols
    work = [list(m.row(i)) for i in range(m.nrows)]
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == m.nrows:
            break
        for r in range(pivot_row, m.nrows):
            lead = work[r][col]
            if lead is not ZERO and lead:
                break
        else:
            continue
        row = work[r]
        work[r] = work[pivot_row]
        work[pivot_row] = row
        support = [j for j in range(col + 1, ncols) if row[j] is not ZERO and row[j]]
        if lead is not ONE and lead != 1:
            for j in support:
                row[j] /= lead
        row[col] = ONE
        for other in work:
            factor = other[col]
            if other is row or factor is ZERO or not factor:
                continue
            for j in support:
                a = other[j]
                product = factor * row[j]
                other[j] = -product if a is ZERO else (a - product) or ZERO
            other[col] = ZERO
        pivot_row += 1
    return Matrix(m.nrows, ncols, tuple(e for row in work for e in row))


def kernel_basis(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column."""
    reduced = rref(m)
    pivots: list[int] = []
    for i in range(reduced.nrows):
        row = reduced.row(i)
        for j, e in enumerate(row):
            if e is not ZERO and e:
                pivots.append(j)
                break
    pivot_set = set(pivots)
    out = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * m.ncols
        vec[free] = ONE
        for r, pc in enumerate(pivots):
            e = reduced.at(r, free)
            if e is not ZERO and e:
                vec[pc] = -e
        out.append(tuple(vec))
    return tuple(out)


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free-enough Gaussian elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return ONE
    work = [list(m.row(i)) for i in range(n)]
    det = ONE
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        lead = work[col][col]
        det *= lead
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col] / lead
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim in canonical (RREF) basis.

    Two subspaces are equal as values exactly when they are equal as sets of
    vectors; the canonical basis makes the dataclass equality and hash do the
    right thing.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if self.basis.ncols != self.ambient_dim:
            raise ValueError("basis width does not match the ambient dimension")
        if self.basis.nrows > self.ambient_dim:
            raise ValueError("more basis rows than the ambient dimension")
        # Guard canonicity: strictly increasing pivots, unit leads, cleared
        # columns. The pivots are kept for membership tests.
        ncols = self.ambient_dim
        entries = self.basis.entries
        nrows = self.basis.nrows
        pivots = []
        last_pivot = -1
        for i, row in enumerate(self.basis.rows()):
            for pivot, lead in enumerate(row):
                if lead is not ZERO and lead:
                    break
            else:
                raise ValueError("zero row in a subspace basis")
            if pivot <= last_pivot or (lead is not ONE and lead != 1):
                raise ValueError("basis is not in reduced row echelon form")
            # the lead's column must be the i-th unit vector
            column = (ZERO,) * i + (lead,) + (ZERO,) * (nrows - i - 1)
            if entries[pivot::ncols] != column:
                raise ValueError("basis is not in reduced row echelon form")
            pivots.append(pivot)
            last_pivot = pivot
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __getstate__(self) -> dict:
        # leaves out the memos of derived invariants (see the module docstring)
        return {name: vars(self)[name] for name in ("ambient_dim", "basis", "_pivots")}

    @classmethod
    def from_spanning(
        cls, ambient_dim: int, vectors: Iterable[Sequence[_Entry]]
    ) -> "Subspace":
        """Canonical subspace spanned by the given vectors.

        Equal spans produce bit-identical values regardless of the order,
        scaling or redundancy of the input vectors. Vectors that already
        form a canonical basis are kept as they are, with no elimination:
        the RREF is unique, so reducing them would give the same value.
        Any other input (a zero row, unsorted pivots, a non-unit lead, an
        uncleared pivot column, more rows than the rank) is reduced.
        """
        rows = [_exact(v) for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(row)} in ambient dimension {ambient_dim}"
                )
        m = Matrix(len(rows), ambient_dim, tuple(e for row in rows for e in row))
        try:
            return cls(ambient_dim, m)
        except ValueError:
            pass  # not canonical: reduce below
        reduced = rref(m)
        # the zero rows of a reduced matrix are at the bottom
        rank = reduced.nrows
        while rank and is_zero_vector(reduced.row(rank - 1)):
            rank -= 1
        return cls(ambient_dim, Matrix(rank, ambient_dim, reduced.entries[: rank * ambient_dim]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(0, ambient_dim, ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        entries = tuple(
            ONE if i == j else ZERO for i in range(ambient_dim) for j in range(ambient_dim)
        )
        return cls(ambient_dim, Matrix(ambient_dim, ambient_dim, entries))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.basis.rows()

    def residual(self, vector: Sequence[_Entry]) -> tuple[Fraction, ...]:
        """The vector reduced by the basis pivots: linear, and zero exactly on members.

        A canonical row is zero before its pivot and 1 at it, so only its
        nonzero entries after the pivot change the vector.
        """
        vec = list(_exact(vector))
        ncols = self.ambient_dim
        if len(vec) != ncols:
            raise ValueError("vector length does not match the ambient dimension")
        entries = self.basis.entries
        for i, pivot in enumerate(self._pivots):
            factor = vec[pivot]
            if factor is not ZERO and factor:
                vec[pivot] = ZERO
                start = i * ncols
                for j in range(pivot + 1, ncols):
                    e = entries[start + j]
                    if e is not ZERO and e:
                        vec[j] -= factor * e
        return tuple(vec)

    def contains_vector(self, vector: Sequence[_Entry]) -> bool:
        return is_zero_vector(self.residual(vector))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(self.contains_vector(r) for r in other.basis_rows())

    def __le__(self, other: "Subspace") -> bool:
        return other.contains(self)

    def __str__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def sum_and_intersection(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Sum and intersection in one elimination (Zassenhaus block trick).

    Row-reducing the block matrix [A | A; B | 0] leaves the sum in the left
    halves of the rows with nonzero left half, and the intersection in the
    right halves of the rows whose left half vanished. Both sets of halves
    are already reduced: a row with its pivot in the left half is zero
    before it, and every other row of the reduced matrix is zero in its
    column, and the same holds for the right halves of the remaining rows.
    So each is read off as a canonical basis, with no second elimination.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = a.ambient_dim
    zeros = (ZERO,) * n
    stacked = [e for row in a.basis_rows() for e in row + row]
    stacked += [e for row in b.basis_rows() for e in row + zeros]
    reduced = rref(Matrix(a.dim + b.dim, 2 * n, tuple(stacked)))
    sum_rows = []
    meet_rows = []
    for r in reduced.rows():
        left, right = r[:n], r[n:]
        if not is_zero_vector(left):
            sum_rows.append(left)
        elif not is_zero_vector(right):
            meet_rows.append(right)
    return (
        Subspace(n, Matrix(len(sum_rows), n, tuple(e for row in sum_rows for e in row))),
        Subspace(n, Matrix(len(meet_rows), n, tuple(e for row in meet_rows for e in row))),
    )


def zero_coordinate_section(v: Subspace, coords: Iterable[int]) -> Subspace:
    """The subspace {w in v : w[c] = 0 for each requested coordinate c}.

    Computed on coefficients: combinations of the basis rows killing the
    selected columns are the kernel of the basis restricted to them.
    """
    cols = sorted(set(coords))
    for c in cols:
        if not 0 <= c < v.ambient_dim:
            raise ValueError(f"coordinate {c} outside ambient dimension {v.ambient_dim}")
    if not cols or v.dim == 0:
        return v
    rows = v.basis_rows()
    restricted = Matrix(len(cols), v.dim, tuple(row[c] for c in cols for row in rows))
    combos = kernel_basis(restricted)
    vectors = []
    for combo in combos:
        vec = [ZERO] * v.ambient_dim
        for coeff, row in zip(combo, rows):
            if coeff is not ZERO and coeff:
                for j, b in enumerate(row):
                    if b is not ZERO and b:
                        vec[j] += coeff * b
        vectors.append(vec)
    return Subspace.from_spanning(v.ambient_dim, vectors)


def pluecker(v: Subspace) -> dict[tuple[int, ...], Fraction]:
    """All dim(v)-sized minors of the canonical basis, by column index set.

    The output is normalized so the lexicographically first nonzero minor is
    1; at least one minor is nonzero. These are the Pluecker coordinates of
    the subspace as a point of the Grassmannian.
    """
    n = v.dim
    rows = v.basis_rows()
    out: dict[tuple[int, ...], Fraction] = {}
    first_nonzero: Fraction | None = None
    for cols in combinations(range(v.ambient_dim), n):
        minor = determinant(Matrix(n, n, tuple(row[c] for row in rows for c in cols)))
        if minor != 0 and first_nonzero is None:
            first_nonzero = minor
        out[cols] = minor
    assert first_nonzero is not None  # RREF basis always has a unit pivot minor
    if first_nonzero != 1:
        out = {k: val / first_nonzero for k, val in out.items()}
    return out
