"""Exact rational linear algebra: matrices, canonical subspaces, minors.

All arithmetic uses :class:`fractions.Fraction`, so every result is exact and
subspace equality is decidable: a subspace is stored as the reduced row
echelon basis of its row space, which is the unique canonical representative.
Values are immutable and hashable.

A ``Subspace`` stores that basis as its rows: ``Subspace(ambient_dim, rows)``,
where ``rows`` is a tuple of row tuples of ``Fraction``, one per basis vector.
Every layer reads the basis row by row, so no flat matrix stands between
them. ``Matrix`` is only the input of ``rref`` and ``kernel_basis`` (and of
``determinant``); ``rref`` returns its result as row tuples.

Entries are coerced once, at the boundary. ``Matrix.from_rows``,
``Subspace.from_spanning``, ``Subspace.residual`` and the file loaders take
int, ``Fraction`` and ``"p/q"`` (or ``"p"``) string entries, refuse floats,
bools and any other string form, and keep an entry that is already a
``Fraction`` as it is; ``Subspace.from_spanning`` also keeps vectors of
``Fraction`` entries that already form a canonical basis as they are and
reduces any others. Results
computed inside the library are built as ``Subspace(n, rows)`` directly,
and its ``__post_init__`` checks them again: every entry a ``Fraction``,
every basis canonical. Sharing one ``Fraction`` object, or one row tuple,
between values is safe, because both are immutable.

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
size, each profile keeping the limits it assembles under ``_limits``) and
``_minor_table`` (the oracle's nonzero minors of the basis, as a pair: a
dict from column set to nonzero int, and the positive int scale that each
of those ints is the true minor times). None of them is a field, so
equality, hash, repr and file text are the fields' alone. Every
constructor starts a value with no memo, and a pickle or copy carries
``ambient_dim``, ``rows`` and ``_pivots`` only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations
from operator import is_not
from typing import Iterable, Sequence

Rational = Fraction

_Entry = int | Fraction | str

Row = tuple[Fraction, ...]

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
    """One exact value as a Fraction, refusing the floats and bools Fraction() takes.

    A string must be ``p`` or ``p/q`` (see ``parse_rational``): the decimals,
    exponents, underscores and surrounding whitespace that Fraction() reads
    raise ValueError.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
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
    """Immutable rational matrix, the input of ``rref``, ``kernel_basis`` and
    ``determinant``; entries stored row-major."""

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

    def row(self, i: int) -> Row:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]


def rref(m: Matrix) -> tuple[Row, ...]:
    """Reduced row echelon form (Gauss-Jordan) as row tuples; zero rows last.

    The result is the unique RREF of the input, so matrices with equal row
    space reduce to identical rows once zero rows are discarded. The pivot
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
    return tuple(map(tuple, work))


def kernel_basis(m: Matrix) -> tuple[Row, ...]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column."""
    reduced = rref(m)
    pivots: list[int] = []
    for row in reduced:
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
            e = reduced[r][free]
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
    """A linear subspace of Q^ambient_dim, held as its canonical (RREF) rows.

    ``rows`` is a tuple of row tuples of ``Fraction``, the reduced row
    echelon basis. Two subspaces are equal as values exactly when they are
    equal as sets of vectors; the canonical rows make the dataclass equality
    and hash do the right thing.
    """

    ambient_dim: int
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        n = self.ambient_dim
        rows = self.rows
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if type(rows) is not tuple or not set(map(type, rows)) <= {tuple}:
            raise TypeError("a subspace basis is a tuple of row tuples")
        if not set(map(len, rows)) <= {n}:
            raise ValueError("basis row width does not match the ambient dimension")
        # exactness guard; from_spanning is the coercing constructor
        if not set(map(type, chain.from_iterable(rows))) <= {Fraction}:
            raise TypeError("basis entries must be Fractions; use Subspace.from_spanning")
        # Guard canonicity column by column. With r rows given a pivot so
        # far, a column is either zero from row r on, or the next pivot
        # column and then the unit vector of row r. So pivots strictly
        # increase, every lead is 1 and every pivot column is cleared; a row
        # left without a pivot is zero. The pivots are kept for membership
        # tests. The shared ZERO and ONE compare by identity, in C.
        k = len(rows)
        zeros = (ZERO,) * k
        pivots: list[int] = []
        for j, column in enumerate(zip(*rows)):
            r = len(pivots)
            if r == k:
                break
            lead = column[r]
            if lead is ONE or (lead is not ZERO and lead):
                if column != zeros[:r] + (ONE,) + zeros[r + 1 :]:
                    raise ValueError("basis is not in reduced row echelon form")
                pivots.append(j)
            elif column[r + 1 :] != zeros[r + 1 :]:
                raise ValueError("basis is not in reduced row echelon form")
        if len(pivots) < k:
            raise ValueError("zero row in a subspace basis")
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __getstate__(self) -> dict:
        # leaves out the memos of derived invariants (see the module docstring)
        return {name: vars(self)[name] for name in ("ambient_dim", "rows", "_pivots")}

    @classmethod
    def from_spanning(
        cls, ambient_dim: int, vectors: Iterable[Sequence[_Entry]]
    ) -> "Subspace":
        """Canonical subspace spanned by the given vectors.

        Equal spans produce bit-identical values regardless of the order,
        scaling or redundancy of the input vectors. Vectors of ``Fraction``
        entries that already form a canonical basis become the rows as they
        are, with no elimination: the RREF is unique, so reducing them would
        give the same value. The canonicity guard is the one walk over the
        entry types. Any other input (an entry of another type, a zero row,
        unsorted pivots, a non-unit lead, an uncleared pivot column, more
        rows than the rank) is reduced by ``rref`` once, and its nonzero
        rows are kept; entries of other types are first coerced as
        ``Matrix.from_rows`` does.
        """
        rows = tuple(map(tuple, vectors))
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(row)} in ambient dimension {ambient_dim}"
                )
        try:
            return cls(ambient_dim, rows)
        except TypeError:  # an entry that is not a Fraction: coerce, then reduce
            rows = tuple(tuple(map(exact_rational, row)) for row in rows)
        except ValueError:
            pass  # not canonical: reduce below
        reduced = rref(Matrix(len(rows), ambient_dim, tuple(chain.from_iterable(rows))))
        return cls(ambient_dim, tuple(row for row in reduced if not is_zero_vector(row)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        zeros = (ZERO,) * ambient_dim
        return cls(
            ambient_dim, tuple(zeros[:i] + (ONE,) + zeros[i + 1 :] for i in range(ambient_dim))
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vector: Sequence[_Entry]) -> tuple[Fraction, ...]:
        """The vector reduced by the basis pivots: linear, and zero exactly on members.

        A canonical row is zero before its pivot and 1 at it, so only its
        nonzero entries after the pivot change the vector.
        """
        vec = list(_exact(vector))
        ncols = self.ambient_dim
        if len(vec) != ncols:
            raise ValueError("vector length does not match the ambient dimension")
        for row, pivot in zip(self.rows, self._pivots):
            factor = vec[pivot]
            if factor is not ZERO and factor:
                vec[pivot] = ZERO
                for j in range(pivot + 1, ncols):
                    e = row[j]
                    if e is not ZERO and e:
                        vec[j] -= factor * e
        return tuple(vec)

    def contains_vector(self, vector: Sequence[_Entry]) -> bool:
        return is_zero_vector(self.residual(vector))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(self.contains_vector(r) for r in other.rows)

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
    stacked = [row + row for row in a.rows] + [row + zeros for row in b.rows]
    reduced = rref(Matrix(len(stacked), 2 * n, tuple(chain.from_iterable(stacked))))
    sum_rows = []
    meet_rows = []
    for r in reduced:
        left, right = r[:n], r[n:]
        if not is_zero_vector(left):
            sum_rows.append(left)
        elif not is_zero_vector(right):
            meet_rows.append(right)
    return Subspace(n, tuple(sum_rows)), Subspace(n, tuple(meet_rows))


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
    rows = v.rows
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
    rows = v.rows
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
