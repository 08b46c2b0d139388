import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from nodalseries import curve, torus
from nodalseries.chain import build_chain, validate_chain
from nodalseries.curve import CurveModel
from nodalseries.generate import random_exact_lls
from nodalseries.linalg import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    determinant,
    format_rational,
    kernel_basis,
    parse_rational,
    pluecker,
    rref,
    sum_and_intersection,
    zero_coordinate_section,
)
from nodalseries.oracle import minor_table, subspace_from_minors
from nodalseries.series import check_exact
from nodalseries.torus import Direction, TorusSplit, block_profile, limit


def rows_of(rows):
    return [list(r) for r in rows]


def test_rref_diagonal_scaling():
    assert rows_of(rref(Matrix.from_rows([[2, 0], [0, 3]]))) == [[1, 0], [0, 1]]


def test_rref_dependent_rows_leave_zero_row():
    assert rows_of(rref(Matrix.from_rows([[1, 2], [2, 4]]))) == [[1, 2], [0, 0]]


def test_rref_hand_elimination():
    # swap to put the pivot first, already reduced afterwards
    assert rows_of(rref(Matrix.from_rows([[0, 1, 1], [1, 0, 1]]))) == [
        [1, 0, 1],
        [0, 1, 1],
    ]


def test_rref_refuses_a_matrix_of_ints():
    # int entries would divide to a float 1/3 inside the elimination
    with pytest.raises(TypeError):
        rref(Matrix(1, 2, (3, 1)))
    with pytest.raises(TypeError):
        Matrix(1, 1, (1,))


def test_determinant_refuses_a_matrix_of_ints():
    with pytest.raises(TypeError):
        determinant(Matrix(2, 2, (3, 1, 1, 1)))


def test_subspace_refuses_a_float_basis():
    with pytest.raises(TypeError, match="must be Fractions"):
        Subspace(2, ((ONE, 0.5),))


@pytest.mark.parametrize("entry", [1, 0.5, True], ids=["int", "float", "bool"])
def test_subspace_refuses_a_basis_entry_that_is_not_a_fraction(entry):
    # the exactness guard walks every row, not only the first
    with pytest.raises(TypeError, match="must be Fractions"):
        Subspace(2, ((ONE, ZERO), (ZERO, entry)))


@pytest.mark.parametrize(
    "rows",
    [((ONE, ZERO), (ZERO, ONE, ZERO)), ((ONE, ZERO, ZERO),), ((ONE,),)],
    ids=["ragged", "too wide", "too narrow"],
)
def test_subspace_refuses_a_row_of_the_wrong_width(rows):
    with pytest.raises(ValueError, match="width"):
        Subspace(2, rows)


@pytest.mark.parametrize(
    "rows", [[(ONE, ZERO)], ([ONE, ZERO],)], ids=["list of rows", "list row"]
)
def test_subspace_refuses_rows_that_are_not_tuples(rows):
    # a list would make the value unhashable and unequal to its tuple twin
    with pytest.raises(TypeError, match="tuple of row tuples"):
        Subspace(2, rows)


# 0.1 would otherwise be stored as 3602879701896397/36028797018963968
INEXACT = [pytest.param(0.1, id="float"), pytest.param(True, id="bool")]


@pytest.mark.parametrize("entry", INEXACT)
def test_from_rows_refuses_inexact_entries(entry):
    with pytest.raises(TypeError, match="not exact"):
        Matrix.from_rows([[1, entry]])
    # the exact entry types are still coerced
    assert Matrix.from_rows([[1, F(1, 3), "2/5"]]).entries == (1, F(1, 3), F(2, 5))


@pytest.mark.parametrize("entry", INEXACT)
def test_from_spanning_refuses_inexact_entries(entry):
    with pytest.raises(TypeError, match="not exact"):
        Subspace.from_spanning(2, [(1, 0), (0, entry)])
    assert Subspace.from_spanning(2, [(2, "1/3")]).rows == ((1, F(1, 6)),)


@pytest.mark.parametrize("entry", INEXACT)
def test_residual_refuses_inexact_entries(entry):
    line = Subspace.from_spanning(2, [(1, 1)])
    with pytest.raises(TypeError, match="not exact"):
        line.residual((entry, 0))
    assert line.residual((1, "1/2")) == (0, F(-1, 2))


# the scalar entry points, each given one rational of its input as ``x``
STRING_TAKERS = {
    "from_spanning": lambda x: Subspace.from_spanning(2, [(1, x)]),
    "from_rows": lambda x: Matrix.from_rows([[1, x]]),
    "residual": lambda x: Subspace.from_spanning(2, [(1, 1)]).residual((x, 0)),
    "act": lambda x: torus.act(TorusSplit(2, 2), x, Subspace.from_spanning(4, [(1, 0, 1, 0)])),
    "section_space": lambda x: curve.section_space(CurveModel(2), x),
}


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text", [" 1.0e0 ", "1.5", "1_000", "1e999999", "+1", "2/4", "-3", "0"]
)
@pytest.mark.parametrize("taker", STRING_TAKERS)
def test_string_rationals_are_p_or_p_over_q(taker, text):
    take = STRING_TAKERS[taker]
    if text in ("2/4", "-3", "0"):
        # the string acts as its Fraction: "-3" lies outside every ladder and
        # "0" is no torus element, refused in the same words
        assert _outcome(lambda: take(text)) == _outcome(lambda: take(F(text)))
    else:
        # Fraction() reads each of these: a decimal, an exponent, an
        # underscore, surrounding whitespace or a plus sign
        with pytest.raises(ValueError, match="not a rational of the form p or p/q"):
            take(text)


def test_from_spanning_scaling():
    assert rows_of(Subspace.from_spanning(2, [(2, 0)]).rows) == [[1, 0]]


def test_from_spanning_duplicates():
    v = Subspace.from_spanning(3, [(1, 1, 0), (1, 1, 0)])
    assert v.dim == 1


def test_from_spanning_already_reduced():
    v = Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert v.dim == 2
    assert rows_of(v.rows) == [[1, 0, 1, 0], [0, 1, 0, 1]]


def test_from_spanning_dimension_mismatch():
    with pytest.raises(ValueError):
        Subspace.from_spanning(3, [(1, 0)])


def test_canonicity_under_shuffle_and_scale():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        vectors = [
            [F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(k + 1)
        ]
        v = Subspace.from_spanning(n, vectors)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        scaled = []
        for vec in shuffled:
            c = F(rng.randint(1, 7), rng.randint(1, 7))
            scaled.append([c * e for e in vec])
        # adding span-redundant combinations must not change the value either
        scaled.append([a + b for a, b in zip(scaled[0], scaled[-1])])
        assert Subspace.from_spanning(n, scaled) == v


def test_sum_idempotent_and_coordinate_axes():
    e1 = Subspace.from_spanning(2, [(1, 0)])
    e2 = Subspace.from_spanning(2, [(0, 1)])
    assert sum_and_intersection(e1, e1)[0] == e1
    assert sum_and_intersection(e1, e2)[0] == Subspace.full(2)


def test_sum_elimination_case():
    a = Subspace.from_spanning(2, [(1, 1)])
    b = Subspace.from_spanning(2, [(0, 1)])
    assert sum_and_intersection(a, b)[0] == Subspace.full(2)


def test_intersection_examples():
    v = Subspace.from_spanning(3, [(1, 0, 0), (0, 1, 0)])
    assert sum_and_intersection(v, Subspace.full(3))[1] == v
    e1 = Subspace.from_spanning(2, [(1, 0)])
    e2 = Subspace.from_spanning(2, [(0, 1)])
    assert sum_and_intersection(e1, e2)[1] == Subspace.zero(2)
    a = Subspace.from_spanning(3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace.from_spanning(3, [(0, 1, 0), (0, 0, 1)])
    assert sum_and_intersection(a, b)[1] == Subspace.from_spanning(3, [(0, 0, 1)])


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        sum_and_intersection(Subspace.zero(2), Subspace.zero(3))


def test_modular_grassmann_identity():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 7)
        a = Subspace.from_spanning(
            n, [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        b = Subspace.from_spanning(
            n, [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        total, meet = sum_and_intersection(a, b)
        assert a.dim + b.dim == total.dim + meet.dim


def test_pluecker_axis_line():
    v = Subspace.from_spanning(2, [(1, 0)])
    assert pluecker(v) == {(0,): F(1), (1,): F(0)}


def test_pluecker_diagonal_line_in_four_space():
    v = Subspace.from_spanning(4, [(1, 0, 1, 0)])
    coords = pluecker(v)
    assert coords[(0,)] == 1 and coords[(2,)] == 1
    assert all(val == 0 for cols, val in coords.items() if cols not in {(0,), (2,)})


def test_pluecker_two_plane_brute_force():
    # all six 2x2 minors of [[1,0,1,0],[0,1,0,1]] by hand
    v = Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert pluecker(v) == {
        (0, 1): F(1),
        (0, 2): F(0),
        (0, 3): F(1),
        (1, 2): F(-1),
        (1, 3): F(0),
        (2, 3): F(1),
    }


def test_pluecker_normalization():
    v = Subspace.from_spanning(2, [(0, 1)])
    assert pluecker(v)[(1,)] == 1


def test_pluecker_determines_the_subspace():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 7)
        k = rng.randint(0, min(4, n))
        v = Subspace.from_spanning(
            n, [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(k)]
        )
        assert subspace_from_minors(n, v.dim, pluecker(v)) == v
        # the independently computed minor table gives the same reconstruction
        assert subspace_from_minors(n, v.dim, minor_table(v)) == v


def _permutation_det(rows):
    # reference: the signed sum over all permutations, fine for n <= 5
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = F(-1) if inversions & 1 else F(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(0, 5)
        rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        assert determinant(Matrix.from_rows(rows, ncols=n)) == _permutation_det(rows)


def test_kernel_basis_solves():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1]])
    for vec in kernel_basis(m):
        for i in range(m.nrows):
            assert sum(a * b for a, b in zip(m.row(i), vec)) == 0


def test_zero_coordinate_section():
    v = Subspace.full(3)
    cut = zero_coordinate_section(v, [1])
    assert cut == Subspace.from_spanning(3, [(1, 0, 0), (0, 0, 1)])
    assert zero_coordinate_section(cut, []) == cut


def test_subspace_rejects_non_rref_basis():
    with pytest.raises(ValueError):
        Subspace(2, ((F(2), ZERO),))


def test_rational_formatting():
    assert format_rational(F(3, 1)) == "3"
    assert format_rational(F(-7, 2)) == "-7/2"
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("5") == F(5)


def test_contains_vector_and_subspace():
    v = Subspace.from_spanning(3, [(1, 1, 0), (0, 0, 1)])
    assert v.contains_vector((2, 2, 5))
    assert not v.contains_vector((1, 0, 0))
    assert v.contains(Subspace.from_spanning(3, [(1, 1, 1)]))
    assert not Subspace.zero(3).contains(v)


@pytest.mark.parametrize(
    "text", [" 1.0e0 ", "1.5", "1_000", "1e999999", "+1", "1/0", "1/00", "1/-2", " 1", "", "1/", "/2", "١", 1]
)
def test_parse_rational_accepts_only_the_documented_form(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize(
    "text", ["0", "-0", "007", "-0070", "00/1", "1/0007", "-12/0034", "9" * 40, "-" + "1234567890" * 4 + "/3"]
)
def test_parse_rational_reads_what_fraction_reads(text):
    assert parse_rational(text) == F(text)


def _full_row_residual(v, vector):
    # reference: subtract whole rows, finding each pivot anew
    vec = [F(e) for e in vector]
    for row in v.rows:
        pivot = next(j for j, e in enumerate(row) if e != 0)
        if vec[pivot] != 0:
            factor = vec[pivot]
            vec = [a - factor * b for a, b in zip(vec, row)]
    return tuple(vec)


def _membership_spaces(n, rng):
    spaces = [Subspace.zero(n), Subspace.full(n)]
    for dim in range(1, n + 1):
        spaces.append(
            Subspace.from_spanning(
                n, [[F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(dim)]
            )
        )
        # sparse: one or two nonzero entries per spanning vector
        sparse = []
        for _ in range(dim):
            vec = [F(0)] * n
            for c in rng.sample(range(n), min(n, rng.randint(1, 2))):
                vec[c] = F(rng.choice([-3, -1, 1, 2, 7]), rng.randint(1, 4))
            sparse.append(vec)
        spaces.append(Subspace.from_spanning(n, sparse))
    return spaces


def test_residual_and_contains_match_full_row_reduction():
    from nodalseries.torus import TorusSplit, act

    rng = random.Random(67)
    for dim1 in range(5):
        for dim2 in range(5):
            n = dim1 + dim2
            if n == 0:
                continue
            split = TorusSplit(dim1, dim2)
            x = F(rng.choice([-7, -2, 3, 5]), rng.randint(1, 5))
            spaces = _membership_spaces(n, rng)
            spaces += [act(split, x, v) for v in spaces]
            for v in spaces:
                vectors = [
                    [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(3)
                ]
                vectors += [list(row) for w in spaces[:6] for row in w.rows]
                for vector in vectors:
                    expected = _full_row_residual(v, vector)
                    assert v.residual(vector) == expected
                    assert v.contains_vector(vector) == (not any(expected))
                for w in spaces:
                    expected = all(not any(_full_row_residual(v, r)) for r in w.rows)
                    assert v.contains(w) == expected


def _reference_rref(rows, ncols):
    """Gauss-Jordan that coerces every input entry and every entry it computes."""
    work = [[F(e) for e in row] for row in rows]
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        lead = work[pivot_row][col]
        work[pivot_row] = [F(e / lead) for e in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [F(a - factor * b) for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
    return work


def _reference_span(ncols, rows):
    return [row for row in _reference_rref(rows, ncols) if any(row)]


def _reference_sum_and_meet(n, a_rows, b_rows):
    """Zassenhaus as the library once ran it: each half reduced a second time."""
    stacked = [list(r) + list(r) for r in a_rows] + [list(r) + [0] * n for r in b_rows]
    reduced = _reference_rref(stacked, 2 * n)
    sum_rows = [r[:n] for r in reduced if any(r[:n])]
    meet_rows = [r[n:] for r in reduced if not any(r[:n]) and any(r[n:])]
    return _reference_span(n, sum_rows), _reference_span(n, meet_rows)


def _bits(rows):
    return [[(type(e), e.numerator, e.denominator) for e in row] for row in rows]


def _mixed(value, rng):
    """The value as an int, a "p/q" string or a Fraction, at random."""
    kind = rng.randrange(3)
    if kind == 0 and value.denominator == 1:
        return int(value)
    if kind == 1:
        return f"{value.numerator}/{value.denominator}"
    return value


def _mixed_rows(rng, nrows, ncols, rank):
    """nrows rows spanning at most ``rank`` dimensions, some of them zero."""
    basis = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        vec = [F(0)] * ncols
        if rng.random() > 0.2:
            for b in basis:
                c = F(rng.randint(-2, 2), rng.randint(1, 2))
                vec = [x + c * y for x, y in zip(vec, b)]
        rows.append([_mixed(e, rng) for e in vec])
    return rows


def test_rref_and_from_spanning_match_a_coercing_elimination():
    rng = random.Random(97)
    for _ in range(300):
        ncols = rng.randint(0, 6)
        nrows = rng.randint(0, 6)
        rows = _mixed_rows(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        reduced = rref(Matrix.from_rows(rows, ncols=ncols))
        assert len(reduced) == nrows and all(len(row) == ncols for row in reduced)
        assert _bits(reduced) == _bits(_reference_rref(rows, ncols))
        v = Subspace.from_spanning(ncols, rows)
        assert _bits(v.rows) == _bits(_reference_span(ncols, rows))


def _subspace_pairs(rng, n):
    """Equal, nested, complementary, zero and overlapping pairs in Q^n."""
    whole = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3):
        # a random invertible change of basis keeps the n rows independent
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            whole[i] = [x + c * y for x, y in zip(whole[i], whole[j])]
    rng.shuffle(whole)
    k = rng.randint(0, n)
    a_vectors = [[_mixed(e, rng) for e in row] for row in whole[:k]]
    a = Subspace.from_spanning(n, a_vectors)
    rescaled = []
    for row in reversed(a_vectors):
        c = F(rng.randint(1, 5), rng.randint(1, 5))
        rescaled.append([c * F(e) for e in row])
    yield "equal", a, Subspace.from_spanning(n, rescaled + a_vectors)
    yield "nested", a, Subspace.from_spanning(n, a_vectors[: rng.randint(0, k)])
    yield "complementary", a, Subspace.from_spanning(n, whole[k:])
    yield "zero", a, Subspace.zero(n)
    yield "overlapping", a, Subspace.from_spanning(n, _mixed_rows(rng, 3, n, rng.randint(0, n)))


def test_sum_and_intersection_match_a_coercing_elimination():
    rng = random.Random(101)
    seen = set()
    for _ in range(60):
        n = rng.randint(0, 6)
        for kind, a, b in _subspace_pairs(rng, n):
            for left, right in ((a, b), (b, a)):
                total, meet = sum_and_intersection(left, right)
                ref_total, ref_meet = _reference_sum_and_meet(
                    n, left.rows, right.rows
                )
                assert _bits(total.rows) == _bits(ref_total), kind
                assert _bits(meet.rows) == _bits(ref_meet), kind
            if kind == "equal":
                assert total == meet == a
            if kind == "complementary":
                assert total == Subspace.full(n) and meet == Subspace.zero(n)
            seen.add(kind)
    assert len(seen) == 5


def test_internal_results_never_pass_through_from_rows(monkeypatch):
    # from_rows is the coercing boundary; everything computed inside the
    # library is already Fraction and is built as Subspace(n, rows) directly
    g = random_exact_lls(4, 2, (2, 1, 2, 1), seed=5)
    chain = build_chain(g)
    split = g.model.split

    def refuse(*args, **kwargs):
        raise AssertionError("Matrix.from_rows re-coerced internal data")

    monkeypatch.setattr(Matrix, "from_rows", classmethod(refuse))
    spaces = chain.series.spaces
    for v, w in zip(spaces, spaces[1:]):
        flat = tuple(e for row in v.rows for e in row)
        assert rref(Matrix(v.dim, v.ambient_dim, flat)) == v.rows
        total, meet = sum_and_intersection(v, w)
        assert total.dim + meet.dim == v.dim + w.dim
        profile = block_profile(split, v)
        assert limit(split, v, Direction.ZERO).dim == v.dim
        assert limit(split, v, Direction.INFINITY).dim == v.dim
        assert profile.onto_first.dim + profile.inside_second.dim == v.dim
    assert check_exact(g).passed
    assert validate_chain(chain).passed


def _flavoured(value, flavour, rng):
    """0 and 1 as the shared objects, as freshly built Fractions, or either."""
    if value not in (0, 1):
        return F(value)
    if flavour == "mixed":
        flavour = rng.choice(["shared", "fresh"])
    if flavour == "shared":
        return ZERO if value == 0 else ONE
    return F(int(value))


def _sparse_rows(rng, nrows, ncols, flavour):
    """Mostly 0 and 1, like the section-space bases; some rows dependent."""
    values = [0] * 12 + [1] * 4 + [-1, 2, F(1, 2), F(-3, 2)]
    rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(nrows), 2)
        rows[i] = [F(a) + F(b) for a, b in zip(rows[i], rows[j])]
    return [[_flavoured(e, flavour, rng) for e in row] for row in rows]


@pytest.mark.parametrize("flavour", ["shared", "fresh", "mixed"])
def test_sparse_eliminations_match_a_coercing_elimination(flavour):
    rng = random.Random(113)
    for _ in range(300):
        ncols = rng.randint(0, 8)
        nrows = rng.randint(0, 6)
        rows = _sparse_rows(rng, nrows, ncols, flavour)
        reduced = rref(Matrix(nrows, ncols, tuple(e for row in rows for e in row)))
        assert _bits(reduced) == _bits(_reference_rref(rows, ncols))
        v = Subspace.from_spanning(ncols, rows)
        assert _bits(v.rows) == _bits(_reference_span(ncols, rows))
        # every pivot rref sets is the shared 1; with shared input, every 0 is the shared 0
        for row in reduced:
            lead = next((e for e in row if e != 0), ONE)
            assert lead is ONE
        if flavour == "shared":
            assert all(e is ZERO for row in reduced for e in row if e == 0)
        w = Subspace.from_spanning(ncols, _sparse_rows(rng, rng.randint(0, 4), ncols, flavour))
        total, meet = sum_and_intersection(v, w)
        ref_total, ref_meet = _reference_sum_and_meet(ncols, v.rows, w.rows)
        assert _bits(total.rows) == _bits(ref_total)
        assert _bits(meet.rows) == _bits(ref_meet)


@pytest.mark.parametrize("flavour", ["shared", "fresh"])
@pytest.mark.parametrize(
    "rows, refusal",
    [
        ([[0, 0, 0]], "zero row"),
        ([[0, 1, 0], [1, 0, 0]], "reduced row echelon"),  # unsorted pivots
        ([[0, 2, 0]], "reduced row echelon"),  # non-unit lead
        ([[1, 1, 0], [0, 1, 0]], "reduced row echelon"),  # uncleared column
    ],
    ids=["zero row", "unsorted pivots", "non-unit lead", "uncleared column"],
)
def test_the_canonicity_guard_refuses_with_any_zero(rows, refusal, flavour):
    rng = random.Random(0)
    basis = tuple(tuple(_flavoured(e, flavour, rng) for e in row) for row in rows)
    with pytest.raises(ValueError, match=refusal):
        Subspace(3, basis)
    # from_spanning reduces what the guard refuses
    v = Subspace.from_spanning(3, basis)
    assert v == Subspace.from_spanning(3, [[int(e) for e in row] for row in rows])


def test_a_canonical_basis_of_fresh_zeros_is_accepted_and_equal():
    fresh = Subspace(3, ((F(1), F(0), F(5)), (F(0), F(1), F(0))))
    shared = Subspace(3, ((ONE, ZERO, F(5)), (ZERO, ONE, ZERO)))
    assert fresh == shared and hash(fresh) == hash(shared)
    assert fresh.contains_vector((F(2), F(0), F(10))) and fresh.contains(shared)


@pytest.mark.parametrize(
    "text, shared", [("0", ZERO), ("-0", ZERO), ("00/7", ZERO), ("1", ONE), ("0001", ONE), ("3/3", ONE)]
)
def test_parse_rational_returns_the_shared_zero_and_one(text, shared):
    assert parse_rational(text) is shared


def test_format_rational_reads_fresh_and_shared_alike():
    for value in (ZERO, ONE, F(0), F(1), F(-1), F(2, 4)):
        assert format_rational(value) == format_rational(F(value.numerator, value.denominator))
    assert [format_rational(v) for v in (ZERO, ONE, F(0), F(1))] == ["0", "1", "0", "1"]
