import math
import random
from fractions import Fraction as F

import pytest

from nodalseries.curve import (
    CurveModel,
    is_generalized_linear_series,
    section_shape,
    section_space,
    twisted_space_at,
)
from nodalseries.delta import build_delta, consecutive_pairs
from nodalseries.linalg import Matrix, Subspace, kernel_basis
from nodalseries.torus import act, block_profile, meet_block, project_block


def test_section_space_d1_index0():
    # sections are pairs (a + b t, a s): constant coefficients matched to s
    model = CurveModel(1)
    space = section_space(model, F(0))
    assert space.dim == 2
    assert space == Subspace.from_spanning(4, [(1, 0, 0, 1), (0, 1, 0, 0)])


def test_section_space_d1_index1():
    # sections are pairs (b t, b + c s)
    model = CurveModel(1)
    space = section_space(model, F(1))
    assert space.dim == 2
    assert space == Subspace.from_spanning(4, [(0, 1, 1, 0), (0, 0, 0, 1)])


def test_section_space_noninteger():
    # d=2 at 1/2: first-block flag at level 1 plus the deepest second-block line
    model = CurveModel(2)
    space = section_space(model, F(1, 2))
    assert space.dim == 3
    expected = Subspace.from_spanning(
        6,
        [
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),
        ],
    )
    assert space == expected


def test_section_space_rejects_out_of_range():
    model = CurveModel(2)
    line = Subspace.from_spanning(6, [(1, 0, 0, 0, 0, 0)])
    for i in (F(5, 2), F(-1, 2), F(3)):
        with pytest.raises(ValueError, match="outside"):
            section_space(model, i)
        with pytest.raises(ValueError, match="outside"):
            section_shape(model, i).contains(line)


@pytest.mark.parametrize("value", [pytest.param(0.5, id="float"), pytest.param(True, id="bool")])
def test_ladder_indices_and_torus_elements_must_be_exact(value):
    # True would otherwise be taken as the index 1
    model = CurveModel(2)
    with pytest.raises(TypeError, match="not exact"):
        section_space(model, value)
    with pytest.raises(TypeError, match="not exact"):
        twisted_space_at(model, value, F(2))
    with pytest.raises(TypeError, match="not exact"):
        twisted_space_at(model, F(1), value)
    assert section_space(model, 1) == section_space(model, F(1))


@pytest.mark.parametrize(
    "d", [pytest.param(2.0, id="float"), pytest.param(True, id="bool"), pytest.param(F(2), id="fraction")]
)
def test_curve_model_refuses_a_non_integer_degree(d):
    # CurveModel(2.0).ambient_dim would otherwise be 6.0
    with pytest.raises(TypeError, match="integer"):
        CurveModel(d)


def test_dimension_is_degree_plus_one():
    for d in range(0, 9):
        model = CurveModel(d)
        for denominator in (1, 2, 3):
            for numerator in range(0, d * denominator + 1):
                i = F(numerator, denominator)
                assert section_space(model, i).dim == d + 1


def test_section_space_matches_elimination_of_its_generators():
    # the flags and the glue row, spanned in an order that is not canonical
    for d in range(0, 9):
        model = CurveModel(d)
        n = model.ambient_dim
        for quarter in range(0, 4 * d + 1):
            i = F(quarter, 4)
            units = [model.t_coord(j) for j in range(math.ceil(i), d + 1)]
            if i.denominator == 1:
                level = int(i)
                units.remove(model.t_coord(level))
                units += [model.s_coord(j) for j in range(d - level + 1, d + 1)]
                glue = [0] * n
                glue[model.t_coord(level)] = glue[model.s_coord(d - level)] = 1
                generators = [glue]
            else:
                units += [model.s_coord(j) for j in range(d - math.floor(i), d + 1)]
                generators = []
            for c in reversed(units):
                row = [0] * n
                row[c] = 1
                generators.append(row)
            space = section_space(model, i)
            assert space == Subspace.from_spanning(n, generators)
            assert all(type(e) is F for row in space.rows for e in row)


def test_twisted_space_at_identity_and_scaling():
    model = CurveModel(1)
    assert twisted_space_at(model, F(0), F(1)) == section_space(model, F(0))
    moved = twisted_space_at(model, F(0), F(2))
    # (x^{-1}, 1) applied to (a + bt, a s): pairs (a + b t, 2 a s)
    assert moved == Subspace.from_spanning(4, [(1, 0, 0, 2), (0, 1, 0, 0)])
    assert moved == act(model.split, F(2), section_space(model, F(0)))


def test_twisted_space_noninteger_is_invariant():
    model = CurveModel(2)
    for x in (F(2), F(-3), F(1, 5)):
        assert twisted_space_at(model, F(1, 2), x) == section_space(model, F(1, 2))


def test_twisted_space_rejects_zero():
    with pytest.raises(ValueError):
        twisted_space_at(CurveModel(1), F(0), F(0))


def test_membership_predicate():
    model = CurveModel(1)
    full = section_space(model, F(0))
    assert is_generalized_linear_series(model, full, F(0), 1)
    # a first-block line violating the node matching at the integer index
    bad = Subspace.from_spanning(4, [(1, 0, 0, 0)])
    assert not is_generalized_linear_series(model, bad, F(0), 0)
    assert not is_generalized_linear_series(model, Subspace.zero(4), F(0), -1)
    # wrong dimension
    assert not is_generalized_linear_series(model, full, F(0), 0)


def _section_space_by_elimination(model, i):
    """S_i as the kernel of its equations: t^j vanishes for j < ceil(i), s^j
    for j < d - floor(i), and at integer i the t^i and s^(d-i) coefficients
    agree."""
    d, n = model.d, model.ambient_dim
    vanishing = [model.t_coord(j) for j in range(math.ceil(i))]
    vanishing += [model.s_coord(j) for j in range(d - math.floor(i))]
    equations = []
    for c in vanishing:
        row = [0] * n
        row[c] = 1
        equations.append(row)
    if i.denominator == 1:
        row = [0] * n
        row[model.t_coord(int(i))], row[model.s_coord(d - int(i))] = 1, -1
        equations.append(row)
    return Subspace.from_spanning(n, kernel_basis(Matrix.from_rows(equations, ncols=n)))


def _unit_coords(v, offset=0):
    """The coordinates of v's basis rows, each of which must be a unit row."""
    coords = []
    for row in v.rows:
        (c,) = [c for c, e in enumerate(row) if e]
        assert row[c] == 1
        coords.append(offset + c)
    return tuple(coords)


def test_section_shape_matches_elimination():
    # every index of the ladders with d <= 6 and steps <= 3: a gap's indices
    # depend only on its own step count
    checked = 0
    for d in range(7):
        model = CurveModel(d)
        n = model.ambient_dim
        indices = {i for step in (1, 2, 3) for i in build_delta(d, (step,) * d).indices}
        for i in sorted(indices):
            shape = section_shape(model, i)
            reference = _section_space_by_elimination(model, i)
            rows = [shape.glue] if shape.glue else []
            rows += [(c,) for c in shape.t_flag + shape.s_flag]
            vectors = tuple(tuple(F(int(c in coords)) for c in range(n)) for coords in rows)
            assert vectors == reference.rows == section_space(model, i).rows
            assert (shape.glue is not None) == (i.denominator == 1)
            g = 1 if shape.glue else 0
            profile = block_profile(model.split, reference)
            assert _unit_coords(profile.inside_first) == shape.t_flag
            assert _unit_coords(profile.inside_second, d + 1) == shape.s_flag
            assert profile.onto_first.dim == len(shape.t_flag) + g
            assert profile.onto_second.dim == len(shape.s_flag) + g
            dims = (profile.onto_first, profile.inside_first, profile.inside_second)
            dims += (profile.onto_second,)
            assert shape.block_dims == tuple(v.dim for v in dims)
            checked += 1
    # d + 1 integer indices, and 1/2, 1/3 and 2/3 into each of the d gaps
    assert checked == sum(4 * d + 1 for d in range(7))


def _membership_cases(rng):
    """(model, i, v) with v inside S_i, breaking the node condition, or with
    one coordinate off S_i's flags, at integer, half and third indices; each
    v comes again with fresh Fraction objects for all its entries."""
    for d in range(6):
        model = CurveModel(d)
        n = model.ambient_dim
        indices = {F(k, q) for q in (1, 2, 3) for k in range(q * d + 1)}
        for i in sorted(indices):
            rows = section_space(model, i).rows
            support = {c for row in rows for c in range(n) if row[c]}
            off = [c for c in range(n) if c not in support]
            # equal at integer i, where they are the glued pair; free otherwise
            pair = (model.t_coord(math.ceil(i)), model.s_coord(d - math.floor(i)))
            for _ in range(16):
                members = []
                for _ in range(rng.randint(1, d + 1)):
                    coeffs = [rng.randint(-2, 2) for _ in rows]
                    members.append(
                        [sum(a * row[c] for a, row in zip(coeffs, rows)) for c in range(n)]
                    )
                kind = rng.choice(["member", "node", "off"])
                if kind == "node":
                    members[-1][pair[0]] += rng.choice([-1, 1])
                elif kind == "off" and off:
                    members[-1][rng.choice(off)] += rng.choice([-3, -1, 1, 2])
                v = Subspace.from_spanning(n, members)
                if v.dim:
                    yield model, i, v
                    # the same basis with every entry a new Fraction, zeros included
                    fresh = (tuple(F(e.numerator, e.denominator) for e in row) for row in v.rows)
                    yield model, i, Subspace(n, tuple(fresh))


def test_membership_reads_the_section_space_equations():
    outcomes = set()
    for model, i, v in _membership_cases(random.Random(31)):
        inside = section_space(model, i).contains(v)
        assert is_generalized_linear_series(model, v, i, v.dim - 1) == inside, (model.d, i)
        outcomes.add((i.denominator == 1, inside))
    # both answers occur at integer and at non-integer indices
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_flag_exchange_is_monotone_along_ladder():
    model = CurveModel(3)
    ladder = build_delta(3, (2, 3, 1))
    spaces = {i: section_space(model, i) for i in ladder.indices}
    for i, j in consecutive_pairs(ladder):
        earlier, later = spaces[i], spaces[j]
        # first-block image shrinks, second-block image grows with the index
        assert project_block(model.split, earlier, 1).contains(
            project_block(model.split, later, 1)
        )
        assert project_block(model.split, later, 2).contains(
            project_block(model.split, earlier, 2)
        )


def test_every_subspace_pushes_into_next_section_space():
    # the second-block image of the earlier ambient space sits inside the
    # second-block part of the later one, so restriction maps are defined
    model = CurveModel(3)
    ladder = build_delta(3, (2, 1, 2))
    spaces = {i: section_space(model, i) for i in ladder.indices}
    for i, j in consecutive_pairs(ladder):
        assert meet_block(model.split, spaces[j], 2).contains(
            project_block(model.split, spaces[i], 2)
        )
