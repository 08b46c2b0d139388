import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest

from nodalseries.linalg import Subspace, zero_coordinate_section
from nodalseries.torus import (
    Direction,
    IntersectionHypothesisError,
    TorusSplit,
    act,
    assemble_split_subspace,
    block_profile,
    embed_block,
    is_fixed,
    limit,
    meet_block,
    meeting_is_transverse,
    orbit_degree,
    orbit_intersection,
    project_block,
)
from nodalseries import torus
from nodalseries.generate import random_linked_pair, random_nonfixed_subspace, random_subspace
from nodalseries.oracle import _tangent_certificate, minor_table, weight_profile_via_pluecker

SPLIT22 = TorusSplit(2, 2)


def span(*rows, n=4):
    return Subspace.from_spanning(n, rows)


def test_act_fixes_split_subspaces():
    v = span((1, 0, 0, 0), (0, 0, 1, 0))
    for x in (F(2), F(-1, 3), F(7)):
        assert act(SPLIT22, x, v) == v


def test_act_scales_first_block():
    v = span((1, 0, 1, 0))
    assert act(SPLIT22, F(2), v) == span((1, 0, 2, 0))


def test_act_group_law_on_random_subspaces():
    rng = random.Random(3)
    for _ in range(40):
        v = random_subspace(4, rng.randint(0, 3), rng)
        assert act(SPLIT22, F(1), v) == v
        assert act(SPLIT22, F(3), act(SPLIT22, F(2), v)) == act(SPLIT22, F(6), v)


def _sparse_subspace(ambient_dim, rng):
    # random entries with many zeros, so pivots land in either block and
    # rows can be zero on a whole block
    rows = [
        [rng.choice((0, 0, 0, 1, -2, F(1, 3))) for _ in range(ambient_dim)]
        for _ in range(rng.randint(0, ambient_dim + 1))
    ]
    return Subspace.from_spanning(ambient_dim, rows)


def _reference_spaces(n, rng):
    spaces = [Subspace.zero(n), Subspace.full(n)]
    spaces += [random_subspace(n, rng.randint(0, n), rng) for _ in range(3)]
    spaces += [_sparse_subspace(n, rng) for _ in range(6)]
    return spaces


def _splits_up_to_four():
    for dim1 in range(5):
        for dim2 in range(5):
            if dim1 + dim2:
                yield TorusSplit(dim1, dim2)


def _all_fractions(v):
    return all(type(e) is F for e in v.basis.entries)


def test_act_matches_elimination_of_the_scaled_rows():
    rng = random.Random(17)
    xs = (F(2), F(-1), F(-3, 4), F(5, 7), F(1))
    for split in _splits_up_to_four():
        dim1 = split.dim1
        n = split.ambient_dim
        for v in _reference_spaces(n, rng):
            for x in xs:
                scaled = [
                    [e / x for e in row[:dim1]] + list(row[dim1:])
                    for row in v.basis_rows()
                ]
                moved = act(split, x, v)
                assert moved == Subspace.from_spanning(n, scaled)
                assert _all_fractions(moved)
                assert act(split, 1 / x, moved) == v


def _rows_on(v, coords):
    return [[row[c] for c in coords] for row in v.basis_rows()]


def _padded(split, s, block):
    rows = []
    for row in s.basis_rows():
        vec = [F(0)] * split.ambient_dim
        for c, e in zip(split.block_coords(block), row):
            vec[c] = e
        rows.append(vec)
    return Subspace.from_spanning(split.ambient_dim, rows)


def test_block_invariants_match_elimination():
    rng = random.Random(23)
    for split in _splits_up_to_four():
        first, second = split.block_coords(1), split.block_coords(2)
        for v in _reference_spaces(split.ambient_dim, rng):
            expected = {
                "onto_first": Subspace.from_spanning(len(first), _rows_on(v, first)),
                "onto_second": Subspace.from_spanning(len(second), _rows_on(v, second)),
                "inside_first": Subspace.from_spanning(
                    len(first), _rows_on(zero_coordinate_section(v, second), first)
                ),
                "inside_second": Subspace.from_spanning(
                    len(second), _rows_on(zero_coordinate_section(v, first), second)
                ),
            }
            profile = block_profile(split, v)
            for field, space in expected.items():
                assert getattr(profile, field) == space, field
                assert _all_fractions(getattr(profile, field)), field
            assert project_block(split, v, 1) == expected["onto_first"]
            assert project_block(split, v, 2) == expected["onto_second"]
            assert meet_block(split, v, 1) == expected["inside_first"]
            assert meet_block(split, v, 2) == expected["inside_second"]
            s1 = random_subspace(len(first), rng.randint(0, len(first)), rng)
            s2 = random_subspace(len(second), rng.randint(0, len(second)), rng)
            pairs = [
                (profile.onto_first, profile.inside_second),
                (profile.inside_first, profile.onto_second),
                (s1, s2),
            ]
            for a, b in pairs:
                embedded = (embed_block(split, a, 1), embed_block(split, b, 2))
                assert embedded == (_padded(split, a, 1), _padded(split, b, 2))
                assembled = assemble_split_subspace(split, a, b)
                assert assembled == _padded(split, a, 1) + _padded(split, b, 2)
                assert all(_all_fractions(w) for w in embedded + (assembled,))


def test_block_helpers_reject_wrong_blocks():
    v = span((1, 0, 1, 0))
    for helper in (project_block, meet_block):
        with pytest.raises(ValueError):
            helper(SPLIT22, v, 3)
    with pytest.raises(ValueError):
        embed_block(SPLIT22, Subspace.full(3), 1)
    with pytest.raises(ValueError):
        assemble_split_subspace(SPLIT22, Subspace.full(2), Subspace.full(3))


def test_act_rejects_zero():
    with pytest.raises(ValueError):
        act(SPLIT22, F(0), span((1, 0, 1, 0)))


@pytest.mark.parametrize("x", [pytest.param(0.1, id="float"), pytest.param(True, id="bool")])
def test_act_refuses_inexact_torus_elements(x):
    # 0.1 would otherwise scale by 3602879701896397/36028797018963968
    v = span((1, 0, 1, 0))
    with pytest.raises(TypeError, match="not exact"):
        act(SPLIT22, x, v)
    assert act(SPLIT22, 2, v) == act(SPLIT22, "2", v) == span((1, 0, 2, 0))


def test_block_profile_diagonal_line():
    profile = block_profile(SPLIT22, span((1, 0, 1, 0)))
    assert profile.inside_first == Subspace.zero(2)
    assert profile.inside_second == Subspace.zero(2)
    assert profile.onto_first == Subspace.from_spanning(2, [(1, 0)])
    assert profile.onto_second == Subspace.from_spanning(2, [(1, 0)])


def test_block_profile_split_plane():
    profile = block_profile(SPLIT22, span((1, 0, 0, 0), (0, 0, 1, 0)))
    assert profile.inside_first == Subspace.from_spanning(2, [(1, 0)])
    assert profile.inside_second == Subspace.from_spanning(2, [(1, 0)])
    assert profile.onto_first == profile.inside_first
    assert profile.onto_second == profile.inside_second


def test_block_profile_mixed_plane():
    # span of (e1 + f1, e2): by elimination, meets W1 in e2 and projects onto both blocks
    profile = block_profile(SPLIT22, span((1, 0, 1, 0), (0, 1, 0, 0)))
    assert profile.inside_first == Subspace.from_spanning(2, [(0, 1)])
    assert profile.inside_second == Subspace.zero(2)
    assert profile.onto_first == Subspace.full(2)
    assert profile.onto_second == Subspace.from_spanning(2, [(1, 0)])


def test_block_profile_dimension_identities():
    rng = random.Random(5)
    for _ in range(100):
        d1, d2 = rng.randint(0, 4), rng.randint(0, 4)
        if d1 + d2 == 0:
            continue
        split = TorusSplit(d1, d2)
        v = random_subspace(split.ambient_dim, rng.randint(0, min(4, d1 + d2)), rng)
        p = block_profile(split, v)
        assert p.onto_first.contains(p.inside_first)
        assert p.onto_second.contains(p.inside_second)
        assert v.dim == p.inside_first.dim + p.onto_second.dim
        assert v.dim == p.onto_first.dim + p.inside_second.dim
        assert p.degree == p.onto_first.dim - p.inside_first.dim
        assert p.degree == p.onto_second.dim - p.inside_second.dim
        assert p.degree == orbit_degree(split, v)


def _counting_eliminations(monkeypatch):
    calls = []
    real_rref = torus.rref
    monkeypatch.setattr(torus, "rref", lambda m: calls.append(m) or real_rref(m))
    return calls


def test_one_value_keeps_one_profile_per_split(monkeypatch):
    calls = _counting_eliminations(monkeypatch)
    v = random_subspace(4, 2, random.Random(7))
    splits = [TorusSplit(1, 3), TorusSplit(2, 2), TorusSplit(3, 1)]
    profiles = [block_profile(split, v) for split in splits]
    assert len(calls) == 3 and len(set(profiles)) == 3
    for split, profile in zip(splits, profiles):
        assert block_profile(split, v) is profile
        assert profile == block_profile(split, Subspace(v.ambient_dim, v.basis))
    assert len(calls) == 6


def test_a_profiled_value_still_refuses_a_mismatched_split():
    v = random_subspace(4, 2, random.Random(7))
    block_profile(SPLIT22, v)
    # same first block, wrong ambient dimension
    for wrong in (TorusSplit(2, 1), TorusSplit(2, 3)):
        for query in (block_profile, is_fixed, orbit_degree):
            with pytest.raises(ValueError, match="split expects"):
                query(wrong, v)
        with pytest.raises(ValueError, match="split expects"):
            limit(wrong, v, Direction.ZERO)


def test_each_value_is_profiled_once_on_its_own(monkeypatch):
    calls = _counting_eliminations(monkeypatch)
    # the generator has profiled v while testing that it moves
    v = random_nonfixed_subspace(SPLIT22, 2, random.Random(3))
    twins = [
        Subspace.from_spanning(4, v.basis_rows()),
        dataclasses.replace(v),
        act(SPLIT22, 1, v),
        copy.copy(v),
        pickle.loads(pickle.dumps(v)),
    ]
    for twin in twins:
        assert twin == v
        calls.clear()
        limit(SPLIT22, twin, Direction.ZERO)
        limit(SPLIT22, twin, Direction.INFINITY)
        orbit_degree(SPLIT22, twin)
        is_fixed(SPLIT22, twin)
        assert len(calls) == 1
    assert len({id(twin) for twin in twins + [v]}) == len(twins) + 1
    calls.clear()
    orbit_degree(SPLIT22, v)
    assert calls == []


def test_is_fixed():
    assert is_fixed(SPLIT22, span((1, 0, 0, 0), (0, 0, 1, 0)))
    assert not is_fixed(SPLIT22, span((1, 0, 1, 0)))
    assert is_fixed(SPLIT22, Subspace.zero(4))
    assert is_fixed(SPLIT22, Subspace.full(4))


def test_limit_of_diagonal_line():
    v = span((1, 0, 1, 0))
    assert limit(SPLIT22, v, Direction.ZERO) == span((1, 0, 0, 0))
    assert limit(SPLIT22, v, Direction.INFINITY) == span((0, 0, 1, 0))


def test_limit_of_fixed_point_is_itself():
    v = span((1, 0, 0, 0), (0, 0, 1, 0))
    for direction in Direction:
        assert limit(SPLIT22, v, direction) == v


def test_limit_of_diagonal_plane():
    v = span((1, 0, 1, 0), (0, 1, 0, 1))
    assert limit(SPLIT22, v, Direction.ZERO) == span((1, 0, 0, 0), (0, 1, 0, 0))
    assert limit(SPLIT22, v, Direction.INFINITY) == span((0, 0, 1, 0), (0, 0, 0, 1))


def test_limits_are_fixed_points():
    rng = random.Random(7)
    for _ in range(60):
        v = random_subspace(4, rng.randint(0, 3), rng)
        for direction in Direction:
            assert is_fixed(SPLIT22, limit(SPLIT22, v, direction))


def test_limit_equivariance():
    rng = random.Random(9)
    for _ in range(60):
        v = random_subspace(4, rng.randint(0, 3), rng)
        x = F(rng.randint(1, 9), rng.randint(1, 9))
        for direction in Direction:
            assert limit(SPLIT22, act(SPLIT22, x, v), direction) == limit(
                SPLIT22, v, direction
            )


def test_orbit_degree_examples():
    examples = [
        (span((1, 0, 0, 0), (0, 0, 1, 0)), 0),
        (span((1, 0, 1, 0)), 1),
        (span((1, 0, 1, 0), (0, 1, 0, 1)), 2),
    ]
    for v, degree in examples:
        assert orbit_degree(SPLIT22, v) == degree
        assert block_profile(SPLIT22, v).degree == degree


def test_orbit_degree_zero_iff_fixed():
    rng = random.Random(13)
    for _ in range(80):
        v = random_subspace(4, rng.randint(0, 4), rng)
        assert (orbit_degree(SPLIT22, v) == 0) == is_fixed(SPLIT22, v)


def test_weight_profile_examples():
    assert weight_profile_via_pluecker(SPLIT22, span((1, 0, 0, 0), (0, 0, 1, 0))) == {(1, 1)}
    assert weight_profile_via_pluecker(SPLIT22, span((1, 0, 1, 0))) == {(1, 0), (0, 1)}
    assert weight_profile_via_pluecker(SPLIT22, span((1, 0, 1, 0), (0, 1, 0, 0))) == {
        (2, 0),
        (1, 1),
    }


def test_weight_profile_is_gap_free_interval():
    rng = random.Random(17)
    for _ in range(60):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        split = TorusSplit(d1, d2)
        v = random_subspace(split.ambient_dim, rng.randint(1, min(4, d1 + d2)), rng)
        weights = weight_profile_via_pluecker(split, v)
        firsts = sorted(w[0] for w in weights)
        profile = block_profile(split, v)
        assert firsts == list(range(profile.inside_first.dim, profile.onto_first.dim + 1))
        assert all(w[0] + w[1] == v.dim for w in weights)


def test_strict_limit_containment_for_nonfixed():
    rng = random.Random(19)
    found = 0
    while found < 40:
        v = random_subspace(4, rng.randint(1, 3), rng)
        if is_fixed(SPLIT22, v):
            continue
        found += 1
        p = block_profile(SPLIT22, v)
        assert p.inside_first.dim < p.onto_first.dim
        assert p.inside_second.dim < p.onto_second.dim


def test_block_helpers_embed_and_project():
    line = Subspace.from_spanning(2, [(1, 2)])
    emb = embed_block(SPLIT22, line, 2)
    assert emb == span((0, 0, 1, 2))
    assert project_block(SPLIT22, emb, 2) == line
    assert meet_block(SPLIT22, emb, 2) == line
    assert meet_block(SPLIT22, emb, 1) == Subspace.zero(2)


def test_orbit_intersection_requires_hypothesis():
    rng = random.Random(21)
    v = span((1, 0, 1, 0))
    # both nonfixed, but no block condition links them
    vp = span((0, 1, 0, 1))
    with pytest.raises(IntersectionHypothesisError):
        orbit_intersection(SPLIT22, v, vp)


def test_orbit_intersection_rejects_fixed_or_mismatched():
    v = span((1, 0, 1, 0))
    # equal dimension is checked first, even against a fixed point
    with pytest.raises(ValueError, match="equal dimension"):
        orbit_intersection(SPLIT22, v, span((1, 0, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(ValueError, match="equal dimension"):
        orbit_intersection(SPLIT22, v, span((1, 0, 1, 0), (0, 1, 0, 1)))
    for fixed in (span((1, 0, 0, 0)), span((0, 0, 0, 1))):
        with pytest.raises(ValueError, match="nonfixed"):
            orbit_intersection(SPLIT22, v, fixed)
        with pytest.raises(ValueError, match="nonfixed"):
            orbit_intersection(SPLIT22, fixed, v)


def test_orbit_intersection_meeting_and_empty():
    rng = random.Random(29)
    split = TorusSplit(3, 3)
    for mirrored in (False, True):
        v, vp = random_linked_pair(split, 3, rng, meeting=True, mirrored=mirrored)
        point = orbit_intersection(split, v, vp)
        assert point is not None
        if not mirrored:
            assert point == limit(split, v, Direction.INFINITY)
            assert point == limit(split, vp, Direction.ZERO)
        else:
            assert point == limit(split, v, Direction.ZERO)
            assert point == limit(split, vp, Direction.INFINITY)
        assert meeting_is_transverse(split, v, vp)
        v, vp = random_linked_pair(split, 3, rng, meeting=False, mirrored=mirrored)
        assert orbit_intersection(split, v, vp) is None


def test_injectivity_of_orbit_map():
    rng = random.Random(37)
    found = 0
    while found < 30:
        v = random_subspace(4, rng.randint(1, 3), rng)
        if is_fixed(SPLIT22, v):
            continue
        found += 1
        xs = {F(k) for k in range(1, 11)}
        points = {act(SPLIT22, x, v) for x in xs}
        assert len(points) == len(xs)


def test_meeting_is_transverse_matches_the_minor_certificate():
    rng = random.Random(41)
    meetings = 0
    for dim1 in range(2, 5):
        for dim2 in range(2, 5):
            split = TorusSplit(dim1, dim2)
            for dim in range(2, dim1 + dim2 - 1):
                for meeting in (True, False):
                    for mirrored in (False, True):
                        v, vp = random_linked_pair(
                            split, dim, rng, meeting=meeting, mirrored=mirrored
                        )
                        if not meeting:
                            with pytest.raises(ValueError):
                                meeting_is_transverse(split, v, vp)
                            continue
                        # the certificate reads the orbit that ends at the node first
                        ending, starting = (vp, v) if mirrored else (v, vp)
                        expected = _tangent_certificate(
                            split, minor_table(ending), minor_table(starting)
                        )
                        assert meeting_is_transverse(split, v, vp) == expected
                        assert meeting_is_transverse(split, vp, v) == expected
                        meetings += 1
    assert meetings == 2 * sum(d1 + d2 - 3 for d1 in range(2, 5) for d2 in range(2, 5))
