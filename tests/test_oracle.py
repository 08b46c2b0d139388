import dataclasses
import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest

from nodalseries.chain import ContinuousChain, build_chain
from nodalseries.generate import random_exact_lls, random_subspace
from nodalseries import oracle
from nodalseries.linalg import Subspace, format_rational
from nodalseries.oracle import (
    compare_chain,
    degree_via_pluecker,
    limit_via_pluecker,
    minor_table,
    sample_orbit_check,
    subspace_from_minors,
    weight_profile_via_pluecker,
)
from nodalseries.curve import section_space
from nodalseries.torus import (
    BlockProfile,
    Direction,
    TorusSplit,
    act,
    block_profile,
    is_fixed,
    limit,
    orbit_degree,
)

from test_chain import orbit_orbit_chain

SPLIT22 = TorusSplit(2, 2)


def test_limit_via_pluecker_fixed_point():
    v = Subspace.from_spanning(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    for direction in Direction:
        assert limit_via_pluecker(SPLIT22, v, direction) == v


def test_limit_via_pluecker_diagonal_line():
    # two nonzero minors with first-block weights 1 and 0; toward zero the
    # heavy one survives
    v = Subspace.from_spanning(4, [(1, 0, 1, 0)])
    assert limit_via_pluecker(SPLIT22, v, Direction.ZERO) == Subspace.from_spanning(
        4, [(1, 0, 0, 0)]
    )
    assert limit_via_pluecker(SPLIT22, v, Direction.INFINITY) == Subspace.from_spanning(
        4, [(0, 0, 1, 0)]
    )


def test_degree_via_pluecker_examples():
    assert degree_via_pluecker(SPLIT22, Subspace.from_spanning(4, [(1, 0, 0, 0)])) == 0
    assert (
        degree_via_pluecker(SPLIT22, Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 1, 0, 1)]))
        == 2
    )


def test_oracle_agrees_with_structural_path():
    rng = random.Random(51)
    for _ in range(120):
        d1, d2 = rng.randint(0, 4), rng.randint(0, 4)
        if d1 + d2 == 0:
            continue
        split = TorusSplit(d1, d2)
        v = random_subspace(split.ambient_dim, rng.randint(0, min(4, d1 + d2)), rng)
        for direction in Direction:
            assert limit(split, v, direction) == limit_via_pluecker(split, v, direction)
        for side in (limit, limit_via_pluecker):
            with pytest.raises(ValueError, match="unknown direction 'zero'"):
                side(split, v, "zero")
        assert orbit_degree(split, v) == degree_via_pluecker(split, v)


def test_subspace_from_minors_rejects_zero_vector():
    with pytest.raises(ValueError, match="all minors vanish"):
        subspace_from_minors(3, 1, {(0,): F(0), (1,): F(0), (2,): F(0)})
    with pytest.raises(ValueError, match="all minors vanish"):
        subspace_from_minors(3, 1, {})


@pytest.mark.parametrize(
    "key",
    [(1,), (0, 1, 2), (1, 4), (-1, 2), (2, 1), (1, 1)],
    ids=["short", "long", "past the end", "negative", "unsorted", "repeated"],
)
def test_subspace_from_minors_rejects_a_malformed_key(key):
    # a stray key sorting before (0, 2) would otherwise become the base
    minors = {(0, 2): F(1), (1, 2): 3, key: 5}
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        subspace_from_minors(4, 2, minors)
    # a malformed key is refused even where its minor vanishes
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        subspace_from_minors(4, 2, {(0, 2): F(1), key: 0})


def test_subspace_from_minors_takes_int_and_fraction_minors():
    v = Subspace.from_spanning(4, [(1, F(1, 2), 0, 3), (0, 0, 1, F(-2, 7))])
    table = minor_table(v)
    # the same Pluecker vector, scaled and as integers, without its zeros
    scaled = {cols: int(value * 14 * -3) for cols, value in table.items() if value}
    assert subspace_from_minors(4, 2, table) == v
    assert subspace_from_minors(4, 2, scaled) == v


def test_minor_table_full_enumeration():
    v = Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    table = minor_table(v)
    assert len(table) == 6
    assert table[(0, 1)] == 1 and table[(1, 2)] == -1 and table[(0, 2)] == 0


def test_the_oracle_tabulates_each_value_once(monkeypatch):
    calls = []
    real = oracle._nonzero_minors
    monkeypatch.setattr(
        oracle, "_nonzero_minors", lambda rows: calls.append(rows) or real(rows)
    )
    split = TorusSplit(2, 3)
    v = random_subspace(5, 2, random.Random(4))
    limit_via_pluecker(split, v, Direction.ZERO)
    limit_via_pluecker(split, v, Direction.INFINITY)
    degree_via_pluecker(split, v)
    weight_profile_via_pluecker(split, v)
    assert len(calls) == 1
    # an equal value built on its own has its own table
    assert minor_table(Subspace(v.ambient_dim, v.rows)) == minor_table(v)
    assert len(calls) == 2


def test_a_minor_table_cannot_be_changed_through_the_api():
    v = Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    table = minor_table(v)
    before = dict(table)
    with pytest.raises(TypeError):
        table[(0, 1)] = F(5)
    with pytest.raises(TypeError):
        del table[(0, 1)]
    for mutator in ("clear", "pop", "popitem", "setdefault", "update"):
        assert not hasattr(table, mutator)
    assert minor_table(v) == before


def _expand_along_first_row(rows):
    # reference: textbook recursive cofactor expansion of one square matrix
    if not rows:
        return F(1)
    total = F(0)
    for col, e in enumerate(rows[0]):
        if e != 0:
            minor = [row[:col] + row[col + 1 :] for row in rows[1:]]
            total += (-1) ** col * e * _expand_along_first_row(minor)
    return total


def _hard_rows(rng, k, n):
    # large, coprime and negative denominators, with some zero entries
    dens = [1, 2, 3, 7, 11, 97, 101, 2**61 - 1, 10**12 + 39]
    return [
        [
            F(rng.randint(-(10**9), 10**9), rng.choice(dens) * rng.choice((1, -1)))
            if rng.random() < 0.8
            else F(0)
            for _ in range(n)
        ]
        for _ in range(k)
    ]


def test_minor_table_matches_per_set_expansion():
    rng = random.Random(23)
    spaces = [Subspace.zero(3), Subspace.full(4), Subspace.zero(1), Subspace.full(1)]
    for _ in range(60):
        n = rng.randint(1, 7)
        spaces.append(random_subspace(n, rng.randint(0, n), rng))
        spaces.append(Subspace.from_spanning(n, _hard_rows(rng, rng.randint(0, n), n)))
    for v in spaces:
        rows = v.rows
        expected = [
            (cols, _expand_along_first_row([[row[c] for c in cols] for row in rows]))
            for cols in combinations(range(v.ambient_dim), v.dim)
        ]
        table = minor_table(v)
        assert list(table.items()) == expected
        assert all(type(value) is F for value in table.values())


def _assert_nonzero_minors_match_per_set_expansion(rows, n):
    expected = {}
    for cols in combinations(range(n), len(rows)):
        value = _expand_along_first_row([[row[c] for c in cols] for row in rows])
        if value:
            expected[cols] = value
    minors, scale = oracle._nonzero_minors(rows)
    assert all(type(value) is int and value != 0 for value in minors.values())
    assert type(scale) is int and scale > 0
    assert {cols: F(value, scale) for cols, value in minors.items()} == expected


def test_laplace_minors_match_per_set_expansion_on_hard_rows():
    rng = random.Random(29)
    cases = [([], 0), ([], 3), ([[F(0)] * 3], 3), ([[F(0)] * 2, [F(1, 3), F(-2, 7)]], 2)]
    for _ in range(60):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        rows = _hard_rows(rng, k, n)
        if rng.random() < 0.2:
            rows[rng.randrange(k)] = [F(0)] * n
        cases.append((rows, n))
    for rows, n in cases:
        _assert_nonzero_minors_match_per_set_expansion(rows, n)


def _cancelling_rows(rng, k, n):
    # rows whose minors cancel: some or all of them vanish, though the rows
    # have nonzero entries
    rows = _hard_rows(rng, k, n)
    kind = rng.randrange(3)
    if kind == 0 and k >= 2:
        # two proportional rows
        i, j = rng.sample(range(k), 2)
        factor = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        rows[i] = [factor * e for e in rows[j]]
    elif kind == 1 and k >= 2:
        # a row equal to the sum of the later rows
        i = rng.randrange(k - 1)
        rows[i] = [sum(column, F(0)) for column in zip(*rows[i + 1 :])]
    else:
        rows[rng.randrange(k)] = [F(0)] * n
    return rows


def test_nonzero_minors_drop_the_minors_that_cancel():
    rng = random.Random(37)
    cases = [
        # one-column inputs
        ([[F(3, 4)]], 1),
        ([[F(0)]], 1),
        ([], 1),
        # proportional rows, one of them with a column of zeros
        ([[F(1), F(2), F(0)], [F(-3, 2), F(-3), F(0)]], 3),
        # the first row is the sum of the later two, so every 3-minor cancels
        ([[F(2), F(1), F(1), F(3)], [F(1), F(0), F(1), F(2)], [F(1), F(1), F(0), F(1)]], 4),
    ]
    for _ in range(80):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        cases.append((_cancelling_rows(rng, k, n), n))
    for rows, n in cases:
        _assert_nonzero_minors_match_per_set_expansion(rows, n)
    assert oracle._nonzero_minors(cases[0][0]) == ({(0,): 3}, 4)
    assert oracle._nonzero_minors(cases[1][0]) == ({}, 1)
    assert oracle._nonzero_minors([]) == ({(): 1}, 1)
    assert oracle._nonzero_minors(cases[3][0])[0] == {}
    assert oracle._nonzero_minors(cases[4][0])[0] == {}


def _audit_spaces(seed):
    # every split with blocks <= 5 and every dimension <= 4, as the orbit
    # audit draws them
    rng = random.Random(seed)
    for dim1 in range(6):
        for dim2 in range(6 if dim1 else 1, 6):
            split = TorusSplit(dim1, dim2)
            for dim in range(1, min(4, split.ambient_dim) + 1):
                yield split, random_subspace(split.ambient_dim, dim, rng)


def _reference_levels(split, v):
    # the nonzero minors of the full table, grouped by first-block weight
    levels = {}
    for cols, value in minor_table(v).items():
        if value:
            levels.setdefault(sum(c < split.dim1 for c in cols), {})[cols] = value
    return levels


def test_kept_and_full_minor_tables_give_the_same_answers_on_audit_splits():
    previous = None
    for split, v in _audit_spaces(43):
        table = minor_table(v)
        kept, _ = oracle._kept_minors(v)
        assert set(kept) == {cols for cols, value in table.items() if value}
        levels = _reference_levels(split, v)
        assert weight_profile_via_pluecker(split, v) == {(w, v.dim - w) for w in levels}
        assert degree_via_pluecker(split, v) == max(levels) - min(levels)
        ends = ((Direction.ZERO, max(levels)), (Direction.INFINITY, min(levels)))
        for direction, level in ends:
            assert limit_via_pluecker(split, v, direction) == subspace_from_minors(
                v.ambient_dim, v.dim, levels[level]
            )
        if previous is not None and previous[0] == split:
            other = previous[1]
            for ending, starting in ((other, v), (v, other)):
                full = oracle._tangent_certificate(
                    _reference_levels(split, ending), _reference_levels(split, starting)
                )
                assert full == oracle._tangent_certificate(
                    oracle._levels(split, ending), oracle._levels(split, starting)
                )
        previous = (split, v)


def _solved_rows_spanned(ambient_dim, dim, minors):
    # reference: solve the incidence conditions, then eliminate
    base = next(
        cols for cols in combinations(range(ambient_dim), dim) if minors.get(cols, 0) != 0
    )
    vectors = []
    for k in range(dim):
        vec = [F(0)] * ambient_dim
        vec[base[k]] = F(1)
        for j in range(ambient_dim):
            if j not in base:
                joined = tuple(sorted(base + (j,)))
                dropped = tuple(c for c in joined if c != base[k])
                sign = (-1) ** (joined.index(base[k]) + joined.index(j))
                vec[j] = -sign * minors.get(dropped, F(0)) / minors[base]
        vectors.append(vec)
    return Subspace.from_spanning(ambient_dim, vectors)


def test_subspace_from_minors_needs_no_elimination_on_audit_splits():
    # every split with blocks <= 5 and every dimension <= 4, as the orbit
    # audit draws them; the full table and both limit tables
    for split, v in _audit_spaces(41):
        dim = v.dim
        table = minor_table(v)
        weights = {cols: sum(c < split.dim1 for c in cols) for cols in table}
        levels = [weights[cols] for cols, value in table.items() if value]
        for kept in (min(levels), max(levels)):
            survivors = {
                cols: value if weights[cols] == kept else F(0)
                for cols, value in table.items()
            }
            rebuilt = subspace_from_minors(split.ambient_dim, dim, survivors)
            assert rebuilt == _solved_rows_spanned(split.ambient_dim, dim, survivors)
        assert subspace_from_minors(split.ambient_dim, dim, table) == v


def test_compare_chain_builds_one_minor_table_per_component(monkeypatch):
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    calls = []
    real = oracle._kept_minors

    def counting(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(oracle, "_kept_minors", counting)
    assert compare_chain(chain) == ()
    assert calls == list(chain.series.spaces)


def test_the_oracle_reads_only_the_nonzero_minors_at_d8_r7(monkeypatch):
    # C(18, 8) = 43,758 column sets per base space, of which 1 to 4 have a
    # nonzero minor: the oracle's work follows the nonzero ones
    chain = build_chain(random_exact_lls(8, 7, (2, 1, 2, 1, 2, 1, 2, 1), seed=1))
    split = chain.series.model.split
    drawn = [0]
    real = oracle.combinations

    def counting(*args):
        for cols in real(*args):
            drawn[0] += 1
            yield cols

    monkeypatch.setattr(oracle, "combinations", counting)
    assert compare_chain(chain) == ()
    for v in chain.series.spaces:
        for direction in Direction:
            limit_via_pluecker(split, v, direction)
        degree_via_pluecker(split, v)
    assert drawn[0] < 1000
    monkeypatch.undo()
    for v in chain.series.spaces:
        minors, scale = vars(v)["_minor_table"]
        table = minor_table(v)
        assert {cols: F(value, scale) for cols, value in minors.items()} == {
            cols: value for cols, value in table.items() if value
        }


def _relabel(chain, target, degree, monkeypatch):
    """The chain, with one component's space's profile reporting ``degree``
    until the test ends."""
    profile = block_profile(chain.series.model.split, chain.series.spaces[target])
    real = BlockProfile.degree.fget
    monkeypatch.setattr(
        BlockProfile, "degree", property(lambda p: degree if p is profile else real(p))
    )
    assert chain.series.profiles[target].degree == degree
    return chain


def test_sample_orbit_check_flags_a_moving_component_labelled_fixed(monkeypatch):
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    target = next(
        k
        for k, (i, p) in enumerate(zip(chain.series.delta.indices, chain.series.profiles))
        if i.denominator == 1 and p.degree != 0
    )
    report = sample_orbit_check(
        _relabel(chain, target, 0, monkeypatch), samples_per_component=5, seed=0
    )
    assert not report.passed
    assert any("a fixed component moved" in msg for msg in report.failures)


def test_sample_orbit_check_flags_a_fixed_component_labelled_moving(monkeypatch):
    chain = build_chain(random_exact_lls(1, 0, (1,), seed=1))
    target = next(k for k, p in enumerate(chain.series.profiles) if p.degree == 0)
    report = sample_orbit_check(
        _relabel(chain, target, 1, monkeypatch), samples_per_component=5, seed=0
    )
    assert not report.passed
    assert any("distinct points on a moving orbit" in msg for msg in report.failures)


def test_sample_orbit_check_builds_one_section_space_per_component(monkeypatch):
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    calls = []

    def counting(model, i):
        calls.append(i)
        return section_space(model, i)

    monkeypatch.setattr(oracle, "section_space", counting)
    assert sample_orbit_check(chain, samples_per_component=7, seed=0).passed
    assert calls == list(chain.series.delta.indices)


def test_sample_orbit_check_tests_the_moved_points(monkeypatch):
    # an action that moves the series one way and the sections the other
    # keeps every base space in its fiber but not the moved points
    chain = build_chain(random_exact_lls(3, 1, (2, 1, 1), seed=4))
    fiber_dim = chain.series.model.d + 1

    def skewed(split, x, v):
        return act(split, x if v.dim == fiber_dim else 1 / x, v)

    monkeypatch.setattr(oracle, "act", skewed)
    report = sample_orbit_check(chain, samples_per_component=4, seed=0)
    assert not report.passed
    assert any("leaves the twisted" in msg for msg in report.failures)


def test_sample_orbit_check_passes_on_built_chain():
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    report = sample_orbit_check(chain, samples_per_component=20, seed=0)
    assert report.passed, report.failures


def test_sample_orbit_check_flags_corrupted_base():
    g = random_exact_lls(2, 1, (1, 1), seed=6)
    target = None
    for k, v in enumerate(g.spaces):
        if not is_fixed(g.model.split, v):
            target = k
            break
    rows = list(g.spaces[target].rows)
    rows[0] = tuple(e + 1 for e in rows[0])
    broken = Subspace.from_spanning(g.model.ambient_dim, rows)
    spaces = g.spaces[:target] + (broken,) + g.spaces[target + 1 :]
    corrupted = ContinuousChain(dataclasses.replace(g, spaces=spaces))
    report = sample_orbit_check(corrupted, samples_per_component=10, seed=0)
    assert not report.passed
    assert any("leaves the twisted" in msg for msg in report.failures)


def test_sample_orbit_check_accepts_fixed_components():
    chain = build_chain(random_exact_lls(1, 0, (1,), seed=1))
    degrees = {p.degree for p in chain.series.profiles}
    assert 0 in degrees
    report = sample_orbit_check(chain, samples_per_component=8, seed=3)
    assert report.passed


@pytest.mark.parametrize("samples", [0, 111])
def test_sample_orbit_check_refuses_counts_outside_the_pool(samples):
    chain = build_chain(random_exact_lls(1, 0, (1,), seed=1))
    with pytest.raises(ValueError, match="1..110"):
        sample_orbit_check(chain, samples_per_component=samples, seed=0)


def test_compare_chain_agrees_on_built_chains():
    for seed in range(4):
        chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=seed))
        assert compare_chain(chain) == ()


def test_compare_chain_reports_wrong_structural_formulas(monkeypatch):
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    split = chain.series.model.split
    moving = [i for i, v in chain.series.items() if not is_fixed(split, v)]
    assert moving
    # a limit with its directions swapped is wrong exactly on the orbit components
    real_limit = BlockProfile.limit
    opposite = {Direction.ZERO: Direction.INFINITY, Direction.INFINITY: Direction.ZERO}
    monkeypatch.setattr(
        BlockProfile, "limit", lambda self, direction: real_limit(self, opposite[direction])
    )
    assert compare_chain(chain) == tuple(
        f"limit mismatch at {format_rational(i)} ({direction})"
        for i in moving
        for direction in ("zero", "infinity")
    )
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "orbit_degree", lambda split, v: 7)
    assert compare_chain(chain) == tuple(
        f"degree mismatch at {format_rational(i)}" for i in chain.series.delta.indices
    )
    monkeypatch.undo()
    # fixed components are compared too: a limit wrong only on one of them
    index, fixed = next(
        (i, v) for (i, v), p in zip(chain.series.items(), chain.series.profiles) if p.degree == 0
    )
    real = oracle.limit

    def wrong_on_fixed(split, v, direction):
        return Subspace.zero(v.ambient_dim) if v is fixed else real(split, v, direction)

    monkeypatch.setattr(oracle, "limit", wrong_on_fixed)
    assert compare_chain(chain) == tuple(
        f"limit mismatch at {format_rational(index)} ({direction})"
        for direction in ("zero", "infinity")
    )


def test_compare_chain_checks_the_tangent_certificate_at_orbit_nodes(monkeypatch):
    chain, p = orbit_orbit_chain()
    assert compare_chain(chain) == ()
    # a structural side that never finds the meeting disagrees with the minors
    monkeypatch.setattr(BlockProfile, "meeting_point", lambda self, other: None)
    assert compare_chain(chain) == ("transversality mismatch at (4/3, 5/3)",)
    monkeypatch.undo()
    # an orbit glued to a copy of itself has no node where its ends meet
    spaces = list(chain.series.spaces)
    spaces[p + 1] = spaces[p]
    copied = ContinuousChain(dataclasses.replace(chain.series, spaces=tuple(spaces)))
    assert compare_chain(copied) == ("tangent certificate fails at (4/3, 5/3)",)
