import dataclasses
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from nodalseries.chain import ComponentKind, build_chain
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
)
from nodalseries.curve import section_space
from nodalseries.torus import (
    BlockProfile,
    Direction,
    TorusSplit,
    act,
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
        assert orbit_degree(split, v) == degree_via_pluecker(split, v)


def test_subspace_from_minors_rejects_zero_vector():
    with pytest.raises(ValueError):
        subspace_from_minors(3, 1, {(0,): F(0), (1,): F(0), (2,): F(0)})


def test_minor_table_full_enumeration():
    v = Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    table = minor_table(v)
    assert len(table) == 6
    assert table[(0, 1)] == 1 and table[(1, 2)] == -1 and table[(0, 2)] == 0


def test_the_oracle_tabulates_each_value_once(monkeypatch):
    calls = []
    real = oracle._laplace_minors
    monkeypatch.setattr(
        oracle, "_laplace_minors", lambda rows, n: calls.append(n) or real(rows, n)
    )
    split = TorusSplit(2, 3)
    v = random_subspace(5, 2, random.Random(4))
    limit_via_pluecker(split, v, Direction.ZERO)
    limit_via_pluecker(split, v, Direction.INFINITY)
    degree_via_pluecker(split, v)
    assert len(calls) == 1
    # an equal value built on its own has its own table
    assert minor_table(Subspace(v.ambient_dim, v.basis)) == minor_table(v)
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
        rows = v.basis_rows()
        expected = [
            (cols, _expand_along_first_row([[row[c] for c in cols] for row in rows]))
            for cols in combinations(range(v.ambient_dim), v.dim)
        ]
        table = minor_table(v)
        assert list(table.items()) == expected
        assert all(type(value) is F for value in table.values())


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
        expected = [
            (cols, _expand_along_first_row([[row[c] for c in cols] for row in rows]))
            for cols in combinations(range(n), len(rows))
        ]
        table = oracle._laplace_minors(rows, n)
        assert list(table.items()) == expected
        assert all(type(value) is F for value in table.values())


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
    rng = random.Random(41)
    for dim1 in range(6):
        for dim2 in range(6 if dim1 else 1, 6):
            split = TorusSplit(dim1, dim2)
            for dim in range(1, min(4, split.ambient_dim) + 1):
                v = random_subspace(split.ambient_dim, dim, rng)
                table = minor_table(v)
                weights = {cols: sum(c < dim1 for c in cols) for cols in table}
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

    def counting(v):
        calls.append(v)
        return minor_table(v)

    monkeypatch.setattr(oracle, "minor_table", counting)
    assert compare_chain(chain) == ()
    assert calls == [c.base_space for c in chain.components]


def _relabel(chain, target, kind, degree):
    components = list(chain.components)
    components[target] = dataclasses.replace(
        components[target], kind=kind, grassmann_degree=degree
    )
    return dataclasses.replace(chain, components=tuple(components))


def test_sample_orbit_check_flags_a_moving_component_labelled_fixed():
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    target = next(
        k
        for k, c in enumerate(chain.components)
        if c.index.denominator == 1 and c.kind is ComponentKind.ORBIT
    )
    report = sample_orbit_check(
        _relabel(chain, target, ComponentKind.FIXED, 0), samples_per_component=5, seed=0
    )
    assert not report.passed
    assert any("a fixed component moved" in msg for msg in report.failures)


def test_sample_orbit_check_flags_a_fixed_component_labelled_moving():
    chain = build_chain(random_exact_lls(1, 0, (1,), seed=1))
    target = next(
        k for k, c in enumerate(chain.components) if c.kind is ComponentKind.FIXED
    )
    report = sample_orbit_check(
        _relabel(chain, target, ComponentKind.ORBIT, 1), samples_per_component=5, seed=0
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
    assert calls == [c.index for c in chain.components]


def test_sample_orbit_check_tests_the_moved_points(monkeypatch):
    # an action that moves the series one way and the sections the other
    # keeps every base space in its fiber but not the moved points
    chain = build_chain(random_exact_lls(3, 1, (2, 1, 1), seed=4))
    fiber_dim = chain.model.d + 1

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
    chain = build_chain(random_exact_lls(2, 1, (1, 1), seed=6))
    target = None
    for k, comp in enumerate(chain.components):
        if not is_fixed(chain.model.split, comp.base_space):
            target = k
            break
    comp = chain.components[target]
    rows = list(comp.base_space.basis_rows())
    rows[0] = tuple(e + 1 for e in rows[0])
    broken_space = Subspace.from_spanning(chain.model.ambient_dim, rows)
    broken = dataclasses.replace(comp, base_space=broken_space)
    components = list(chain.components)
    components[target] = broken
    corrupted = dataclasses.replace(chain, components=tuple(components))
    report = sample_orbit_check(corrupted, samples_per_component=10, seed=0)
    assert not report.passed
    assert any("leaves the twisted" in msg for msg in report.failures)


def test_sample_orbit_check_accepts_fixed_components():
    chain = build_chain(random_exact_lls(1, 0, (1,), seed=1))
    kinds = {c.kind.value for c in chain.components}
    assert "fixed" in kinds
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
    split = chain.model.split
    moving = [c for c in chain.components if not is_fixed(split, c.base_space)]
    assert moving
    # a limit with its directions swapped is wrong exactly on the orbit components
    real_limit = BlockProfile.limit
    opposite = {Direction.ZERO: Direction.INFINITY, Direction.INFINITY: Direction.ZERO}
    monkeypatch.setattr(
        BlockProfile, "limit", lambda self, direction: real_limit(self, opposite[direction])
    )
    assert compare_chain(chain) == tuple(
        f"limit mismatch at {format_rational(c.index)} ({direction})"
        for c in moving
        for direction in ("zero", "infinity")
    )
    monkeypatch.undo()
    monkeypatch.setattr(BlockProfile, "degree", property(lambda self: 7))
    assert compare_chain(chain) == tuple(
        f"degree mismatch at {format_rational(c.index)}" for c in chain.components
    )


def test_compare_chain_checks_the_tangent_certificate_at_orbit_nodes(monkeypatch):
    chain, p = orbit_orbit_chain()
    assert compare_chain(chain) == ()
    # a structural certificate that always fails disagrees with the minors
    monkeypatch.setattr(BlockProfile, "meets_transversally", lambda self, other: False)
    assert compare_chain(chain) == ("transversality mismatch at (4/3, 5/3)",)
    monkeypatch.undo()
    # an orbit glued to a copy of itself has no node where its ends meet
    components = list(chain.components)
    components[p + 1] = dataclasses.replace(
        components[p + 1], base_space=components[p].base_space
    )
    copied = dataclasses.replace(chain, components=tuple(components))
    assert compare_chain(copied) == ("tangent certificate fails at (4/3, 5/3)",)
