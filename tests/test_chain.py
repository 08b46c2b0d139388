import dataclasses
import math
import pickle
import random
from fractions import Fraction as F

import pytest

from nodalseries.chain import (
    ChainBuildError,
    ContinuousChain,
    build_chain,
    emit_dot,
    validate_chain,
)
from nodalseries.curve import CurveModel, section_shape
from nodalseries.delta import build_delta, consecutive_pairs
from nodalseries.generate import random_exact_lls, random_nonfixed_subspace
from nodalseries.linalg import Subspace, format_rational
from nodalseries import cli, torus
from nodalseries.oracle import minor_table
from nodalseries.serialize import (
    SubspaceTask,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)
from nodalseries.series import (
    LimitLinearSeries,
    check_compatible,
    check_exact,
    numerical_data,
    reduce_minimal,
    torus_equivalent,
)
from nodalseries.torus import (
    Direction,
    IntersectionHypothesisError,
    act,
    block_profile,
    is_fixed,
    limit,
    orbit_intersection,
)

from test_series import series_e4, series_e5


def test_build_chain_on_worked_example():
    chain = build_chain(series_e4())
    g = chain.series
    kinds = [(i, p.degree == 0, p.degree) for i, p in zip(g.delta.indices, g.profiles)]
    assert kinds == [
        (F(0), False, 1),
        (F(1), True, 0),
    ]
    # the glued node is the split space generated by (0, s)
    assert chain.nodes == (Subspace.from_spanning(4, [(0, 0, 0, 1)]),)
    assert sum(p.degree for p in g.profiles) == g.rank + 1


def test_build_chain_rejects_non_exact_with_the_failing_pair():
    report = check_exact(series_e5())
    with pytest.raises(ChainBuildError) as excinfo:
        build_chain(series_e5())
    assert excinfo.value.failing_pair == report.first_failing_pair()


def test_build_chain_rejects_non_minimal():
    from nodalseries.generate import pad_with_trivial_slots

    padded = pad_with_trivial_slots(series_e4(), (2,), seed=0)
    with pytest.raises(ChainBuildError) as excinfo:
        build_chain(padded)
    assert excinfo.value.failing_pair is None
    assert "not minimal" in str(excinfo.value)


def test_degree_zero_instance():
    g = random_exact_lls(0, 0, (), seed=0)
    chain = build_chain(g)
    assert len(chain.series.spaces) == 1
    assert chain.nodes == ()
    assert chain.series.profiles[0].degree == 1  # rank + 1
    assert validate_chain(chain).passed


def test_validate_chain_passes_on_built_chains():
    for seed, (d, r, delta) in enumerate([(2, 1, (2, 1)), (3, 2, (1, 2, 2)), (4, 2, (1, 1, 2, 1))]):
        chain = build_chain(random_exact_lls(d, r, delta, seed=seed))
        report = validate_chain(chain)
        assert report.passed, report.summary()


def test_validate_chain_detects_wrong_node():
    # a fixed base space at 0 is its own limit, so it moves the node there
    chain = build_chain(series_e4())
    wrong = Subspace.from_spanning(4, [(0, 1, 0, 0)])
    corrupted = _with_base(chain, F(0), wrong.rows)
    assert corrupted.nodes == (wrong,) != chain.nodes
    report = validate_chain(corrupted)
    assert not report.gluing.passed
    assert not report.passed


def test_validate_chain_detects_scaled_integer_base():
    chain = build_chain(series_e4())
    g = chain.series
    moved = act(g.model.split, F(2), g.spaces[0])
    corrupted = _rechained(chain, spaces=(moved, g.spaces[1]))
    report = validate_chain(corrupted)
    assert not report.membership.passed


def _another_fixed_space(chain, pos):
    """Rows of a fixed space in the section space at position pos with the
    block dimensions of the base space there but not that space, or None:
    the leading or the trailing units of each flag."""
    model = chain.series.model
    n = model.ambient_dim
    base = chain.series.spaces[pos]
    profile = block_profile(model.split, base)
    a, b = profile.inside_first.dim, profile.inside_second.dim
    shape = section_shape(model, chain.series.delta.indices[pos])
    t, s = shape.t_flag, shape.s_flag
    for coords in (t[:a] + s[:b], t[len(t) - a :] + s[len(s) - b :]):
        rows = [tuple(int(k == c) for k in range(n)) for c in coords]
        if Subspace.from_spanning(n, rows) != base:
            return rows
    return None


def test_a_fixed_node_beside_a_fixed_component_can_fail_gluing(tmp_path, capsys):
    # a fixed component is its own limit, so it is the node on its right and
    # the limit that meets the node on its left; another fixed space of the
    # same block dimensions in its section space must fail gluing alone
    chain = build_chain(random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=5))
    split = chain.series.model.split
    pairs = consecutive_pairs(chain.series.delta)
    path = tmp_path / "chain.json"
    replaced = 0
    g = chain.series
    for k, ((index, base), profile) in enumerate(zip(g.items(), g.profiles)):
        if profile.degree != 0:
            continue
        if k + 1 < len(g.spaces):
            assert chain.nodes[k] is base
        rows = _another_fixed_space(chain, k)
        if rows is None:
            continue
        corrupted = _with_base(chain, index, rows)
        assert is_fixed(split, corrupted.series.spaces[k])
        report = validate_chain(corrupted)
        assert [c.passed for c in report.checks] == [False, True, True, True, True]
        assert report.gluing.failures == tuple(
            f"node between {format_rational(i)} and {format_rational(j)}"
            " does not match both orbit limits"
            for i, j in pairs[max(k - 1, 0) : k + 1]
        )
        save_instance(corrupted, path)
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 1
        assert "node gluing: FAIL\n" in capsys.readouterr().out
        replaced += 1
    assert replaced >= 8


def test_a_collapse_fails_construction_at_the_first_inexact_pair(exact_corpus):
    collapses = 0
    for g in exact_corpus:
        split = g.model.split
        for pos, (i, v) in enumerate(g.items()):
            if i.denominator == 1 or is_fixed(split, v):
                continue
            collapsed = limit(split, v, Direction.INFINITY)
            assert limit(split, collapsed, Direction.ZERO) is collapsed
            candidate = dataclasses.replace(
                g, spaces=g.spaces[:pos] + (collapsed,) + g.spaces[pos + 1 :]
            )
            report = check_exact(candidate)
            assert report.first_failing_pair() == (g.delta.indices[pos - 1], i)
            with pytest.raises(ChainBuildError) as excinfo:
                build_chain(candidate)
            assert excinfo.value.failing_pair == report.first_failing_pair()
            collapses += 1
    assert collapses >= 100


def orbit_orbit_chain():
    """A chain with one node between two orbit components, and its position."""
    # two non-integer slots in the same gap force an orbit-orbit node
    chain = build_chain(random_exact_lls(3, 1, (1, 3, 1), seed=4))
    fixed = [p.degree == 0 for p in chain.series.profiles]
    pair_kinds = list(zip(fixed, fixed[1:]))
    assert pair_kinds.count((False, False)) == 1
    return chain, pair_kinds.index((False, False))


def test_validate_transversality_on_adjacent_orbit_pairs():
    chain, _ = orbit_orbit_chain()
    report = validate_chain(chain)
    assert report.passed, report.summary()


def _swapped_orbits():
    """The orbit-orbit chain with the two orbits' base spaces swapped.

    The swapped closures still meet, but where the right orbit ends and the
    left one begins, so not at the node, the left space's infinity limit.
    """
    chain, p = orbit_orbit_chain()
    spaces = list(chain.series.spaces)
    spaces[p : p + 2] = spaces[p + 1], spaces[p]
    return _rechained(chain, spaces=tuple(spaces))


def test_validate_transversality_detects_a_moved_node():
    chain, p = orbit_orbit_chain()
    swapped = _swapped_orbits()
    assert swapped.nodes[p] != chain.nodes[p]
    split = chain.series.model.split
    left, right = swapped.series.spaces[p : p + 2]
    assert orbit_intersection(split, left, right) == limit(split, left, Direction.ZERO)
    report = validate_chain(swapped)
    assert report.transversality.failures == (
        "pair (4/3, 5/3): orbit closures do not meet at the node",
    )


def test_validate_transversality_detects_an_unlinked_orbit():
    chain, p = orbit_orbit_chain()
    split = chain.series.model.split
    left, right = chain.series.spaces[p], chain.series.spaces[p + 1]
    unlinked = random_nonfixed_subspace(split, right.dim, random.Random(0))
    with pytest.raises(IntersectionHypothesisError):
        orbit_intersection(split, left, unlinked)
    spaces = list(chain.series.spaces)
    spaces[p + 1] = unlinked
    report = validate_chain(_rechained(chain, spaces=tuple(spaces)))
    assert report.transversality.failures == (
        "pair (4/3, 5/3): neither block condition links the two orbits; the"
        " dichotomy is only available when one orbit ends where the other begins",
    )


def test_one_elimination_per_moving_space(eliminations, tmp_path, capsys):
    g = random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=7)
    assert len(g.spaces) == 13
    series_path = tmp_path / "series.json"
    chain_path = tmp_path / "chain.json"
    save_instance(g, series_path)
    save_instance(build_chain(g), chain_path)
    # a fixed space's profile is read off its canonical basis; only the
    # moving ones are reduced again
    split = g.model.split
    moving = sum(not is_fixed(split, v) for v in load_instance(series_path).spaces)
    assert 0 < moving < len(g.spaces)
    calls = eliminations(torus)

    def made(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    # loading keeps the canonical bases a file stores and eliminates nothing
    reports = (check_compatible, check_exact, numerical_data, build_chain, reduce_minimal)
    for first in reports:
        fresh = load_instance(series_path)
        assert made(first, fresh) == moving, first.__name__
        for again in reports:
            assert made(again, fresh) == 0, (first.__name__, again.__name__)
    # loading a chain profiles its spaces when the chain is made
    assert made(load_instance, chain_path) == moving
    chain = load_instance(chain_path)
    assert made(validate_chain, chain) == 0
    # each command loads its file afresh; verify of a series validates the
    # chain it built from the series' own spaces, whose profiles it reads back
    assert made(cli.main, ["check", str(series_path)]) == moving
    assert "exact: true" in capsys.readouterr().out
    assert made(cli.main, ["verify", str(series_path)]) == moving
    # the oracle profiles the spaces through its own binding, and reads
    # the profiles validation left on them
    oracle_run = ["verify", "--oracle", "--samples", "1", str(chain_path)]
    assert made(cli.main, oracle_run) == moving
    assert "FAIL" not in capsys.readouterr().out
    profiles = chain.series.profiles
    position = next(
        k
        for k, (a, b) in enumerate(zip(profiles, profiles[1:]))
        if a.degree != 0 and b.degree != 0
    )
    pair = list(chain.series.spaces[position : position + 2])
    for fn in (torus.orbit_intersection, torus.meeting_is_transverse):
        # the chain's spaces were profiled; fresh copies of them were not
        fresh = [Subspace(v.ambient_dim, v.rows) for v in pair]
        for (left, right), expected in ((pair, 0), (fresh, 2)):
            assert made(fn, split, left, right) == expected, fn.__name__
    # every node is a fixed point, so labelling the edges eliminates nothing
    for c in (build_chain(load_instance(series_path)), load_instance(chain_path)):
        assert made(emit_dot, c) == 0


def test_each_moving_limit_is_assembled_once(monkeypatch):
    """The nodes, gluing validation and the meetings read the limits a
    moving space's profile keeps."""
    g = random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=7)
    split = g.model.split
    g = dataclasses.replace(g, spaces=[Subspace(v.ambient_dim, v.rows) for v in g.spaces])
    assembled = []
    real = torus.assemble_split_subspace
    monkeypatch.setattr(
        torus, "assemble_split_subspace", lambda *args: assembled.append(args) or real(*args)
    )
    chain = build_chain(g)
    # construction reads exactness off the profiles and assembles only the
    # nodes: one limit toward infinity of each of the four moving spaces
    assert sum(not is_fixed(split, v) for v in g.spaces) == 4
    assert len(assembled) == 4
    assembled.clear()
    # gluing validation assembles the limit toward zero of each, once
    assert validate_chain(chain).passed
    assert len(assembled) == 4
    assembled.clear()
    assert validate_chain(chain).passed
    assert assembled == []
    for node, v in zip(chain.nodes, chain.series.spaces):
        assert node is limit(split, v, Direction.INFINITY)


def test_profiles_belong_to_the_value_they_were_computed_from():
    g = random_exact_lls(3, 2, (2, 2, 1), seed=8)
    chain = build_chain(g)
    assert check_exact(g).passed and validate_chain(chain).passed
    # collapse a moving non-integer slot to its outgoing limit: the pair that
    # ends there loses exactness, and a replaced series must see it
    pos = next(k for k, i in enumerate(g.delta.indices) if i.denominator != 1)
    collapsed = limit(g.model.split, g.spaces[pos], Direction.INFINITY)
    spaces = g.spaces[:pos] + (collapsed,) + g.spaces[pos + 1 :]
    report = check_exact(dataclasses.replace(g, spaces=spaces))
    assert report.first_failing_pair() == (g.delta.indices[pos - 1], g.delta.indices[pos])
    # and the chain of a replaced series reads the collapsed space's degree,
    # 0, which a non-integer index refuses
    lazy = format_rational(g.delta.indices[pos])
    with pytest.raises(ChainBuildError, match=f"non-integer indices {lazy} carry no mobile"):
        _rechained(chain, spaces=spaces)


def _spaces(value):
    if isinstance(value, LimitLinearSeries):
        return value.spaces
    if isinstance(value, SubspaceTask):
        return (value.subspace,)
    return value.series.spaces


def test_profiled_and_unprofiled_values_are_equal():
    g = random_exact_lls(3, 2, (2, 2, 1), seed=8)
    chain = build_chain(g)
    validate_chain(chain)
    v = g.spaces[1]
    minor_table(v)
    memos = {"_block_profiles", "_minor_table"}
    assert memos.isdisjoint(f.name for f in dataclasses.fields(Subspace))
    split = g.model.split
    # a loaded chain profiles its spaces when it is made, but holds no minors
    unprofiled = [
        (g, loads_instance(dumps_instance(g)), set()),
        (chain, loads_instance(dumps_instance(chain)), {"_block_profiles"}),
        (SubspaceTask(split, v), SubspaceTask(split, Subspace(v.ambient_dim, v.rows)), set()),
    ]
    assert "_minor_table" in vars(chain.series.spaces[1])
    for profiled, twin, twin_memos in unprofiled:
        assert all("_block_profiles" in vars(w) for w in _spaces(profiled))
        assert all(memos & vars(w).keys() == twin_memos for w in _spaces(twin))
        assert profiled == twin and hash(profiled) == hash(twin)
        assert repr(profiled) == repr(twin)
        assert dumps_instance(profiled) == dumps_instance(twin)
        back = pickle.loads(pickle.dumps(profiled))
        assert back == twin and dumps_instance(back) == dumps_instance(twin)
        # a pickle carries the fields and the pivots of each space, no memo
        for w in _spaces(back):
            assert vars(w).keys() == {"ambient_dim", "rows", "_pivots"}
    # the same fields pickle to the same bytes, memo or not
    assert pickle.dumps(v) == pickle.dumps(Subspace(v.ambient_dim, v.rows))


def test_evaluate_round_trip_on_the_nose():
    chain = build_chain(series_e4())
    assert chain.series == series_e4()


def test_round_trip_up_to_torus_scaling():
    g = random_exact_lls(3, 2, (2, 2, 1), seed=8)
    chain = build_chain(g)
    back = chain.series
    assert torus_equivalent(back, g)
    # scaling the base points on non-integer slots moves the chain's base
    # data but not its nodes or degrees
    scaled_spaces = tuple(
        act(g.model.split, F(5, 3), v) if i.denominator != 1 else v
        for i, v in g.items()
    )
    scaled = LimitLinearSeries(g.model, g.rank, g.delta, scaled_spaces)
    chain2 = build_chain(scaled)
    assert chain2.nodes == chain.nodes
    assert [p.degree for p in chain2.series.profiles] == [
        p.degree for p in chain.series.profiles
    ]


def test_emit_dot_is_deterministic_and_structured():
    chain = build_chain(series_e4())
    text = emit_dot(chain)
    assert text == emit_dot(build_chain(series_e4()))
    assert text.startswith("digraph chain {")
    assert text.count("->") == 1
    assert '"0"' in text and '"1"' in text
    dot0 = emit_dot(build_chain(random_exact_lls(0, 0, (), seed=0)))
    assert dot0.count("->") == 0


def test_component_consistency_is_enforced():
    v = Subspace.from_spanning(4, [(0, 1, 0, 0)])
    w = Subspace.from_spanning(4, [(0, 1, 1, 0)])
    # a component is an index of the series and its degree is read off the
    # base space, so the series is the chain's one field
    assert [f.name for f in dataclasses.fields(ContinuousChain)] == ["series"]
    model, ladder = CurveModel(1), build_delta(1, (2,))
    with pytest.raises(ChainBuildError, match="non-integer indices 1/2 carry no mobile"):
        # fixed component at a non-integer index is never allowed
        ContinuousChain(LimitLinearSeries(model, 0, ladder, (w, v, w)))
    chain = ContinuousChain(LimitLinearSeries(model, 0, ladder, (v, w, v)))
    # the moving space at 1/2 has degree 1, the fixed ones at 0 and 1 degree 0
    assert [p.degree for p in chain.series.profiles] == [0, 1, 0]


def test_chain_rejects_targets_outside_the_degree():
    """A target is read off the index, and a chain's indices are its
    series' ladder, so a component whose target lies outside 0..d needs a
    ladder of another degree than the model's, which the series refuses."""
    g = series_e4()
    for index in (F(-1), F(2), F(3)):
        target = math.ceil(index)
        assert not 0 <= target <= g.model.d
        if target < 0:
            # no ladder holds a negative index
            with pytest.raises(ValueError, match="degree must be nonnegative"):
                build_delta(target, ())
            continue
        ladder = build_delta(target, (1,) * target)
        assert index in ladder.indices
        with pytest.raises(ValueError, match="ladder degree does not match the model degree"):
            ContinuousChain(dataclasses.replace(g, delta=ladder))


@pytest.mark.parametrize("rank", [pytest.param(True, id="bool"), pytest.param(1.0, id="float")])
def test_chain_refuses_a_non_integer_rank(rank):
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    with pytest.raises(TypeError, match="rank must be an integer"):
        _rechained(chain, rank=rank)


def _drop_last_row(v):
    return Subspace.from_spanning(v.ambient_dim, v.rows[:-1])


def _with_space(g, pos, v):
    return {"spaces": g.spaces[:pos] + (v,) + g.spaces[pos + 1 :]}


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(lambda g: {"rank": -1}, "rank must be nonnegative", id="rank-1"),
        pytest.param(
            lambda g: {"rank": 5}, "space at index 0 has dimension 2, expected 6", id="rank5"
        ),
        pytest.param(
            lambda g: _with_space(g, 0, _drop_last_row(g.spaces[0])),
            "space at index 0 has dimension 1, expected 2",
            id="base-space",
        ),
        # node 1 is read off the orbit space at 1/2, so a node of the wrong
        # dimension can only come from a base space the series refuses
        pytest.param(
            lambda g: _with_space(g, 1, _drop_last_row(g.spaces[1])),
            "space at index 1/2 has dimension 1, expected 2",
            id="node",
        ),
        pytest.param(
            lambda g: _with_space(g, 0, Subspace.from_spanning(4, [(1, 0, 0, 0), (0, 1, 0, 0)])),
            "space at index 0 lives in the wrong ambient space",
            id="ambient",
        ),
    ],
)
def test_chain_refuses_spaces_that_are_not_of_dimension_rank_plus_one(change, message):
    chain = build_chain(random_exact_lls(2, 1, (2, 1), seed=6))
    with pytest.raises(ValueError, match=message):
        _rechained(chain, **change(chain.series))


def _rechained(chain, **changes):
    """The chain of the chain's series with ``changes`` made to its fields."""
    return ContinuousChain(dataclasses.replace(chain.series, **changes))


def _with_base(chain, index, rows):
    """The chain with the base space at ``index`` replaced by the span of rows."""
    g = chain.series
    base = Subspace.from_spanning(g.model.ambient_dim, rows)
    return _rechained(chain, **_with_space(g, g.delta.position(index), base))


def _shifted_interval():
    # 3/2 sits between fixed components; span(s^2, t^2 + s^3) lies in its
    # section space and has the same orbit degree but weight interval [0, 1]
    chain = build_chain(random_exact_lls(3, 1, (1, 2, 1), seed=3))
    split = chain.series.model.split
    pos = chain.series.delta.position(F(3, 2))
    assert [p.degree == 0 for p in chain.series.profiles[pos - 1 : pos + 2]] == [
        True, False, True,
    ]
    assert block_profile(split, chain.series.spaces[pos]).inside_first.dim == 1
    return _with_base(chain, F(3, 2), [(0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0, 0, 1)])


def _scaled_base():
    chain = build_chain(series_e4())
    moved = act(chain.series.model.split, F(2), chain.series.spaces[0])
    return _with_base(chain, F(0), moved.rows)


def _refixed_last():
    # the last component is fixed; another fixed space there keeps every
    # block dimension and its section space but leaves the last node
    chain = build_chain(random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=5))
    return _with_base(chain, chain.series.delta.indices[-1], _another_fixed_space(chain, -1))


def _fixed_start():
    # span(t) lies in the section space at 0 but is fixed, so no degree is left
    return _with_base(build_chain(series_e4()), F(0), [(0, 1, 0, 0)])


# One bad chain value per reported check. Some checks cannot fail alone: the
# degree budget and the weight intervals follow from gluing and membership,
# and orbits that meet away from the node leave it unglued.
EVERY_CHECK_FAILS = [
    pytest.param(
        _refixed_last,
        [False, True, True, True, True],
        ("node between 7 and 8 does not match both orbit limits",),
        id="node gluing",
    ),
    pytest.param(
        _fixed_start,
        [False, False, True, False, True],
        ("orbit degrees sum to 0, expected 1",),
        id="degree budget",
    ),
    pytest.param(
        _swapped_orbits,
        [False, True, False, False, True],
        ("pair (4/3, 5/3): orbit closures do not meet at the node",),
        id="node transversality",
    ),
    pytest.param(
        _shifted_interval,
        [False, True, True, False, True],
        (
            "weight intervals at (1, 3/2) do not meet end-to-start: 2 vs 1",
            "weight intervals at (3/2, 2) do not meet end-to-start: 0 vs 1",
        ),
        id="weight intervals",
    ),
    pytest.param(
        _scaled_base,
        [True, True, True, True, False],
        ("base space at 0 is not an (r+1)-dimensional subspace of its section space",),
        id="section-space membership",
    ),
]


@pytest.mark.parametrize("corrupt, passed, failures", EVERY_CHECK_FAILS)
def test_every_reported_check_can_fail(corrupt, passed, failures, request):
    report = validate_chain(corrupt())
    assert [c.passed for c in report.checks] == passed
    (failing,) = [c for c in report.checks if c.name == request.node.callspec.id]
    assert failing.failures == failures


def test_a_chain_on_a_ladder_of_another_degree_is_refused():
    # three spaces of rank 1 in Q^8 on the ladder 0, 1, 2 of degree 2: a file
    # of degree 3 would hold two subdivision counts, which no loader accepts
    spaces = random_exact_lls(3, 1, (1, 1, 1), seed=0).spaces[:3]
    with pytest.raises(ValueError, match="ladder degree does not match the model degree"):
        ContinuousChain(LimitLinearSeries(CurveModel(3), 1, build_delta(2, (1, 1)), spaces))


def test_every_chain_written_loads_back_equal():
    chains = [
        build_chain(random_exact_lls(d, r, delta, seed=seed))
        for seed, (d, r, delta) in enumerate(
            [(0, 0, ()), (1, 0, (1,)), (2, 1, (2, 1)), (3, 1, (1, 3, 1)), (4, 2, (1, 1, 2, 1))]
        )
    ]
    # chains that fail a check are chains all the same, and are written as such
    chains += [param.values[0]() for param in EVERY_CHECK_FAILS]
    for chain in chains:
        text = dumps_instance(chain)
        back = loads_instance(text)
        assert back == chain and dumps_instance(back) == text
        assert tuple(back.series.items()) == tuple(chain.series.items())
        assert back.nodes == chain.nodes


def test_the_degree_budget_is_validated_not_built():
    # V_0 = span(s^0) at d = 0 is exact and minimal, having no pair and no
    # non-integer index, but lies outside the section space span(t^0 + s^0);
    # so it builds, and only validation sees the degrees sum to 0, not 1
    s0 = Subspace.from_spanning(2, [(0, 1)])
    g = LimitLinearSeries(CurveModel(0), 0, build_delta(0, ()), (s0,))
    assert check_exact(g).passed and numerical_data(g).is_minimal()
    report = validate_chain(build_chain(g))
    assert [(c.name, c.passed) for c in report.checks] == [
        ("node gluing", True),
        ("degree budget", False),
        ("node transversality", True),
        ("weight intervals", False),
        ("section-space membership", False),
    ]
    assert report.degree.failures == ("orbit degrees sum to 0, expected 1",)
    assert report.membership.failures == (
        "base space at 0 is not an (r+1)-dimensional subspace of its section space",
    )
