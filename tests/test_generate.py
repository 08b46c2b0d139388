import itertools
import random

import pytest

from nodalseries import generate, linalg
from nodalseries.chain import build_chain, validate_chain
from nodalseries.cli import main
from nodalseries.curve import CurveModel, section_space
from nodalseries.delta import build_delta
from nodalseries.generate import (
    GenerationError,
    _build_series,
    _complement_vectors,
    _extends,
    _graph_partner,
    _kernel_flag,
    _Profiles,
    _unit_rows,
    _vectors_inside,
    _unswap,
    corrupt_exactness,
    exact_minimal_profiles,
    minimal_series_exists,
    pad_with_trivial_slots,
    random_exact_lls,
    random_linked_pair,
    random_nonfixed_subspace,
    random_subspace,
)
from nodalseries.series import check_compatible, check_exact, membership_failures, numerical_data
from nodalseries.torus import TorusSplit, block_profile, is_fixed, orbit_intersection

from conftest import feasible_parameters


def test_random_subspace_has_requested_dimension():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 8)
        k = rng.randint(0, n)
        assert random_subspace(n, k, rng).dim == k


def test_random_nonfixed_subspace():
    rng = random.Random(1)
    split = TorusSplit(3, 2)
    for _ in range(20):
        assert not is_fixed(split, random_nonfixed_subspace(split, 2, rng))


def test_generator_is_deterministic():
    a = random_exact_lls(3, 2, (2, 1, 2), seed=42)
    b = random_exact_lls(3, 2, (2, 1, 2), seed=42)
    assert a == b
    c = random_exact_lls(3, 2, (2, 1, 2), seed=43)
    assert a != c  # overwhelmingly likely and fixed by the seeds


def test_generator_builds_no_section_space(monkeypatch):
    # membership of each new slot is read off the section space's equations
    from nodalseries import curve

    built = []
    real = curve.section_space
    monkeypatch.setattr(curve, "section_space", lambda *a: built.append(a) or real(*a))
    g = random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=7)
    assert built == [] and not membership_failures(g)


def test_generator_reads_invariants_from_one_profile_per_space(eliminations, monkeypatch):
    # each kept span is one elimination and each space's block invariants
    # one profile, which the series keeps for its own checks; a draw that is
    # only tested for independence is tested on its residuals
    from nodalseries import generate, linalg, torus

    spied = []
    for module in (linalg, generate):
        for name in ("sum_and_intersection", "zero_coordinate_section"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda *a, real=real, name=name: spied.append(name) or real(*a)
                )
    calls = eliminations(linalg, torus)
    g = random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=7)
    assert (len(calls), spied) == (12, [])
    calls.clear()
    assert check_exact(g).passed and numerical_data(g).is_minimal()
    assert validate_chain(build_chain(g)).passed
    assert calls == []


def test_generator_builds_only_the_values_it_keeps(monkeypatch):
    # 13 spaces from 60 Subspace values and no embedded block: a draw that
    # is only tested is tested on rows, and only kept spans are built
    from nodalseries import torus

    built, embedded = [], []
    real_post_init = linalg.Subspace.__post_init__
    monkeypatch.setattr(
        linalg.Subspace, "__post_init__", lambda v: built.append(v) or real_post_init(v)
    )
    real_embed = torus.embed_block
    for module in (torus, generate):
        monkeypatch.setattr(module, "embed_block", lambda *a: embedded.append(a) or real_embed(*a))
    g = random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=7)
    assert len(g.spaces) == 13
    assert embedded == [] and len(built) <= 60


def _rank_case(rng):
    """A (part, vectors) case shaped like the generator's draws.

    The room is a t-flag of unit rows (a kernel flag or a corruption) or
    the padded rows of a first-block subspace (``_next_space``'s incoming
    part), ``part`` is a random subspace of it, and the vectors are drawn
    from the room as the generator draws them. Some cases then force a
    dependence: a row of ``part``, a sum of its rows, or a repeated vector.
    """
    d = rng.randint(1, 6)
    n = 2 * d + 2
    if rng.random() < 0.5:
        room = _unit_rows(n, range(rng.randint(0, d), d + 1))
    else:
        first = random_subspace(d + 1, rng.randint(1, d + 1), rng)
        room = [row + (linalg.ZERO,) * (d + 1) for row in first.rows]
    part_dim = rng.randint(0, len(room) - 1)
    part = linalg.Subspace.from_spanning(n, _vectors_inside(room, n, part_dim, rng))
    count = rng.randint(1, max(1, len(room) - part.dim))
    vectors = _vectors_inside(room, n, count, rng)
    forced = rng.choice([None, None, "part row", "sum of part rows", "repeat"])
    rows = part.rows
    at = rng.randrange(count)
    if forced == "part row" and rows:
        vectors[at] = rng.choice(rows)
    elif forced == "sum of part rows" and rows:
        vectors[at] = tuple(map(sum, zip(*rows)))
    elif forced == "repeat" and count > 1:
        vectors[at] = vectors[at - 1]
    else:
        forced = None
    return part, vectors, forced


def test_residual_rank_decides_as_the_span_it_replaces():
    rng = random.Random(2026)
    seen = {True: 0, False: 0}
    forced_kinds = set()
    for _ in range(600):
        part, vectors, forced = _rank_case(rng)
        span = linalg.Subspace.from_spanning(part.ambient_dim, part.rows + tuple(vectors))
        accepted = _extends(part, vectors)
        assert accepted == (span.dim == part.dim + len(vectors)), (part, vectors, forced)
        seen[accepted] += 1
        forced_kinds.add(forced)
        if forced:
            assert not accepted
    assert min(seen.values()) >= 100
    assert forced_kinds == {None, "part row", "sum of part rows", "repeat"}


def test_nothing_to_draw_tests_the_part_once():
    n = 8  # d = 3
    rows = _unit_rows(n, (1, 2, 3))
    part = linalg.Subspace.from_spanning(n, [_unit_rows(n, (2,))[0]])
    rng = random.Random(3)
    state = rng.getstate()
    assert _complement_vectors(rows, part, 0, rng, "the step", hit=2) == []
    with pytest.raises(GenerationError, match=r"^the step: .*misses coordinate 1$"):
        _complement_vectors(rows, part, 0, rng, "the step", hit=1)
    assert rng.getstate() == state
    # a slot with no mobile dimension keeps the next kernel itself
    profiles = _Profiles(8, 3, (1, 1, 1, 1, 3, 1, 3, 1))
    for index in (0, len(profiles) // 2, len(profiles) - 1):
        mobile = profiles[index]
        flags = _kernel_flag(profiles, mobile, random.Random(index))
        for pos in range(len(flags) - 1):
            assert (flags[pos] is flags[pos + 1]) == (mobile[pos + 1] == 0)


def test_generator_small_cases():
    g = random_exact_lls(0, 0, (), seed=3)
    assert g.rank == 0 and len(g.delta) == 1
    assert check_exact(g).passed
    g = random_exact_lls(1, 0, (1,), seed=9)
    assert numerical_data(g).mobile in ((1, 0), (0, 1))


def test_generator_soundness_over_a_grid():
    seed = 10_000
    for d, r, delta in feasible_parameters(3, 2, 3):
        g = random_exact_lls(d, r, delta, seed=seed)
        seed += 1
        assert check_compatible(g).passed
        assert check_exact(g).passed
        data = numerical_data(g)
        assert data.is_exact() and data.is_minimal()
        assert membership_failures(g) == ()
        report = validate_chain(build_chain(g))
        assert report.passed, (d, r, delta, report.summary())


def test_generator_reports_infeasible_parameters():
    # more non-integer slots than mobile budget: no minimal series at all
    with pytest.raises(GenerationError) as excinfo:
        random_exact_lls(1, 0, (3,), seed=0)
    assert "no exact minimal series" in str(excinfo.value)
    # rank equal to degree pins every slot to the full section space, which
    # is split at non-integer indices
    assert not minimal_series_exists(2, 2, (2, 1))
    assert minimal_series_exists(2, 2, (1, 1))


def test_generator_validates_rank_range():
    with pytest.raises(ValueError):
        random_exact_lls(2, 3, (1, 1), seed=0)
    with pytest.raises(ValueError):
        random_exact_lls(2, -1, (1, 1), seed=0)


def test_profile_enumeration_matches_caps():
    profiles = exact_minimal_profiles(2, 1, (2, 1))
    assert profiles
    for profile in profiles:
        assert sum(profile) == 2
        assert profile[1] >= 1  # the only non-integer slot


def _profiles_by_brute_force(d, r, delta):
    """Every split of r + 1 into one mobile dimension per ladder index that
    is positive at non-integer indices and keeps each of the slot's four
    block dimensions under those of the eliminated section space."""
    model = CurveModel(d)
    ladder = build_delta(d, delta)
    caps = []
    for i in ladder.indices:
        profile = block_profile(model.split, section_space(model, i))
        caps.append(
            (
                profile.onto_first.dim,
                profile.inside_first.dim,
                profile.inside_second.dim,
                profile.onto_second.dim,
            )
        )
    n = len(ladder)
    out = []
    # stars and bars: n - 1 bars among r + 1 stars
    for bars in itertools.combinations(range(r + n), n - 1):
        cuts = (-1,) + bars + (r + n,)
        mobile = tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))
        a, fits = r + 1, True
        for i, m, cap in zip(ladder.indices, mobile, caps):
            q, p = a - m, r + 1 - a
            dims = (a, q, p, p + m)
            fits &= (m >= 1 or i.denominator == 1) and all(0 <= x <= c for x, c in zip(dims, cap))
            a -= m
        if fits:
            out.append(mobile)
    return sorted(out)


def test_profile_list_matches_brute_force():
    checked = 0
    for d in range(5):
        for r in range(d + 1):
            for delta in itertools.product((1, 2), repeat=d):
                profiles = list(exact_minimal_profiles(d, r, delta))
                assert profiles == _profiles_by_brute_force(d, r, delta)
                checked += 1
    assert checked == sum((d + 1) * 2**d for d in range(5))


def test_profiles_are_counted_with_no_cap():
    # at d = 8, r = 5 and delta 1^8 the first 512 profiles in lex order all
    # start with mobile dimension 0, so a list cut there could never give
    # the 364 that start with more; seed 1 draws one of them
    profiles = list(exact_minimal_profiles(8, 5, (1,) * 8))
    assert len(profiles) == 1093
    assert profiles == _profiles_by_brute_force(8, 5, (1,) * 8)
    assert [p[0] for p in profiles[:512]] == [0] * 512
    mobile = numerical_data(random_exact_lls(8, 5, (1,) * 8, seed=1)).mobile
    assert profiles.index(mobile) == 744 and mobile[0] == 1


def test_profiles_are_a_sequence_that_lists_none():
    profiles = exact_minimal_profiles(8, 5, (1,) * 8)
    assert len(profiles) == profiles.total == 1093
    assert profiles[744] == profiles[744 - 1093] == list(profiles)[744]
    for index in (1093, -1094):
        with pytest.raises(IndexError):
            profiles[index]
    assert not exact_minimal_profiles(1, 0, (3,))
    # counted, not listed: 3.6e12 profiles answer at once
    assert exact_minimal_profiles(32, 16, (1,) * 32).total == 3610705776755


def census(max_d, max_step, seeds):
    """Builds every exact minimal profile of every feasible parameter set with
    d <= max_d and steps <= max_step, ``seeds`` times each, and checks what
    the generator does not re-check: each series is exact, minimal, of that
    profile and in its section spaces, and its chain validates. Returns the
    numbers of parameter sets and profiles. The slower census runs from a
    shell, e.g. ``PYTHONPATH=src:tests python -c 'import test_generate as t;
    t.census(6, 2, 2)'``.
    """
    roots = itertools.count()
    sets = built = 0
    for d, r, delta in feasible_parameters(max_d, max_d, max_step):
        profiles = _Profiles(d, r, delta)
        for index, mobile in enumerate(profiles):
            for _ in range(seeds):
                g = _build_series(profiles, index, random.Random(next(roots)))
                data = numerical_data(g)
                where = (d, r, delta, mobile)
                assert check_exact(g).passed and data.is_minimal(), where
                assert data.mobile == mobile and membership_failures(g) == (), where
                report = validate_chain(build_chain(g))
                assert report.passed, (where, report.summary())
        sets += 1
        built += len(profiles)
    return sets, built


def test_census_builds_every_profile_exact_and_minimal():
    assert census(4, 2, 4) == (80, 302)


def test_an_exhausted_budget_names_the_drawn_profile(monkeypatch, capsys):
    monkeypatch.setattr(generate, "_STEP_TRIES", 0)
    with pytest.raises(GenerationError, match=r"drawn profile \d+ of 1093, .*ladder position"):
        random_exact_lls(8, 5, (1,) * 8, seed=1)
    assert main(["gen", "--d", "8", "--r", "5", "--delta", "1,1,1,1,1,1,1,1", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "profile 744 of 1093" in captured.err


def test_padding_preserves_exactness_and_reduction_undoes_it(exact_corpus):
    from nodalseries.series import reduce_minimal

    rng = random.Random(7)
    checked = 0
    for g in exact_corpus:
        if g.model.d == 0:
            continue
        wider = tuple(s + rng.randint(1, 2) for s in g.delta.steps)
        padded = pad_with_trivial_slots(g, wider, seed=checked)
        assert check_exact(padded).passed
        assert not numerical_data(padded).is_minimal()
        assert numerical_data(padded).total_mobile() == g.rank + 1
        assert reduce_minimal(padded) == g
        checked += 1
        if checked >= 20:
            break
    assert checked == 20


def test_padding_rejects_shrinking_or_non_exact():
    g = random_exact_lls(2, 1, (2, 1), seed=0)
    with pytest.raises(ValueError, match="cannot remove subdivision steps"):
        pad_with_trivial_slots(g, (1, 1), seed=0)
    bad = corrupt_exactness(g, seed=0)
    with pytest.raises(ValueError):
        pad_with_trivial_slots(bad, (3, 2), seed=0)


def test_padding_refuses_counts_that_are_not_ints():
    # each of these once padded silently to an int() of its counts
    g = random_exact_lls(2, 1, (2, 1), seed=1)
    for counts in ((2.9, 1), ("3", 1), (3, 1.0), (True, 2)):
        with pytest.raises(TypeError, match="subdivision counts must be integers"):
            pad_with_trivial_slots(g, counts, seed=0)
    with pytest.raises(ValueError, match="expected 2 subdivision counts"):
        pad_with_trivial_slots(g, (3, 1, 1), seed=0)
    assert pad_with_trivial_slots(g, (3, 1), seed=0).delta.steps == (3, 1)


def test_corruption_leaves_membership_and_compatibility(exact_corpus):
    done = 0
    for k, g in enumerate(exact_corpus):
        try:
            bad = corrupt_exactness(g, seed=k)
        except GenerationError:
            continue
        assert check_compatible(bad).passed
        assert not check_exact(bad).passed
        assert membership_failures(bad) == ()
        done += 1
        if done >= 30:
            break
    assert done == 30


def test_corruption_impossible_when_rank_equals_degree():
    g = random_exact_lls(1, 1, (1,), seed=0)
    with pytest.raises(GenerationError):
        corrupt_exactness(g, seed=0)


def test_linked_pair_generation_respects_requests():
    rng = random.Random(12)
    split = TorusSplit(3, 3)
    for mirrored in (False, True):
        v, vp = random_linked_pair(split, 3, rng, meeting=True, mirrored=mirrored)
        assert orbit_intersection(split, v, vp) is not None
        v, vp = random_linked_pair(split, 3, rng, meeting=False, mirrored=mirrored)
        assert orbit_intersection(split, v, vp) is None


RECIPES = [(True, False), (True, True), (False, False), (False, True)]


def rejection_linked_pair(split, dim, rng, meeting, mirrored, draws):
    """The former rejection sampler, kept as a reference with a draw budget.

    It draws generic nonfixed subspaces until one has the block profile a
    linked pair needs, so it raises whenever no pair of these sizes exists.
    """
    for _ in range(draws):
        v = random_nonfixed_subspace(split, dim, rng)
        profile = block_profile(split, v)
        if not mirrored:
            over, fixed_part = profile.inside_first, profile.onto_second
            block_dim = split.dim2
        else:
            over, fixed_part = profile.inside_second, profile.onto_first
            block_dim = split.dim1
        if over.dim == 0 or block_dim == fixed_part.dim:
            continue
        if not meeting:
            replacement = random_subspace(block_dim, fixed_part.dim, rng)
            if replacement == fixed_part:
                continue
            fixed_part = replacement
        try:
            rows = over.rows, fixed_part.rows
            if not mirrored:
                return v, _graph_partner(split, *rows, rng)
            return v, _unswap(split, _graph_partner(TorusSplit(split.dim2, split.dim1), *rows, rng))
        except GenerationError:
            continue
    raise GenerationError("reference sampler found no linked pair")


def assert_linked(split, v, vp, meeting, mirrored):
    assert v.dim == vp.dim
    assert not is_fixed(split, v) and not is_fixed(split, vp)
    pv, pvp = block_profile(split, v), block_profile(split, vp)
    if mirrored:
        assert pvp.onto_second == pv.inside_second
    else:
        assert pvp.onto_first == pv.inside_first
    assert (orbit_intersection(split, v, vp) is not None) == meeting


def test_linked_pairs_exist_exactly_where_the_reference_finds_them():
    rng = random.Random(2024)
    built = reference_found = 0
    for dim1 in range(1, 5):
        for dim2 in range(1, 5):
            split = TorusSplit(dim1, dim2)
            # every dimension that has nonfixed subspaces
            for dim in range(1, split.ambient_dim):
                for meeting, mirrored in RECIPES:
                    try:
                        v, vp = random_linked_pair(split, dim, rng, meeting, mirrored)
                    except GenerationError:
                        with pytest.raises(GenerationError):
                            rejection_linked_pair(split, dim, rng, meeting, mirrored, draws=10)
                        continue
                    built += 1
                    assert_linked(split, v, vp, meeting, mirrored)
                    try:
                        ref = rejection_linked_pair(split, dim, rng, meeting, mirrored, draws=3)
                    except GenerationError:
                        continue
                    reference_found += 1
                    assert_linked(split, *ref, meeting, mirrored)
    # pairs exist iff both blocks have dimension >= 2 and 2 <= dim <= dim1 + dim2 - 2
    assert built == 4 * sum(
        max(dim1 + dim2 - 3, 0) for dim1 in range(2, 5) for dim2 in range(2, 5)
    )
    assert reference_found > 0


def test_linked_pair_raises_at_once_without_a_block_profile():
    rng = random.Random(5)
    state = rng.getstate()
    for split, dim in ((TorusSplit(2, 2), 3), (TorusSplit(1, 4), 2), (TorusSplit(3, 3), 1)):
        for meeting, mirrored in RECIPES:
            with pytest.raises(GenerationError, match="no linked orbit pair"):
                random_linked_pair(split, dim, rng, meeting, mirrored)
    assert rng.getstate() == state
