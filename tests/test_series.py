import random
from fractions import Fraction as F

import pytest

from nodalseries.curve import CurveModel
from nodalseries.delta import build_delta, consecutive_pairs
from nodalseries.generate import (
    corrupt_exactness,
    pad_with_trivial_slots,
    random_exact_lls,
)
from nodalseries.generate import random_subspace
from nodalseries.linalg import ONE, ZERO, Subspace, is_zero_vector
from nodalseries.series import (
    LimitLinearSeries,
    _scaling_witness,
    check_compatible,
    check_exact,
    membership_failures,
    numerical_data,
    project_level_one,
    reduce_minimal,
    torus_equivalence_witnesses,
    torus_equivalent,
)
from nodalseries.torus import (
    Direction,
    TorusSplit,
    act,
    assemble_split_subspace,
    block_profile,
    is_fixed,
    limit,
)


MODEL1 = CurveModel(1)
LADDER1 = build_delta(1, (1,))


def series_e4() -> LimitLinearSeries:
    # spaces generated by (1, s) at index 0 and (0, s) at index 1
    return LimitLinearSeries(
        MODEL1,
        0,
        LADDER1,
        (
            Subspace.from_spanning(4, [(1, 0, 0, 1)]),
            Subspace.from_spanning(4, [(0, 0, 0, 1)]),
        ),
    )


def series_e5() -> LimitLinearSeries:
    # (t, 0) at index 0 instead: still compatible, no longer exact
    return LimitLinearSeries(
        MODEL1,
        0,
        LADDER1,
        (
            Subspace.from_spanning(4, [(0, 1, 0, 0)]),
            Subspace.from_spanning(4, [(0, 0, 0, 1)]),
        ),
    )


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        LimitLinearSeries(MODEL1, 0, LADDER1, (Subspace.from_spanning(4, [(1, 0, 0, 1)]),))
    with pytest.raises(ValueError):
        LimitLinearSeries(
            MODEL1,
            0,
            LADDER1,
            (
                Subspace.from_spanning(4, [(1, 0, 0, 1), (0, 1, 0, 0)]),
                Subspace.from_spanning(4, [(0, 0, 0, 1)]),
            ),
        )


@pytest.mark.parametrize("rank", [pytest.param(True, id="bool"), pytest.param(1.0, id="float")])
def test_constructor_refuses_a_non_integer_rank(rank):
    # equal to the true rank 1, but dumps_instance would write "r": true or
    # "r": 1.0, which no loader accepts
    g = random_exact_lls(2, 1, (2, 1), seed=6)
    with pytest.raises(TypeError, match="rank must be an integer"):
        LimitLinearSeries(g.model, rank, g.delta, g.spaces)


def test_e4_compatible_and_exact():
    g = series_e4()
    assert membership_failures(g) == ()
    assert check_compatible(g).passed
    assert check_exact(g).passed


def test_e5_compatible_not_exact():
    g = series_e5()
    assert membership_failures(g) == ()
    assert check_compatible(g).passed
    report = check_exact(g)
    assert not report.passed
    assert report.first_failing_pair() == (F(0), F(1))


def test_incompatible_candidate_detected():
    # (t, ...) image in the first block is not inside the first-block part at 0
    g = LimitLinearSeries(
        MODEL1,
        0,
        LADDER1,
        (
            Subspace.from_spanning(4, [(1, 0, 0, 1)]),
            Subspace.from_spanning(4, [(0, 1, 1, 0)]),
        ),
    )
    report = check_compatible(g)
    assert not report.passed
    # the first-block image of the later space escapes the earlier space
    assert any(f.side == "backward" for f in report.failures)


def test_check_compatible_reports_every_image_outside_its_kernel(exact_corpus, corrupted_corpus):
    # the containment test runs only where an image and its kernel differ;
    # the reference below runs it everywhere
    rng = random.Random(31)
    candidates = list(corrupted_corpus)
    for g in exact_corpus[:80]:
        pos = rng.randrange(len(g.spaces))
        spaces = list(g.spaces)
        spaces[pos] = random_subspace(g.model.ambient_dim, g.rank + 1, rng)
        candidates.append(_replace_spaces(g, spaces))
    outside = inside_but_unequal = 0
    for g in candidates:
        expected = []
        split = g.model.split
        for (i, j), v, w in zip(consecutive_pairs(g.delta), g.spaces, g.spaces[1:]):
            pv, pw = block_profile(split, v), block_profile(split, w)
            for side, image, kernel in (
                ("forward", pv.onto_second, pw.inside_second),
                ("backward", pw.onto_first, pv.inside_first),
            ):
                if kernel.contains(image):
                    inside_but_unequal += image != kernel
                else:
                    assert image != kernel
                    expected.append((i, j, side))
                    outside += 1
        report = check_compatible(g)
        assert [(f.left, f.right, f.side) for f in report.failures] == expected
        assert report.passed == (not expected)
    assert outside >= 50 and inside_but_unequal >= 50


def test_numerical_data_e4_e5():
    n4 = numerical_data(series_e4())
    assert n4.down_kernels == (0, 1)
    assert n4.up_kernels == (0, 0)
    assert n4.mobile == (1, 0)
    assert n4.is_exact() and n4.is_minimal()

    n5 = numerical_data(series_e5())
    assert n5.down_kernels == (0, 1)
    assert n5.up_kernels == (1, 0)
    assert n5.mobile == (0, 0)
    assert not n5.is_exact()


def test_split_series_has_no_mobile_dimension():
    # fully split spaces at both indices: kernels exhaust the dimension
    g = LimitLinearSeries(
        MODEL1,
        0,
        LADDER1,
        (
            Subspace.from_spanning(4, [(0, 1, 0, 0)]),
            Subspace.from_spanning(4, [(0, 0, 0, 1)]),
        ),
    )
    data = numerical_data(g)
    assert all(p + q == 1 for p, q in zip(data.down_kernels, data.up_kernels))


def test_exactness_equivalence_on_mixed_instances(exact_corpus, padded_corpus, corrupted_corpus):
    instances = (
        exact_corpus[:40]
        + [padded for _, padded in padded_corpus[:20]]
        + corrupted_corpus[:20]
    )
    for g in instances:
        assert check_exact(g).passed == numerical_data(g).is_exact()


def test_reduce_minimal_identity_on_minimal_input():
    g = series_e4()
    assert reduce_minimal(g) == g


def test_reduce_minimal_round_trip_single_padding():
    g = series_e4()
    padded = pad_with_trivial_slots(g, (2,), seed=1)
    assert len(padded.delta) == 3
    assert check_exact(padded).passed
    assert not numerical_data(padded).is_minimal()
    assert reduce_minimal(padded) == g


def test_reduce_minimal_round_trip_double_padding():
    g = series_e4()
    padded = pad_with_trivial_slots(g, (3,), seed=2)
    assert len(padded.delta) == 4
    assert reduce_minimal(padded) == g
    assert reduce_minimal(reduce_minimal(padded)) == g


def test_reduce_minimal_rejects_non_exact():
    with pytest.raises(ValueError):
        reduce_minimal(series_e5())


def test_torus_equivalence_identity():
    g = series_e4()
    witnesses = torus_equivalence_witnesses(g, g)
    assert witnesses == {F(0): F(1), F(1): F(1)}


def test_torus_equivalence_scaled_noninteger_slot():
    g = random_exact_lls(2, 1, (2, 1), seed=5)
    half = F(1, 2)
    scaled_spaces = tuple(
        act(g.model.split, F(3), v) if i == half else v for i, v in g.items()
    )
    g2 = LimitLinearSeries(g.model, g.rank, g.delta, scaled_spaces)
    witnesses = torus_equivalence_witnesses(g, g2)
    assert witnesses is not None
    assert witnesses[half] == F(3)
    assert all(c == 1 for i, c in witnesses.items() if i != half)
    assert torus_equivalent(g, g2)


def test_torus_equivalence_rejects_scaled_integer_slot():
    g = series_e4()
    scaled = tuple(
        act(g.model.split, F(2), v) if i == 0 else v for i, v in g.items()
    )
    g2 = LimitLinearSeries(g.model, g.rank, g.delta, scaled)
    assert not torus_equivalent(g, g2)


def test_torus_equivalence_requires_matching_shape():
    g = series_e4()
    other = random_exact_lls(2, 1, (1, 1), seed=0)
    with pytest.raises(ValueError):
        torus_equivalent(g, other)


def test_numerical_data_is_torus_invariant(exact_corpus):
    rng = random.Random(99)
    for g in exact_corpus[:25]:
        scaled = []
        for i, v in g.items():
            if i.denominator != 1:
                c = F(rng.randint(1, 9), rng.randint(1, 9))
                scaled.append(act(g.model.split, c, v))
            else:
                scaled.append(v)
        g2 = LimitLinearSeries(g.model, g.rank, g.delta, tuple(scaled))
        assert torus_equivalent(g, g2)
        assert numerical_data(g2) == numerical_data(g)


def test_first_block_dimension_chain(exact_corpus):
    for g in exact_corpus[:40]:
        dims = [block_profile(g.model.split, v).onto_first.dim for _, v in g.items()]
        assert dims[0] == g.rank + 1
        ends = [block_profile(g.model.split, v).inside_first.dim for _, v in g.items()]
        assert ends[-1] == 0
        assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_project_level_one_identity_on_level_one():
    g = series_e4()
    assert project_level_one(g) == g


def test_project_level_one_restricts_to_integers():
    g = random_exact_lls(2, 1, (2, 2), seed=11)
    projected = project_level_one(g)
    assert projected.delta.steps == (1, 1)
    for k in range(3):
        assert projected.space_at(F(k)) == g.space_at(F(k))
    assert check_compatible(projected).passed


def test_project_level_one_loses_exactness_at_subdivided_gaps():
    # a minimal series moves strictly inside every subdivided gap, so the
    # integer restriction sees a strict inclusion exactly there
    g = random_exact_lls(3, 1, (2, 1, 1), seed=0)
    projected = project_level_one(g)
    report = check_exact(projected)
    assert not report.passed
    assert report.first_failing_pair() == (F(0), F(1))


def test_project_level_one_rejects_non_exact():
    with pytest.raises(ValueError):
        project_level_one(series_e5())


def test_corrupt_exactness_properties(exact_corpus):
    done = 0
    for k, g in enumerate(exact_corpus):
        try:
            bad = corrupt_exactness(g, seed=k)
        except Exception:
            continue
        assert check_compatible(bad).passed
        assert not check_exact(bad).passed
        assert membership_failures(bad) == ()
        done += 1
        if done >= 25:
            break
    assert done >= 25


def _replace_spaces(g, spaces):
    return LimitLinearSeries(g.model, g.rank, g.delta, tuple(spaces))


def test_witnesses_recover_known_scalars_on_the_corpus(exact_corpus):
    rng = random.Random(41)
    moved_slots = 0
    for g in exact_corpus:
        split = g.model.split
        scalars = {i: F(1) for i in g.delta.indices}
        for i in scalars:
            if i.denominator != 1:
                scalars[i] = F(rng.choice([-5, -2, -1, 2, 3, 7]), rng.randint(1, 4))
        moved = _replace_spaces(g, (act(split, scalars[i], v) for i, v in g.items()))
        assert torus_equivalence_witnesses(g, moved) == scalars
        moved_slots += sum(1 for i in g.delta.indices if i.denominator != 1)
    assert moved_slots >= 200


def test_witnesses_reject_a_slot_replaced_by_its_limit(exact_corpus):
    rng = random.Random(43)
    checked = 0
    for g in exact_corpus:
        split = g.model.split
        moving = [
            k
            for k, (i, v) in enumerate(g.items())
            if i.denominator != 1 and not is_fixed(split, v)
        ]
        if not moving:
            continue
        k = rng.choice(moving)
        spaces = list(g.spaces)
        spaces[k] = limit(split, spaces[k], Direction.INFINITY)
        broken = _replace_spaces(g, spaces)
        assert torus_equivalence_witnesses(g, broken) is None
        assert torus_equivalence_witnesses(broken, g) is None
        checked += 1
    assert checked >= 100


def _reference_witness(split, v1, v2):
    """The nonzero c with act(c, v1) == v2, or None, by a residual search.

    Each basis row (w1|w2) of v1 must move into v2 as u*(w1|0) + (0|w2) with
    u = 1/c. Reducing against v2 is linear, so with residuals a of (w1|0) and
    b of (0|w2) the condition reads u*a + b = 0: the first row with a != 0
    fixes the only candidate. When every residual vanishes, v1 lies in v2 and
    only the identity can work.
    """
    if v1.dim != v2.dim:
        return None
    zeros1 = (ZERO,) * split.dim1
    zeros2 = (ZERO,) * split.dim2
    for row in v1.rows:
        a = v2.residual(row[: split.dim1] + zeros2)
        b = v2.residual(zeros1 + row[split.dim1 :])
        k = next((k for k, e in enumerate(a) if e is not ZERO and e), None)
        if k is not None:
            if b[k] == 0:
                return None
            c = -a[k] / b[k]
            return c if act(split, c, v1) == v2 else None
        if not is_zero_vector(b):
            return None
    return ONE if v1 == v2 else None


def _sparse_subspace(n, dim, rng):
    """A random dim-dimensional subspace of Q^n spanned by rows with few nonzero entries."""
    while True:
        rows = [
            [F(rng.choice([-2, -1, 1, 3])) if rng.random() < 0.25 else F(0) for _ in range(n)]
            for _ in range(dim)
        ]
        v = Subspace.from_spanning(n, rows)
        if v.dim == dim:
            return v


def _fixed_subspace(split, dim, rng):
    """A random fixed point: the direct sum of a part of each block."""
    dim1 = rng.randint(max(0, dim - split.dim2), min(dim, split.dim1))
    return assemble_split_subspace(
        split,
        random_subspace(split.dim1, dim1, rng),
        random_subspace(split.dim2, dim - dim1, rng),
    )


def _witness_corpus(rng, pairs_per_kind):
    """Seeded pairs (split, v1, v2, kind): moved, unrelated, sparse, fixed and limit spaces."""
    kinds = ("moved", "unrelated", "sparse moved", "sparse unrelated", "fixed", "limit")
    for kind in kinds:
        for _ in range(pairs_per_kind):
            split = TorusSplit(rng.randint(1, 4), rng.randint(1, 4))
            n = split.ambient_dim
            dim = rng.randint(1, n - 1) if n > 1 else 1
            c = F(rng.choice([-7, -3, -1, 2, 5]), rng.randint(1, 4))
            if kind == "moved":
                v = random_subspace(n, dim, rng)
                yield split, v, act(split, c, v), kind
            elif kind == "unrelated":
                yield split, random_subspace(n, dim, rng), random_subspace(n, dim, rng), kind
            elif kind == "sparse moved":
                v = _sparse_subspace(n, dim, rng)
                yield split, v, act(split, c, v), kind
            elif kind == "sparse unrelated":
                yield split, _sparse_subspace(n, dim, rng), _sparse_subspace(n, dim, rng), kind
            elif kind == "fixed":
                v = _fixed_subspace(split, dim, rng)
                other = rng.choice(
                    [v, _fixed_subspace(split, dim, rng), random_subspace(n, dim, rng)]
                )
                yield split, v, other, kind
            else:
                v = rng.choice([random_subspace, _sparse_subspace])(n, dim, rng)
                direction = rng.choice([Direction.ZERO, Direction.INFINITY])
                yield split, v, rng.choice([v, act(split, c, v)]), "moved"
                yield split, v, limit(split, v, direction), kind


def test_normalising_entry_witness_matches_the_residual_search():
    rng = random.Random(47)
    outcomes = {}
    pairs = 0
    for split, v1, v2, kind in _witness_corpus(rng, 500):
        for a, b in ((v1, v2), (v2, v1)):
            witness = _scaling_witness(split, a, b)
            assert witness == _reference_witness(split, a, b), (kind, a, b)
            if witness is not None:
                assert act(split, witness, a) == b
            outcomes.setdefault(kind, set()).add(
                "fixed" if witness is not None and is_fixed(split, a)
                else "moved" if witness is not None
                else "none"
            )
        pairs += 1
    assert pairs >= 3000
    # every kind meets the outcomes it is there for
    assert outcomes["moved"] == {"fixed", "moved"}
    assert outcomes["sparse moved"] >= {"fixed", "moved"}
    assert "none" in outcomes["unrelated"] and "none" in outcomes["sparse unrelated"]
    assert outcomes["fixed"] == {"fixed", "none"}
    assert outcomes["limit"] >= {"fixed", "none"}
