import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from nodalseries.delta import (
    DeltaSet,
    NumericalData,
    build_delta,
    consecutive_pairs,
    support_subset,
)


def test_build_delta_single_gap():
    assert build_delta(1, (1,)).indices == (F(0), F(1))


def test_build_delta_mixed_subdivision():
    # the stated formula, instantiated at d=2 with counts (2, 1)
    assert build_delta(2, (2, 1)).indices == (F(0), F(1, 2), F(1), F(2))


def test_build_delta_degree_zero():
    assert build_delta(0, ()).indices == (F(0),)


def test_build_delta_size_formula():
    rng = random.Random(1)
    for _ in range(50):
        d = rng.randint(0, 6)
        delta = tuple(rng.randint(1, 4) for _ in range(d))
        ladder = build_delta(d, delta)
        assert len(ladder) == 1 + sum(delta)
        assert ladder.indices[0] == 0 and ladder.indices[-1] == d
        assert list(ladder.indices) == sorted(ladder.indices)
        integers = [i for i in ladder.indices if i.denominator == 1]
        assert integers == [F(k) for k in range(d + 1)]


def test_build_delta_matches_the_stated_formula():
    # each index is (gap - 1) + numerator / count, as the ladder's definition
    # writes it, for every profile with d <= 4 and steps <= 3
    for d in range(5):
        for delta in itertools.product((1, 2, 3), repeat=d):
            expected = [F(0)] + [
                gap - 1 + F(numerator, count)
                for gap, count in enumerate(delta, start=1)
                for numerator in range(1, count + 1)
            ]
            indices = build_delta(d, delta).indices
            assert indices == tuple(expected)
            assert {type(i) for i in indices} == {F}


def test_build_delta_rejects_bad_input():
    with pytest.raises(ValueError):
        build_delta(2, (1,))
    with pytest.raises(ValueError):
        build_delta(1, (0,))


@pytest.mark.parametrize(
    "step",
    [
        pytest.param(1.7, id="float"),
        pytest.param(True, id="bool"),
        pytest.param(F(3, 2), id="fraction"),
    ],
)
def test_build_delta_refuses_non_integer_counts(step):
    # 1.7 and 3/2 would otherwise be truncated to the count 1
    with pytest.raises(TypeError, match="integers"):
        build_delta(2, (step, 1))
    with pytest.raises(TypeError, match="integer"):
        build_delta(step, (1,))


def test_consecutive_pairs():
    assert consecutive_pairs(build_delta(1, (1,))) == ((F(0), F(1)),)
    assert consecutive_pairs(build_delta(2, (2, 1))) == (
        (F(0), F(1, 2)),
        (F(1, 2), F(1)),
        (F(1), F(2)),
    )
    assert consecutive_pairs(build_delta(0, ())) == ()


def test_a_ladder_derives_its_indices_from_its_degree_and_counts():
    # the indices are not a field, so no ladder lists indices that its
    # degree and counts do not give
    assert [f.name for f in dataclasses.fields(DeltaSet)] == ["d", "steps"]
    with pytest.raises(TypeError):
        DeltaSet(1, (1,), (F(0), F(2)))
    ladder = DeltaSet(2, (2, 1))
    assert ladder == build_delta(2, (2, 1))
    assert ladder.indices == (F(0), F(1, 2), F(1), F(2))
    with pytest.raises(ValueError, match="^expected 1 subdivision counts, got 2$"):
        DeltaSet(1, (1, 1))
    with pytest.raises(ValueError, match="^subdivision counts must be positive$"):
        DeltaSet(1, (0,))


def test_position_refuses_an_index_off_the_ladder():
    ladder = build_delta(1, (1,))
    assert ladder.position(F(1)) == 1
    with pytest.raises(KeyError, match="index 1/2 not in the ladder"):
        ladder.position(F(1, 2))


def _data(ladder: DeltaSet, rank: int, down, up) -> NumericalData:
    return NumericalData(rank, ladder.indices, tuple(down), tuple(up))


@pytest.mark.parametrize(
    "down, up, message",
    [
        pytest.param((0, 0), (0,), "per-index sequences have unequal lengths", id="lengths"),
        pytest.param((-1, 0), (0, 0), "kernel dimensions must be nonnegative", id="down"),
        pytest.param((0, 0), (0, -1), "kernel dimensions must be nonnegative", id="up"),
    ],
)
def test_numerical_data_refuses_unequal_lengths_and_negative_kernels(down, up, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _data(build_delta(1, (1,)), 0, down, up)


def test_support_subset_refuses_data_of_another_ladder():
    data = _data(build_delta(1, (1,)), 0, (0, 1), (0, 0))
    with pytest.raises(ValueError, match="^numerical data is indexed by a different ladder$"):
        support_subset(build_delta(1, (2,)), data)


def test_numerical_data_mobile_and_predicates():
    ladder = build_delta(1, (1,))
    data = _data(ladder, 0, (0, 1), (0, 0))
    assert data.mobile == (1, 0)
    assert data.total_mobile() == 1
    assert data.is_exact()
    assert data.is_minimal()  # no non-integer indices at all
    not_exact = _data(ladder, 0, (0, 1), (1, 0))
    assert not_exact.mobile == (0, 0)
    assert not not_exact.is_exact()


def test_support_subset_identity_when_all_mobile():
    ladder = build_delta(2, (2, 1))
    data = _data(ladder, 2, (0, 0, 1, 2), (2, 1, 1, 0))
    assert data.mobile == (1, 2, 1, 1)
    reduced, reindex = support_subset(ladder, data)
    assert reduced == ladder
    assert reindex == {i: i for i in ladder.indices}


def test_support_subset_drops_one_slot():
    ladder = build_delta(1, (2,))
    # mobile vanishes exactly at 1/2
    data = _data(ladder, 0, (0, 0, 1), (0, 1, 0))
    assert data.mobile == (1, 0, 0)
    reduced, reindex = support_subset(ladder, data)
    assert reduced.steps == (1,)
    assert reduced.indices == (F(0), F(1))
    assert reindex == {F(0): F(0), F(1): F(1)}


def test_support_subset_drops_two_slots():
    ladder = build_delta(2, (2, 2))
    down = (0, 1, 1, 2, 1)
    up = (1, 1, 1, 0, 0)
    data = _data(ladder, 1, down, up)
    assert data.mobile == (1, 0, 0, 0, 1)
    assert data.is_exact()
    reduced, reindex = support_subset(ladder, data)
    assert reduced.steps == (1, 1)
    assert reindex == {F(0): F(0), F(1): F(1), F(2): F(2)}


def test_support_subset_keeps_order_and_integers():
    ladder = build_delta(2, (3, 2))
    down = (0, 0, 0, 1, 1, 2)
    up = (2, 2, 1, 1, 0, 0)
    data = _data(ladder, 1, down, up)
    assert data.mobile == (0, 0, 1, 0, 1, 0)
    reduced, reindex = support_subset(ladder, data)
    assert reduced.steps == (2, 2)
    originals = [reindex[i] for i in reduced.indices]
    assert originals == sorted(originals)
    for i in reduced.indices:
        if i.denominator == 1:
            assert reindex[i] == i


def test_support_subset_idempotent_on_minimal_data():
    ladder = build_delta(2, (2, 1))
    data = _data(ladder, 2, (0, 0, 1, 2), (2, 1, 1, 0))
    reduced, reindex = support_subset(ladder, data)
    again, reindex2 = support_subset(
        reduced,
        NumericalData(
            data.rank,
            reduced.indices,
            tuple(data.down_kernels[ladder.position(reindex[i])] for i in reduced.indices),
            tuple(data.up_kernels[ladder.position(reindex[i])] for i in reduced.indices),
        ),
    )
    assert again == reduced
    assert reindex2 == {i: i for i in reduced.indices}
