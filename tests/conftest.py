"""Shared seeded corpora for the property and acceptance tests."""

from __future__ import annotations

import itertools
import random

import pytest

from nodalseries import (
    LimitLinearSeries,
    TorusSplit,
    corrupt_exactness,
    pad_with_trivial_slots,
    random_exact_lls,
    random_linked_pair,
    random_subspace,
)
from nodalseries.generate import GenerationError, minimal_series_exists


def feasible_parameters(max_d: int, max_r: int, max_step: int):
    """All (d, r, delta) with an exact minimal series, in a stable order."""
    out = []
    for d in range(0, max_d + 1):
        for r in range(0, min(max_r, d) + 1):
            for delta in itertools.product(range(1, max_step + 1), repeat=d):
                if minimal_series_exists(d, r, delta):
                    out.append((d, r, delta))
    return out


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the eliminations modules make: ``calls = eliminations(linalg, torus)``.

    Every call of each named module's ``rref`` binding appends its matrix to
    the one list ``calls`` for the rest of the test; clear the list to count
    afresh.
    """

    def count(*modules):
        calls = []
        for module in modules:
            real_rref = module.rref
            monkeypatch.setattr(
                module, "rref", lambda m, real_rref=real_rref: calls.append(m) or real_rref(m)
            )
        return calls

    return count


@pytest.fixture(scope="session")
def split_corpus():
    """(split, subspace) pairs with block dimensions at most 5 and dim <= 4."""
    rng = random.Random(20240601)
    corpus = []
    while len(corpus) < 500:
        dim1 = rng.randint(0, 5)
        dim2 = rng.randint(0, 5)
        if dim1 + dim2 == 0:
            continue
        split = TorusSplit(dim1, dim2)
        dim = rng.randint(0, min(4, split.ambient_dim))
        corpus.append((split, random_subspace(split.ambient_dim, dim, rng)))
    return corpus


@pytest.fixture(scope="session")
def linked_pair_corpus():
    """Hypothesis-satisfying orbit pairs: (split, v, partner, expects_point)."""
    rng = random.Random(77)
    corpus = []
    recipes = [(True, False), (True, True), (False, False), (False, True)]
    while len(corpus) < 100:
        meeting, mirrored = recipes[len(corpus) % len(recipes)]
        dim1 = rng.randint(2, 4)
        dim2 = rng.randint(2, 4)
        split = TorusSplit(dim1, dim2)
        dim = rng.randint(2, min(4, split.ambient_dim - 1))
        try:
            v, partner = random_linked_pair(split, dim, rng, meeting=meeting, mirrored=mirrored)
        except GenerationError:
            continue
        corpus.append((split, v, partner, meeting))
    return corpus


@pytest.fixture(scope="session")
def exact_corpus() -> list[LimitLinearSeries]:
    """At least 200 exact minimal series, d <= 4, r <= 2, steps <= 3."""
    params = feasible_parameters(4, 2, 3)
    corpus = []
    seed = 0
    while len(corpus) < 200:
        d, r, delta = params[len(corpus) % len(params)]
        corpus.append(random_exact_lls(d, r, delta, seed=seed))
        seed += 1
    return corpus


@pytest.fixture(scope="session")
def padded_corpus(exact_corpus):
    """Exact but non-minimal enlargements of corpus members with d >= 1."""
    rng = random.Random(4242)
    corpus = []
    for g in exact_corpus:
        if len(corpus) >= 100:
            break
        if g.model.d == 0:
            continue
        wider = tuple(s + rng.randint(1, 2) for s in g.delta.steps)
        corpus.append((g, pad_with_trivial_slots(g, wider, seed=rng.getrandbits(32))))
    return corpus


@pytest.fixture(scope="session")
def corrupted_corpus(exact_corpus):
    """Compatible but non-exact corruptions of corpus members."""
    corpus = []
    for k, g in enumerate(exact_corpus):
        if len(corpus) >= 100:
            break
        try:
            corpus.append(corrupt_exactness(g, seed=k))
        except GenerationError:
            continue
    return corpus
