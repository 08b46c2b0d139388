"""Acceptance criteria, one test per criterion, exact (zero-tolerance) checks.

Each test prints a single "criterion N: PASS/FAIL" line; the assertion
carries the same verdict so the suite result matches the printed report.
"""

import itertools
import random
import time
from fractions import Fraction as F

from nodalseries.chain import (
    ChainBuildError,
    build_chain,
    validate_chain,
)
from nodalseries.curve import CurveModel, section_space
from nodalseries.delta import build_delta
from nodalseries.oracle import degree_via_pluecker, limit_via_pluecker
from nodalseries.series import (
    LimitLinearSeries,
    check_exact,
    numerical_data,
    reduce_minimal,
    torus_equivalent,
)
from nodalseries.torus import (
    Direction,
    act,
    block_profile,
    is_fixed,
    limit,
    meeting_is_transverse,
    orbit_degree,
    orbit_intersection,
)


def _report(number: int, failures: list, detail: str) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {verdict} - {detail}")
    assert not failures, failures[:5]


def test_criterion_1_limit_oracle_equivalence(split_corpus):
    failures = []
    start = time.monotonic()
    for split, v in split_corpus:
        for direction in Direction:
            if limit(split, v, direction) != limit_via_pluecker(split, v, direction):
                failures.append((split, v, direction))
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(
        1,
        failures,
        f"{len(split_corpus)} subspaces, both directions, exact equality,"
        f" {elapsed:.1f}s",
    )


def test_criterion_2_degree_double_formula(split_corpus):
    failures = []
    for split, v in split_corpus:
        profile = block_profile(split, v)
        structural = orbit_degree(split, v)
        second_block = profile.onto_second.dim - profile.inside_second.dim
        if not (structural == second_block == degree_via_pluecker(split, v)):
            failures.append((split, v))
    _report(2, failures, f"{len(split_corpus)} subspaces, three formulas agree")


def test_criterion_3_injectivity(split_corpus):
    failures = []
    xs = [F(k) for k in range(1, 11)]
    checked = 0
    for split, v in split_corpus:
        if is_fixed(split, v):
            continue
        checked += 1
        points = {act(split, x, v) for x in xs}
        if len(points) != len(xs):
            failures.append((split, v))
    _report(3, failures, f"{checked} nonfixed subspaces, 10 torus points each, all distinct")


def test_criterion_4_orbit_intersection_dichotomy(linked_pair_corpus):
    failures = []
    rng = random.Random(123)
    start = time.monotonic()
    points = 0
    for split, v, partner, expects_point in linked_pair_corpus:
        point = orbit_intersection(split, v, partner)
        if (point is not None) != expects_point:
            failures.append(("dichotomy", split, v, partner))
            continue
        samples = set()
        partner_samples = set()
        for _ in range(50):
            x = F(rng.randint(1, 60), rng.randint(1, 7))
            samples.add(act(split, x, v))
            partner_samples.add(act(split, x, partner))
        for direction in Direction:
            samples.add(limit(split, v, direction))
            partner_samples.add(limit(split, partner, direction))
        common = samples & partner_samples
        if point is None:
            if common:
                failures.append(("unexpected common point", split, v, partner))
            continue
        points += 1
        profile = block_profile(split, v)
        expected = (
            point
            == limit(split, v, Direction.INFINITY)
            == limit(split, partner, Direction.ZERO)
        ) or (
            point
            == limit(split, v, Direction.ZERO)
            == limit(split, partner, Direction.INFINITY)
        )
        if not expected:
            failures.append(("wrong point", split, v, partner))
        if common != {point}:
            failures.append(("scan found", common, "expected", point))
        if not meeting_is_transverse(split, v, partner):
            failures.append(("tangent certificate", split, v, partner))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(
        4,
        failures,
        f"{len(linked_pair_corpus)} linked pairs ({points} meeting), 50-point"
        f" scans, {elapsed:.1f}s",
    )


def test_criterion_5_exactness_equivalence(exact_corpus, padded_corpus, corrupted_corpus):
    instances = (
        list(exact_corpus)
        + [padded for _, padded in padded_corpus]
        + list(corrupted_corpus)
    )
    assert len(instances) >= 300
    failures = []
    for g in instances:
        if check_exact(g).passed != numerical_data(g).is_exact():
            failures.append(g)
    _report(
        5,
        failures,
        f"{len(instances)} compatible instances (exact/padded/corrupted),"
        " counting formula agrees with the linking equalities",
    )


def test_criterion_6_chain_construction(exact_corpus):
    assert len(exact_corpus) >= 200
    failures = []
    for g in exact_corpus:
        try:
            chain = build_chain(g)
        except ChainBuildError as exc:
            failures.append(("build", g, str(exc)))
            continue
        report = validate_chain(chain)
        if not report.passed:
            failures.append(("validate", g, report.summary()))
        if sum(p.degree for p in chain.series.profiles) != g.rank + 1:
            failures.append(("degree sum", g))
    _report(
        6,
        failures,
        f"{len(exact_corpus)} exact minimal instances: chain built, all five"
        " checks pass, degrees sum to r + 1",
    )


def test_criterion_7_fiber_property(exact_corpus):
    rng = random.Random(3141)
    failures = []
    for g in exact_corpus:
        chain = build_chain(g)
        back = chain.series
        if not torus_equivalent(back, g):
            failures.append(("round trip", g))
        scaled_spaces = []
        for i, v in g.items():
            if i.denominator != 1:
                c = F(rng.randint(1, 9), rng.randint(1, 9))
                scaled_spaces.append(act(g.model.split, c, v))
            else:
                scaled_spaces.append(v)
        scaled = LimitLinearSeries(g.model, g.rank, g.delta, tuple(scaled_spaces))
        chain2 = build_chain(scaled)
        if chain2.nodes != chain.nodes:
            failures.append(("nodes moved", g))
        if [p.degree for p in chain2.series.profiles] != [
            p.degree for p in chain.series.profiles
        ]:
            failures.append(("degrees moved", g))
    _report(
        7,
        failures,
        f"{len(exact_corpus)} instances: chain base points recover the series"
        " up to torus scaling; scaled slots leave nodes and degrees fixed",
    )


def test_criterion_8_contrapositive(corrupted_corpus):
    assert len(corrupted_corpus) >= 100
    failures = []
    for g in corrupted_corpus:
        expected_pair = check_exact(g).first_failing_pair()
        try:
            build_chain(g)
            failures.append(("built anyway", g))
        except ChainBuildError as exc:
            if exc.failing_pair != expected_pair:
                failures.append(("pair mismatch", exc.failing_pair, expected_pair))
    _report(
        8,
        failures,
        f"{len(corrupted_corpus)} non-exact instances: construction fails and"
        " names the same pair as the exactness check",
    )


def test_criterion_9_minimal_reduction(padded_corpus):
    failures = []
    for original, padded in padded_corpus:
        reduced = reduce_minimal(padded)
        if not check_exact(reduced).passed:
            failures.append(("exactness lost", padded))
        data = numerical_data(reduced)
        if not data.is_minimal():
            failures.append(("not minimal", padded))
        if reduced.rank != padded.rank or reduced.model != padded.model:
            failures.append(("rank or degree changed", padded))
        if reduce_minimal(reduced) != reduced:
            failures.append(("not idempotent", padded))
        if data.total_mobile() != padded.rank + 1:
            failures.append(("mobile total changed", padded))
        if reduced != original:
            failures.append(("padding not undone", padded))
    _report(
        9,
        failures,
        f"{len(padded_corpus)} padded instances: reduction exact, minimal,"
        " idempotent, undoes the padding",
    )


def test_criterion_10_model_sanity():
    failures = []
    start = time.monotonic()
    cache: dict[tuple[int, F], int] = {}
    for d in range(0, 9):
        model = CurveModel(d)
        for delta in itertools.product((1, 2, 3), repeat=d):
            for i in build_delta(d, delta).indices:
                key = (d, i)
                if key not in cache:
                    cache[key] = section_space(model, i).dim
                if cache[key] != d + 1:
                    failures.append((d, delta, i))
    elapsed = time.monotonic() - start
    if elapsed >= 5:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(
        10,
        failures,
        f"every section space over every ladder with steps <= 3 and d <= 8"
        f" has dimension d + 1 ({len(cache)} distinct spaces, {elapsed:.1f}s)",
    )
