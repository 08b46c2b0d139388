"""The benchmark's seeded workloads.

Each workload turns a seed into inputs with the library's own generators,
serializes them to schema-v1 text, and splits the timed work into items. An
item reloads its inputs from that text, so the library receives only the
generated inputs, and carries the verdicts its recipe guarantees; the
harness compares what the item observed with them.

Every call into ``nodalseries`` goes through a module attribute looked up at
call time (``series.check_exact``, never a name imported once), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from nodalseries import chain, cli, generate, oracle, serialize, series, torus


@dataclass
class Item:
    kind: str
    payload: tuple
    expected: dict


@dataclass
class Prepared:
    items: list[Item]
    inputs: list[str]  # the serialized inputs, in item order
    generation_errors: int  # GenerationErrors while drawing; those entries are skipped


class Workload:
    """Makes a seed's inputs (``setup``) and runs one item (``run``)."""

    name: str

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir  # where the CLI's input and output files go

    def setup(self, seed: int) -> Prepared:
        raise NotImplementedError

    def run(self, item: Item) -> tuple[dict, str]:
        """The item's observed verdicts and its canonical output text."""
        raise NotImplementedError


def _rescaled(g, rng: random.Random):
    """A copy of g with every non-integer slot moved by a known torus element."""
    split = g.model.split
    spaces = []
    for i, v in g.items():
        if i.denominator != 1:
            v = torus.act(split, Fraction(rng.randint(1, 9), rng.randint(1, 9)), v)
        spaces.append(v)
    return series.LimitLinearSeries(g.model, g.rank, g.delta, tuple(spaces))


# ---------------------------------------------------------------------------
# verify_large: the CLI pipeline on big instances


class VerifyLarge(Workload):
    """check -> build-chain -> verify through ``cli.main`` on d = 8 series.

    The ladder forces a single mobile-dimension profile with two adjacent
    orbit components, so every instance makes the same transversality checks
    and the cost depends on the seed only through the random entries, which
    still move one series' cost by up to 20%; nine series average that out.
    All series have one shape: with several, the item latencies fall into
    one cluster per shape, and a median or tail over the run's samples
    would jump from one cluster to the next as the number of passes changes.
    """

    name = "verify_large"
    SHAPES = ((8, 3, (1, 1, 1, 1, 3, 1, 3, 1)),)
    COUNT = 9

    def setup(self, seed: int) -> Prepared:
        rng = random.Random(seed)
        items, texts = [], []
        for k in range(self.COUNT):
            d, r, delta = self.SHAPES[k % len(self.SHAPES)]
            g = generate.random_exact_lls(d, r, delta, seed=rng.getrandbits(32))
            text = serialize.dumps_instance(g)
            path = self.workdir / f"verify_large_{k}.json"
            path.write_text(text)
            texts.append(text)
            expected = {
                "check_rc": 0,
                "compatible": True,
                "exact": True,
                "build_rc": 0,
                "verify_rc": 0,
                "checks_passed": 5,
                "checks_failed": 0,
            }
            items.append(Item(f"d{d}r{r}", (str(path), str(path) + ".chain"), expected))
        return Prepared(items, texts, 0)

    def run(self, item: Item) -> tuple[dict, str]:
        series_path, chain_path = item.payload
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            check_rc = cli.main(["check", series_path])
            check_out = out.getvalue()
            build_rc = cli.main(["build-chain", series_path, "-o", chain_path])
            verify_rc = cli.main(["verify", chain_path])
        verify_out = out.getvalue()[len(check_out):]
        lines = check_out.splitlines()
        observed = {
            "check_rc": check_rc,
            "compatible": "compatible: true" in lines,
            "exact": "exact: true" in lines,
            "build_rc": build_rc,
            "verify_rc": verify_rc,
            "checks_passed": sum(line.endswith(": pass") for line in verify_out.splitlines()),
            "checks_failed": sum(line.endswith(": FAIL") for line in verify_out.splitlines()),
        }
        chain_text = Path(chain_path).read_text() if build_rc == 0 else ""
        return observed, check_out + chain_text + verify_out + err.getvalue()


# ---------------------------------------------------------------------------
# series_corpus: library throughput on many small series


def feasible_parameters(max_d: int, max_r: int, max_step: int) -> list[tuple]:
    """All (d, r, delta) with an exact minimal series, in a stable order."""
    return [
        (d, r, delta)
        for d in range(max_d + 1)
        for r in range(min(max_r, d) + 1)
        for delta in itertools.product(range(1, max_step + 1), repeat=d)
        if generate.minimal_series_exists(d, r, delta)
    ]


def forced_parameters(max_d: int, max_r: int, max_step: int) -> list[tuple]:
    """The feasible (d, r, delta) whose exact minimal profile is unique.

    On these the generator has no profile to choose, so a seed changes the
    entries of a series but not its structure or the work it causes.
    """
    return [
        params
        for params in feasible_parameters(max_d, max_r, max_step)
        if len(generate.exact_minimal_profiles(*params)) == 1
    ]


class SeriesCorpus(Workload):
    """The whole series API on small series and their rescaled, padded and
    corrupted variants: one series for each forced parameter set with
    d <= 4, r <= 2, steps <= 3 (35 of them)."""

    name = "series_corpus"
    MAX_D = 4

    def setup(self, seed: int) -> Prepared:
        rng = random.Random(seed)
        items, texts = [], []
        generation_errors = 0
        for d, r, delta in forced_parameters(self.MAX_D, 2, 3):
            g = generate.random_exact_lls(d, r, delta, seed=rng.getrandbits(32))
            scaled = _rescaled(g, rng)
            padded = None
            if d >= 1:
                wider = tuple(s + rng.randint(1, 2) for s in g.delta.steps)
                padded = generate.pad_with_trivial_slots(g, wider, seed=rng.getrandbits(32))
            try:
                corrupted = generate.corrupt_exactness(g, seed=rng.getrandbits(32))
            except generate.GenerationError:
                corrupted = None
                generation_errors += 1
            variants = [g, scaled, padded, corrupted]
            payload = tuple(None if v is None else serialize.dumps_instance(v) for v in variants)
            texts.extend(t for t in payload if t is not None)
            expected = {
                "compatible": True,
                "exact": True,
                "minimal": True,
                "valid": True,
                "equivalent": True,
            }
            if padded is not None:
                expected["reduces_to_original"] = True
            if corrupted is not None:
                expected["corrupted_exact"] = False
                expected["corrupted_build"] = "fails at the failing pair"
            items.append(Item(f"d{d}r{r}", payload, expected))
        return Prepared(items, texts, generation_errors)

    def run(self, item: Item) -> tuple[dict, str]:
        text, scaled_text, padded_text, corrupted_text = item.payload
        g = serialize.loads_instance(text)
        data = series.numerical_data(g)
        observed = {
            "compatible": series.check_compatible(g).passed,
            "exact": series.check_exact(g).passed,
            "minimal": data.is_minimal(),
        }
        built = chain.build_chain(g)
        observed["valid"] = chain.validate_chain(built).passed
        canonical = [chain.emit_dot(built), serialize.dumps_instance(built)]
        scaled = serialize.loads_instance(scaled_text)
        observed["equivalent"] = series.torus_equivalent(g, scaled)
        if padded_text is not None:
            reduced = series.reduce_minimal(serialize.loads_instance(padded_text))
            observed["reduces_to_original"] = reduced == g
            canonical.append(serialize.dumps_instance(reduced))
        if corrupted_text is not None:
            bad = serialize.loads_instance(corrupted_text)
            report = series.check_exact(bad)
            observed["corrupted_exact"] = report.passed
            try:
                chain.build_chain(bad)
                observed["corrupted_build"] = "built"
            except chain.ChainBuildError as exc:
                same = exc.failing_pair == report.first_failing_pair()
                observed["corrupted_build"] = (
                    "fails at the failing pair" if same else f"fails at {exc.failing_pair}"
                )
        canonical.append(repr(sorted(observed.items())))
        return observed, "\n".join(canonical)


# ---------------------------------------------------------------------------
# orbit_audit: bare-subspace orbit tasks against the oracle


class OrbitAudit(Workload):
    """Structural orbit formulas against the Pluecker oracle, the
    intersection dichotomy on linked pairs, and orbit sampling on chains."""

    name = "orbit_audit"
    # (dim1, dim2, dim, meeting, mirrored). First a block size where no
    # pair exists (dim = dim1 + dim2 - 1): the rejection loop makes all its
    # 400 draws and raises GenerationError, as in about a third of the tests'
    # linked_pair_corpus draws, and the entry is skipped. Then four pairs per
    # recipe of random_linked_pair, at block sizes where the loop accepts
    # within a few dozen draws and has not raised on any seed tried; sizes
    # where it raises at random would make the set-up's cost depend on the
    # seed by up to ten times.
    LINKED = (
        (2, 2, 3, True, False),
        (2, 2, 2, True, False),
        (2, 3, 3, True, False),
        (3, 3, 3, True, False),
        (3, 2, 2, True, False),
        (2, 2, 2, True, True),
        (2, 3, 2, True, True),
        (3, 3, 3, True, True),
        (3, 2, 3, True, True),
        (2, 2, 2, False, False),
        (2, 3, 3, False, False),
        (3, 3, 3, False, False),
        (4, 2, 2, False, False),
        (2, 2, 2, False, True),
        (2, 3, 2, False, True),
        (3, 3, 3, False, True),
        (3, 2, 3, False, True),
    )
    # chains of one forced shape (see forced_parameters), so their cost
    # depends on the seed only through the entries
    CHAINS = ((3, 2, (2, 2, 2)),) * 4
    SAMPLES = 20

    def setup(self, seed: int) -> Prepared:
        rng = random.Random(seed)
        items, texts = [], []
        generation_errors = 0
        # every split with blocks <= 5 and every dimension <= 4 once; the
        # seed picks the entries
        for dim1, dim2 in itertools.product(range(6), repeat=2):
            if dim1 + dim2 == 0:
                continue
            split = torus.TorusSplit(dim1, dim2)
            for dim in range(1, min(4, split.ambient_dim) + 1):
                v = generate.random_subspace(split.ambient_dim, dim, rng)
                text = serialize.dumps_instance(serialize.SubspaceTask(split, v))
                texts.append(text)
                expected = {"limit_zero": True, "limit_infinity": True, "degree": True}
                items.append(Item("split", (text,), expected))
        for dim1, dim2, dim, meeting, mirrored in self.LINKED:
            split = torus.TorusSplit(dim1, dim2)
            try:
                v, partner = generate.random_linked_pair(
                    split, dim, rng, meeting=meeting, mirrored=mirrored
                )
            except generate.GenerationError:
                generation_errors += 1
                continue
            payload = tuple(
                serialize.dumps_instance(serialize.SubspaceTask(split, w)) for w in (v, partner)
            )
            texts.extend(payload)
            expected = {"meets": meeting, "transverse": True if meeting else None}
            items.append(Item("linked", payload, expected))
        for d, r, delta in self.CHAINS:
            g = generate.random_exact_lls(d, r, delta, seed=rng.getrandbits(32))
            text = serialize.dumps_instance(chain.build_chain(g))
            texts.append(text)
            items.append(Item("chain", (text, rng.getrandbits(32)), {"samples_pass": True}))
        return Prepared(items, texts, generation_errors)

    def run(self, item: Item) -> tuple[dict, str]:
        if item.kind == "split":
            task = serialize.loads_instance(item.payload[0])
            split, v = task.split, task.subspace
            zero = torus.limit(split, v, torus.Direction.ZERO)
            infinity = torus.limit(split, v, torus.Direction.INFINITY)
            degree = torus.orbit_degree(split, v)
            observed = {
                "limit_zero": zero == oracle.limit_via_pluecker(split, v, torus.Direction.ZERO),
                "limit_infinity": infinity
                == oracle.limit_via_pluecker(split, v, torus.Direction.INFINITY),
                "degree": degree == oracle.degree_via_pluecker(split, v),
            }
            canonical = [
                serialize.dumps_instance(serialize.SubspaceTask(split, zero)),
                serialize.dumps_instance(serialize.SubspaceTask(split, infinity)),
                str(degree),
            ]
        elif item.kind == "linked":
            first, second = (serialize.loads_instance(t) for t in item.payload)
            split = first.split
            point = torus.orbit_intersection(split, first.subspace, second.subspace)
            observed = {"meets": point is not None, "transverse": None}
            canonical = ["none"]
            if point is not None:
                observed["transverse"] = torus.meeting_is_transverse(
                    split, first.subspace, second.subspace
                )
                canonical = [serialize.dumps_instance(serialize.SubspaceTask(split, point))]
        else:
            text, sample_seed = item.payload
            built = serialize.loads_instance(text)
            report = oracle.sample_orbit_check(built, self.SAMPLES, seed=sample_seed)
            observed = {"samples_pass": report.passed}
            canonical = list(report.failures)
        canonical.append(repr(sorted(observed.items())))
        return observed, "\n".join(canonical)


WORKLOADS = {cls.name: cls for cls in (VerifyLarge, SeriesCorpus, OrbitAudit)}
