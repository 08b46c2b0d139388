"""Golden outputs: the CLI's stdout and written files, pinned by sha256.

Every computed value is exact, so a change to the kernel that keeps the
results keeps these bytes. A digest that moves means some output changed.
"""

import hashlib
import random

import pytest

from nodalseries import (
    TorusSplit,
    corrupt_exactness,
    pad_with_trivial_slots,
    random_exact_lls,
    random_linked_pair,
)
from nodalseries.cli import main
from nodalseries.generate import GenerationError, exact_minimal_profiles
from nodalseries.serialize import SubspaceTask, dumps_instance, load_instance, save_instance

from conftest import feasible_parameters

# (d, r, delta, seed) of each generated series, and whether verify --oracle runs
CASES = {
    "d8r7": (["--d", "8", "--r", "7", "--delta", "2,1,2,1,2,1,2,1", "--seed", "1"], True),
    "d4r2": (["--d", "4", "--r", "2", "--delta", "2,1,2,1", "--seed", "3"], True),
    "d8r3": (["--d", "8", "--r", "3", "--delta", "1,1,1,1,3,1,3,1", "--seed", "5"], True),
}

GOLDEN = {
    "d8r7": {
        "build-chain": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "chain.dot": "195052fab8b5f946cc61690ad0cae09cbf2aedadeabaae972d16873e970be76f",
        "chain.json": "c72d1cb60a343d812aff4ab7fd281ccb2f498638c219b35c6f620e9822dc0261",
        "check": "0 4c31bf2123cd1ddaf866328cccc8cacb90e80d0f46c2d65c5e6618e52e8458e7",
        "gen": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "numerical-data": "0 fb9d335d414d004bdf383990ae702d7ab03a4c8d77e285530be2fca04147c595",
        "series.json": "005bd7b6a0cab9d9fb701b822a6474feadf3c043f41352051849eb4cc8aafecd",
        "verify": "0 9adbb6f73f8123bbef36868732c37f249a5d27ab6523b4d3a8232208898f68ef",
        "verify --oracle": "0 52d51893d82cbc2dc73844895196dd498f6101c4ca5ed91c64175159c131cce4",
    },
    "d4r2": {
        "build-chain": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "chain.dot": "9c13f45c6bce567bfc4ec318edd38df370d68c1e580b95216c4a5d65fc2c7c5c",
        "chain.json": "f39754174a13fbc84b3211da9dfaef9f63ca58978a12c2f00e58c5a3ad3fd130",
        "check": "0 4c31bf2123cd1ddaf866328cccc8cacb90e80d0f46c2d65c5e6618e52e8458e7",
        "gen": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "numerical-data": "0 e7ed207784f4b2b8ce9b426ade116e6eb095217476c2391aeec008ba6d85f93b",
        "series.json": "0322a6cfa92f08a1a0a50792889f4a6f80a481c29cb4de22546ed1feabb3cbd7",
        "verify": "0 9adbb6f73f8123bbef36868732c37f249a5d27ab6523b4d3a8232208898f68ef",
        "verify --oracle": "0 52d51893d82cbc2dc73844895196dd498f6101c4ca5ed91c64175159c131cce4",
    },
    "d8r3": {
        "build-chain": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "chain.dot": "6421ef8cd0cf4ca678e7a1b6f037141e8d467477e7a2d97b00b51b4fe452fe7c",
        "chain.json": "e1cecdb22b2f5b3517d97abfb9467af0ee34d91233e59f5b97908de14578f18e",
        "check": "0 4c31bf2123cd1ddaf866328cccc8cacb90e80d0f46c2d65c5e6618e52e8458e7",
        "degree": "0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "gen": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "limit --at infty": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "limit --at zero": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "limit-infty.json": "308d46029824e46e94060be53d95d65046cdd83ad07f348b30a13f8f8b453ef8",
        "limit-zero.json": "a219bd454e04894f659498f1ca448aa14a7bbcda2ff223fc5dc012c670727e25",
        "numerical-data": "0 55ad56e98e28868511571f8dae4cb687f5d63c2c8d80b47d105b85526be710b8",
        "series.json": "237d61507c95ccfc678b035c961b08cccd96aae33f4b7e8351028c4b039fdebe",
        "task.json": "785808040ef28c70336f95117df46ed6e46e569df46292c4521ba8073534fa69",
        "verify": "0 9adbb6f73f8123bbef36868732c37f249a5d27ab6523b4d3a8232208898f68ef",
        "verify --oracle": "0 52d51893d82cbc2dc73844895196dd498f6101c4ca5ed91c64175159c131cce4",
    },
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _outputs(name: str, tmp_path, capsys) -> dict[str, str]:
    """Digest of every stdout and written file of the pipeline on one series."""
    gen_args, oracle = CASES[name]
    out: dict[str, str] = {}

    def run(key: str, argv: list[str]) -> None:
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err == "", captured.err
        out[key] = f"{code} {_sha(captured.out)}"

    series = tmp_path / "series.json"
    chain = tmp_path / "chain.json"
    dot = tmp_path / "chain.dot"
    run("gen", ["gen", *gen_args, "-o", str(series)])
    out["series.json"] = _sha(series.read_text())
    run("check", ["check", str(series)])
    run("numerical-data", ["numerical-data", str(series)])
    run("build-chain", ["build-chain", str(series), "-o", str(chain), "--dot", str(dot)])
    out["chain.json"] = _sha(chain.read_text())
    out["chain.dot"] = _sha(dot.read_text())
    run("verify", ["verify", str(chain)])
    if oracle:
        run("verify --oracle", ["verify", "--oracle", str(chain)])
    if name == "d8r3":
        # the first orbit component's base space, as a bare subspace task
        c = load_instance(chain)
        base = next(v for v, p in zip(c.series.spaces, c.series.profiles) if p.degree != 0)
        task = tmp_path / "task.json"
        save_instance(SubspaceTask(c.series.model.split, base), task)
        out["task.json"] = _sha(task.read_text())
        for at in ("zero", "infty"):
            moved = tmp_path / f"limit-{at}.json"
            run(f"limit --at {at}", ["limit", str(task), "--at", at, "-o", str(moved)])
            out[f"limit-{at}.json"] = _sha(moved.read_text())
        run("degree", ["degree", str(task)])
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_cli_outputs_are_byte_identical(name, tmp_path, capsys):
    assert _outputs(name, tmp_path, capsys) == GOLDEN[name]


# The generator's own outputs on a fixed set of draws, pinned the same way:
# a change that keeps every canonical value keeps the random draws too.
GENERATED = {
    "exact": "62793802d5510bb67845e5ad5087426d9368d2b9920d0d363652928fd09824c2",
    "padded": "108b05c18f2f5567ac32cfb5b3ab6fe69dfbb1854bac3b696d45fe8daf673f54",
    "corrupted": "7896a59cbdc25b0dd74086d6a4712b91860eace51e3367a79f258f3b8852e447",
    "linked": "0685f053939c665a9e1bef1079fc87190c529b60f0df1339ef05fefc187479ac",
}

# (dim1, dim2, dim, meeting, mirrored), the linked-pair recipes of the
# benchmark's orbit audit; no pair of the first one's sizes exists
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


def _generated_texts() -> dict[str, list[str]]:
    """File text of every generated value, by the generator that made it.

    The exact series are one per parameter set with a single exact minimal
    profile (d <= 4, r <= 2, steps <= 3), then d = 8, r = 3 at seeds 1-9,
    then one per other parameter set with d <= 4, r <= 2, steps <= 2, whose
    corruptions include first-block-only and second-block-only ones; each
    is padded and, where it admits one, corrupted.
    """
    forced = [p for p in feasible_parameters(4, 2, 3) if len(exact_minimal_profiles(*p)) == 1]
    others = [p for p in feasible_parameters(4, 2, 2) if p not in forced]
    assert (len(forced), len(others)) == (35, 34)
    exact = [random_exact_lls(d, r, delta, seed=k) for k, (d, r, delta) in enumerate(forced)]
    exact += [random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=s) for s in range(1, 10)]
    exact += [random_exact_lls(d, r, delta, seed=100 + k) for k, (d, r, delta) in enumerate(others)]
    rng = random.Random(17)
    padded, corrupted = [], []
    for k, g in enumerate(exact):
        if g.model.d:
            wider = tuple(s + rng.randint(1, 2) for s in g.delta.steps)
            padded.append(pad_with_trivial_slots(g, wider, seed=k))
        try:
            corrupted.append(corrupt_exactness(g, seed=k))
        except GenerationError:
            pass
    linked = []
    for dim1, dim2, dim, meeting, mirrored in LINKED * 3:
        split = TorusSplit(dim1, dim2)
        try:
            pair = random_linked_pair(split, dim, rng, meeting=meeting, mirrored=mirrored)
        except GenerationError:
            continue  # the first recipe has no pair: it raises before any draw
        linked += [SubspaceTask(split, v) for v in pair]
    return {
        name: [dumps_instance(value) for value in values]
        for name, values in (
            ("exact", exact), ("padded", padded), ("corrupted", corrupted), ("linked", linked)
        )
    }


def test_generator_outputs_are_byte_identical(monkeypatch):
    # the generator reads every section-space fact off its shape, so it
    # builds none, block-only corruptions included
    from nodalseries import curve

    built = []
    real = curve.section_space
    monkeypatch.setattr(curve, "section_space", lambda *a: built.append(a) or real(*a))
    texts = _generated_texts()
    assert [len(texts[name]) for name in GENERATED] == [78, 77, 74, 96]
    assert len(built) == 0
    assert {name: _sha("".join(values)) for name, values in texts.items()} == GENERATED
