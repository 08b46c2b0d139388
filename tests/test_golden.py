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
from nodalseries.chain import ComponentKind
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
        "chain.json": "57a7d05702f6ddaa3912ef1e947931d7551dfa31e51b098d9684c3a335b20759",
        "check": "0 4c31bf2123cd1ddaf866328cccc8cacb90e80d0f46c2d65c5e6618e52e8458e7",
        "gen": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "numerical-data": "0 fb9d335d414d004bdf383990ae702d7ab03a4c8d77e285530be2fca04147c595",
        "series.json": "d7e1d107d3a9c70a184fec5ed02a6d4b55cda1eaa98ac1e7bb532eff35a5fab5",
        "verify": "0 9adbb6f73f8123bbef36868732c37f249a5d27ab6523b4d3a8232208898f68ef",
        "verify --oracle": "0 52d51893d82cbc2dc73844895196dd498f6101c4ca5ed91c64175159c131cce4",
    },
    "d4r2": {
        "build-chain": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "chain.dot": "9c13f45c6bce567bfc4ec318edd38df370d68c1e580b95216c4a5d65fc2c7c5c",
        "chain.json": "bf654f6fb096666a71120262bbc5e640cf6d1ed9d911290300c6f72f0d269478",
        "check": "0 4c31bf2123cd1ddaf866328cccc8cacb90e80d0f46c2d65c5e6618e52e8458e7",
        "gen": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "numerical-data": "0 e7ed207784f4b2b8ce9b426ade116e6eb095217476c2391aeec008ba6d85f93b",
        "series.json": "e64a1f751cc19412552b7abb71c8d8806923ab2f232682b5fd851b729e336a78",
        "verify": "0 9adbb6f73f8123bbef36868732c37f249a5d27ab6523b4d3a8232208898f68ef",
        "verify --oracle": "0 52d51893d82cbc2dc73844895196dd498f6101c4ca5ed91c64175159c131cce4",
    },
    "d8r3": {
        "build-chain": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "chain.dot": "6421ef8cd0cf4ca678e7a1b6f037141e8d467477e7a2d97b00b51b4fe452fe7c",
        "chain.json": "e1f73d0a81c0572a41f6f19cacd0a8779368c1fe259333bc01717202f3c9891e",
        "check": "0 4c31bf2123cd1ddaf866328cccc8cacb90e80d0f46c2d65c5e6618e52e8458e7",
        "degree": "0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "gen": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "limit --at infty": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "limit --at zero": "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "limit-infty.json": "4fb225fcddfe6dec6716c70682b1fc50242c2b26ead6985e04929675e2b45f21",
        "limit-zero.json": "7b83f71c3259fcd68c32b17d1551ab81d63658ea8dff5a2700c13a60d46c3632",
        "numerical-data": "0 55ad56e98e28868511571f8dae4cb687f5d63c2c8d80b47d105b85526be710b8",
        "series.json": "8816763be07696599785b8ea8586ea8f75260b2c43e7a0f20e60f1e69fd0ab29",
        "task.json": "39d83fcc905bae4bb778a560a9541294d472096e9a9643efe5f98aeb089f10c4",
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
        comp = next(comp for comp in c.components if comp.kind is ComponentKind.ORBIT)
        task = tmp_path / "task.json"
        save_instance(SubspaceTask(c.model.split, comp.base_space), task)
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
    "exact": "1fe9e2a550346eb57b41e97a081ac33faeee9083a8b7416cb7e8c901fef53a6c",
    "padded": "82ec23926e68fdf0bc9d092a648dece4d82dba16557b03128c7c7f2a37d31df3",
    "corrupted": "6af497085616f79e3f46c14d4431bd1b22664db0d5315e26fa505d685b7d1024",
    "linked": "61ffefdf754025e92d43ec486b93b556334a2d45662df4516e4c193b8070f90d",
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
