import json
import os
import subprocess
import sys

import pytest

import nodalseries
from nodalseries import cli
from nodalseries.chain import ContinuousChain, build_chain
from nodalseries.cli import MAX_DEGREE, main
from nodalseries.generate import random_exact_lls
from nodalseries.linalg import Subspace
from nodalseries.serialize import (
    SubspaceTask,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)
from nodalseries.torus import Direction, TorusSplit

from test_series import series_e4, series_e5
from test_serialize import converted, in_version


@pytest.fixture
def e4_file(tmp_path):
    path = tmp_path / "e4.json"
    save_instance(series_e4(), path)
    return str(path)


@pytest.fixture
def e5_file(tmp_path):
    path = tmp_path / "e5.json"
    save_instance(series_e5(), path)
    return str(path)


def test_check_exact_instance(e4_file, capsys):
    assert main(["check", e4_file]) == 0
    out = capsys.readouterr().out
    assert "compatible: true" in out
    assert "exact: true" in out


def test_check_non_exact_instance(e5_file, capsys):
    assert main(["check", e5_file]) == 0
    out = capsys.readouterr().out
    assert "exact: false, failing pair (0, 1)" in out


def test_numerical_data_output(e4_file, capsys):
    assert main(["numerical-data", e4_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mobile"] == [1, 0]
    assert data["exact"] is True and data["minimal"] is True


def test_build_chain_success_and_dot(e4_file, tmp_path, capsys):
    dot = tmp_path / "chain.dot"
    out_file = tmp_path / "chain.json"
    assert main(["build-chain", e4_file, "--dot", str(dot), "-o", str(out_file)]) == 0
    chain = load_instance(out_file)
    assert chain == build_chain(series_e4())
    assert dot.read_text().startswith("digraph chain {")


def test_build_chain_fails_on_non_exact(e5_file, capsys):
    assert main(["build-chain", e5_file]) == 1
    err = capsys.readouterr().err
    assert "gluing failed" in err and "(0, 1)" in err


def test_reduce_round_trip(tmp_path, capsys):
    from nodalseries.generate import pad_with_trivial_slots

    padded = pad_with_trivial_slots(series_e4(), (3,), seed=0)
    src = tmp_path / "padded.json"
    dst = tmp_path / "reduced.json"
    save_instance(padded, src)
    assert main(["reduce", str(src), "-o", str(dst)]) == 0
    assert load_instance(dst) == series_e4()


def test_reduce_fails_on_non_exact(e5_file):
    assert main(["reduce", e5_file]) == 1


def test_limit_and_degree_subspace_task(tmp_path, capsys):
    task = SubspaceTask(TorusSplit(2, 2), Subspace.from_spanning(4, [(1, 0, 1, 0)]))
    path = tmp_path / "task.json"
    save_instance(task, path)
    assert main(["limit", str(path), "--at", "zero"]) == 0
    moved = loads_instance(capsys.readouterr().out)
    assert moved.subspace == Subspace.from_spanning(4, [(1, 0, 0, 0)])
    assert main(["limit", str(path), "--at", "infty"]) == 0
    moved = loads_instance(capsys.readouterr().out)
    assert moved.subspace == Subspace.from_spanning(4, [(0, 0, 1, 0)])
    assert main(["degree", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_gen_writes_a_valid_instance(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["gen", "--d", "2", "--r", "1", "--delta", "2,1", "--seed", "9", "-o", str(out)]) == 0
    g = load_instance(out)
    assert g == random_exact_lls(2, 1, (2, 1), seed=9)


@pytest.mark.parametrize("d", [MAX_DEGREE + 1, -1])
def test_gen_refuses_degrees_outside_the_cap(d, capsys):
    assert main(["gen", "--d", str(d), "--r", "0", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gen handles degrees 0 through {MAX_DEGREE}, got {d}\n"


def test_gen_rejects_infeasible(capsys):
    assert main(["gen", "--d", "1", "--r", "0", "--delta", "3", "--seed", "0"]) == 1
    assert "no exact minimal series" in capsys.readouterr().err


def test_gen_refuses_an_oversubdivided_ladder_at_once(capsys):
    import time

    # 10^7 - 1 non-integer indices, each needing mobile dimension >= 1, against
    # a budget of r + 1 = 2: refused without building the ladder
    start = time.perf_counter()
    args = ["gen", "--d", "2", "--r", "1", "--delta", "10000000,1", "--seed", "1"]
    assert main(args) == 1
    assert time.perf_counter() - start < 2
    assert "no exact minimal series" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1,x", "1,,1", "0,1", "1"])
def test_gen_malformed_delta_is_a_usage_error(delta, capsys):
    # argparse refuses what is not a list of integers; gen refuses a list
    # that is not one positive count per gap, before the generator runs
    try:
        code = main(["gen", "--d", "2", "--r", "1", "--delta", delta, "--seed", "1"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "argument --delta" in err and err.count("\n") == 1


def test_verify_series_with_oracle(e4_file, capsys):
    assert main(["verify", e4_file, "--oracle", "--samples", "6"]) == 0
    out = capsys.readouterr().out
    assert "node gluing: pass" in out
    assert "oracle orbit sampling: pass" in out


def test_verify_chain_payload(tmp_path, capsys):
    chain = build_chain(random_exact_lls(2, 1, (1, 2), seed=21))
    path = tmp_path / "chain.json"
    save_instance(chain, path)
    assert main(["verify", str(path)]) == 0


def test_verify_fails_on_non_exact_series(e5_file, capsys):
    assert main(["verify", e5_file]) == 1
    assert "exact: false" in capsys.readouterr().out


def test_verify_fails_on_corrupted_chain(tmp_path, capsys):
    import dataclasses

    # a bad chain value is written as it is and loads; its checks fail
    g = series_e4()
    wrong = Subspace.from_spanning(4, [(0, 1, 0, 0)])
    corrupted = ContinuousChain(dataclasses.replace(g, spaces=(wrong,) + g.spaces[1:]))
    path = tmp_path / "bad_chain.json"
    save_instance(corrupted, path)
    assert main(["verify", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_refuses_a_chain_file_with_a_fixed_space_at_a_non_integer_index(
    tmp_path, capsys
):
    from nodalseries.generate import pad_with_trivial_slots

    # the padded slot at 1/2 repeats the fixed space at 1, so its component
    # would be constant: the chain made from the file refuses it
    padded = pad_with_trivial_slots(series_e4(), (2,), seed=0)
    payload = json.loads(dumps_instance(padded))
    spaces = payload.pop("spaces")
    assert spaces["1/2"] == spaces["1"]
    payload["kind"] = "chain"
    payload["components"] = [{"index": i, "basis": spaces[i]} for i in ("0", "1/2", "1")]
    path = tmp_path / "lazy_chain.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "malformed input: bad chain payload: series is not minimal: non-integer"
        " indices 1/2 carry no mobile dimension and would give constant components\n"
    )


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "malformed input" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 2


def test_wrong_payload_kind_exit_code(tmp_path, e4_file):
    task = SubspaceTask(TorusSplit(1, 1), Subspace.from_spanning(2, [(1, 1)]))
    path = tmp_path / "task.json"
    save_instance(task, path)
    assert main(["check", str(path)]) == 2
    assert main(["degree", e4_file]) == 2


def test_gen_degree_zero_without_delta(tmp_path):
    out = tmp_path / "d0.json"
    assert main(["gen", "--d", "0", "--r", "0", "--seed", "1", "-o", str(out)]) == 0
    g = load_instance(out)
    assert g.model.d == 0


def _separate_run(args: list[str], timeout: float | None = None) -> subprocess.CompletedProcess:
    """``python -m nodalseries`` with these arguments, in a fresh process.

    With a timeout, a run that outlasts it raises subprocess.TimeoutExpired.
    """
    # the child does not see pytest's pythonpath, so point it at the package
    package_parent = os.path.dirname(os.path.dirname(nodalseries.__file__))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, inherited]))
    return subprocess.run(
        [sys.executable, "-m", "nodalseries", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_module_entry_point_runs():
    result = _separate_run(["--help"])
    assert result.returncode == 0
    assert "build-chain" in result.stdout


def test_empty_subspace_task_with_a_huge_block_finishes(tmp_path):
    # a zero subspace of a 10^12-dimensional first block: nothing to eliminate
    # and nothing to pad, so no step may walk the block's coordinates
    path = tmp_path / "huge.json"
    path.write_text(
        '{"schema_version": 4, "kind": "subspace", "dim1": 1000000000000, "dim2": 3, "basis": []}'
    )
    result = _separate_run(["degree", str(path)], timeout=20)
    assert (result.returncode, result.stdout) == (0, "0\n")
    for at in ("zero", "infty"):
        result = _separate_run(["limit", str(path), "--at", at], timeout=20)
        assert result.returncode == 0, result.stderr
        task = loads_instance(result.stdout)
        assert task.split == TorusSplit(10**12, 3)
        assert task.subspace.dim == 0


@pytest.mark.parametrize("samples", ["0", "111"])
def test_verify_refuses_sample_counts_outside_the_pool(e4_file, samples, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", e4_file, "--oracle", "--samples", samples])
    assert excinfo.value.code == 2
    assert "1..110" in capsys.readouterr().err


def test_verify_refuses_fabricated_v1_hilbert_data(tmp_path, capsys):
    """A version 1 chain is refused for its version, its Hilbert data unread;
    converted but with its ``hilbert`` kept, it is refused for that key."""
    chain = build_chain(random_exact_lls(3, 1, (1, 2, 1), seed=2))
    hilbert = {"grassmann": 99, "picard": 5, "targets": [7, 7, 7], "constant": -3}
    v1 = {**in_version(json.loads(dumps_instance(chain)), 1), "hilbert": hilbert}
    current = converted(json.loads(json.dumps(v1)))
    path = tmp_path / "chain.json"
    for payload, exit_code, refusal in [
        (v1, 2, "unsupported schema_version 1; expected 4"),
        ({**current, "hilbert": hilbert}, 2, "does not define: 'hilbert'"),
        (current, 0, ""),
    ]:
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == exit_code
        captured = capsys.readouterr()
        assert refusal in captured.err
        if exit_code:
            assert captured.out == "" and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, holds, refusal",
    [
        pytest.param(["check"], "task", "does not hold a level-delta series", id="check"),
        pytest.param(
            ["build-chain"], "chain", "does not hold a level-delta series", id="build-chain"
        ),
        pytest.param(["degree"], "series", "does not hold a subspace task", id="degree"),
        pytest.param(
            ["limit", "--at", "zero"], "chain", "does not hold a subspace task", id="limit"
        ),
        pytest.param(["verify"], "task", "holds neither a series nor a chain", id="verify"),
    ],
)
def test_commands_refuse_files_of_another_kind(tmp_path, capsys, command, holds, refusal):
    objects = {
        "series": series_e4(),
        "chain": build_chain(series_e4()),
        "task": SubspaceTask(TorusSplit(2, 2), Subspace.from_spanning(4, [(1, 0, 1, 0)])),
    }
    path = tmp_path / f"{holds}.json"
    save_instance(objects[holds], path)
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err == f"malformed input: {path} {refusal}\n"


def test_non_integer_field_exit_code(tmp_path, e4_file, capsys):
    with open(e4_file) as handle:
        payload = json.load(handle)
    payload["d"] = 1.5
    path = tmp_path / "float_degree.json"
    path.write_text(json.dumps(payload))
    for command in ("check", "verify"):
        assert main([command, str(path)]) == 2
    assert "must be a JSON integer" in capsys.readouterr().err


@pytest.mark.parametrize("as_chain", [False, True])
def test_verify_refuses_degrees_above_the_cap(tmp_path, capsys, as_chain):
    g = random_exact_lls(MAX_DEGREE + 1, 0, (1,) * (MAX_DEGREE + 1), seed=0)
    path = tmp_path / "large.json"
    save_instance(build_chain(g) if as_chain else g, path)
    assert main(["verify", str(path), "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"degrees 0 through {MAX_DEGREE}, got {MAX_DEGREE + 1}" in captured.err
    # the commands without minor enumeration stay uncapped
    if not as_chain:
        assert main(["check", str(path)]) == 0


def test_verify_accepts_the_cap_degree(tmp_path):
    path = tmp_path / "cap.json"
    delta = ",".join(["1"] * MAX_DEGREE)
    args = ["--d", str(MAX_DEGREE), "--r", "0", "--delta", delta, "--seed", "1"]
    assert main(["gen", *args, "-o", str(path)]) == 0
    assert main(["verify", str(path), "--oracle", "--samples", "2"]) == 0


def test_verify_oracle_fails_on_a_wrong_structural_limit(e4_file, monkeypatch, capsys):
    import nodalseries.oracle

    real_limit = nodalseries.oracle.limit

    def wrong_zero_limit(split, v, direction):
        # the zero limit becomes the infinity limit, wrong on every orbit
        return real_limit(split, v, Direction.INFINITY)

    monkeypatch.setattr(nodalseries.oracle, "limit", wrong_zero_limit)
    assert main(["verify", e4_file]) == 0
    assert main(["verify", e4_file, "--oracle", "--samples", "6"]) == 1
    out = capsys.readouterr().out
    assert "oracle limits/degrees: FAIL\n  - limit mismatch at 0 (zero)\n" in out


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    series = tmp_path / "series.json"
    save_instance(random_exact_lls(3, 1, (1, 2, 1), seed=2), series)
    chain = tmp_path / "chain.json"
    assert main(["check", str(series)]) == 0
    assert main(["build-chain", str(series), "-o", str(chain)]) == 0
    assert main(["verify", str(chain)]) == 0


def test_no_option_state_leaks_between_calls(tmp_path, capsys):
    series = tmp_path / "series.json"
    save_instance(random_exact_lls(3, 1, (1, 2, 1), seed=2), series)
    chain = tmp_path / "chain.json"
    assert main(["build-chain", str(series), "-o", str(chain)]) == 0
    capsys.readouterr()
    runs = [
        ["verify", str(chain), "--oracle"],
        ["verify", str(chain)],
        ["build-chain", str(series), "-o", str(tmp_path / "again.json")],
    ]
    in_process = []
    for args in runs:
        code = main(args)
        in_process.append((code, capsys.readouterr().out))
    again = (tmp_path / "again.json").read_text()
    for args, (code, out) in zip(runs, in_process):
        separate = _separate_run(args)
        assert (code, out) == (separate.returncode, separate.stdout), args
    # the oracle's lines appear only where --oracle was given
    assert "oracle" in in_process[0][1] and "oracle" not in in_process[1][1]
    assert in_process[2][1] == "" and (tmp_path / "again.json").read_text() == again
    assert again == chain.read_text()


def _refused_write(args: list[str], path, capsys) -> None:
    """The command exits 2 with one error line naming the unwritable path."""
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_gen_refuses_an_unwritable_output(tmp_path, capsys):
    out = tmp_path / "missing" / "g.json"
    args = ["gen", "--d", "2", "--r", "1", "--delta", "2,1", "--seed", "9", "-o", str(out)]
    _refused_write(args, out, capsys)


def test_reduce_refuses_an_unwritable_output(tmp_path, capsys):
    from nodalseries.generate import pad_with_trivial_slots

    src = tmp_path / "padded.json"
    save_instance(pad_with_trivial_slots(series_e4(), (3,), seed=0), src)
    _refused_write(["reduce", str(src), "-o", str(tmp_path)], tmp_path, capsys)


def test_limit_refuses_an_unwritable_output(tmp_path, capsys):
    task = tmp_path / "task.json"
    save_instance(SubspaceTask(TorusSplit(2, 2), Subspace.from_spanning(4, [(1, 0, 1, 0)])), task)
    out = tmp_path / "missing" / "limit.json"
    _refused_write(["limit", str(task), "--at", "zero", "-o", str(out)], out, capsys)


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_build_chain_refuses_two_outputs_naming_one_file(
    e4_file, tmp_path, monkeypatch, capsys, spelling
):
    monkeypatch.chdir(tmp_path)
    dot = "X" if spelling == "same" else os.path.join(".", "X")
    assert main(["build-chain", e4_file, "-o", "X", "--dot", dot]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: X and {dot} name the same file\n"
    assert not (tmp_path / "X").exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_build_chain_writes_nothing_when_one_output_is_unwritable(
    e4_file, tmp_path, capsys, existing
):
    chain = tmp_path / "chain.json"
    if existing:
        chain.write_text("old contents\n")
    dot = tmp_path / "missing" / "chain.dot"
    _refused_write(["build-chain", e4_file, "-o", str(chain), "--dot", str(dot)], dot, capsys)
    if existing:
        assert chain.read_text() == "old contents\n"
    else:
        assert not chain.exists()
    out = tmp_path / "missing" / "chain.json"
    _refused_write(["build-chain", e4_file, "-o", str(out)], out, capsys)


def _exit_code_table() -> dict[str, set[int]]:
    """The codes the README's exit-code table gives each command."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            codes = {code for code, cell in enumerate(cells[1:]) if cell != "—"}
            table[cells[0].strip("`")] = codes
    return table


def _exit_code_runs(tmp_path) -> dict[str, list[list[str]]]:
    """Invocations of each command that together reach every code it can return."""
    import dataclasses

    from nodalseries.generate import pad_with_trivial_slots

    def saved(name, obj):
        path = tmp_path / name
        save_instance(obj, path)
        return str(path)

    exact = saved("exact.json", series_e4())
    not_exact = saved("not_exact.json", series_e5())
    padded = saved("padded.json", pad_with_trivial_slots(series_e4(), (3,), seed=0))
    g = series_e4()
    good_chain = saved("chain.json", build_chain(g))
    wrong = Subspace.from_spanning(4, [(0, 1, 0, 0)])
    bad_chain = saved(
        "bad_chain.json", ContinuousChain(dataclasses.replace(g, spaces=(wrong,) + g.spaces[1:]))
    )
    task = SubspaceTask(TorusSplit(2, 2), Subspace.from_spanning(4, [(1, 0, 1, 0)]))
    task = saved("task.json", task)
    above_cap = random_exact_lls(MAX_DEGREE + 1, 0, (1,) * (MAX_DEGREE + 1), seed=0)
    above_cap = saved("above_cap.json", above_cap)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    broken = str(broken)
    missing = str(tmp_path / "missing.json")
    unwritable = str(tmp_path / "no_such_dir" / "out.json")
    return {
        "check": [
            ["check", exact],
            ["check", not_exact],
            ["check", broken],
            ["check", task],
            ["check"],
        ],
        "numerical-data": [
            ["numerical-data", not_exact],
            ["numerical-data", missing],
            ["numerical-data", exact, "--extra"],
        ],
        "reduce": [
            ["reduce", padded],
            ["reduce", not_exact],
            ["reduce", broken],
            ["reduce", padded, "-o", unwritable],
        ],
        "build-chain": [
            ["build-chain", exact],
            ["build-chain", not_exact],
            ["build-chain", good_chain],
            ["build-chain", exact, "--dot", unwritable],
        ],
        "limit": [
            ["limit", task, "--at", "zero"],
            ["limit", exact, "--at", "zero"],
            ["limit", task, "--at", "one"],
            ["limit", task, "--at", "infty", "-o", unwritable],
        ],
        "degree": [
            ["degree", task],
            ["degree", broken],
            ["degree", missing],
        ],
        "gen": [
            ["gen", "--d", "2", "--r", "1", "--delta", "2,1", "--seed", "9"],
            ["gen", "--d", "1", "--r", "0", "--delta", "3", "--seed", "0"],
            ["gen", "--d", "2", "--r", "3", "--delta", "1,1", "--seed", "0"],
            ["gen", "--d", str(MAX_DEGREE + 1), "--r", "0", "--seed", "1"],
            ["gen", "--d", "2", "--r", "1", "--delta", "1,x", "--seed", "1"],
            ["gen", "--d", "2", "--r", "1", "--delta", "0,1", "--seed", "1"],
            ["gen", "--d", "2", "--r", "1", "--delta", "1", "--seed", "1"],
            ["gen", "--d", "2", "--r", "1", "--delta", "2,1", "--seed", "9", "-o", unwritable],
        ],
        "verify": [
            ["verify", exact],
            ["verify", good_chain, "--oracle", "--samples", "2"],
            ["verify", not_exact],
            ["verify", bad_chain],
            ["verify", above_cap],
            ["verify", task],
            ["verify", exact, "--samples", "0"],
        ],
    }


@pytest.mark.parametrize(
    "command",
    ["check", "numerical-data", "reduce", "build-chain", "limit", "degree", "gen", "verify"],
)
def test_exit_codes_match_the_readme_table(command, tmp_path, capsys):
    # 0 passed or reported, 1 a check failed or no series was found, 2
    # refused input, with exactly one line on stderr
    codes = set()
    for args in _exit_code_runs(tmp_path)[command]:
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        err = capsys.readouterr().err
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n"), (args, err)
        codes.add(code)
    assert codes == _exit_code_table()[command]
