"""Seeded loader fuzz: mutated files through every command that reads one.

A small series, its chain and a subspace task are mutated (a value replaced
from a pool of odd ones, a key or list element deleted or repeated, a token
edited inside a row string, or the same edit made to every equal row string
of the file) and each mutant goes through every file-reading command
in-process, under a per-run time limit. Every run must end in exit
0, in exit 1 from a check that was reached, or in exit 2 with one line on
stderr; no exception may escape ``cli.main``. Whole-file cases (bytes that
are not UTF-8, deep nesting, a long integer, a long row) sit beside the
mutations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal

import pytest

from nodalseries import cli
from nodalseries.chain import build_chain
from nodalseries.generate import random_exact_lls
from nodalseries.serialize import SubspaceTask, dumps_instance
from nodalseries.torus import is_fixed

COMMANDS = [
    ["check"],
    ["numerical-data"],
    ["reduce"],
    ["build-chain"],
    ["limit", "--at", "zero"],
    ["limit", "--at", "infty"],
    ["degree"],
    ["verify"],
    ["verify", "--oracle", "--samples", "2"],
]

# the commands whose exit 1 reports a failed check, and how it shows
CHECK_FAILED_ON_STDOUT = ("FAIL\n", "exact: false\n", "minimal: false\n")
MAY_FAIL_A_CHECK = {"reduce", "build-chain", "verify"}

VALUES = [
    None, True, False, 0, 1, -1, 2, 9, 10**6, 2**70, 0.5, 2.0, "", " ", "0", "1",
    "1/2", "-1/3", "1/0", "x", "chain", [], {}, [[]], [""], ["1"], ["1 0"], {"a": 1},
]
TOKENS = [
    "0", "1", "-1", "2", "1/2", "-3/4", "01", "+1", "1/0", "0/5", "2/4", "1.5", "x", "", "1e3",
]
MUTANTS_PER_FILE = 300
TIME_LIMIT_S = 5.0


class Overtime(BaseException):
    """A run outlived its time limit (a BaseException, so no handler eats it)."""


@contextlib.contextmanager
def _time_limit(seconds: float):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise Overtime

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _base_payloads() -> dict[str, dict]:
    g = random_exact_lls(4, 2, (2, 1, 2, 1), seed=3)
    chain = build_chain(g)
    moving = next(v for v in g.spaces if not is_fixed(g.model.split, v))
    task = SubspaceTask(g.model.split, moving)
    objects = {"series": g, "chain": chain, "subspace": task}
    return {name: json.loads(dumps_instance(obj)) for name, obj in objects.items()}


def _paths(node, path=()):
    """The path of every value below the root, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _edit_tokens(row: str, rng: random.Random) -> str:
    tokens = row.split(" ")
    k = rng.randrange(len(tokens))
    edit = rng.choice(["swap", "drop", "double", "space"])
    if edit == "swap":
        tokens[k] = rng.choice(TOKENS)
    elif edit == "drop":
        del tokens[k]
    elif edit == "double":
        tokens.insert(k, tokens[k])
    else:
        tokens[k] += " "
    return " ".join(tokens)


def _mutate(payload: dict, rng: random.Random) -> str:
    """Mutate the payload in place once; returns what was done, and where.

    An edit to every equal row string changes each base space written
    there, as a find-and-replace over the file would. A chain file holds no
    node, so an edit to one base space or to every equal one may load, and
    then fail a check (node gluing, say) with exit 1.
    """
    paths = list(_paths(payload))
    rows = [p for p in paths if isinstance(_at(payload, p), str) and " " in _at(payload, p)]
    kinds = ["replace", "delete", "repeat"] + (["token", "every-row"] if rows else [])
    kind = rng.choice(kinds)
    path = rng.choice(rows if kind in ("token", "every-row") else paths)
    parent, key = _at(payload, path[:-1]), path[-1]
    if kind == "replace":
        parent[key] = rng.choice(VALUES)
    elif kind == "delete":
        del parent[key]
    elif kind == "repeat":
        if isinstance(parent, list):
            parent.insert(key, parent[key])
        else:
            parent[key] = [parent[key]]
    elif kind == "token":
        parent[key] = _edit_tokens(parent[key], rng)
    else:
        old, new = parent[key], _edit_tokens(parent[key], rng)
        for row in rows:
            if _at(payload, row) == old:
                _at(payload, row[:-1])[row[-1]] = new
    return f"{kind} at {list(path)}"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with _time_limit(TIME_LIMIT_S):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _outcome(argv: list[str]) -> tuple[int | None, str | None]:
    """The exit code of one run, and why it breaks the contract (None if not)."""
    try:
        code, out, err = _run(argv)
    except Overtime:
        return None, f"ran past {TIME_LIMIT_S} s"
    except Exception as exc:  # any escape is a finding
        return None, f"raised {type(exc).__name__}: {exc}"
    if code == 0 and not err:
        return code, None
    if code == 2 and not out and len(err.splitlines()) == 1:
        return code, None
    if code == 1 and argv[0] in MAY_FAIL_A_CHECK:
        if len(err.splitlines()) == 1 and err.startswith("error: "):
            return code, None
        if not err and any(s in out for s in CHECK_FAILED_ON_STDOUT):
            return code, None
    return code, f"exit {code}, stdout {out[-200:]!r}, stderr {err[-200:]!r}"


def _run_every_command(path, what: str, codes: list[int]) -> list[str]:
    """Runs each command on the file; returns the broken runs, tallies the codes."""
    problems = []
    for command in COMMANDS:
        code, problem = _outcome([command[0], str(path), *command[1:]])
        codes.append(code)
        if problem is not None:
            problems.append(f"{what}: {' '.join(command)}: {problem}")
    return problems


@pytest.mark.parametrize("name, seed", [("series", 1), ("chain", 2), ("subspace", 3)])
def test_mutated_files_keep_the_exit_code_contract(name, seed, tmp_path):
    base = _base_payloads()[name]
    rng = random.Random(seed)
    path = tmp_path / f"{name}.json"
    problems: list[str] = []
    codes: list[int] = []
    for _ in range(MUTANTS_PER_FILE):
        payload = json.loads(json.dumps(base))
        done = [_mutate(payload, rng) for _ in range(rng.randint(1, 3))]
        path.write_text(json.dumps(payload))
        problems += _run_every_command(path, "; ".join(done), codes)
    assert not problems, "\n".join(problems[:20])
    # the mutants reach past the loader: some load and pass, some fail a check
    assert {0, 2} <= set(codes)
    if name != "subspace":
        assert 1 in codes


def _whole_files() -> dict[str, bytes]:
    task = _base_payloads()["subspace"]
    long_row = dict(task, basis=[" ".join(["1"] * 200_000)])
    far_ladder = dict(_base_payloads()["series"], d=10**6)
    return {
        "not-utf8": b"\xff\xfe\x00",
        "empty": b"",
        "truncated": json.dumps(task).encode()[:-7],
        "deep": b"[" * 200_000 + b"]" * 200_000,
        "long-integer": json.dumps(task).replace('"dim1": 5', '"dim1": 5' + "0" * 5000).encode(),
        "long-row": json.dumps(long_row).encode(),
        "far-ladder": json.dumps(far_ladder).encode(),
        "array": b"[1, 2, 3]",
        "null": b"null",
    }


@pytest.mark.parametrize("name", list(_whole_files()))
def test_whole_files_keep_the_exit_code_contract(name, tmp_path):
    path = tmp_path / "file.json"
    path.write_bytes(_whole_files()[name])
    codes: list[int] = []
    problems = _run_every_command(path, name, codes)
    assert not problems, "\n".join(problems)
