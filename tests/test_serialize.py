import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from nodalseries import cli, curve, linalg, serialize, torus
from nodalseries.chain import build_chain
from nodalseries.delta import build_delta
from nodalseries.generate import random_exact_lls, random_subspace
from nodalseries.linalg import Subspace, format_rational, parse_rational
from nodalseries.serialize import (
    SCHEMA_VERSION,
    SchemaError,
    SubspaceTask,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)
from nodalseries.series import check_exact
from nodalseries.torus import TorusSplit


def test_series_round_trip_bit_exact():
    g = random_exact_lls(3, 2, (2, 1, 1), seed=14)
    assert loads_instance(dumps_instance(g)) == g


def test_chain_round_trip_bit_exact():
    chain = build_chain(random_exact_lls(2, 1, (2, 2), seed=3))
    assert loads_instance(dumps_instance(chain)) == chain


def test_subspace_task_round_trip():
    task = SubspaceTask(TorusSplit(2, 3), Subspace.from_spanning(5, [(1, 0, 2, 0, 0)]))
    assert loads_instance(dumps_instance(task)) == task


def test_files_round_trip(tmp_path):
    g = random_exact_lls(1, 0, (2,), seed=5)
    path = tmp_path / "series.json"
    save_instance(g, path)
    assert load_instance(path) == g


def test_rationals_serialize_as_fraction_strings():
    task = SubspaceTask(TorusSplit(1, 1), Subspace.from_spanning(2, [(2, 3)]))
    payload = json.loads(dumps_instance(task))
    # canonical basis scales the leading entry to one
    assert payload["basis"] == ["1 3/2"]


def test_unknown_schema_version_rejected():
    g = random_exact_lls(1, 0, (1,), seed=0)
    payload = json.loads(dumps_instance(g))
    payload["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize("version", [True, 2.0, "2", None])
def test_schema_version_must_be_a_json_integer(version):
    payload = _payload("series")
    # the same non-integer form of the supported number
    payload["schema_version"] = (
        type(version)(SCHEMA_VERSION) if isinstance(version, (float, str)) else version
    )
    with pytest.raises(SchemaError, match="unsupported schema_version"):
        loads_instance(json.dumps(payload))


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        loads_instance(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "mystery"}))


def _subspace_payload(dim1, dim2, basis):
    return {
        "schema_version": SCHEMA_VERSION, "kind": "subspace", "dim1": dim1, "dim2": dim2,
        "basis": basis,
    }


def test_not_json_rejected():
    with pytest.raises(SchemaError):
        loads_instance("definitely not json {")


def test_bad_matrix_entries_rejected():
    payload = _subspace_payload(1, 1, ["1 x"])
    with pytest.raises(SchemaError, match="bad matrix"):
        loads_instance(json.dumps(payload))


def test_missing_space_rejected():
    payload = json.loads(dumps_instance(random_exact_lls(1, 0, (1,), seed=1)))
    del payload["spaces"]["1"]
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


def test_membership_violation_rejected_on_load():
    payload = json.loads(dumps_instance(random_exact_lls(1, 0, (1,), seed=2)))
    # a first-block line that breaks the node condition at index 0
    payload["spaces"]["0"] = ["1 0 0 0"]
    with pytest.raises(SchemaError) as excinfo:
        loads_instance(json.dumps(payload))
    assert "section space" in str(excinfo.value)


def test_dimension_mismatch_rejected_on_load():
    payload = json.loads(dumps_instance(random_exact_lls(1, 0, (1,), seed=2)))
    payload["spaces"]["0"] = ["1 0 0 1", "0 1 0 0"]
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize(
    "entry",
    [
        " 1.0e0 ", "1.5", "1_000", "1e999999", "1/0", 1,
        pytest.param([1], id="array"),
        pytest.param({"p": 1}, id="object"),
        pytest.param(None, id="null"),
    ],
)
def test_lenient_rationals_rejected(entry):
    # a row string has no place for a bare JSON value, so one stands for the row
    row = f"1 {entry}" if isinstance(entry, str) else entry
    payload = _subspace_payload(1, 1, [row])
    # named, so a payload of a stale version cannot pass for its version
    with pytest.raises(SchemaError, match="bad matrix|writes each matrix row as one string"):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize(
    "defect, message",
    [
        pytest.param(lambda p: p.update(r=-1), "rank must be nonnegative", id="rank-1"),
        pytest.param(
            lambda p: p.update(r=5), "space at index 0 has dimension 2, expected 6", id="rank5"
        ),
    ],
)
def test_chain_spaces_of_the_wrong_dimension_are_refused(defect, message, tmp_path, capsys):
    payload = json.loads(dumps_instance(build_chain(random_exact_lls(2, 1, (2, 1), seed=6))))
    defect(payload)
    with pytest.raises(SchemaError, match=message):
        loads_instance(json.dumps(payload))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and re.search(message, err)


def _refused(defect, message, tmp_path, capsys, kind="chain"):
    """The file of ``_payload(kind)``, edited by ``defect``, is refused:
    SchemaError, and exit 2 from ``verify`` (``degree`` for a subspace
    task) with one stderr line."""
    payload = _payload(kind)
    defect(payload)
    with pytest.raises(SchemaError, match=re.escape(message)):
        loads_instance(json.dumps(payload))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    assert cli.main(_READERS[kind][-1] + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err


def test_a_chain_file_with_an_edited_base_space_loads_and_fails_verify(tmp_path, capsys):
    """A file holds no node to contradict its base spaces, so one token
    edited in the base space at 1/2 loads, and the node it moves no longer
    matches the next space's limit: verify reports node gluing (exit 1)."""
    payload = _payload("chain")
    rows = payload["components"][1]["basis"]
    assert (payload["components"][1]["index"], rows[1]) == ("1/2", "0 0 1 0 0 0")
    rows[1] = "0 0 1 0 0 1"
    loaded = loads_instance(json.dumps(payload))
    assert loaded.series.spaces[1].rows[1][-1] == 1
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "node gluing: FAIL\n"
        "  - node between 1/2 and 1 does not match both orbit limits\n"
        "degree budget: pass\n"
        "node transversality: pass\n"
        "weight intervals: pass\n"
        "section-space membership: pass\n"
    )


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(
            b'{"schema_version": 4, "kind": [], "dim1": 3, "dim2": 3, "basis": []}',
            "unknown payload kind",
            id="array-kind",
        ),
        pytest.param(
            b'{"schema_version": 4, "kind": {}, "dim1": 3, "dim2": 3, "basis": []}',
            "unknown payload kind",
            id="object-kind",
        ),
        pytest.param(b"\xff\xfe\x00", "not UTF-8", id="not-utf8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, "not JSON", id="deep"),
        pytest.param(
            b'{"schema_version": 4, "kind": "subspace", "dim1": 1%s, "dim2": 1, "basis": []}'
            % (b"0" * getattr(sys, "get_int_max_str_digits", lambda: 0)()),
            "not JSON",
            id="long-integer",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this Python converts integers of any length",
            ),
        ),
    ],
)
def test_files_that_break_the_decoder_are_refused(data, message, tmp_path, capsys):
    # each of these once escaped as a TypeError, UnicodeDecodeError,
    # RecursionError or ValueError, so the CLI exited 1 with a traceback
    if message != "not UTF-8":
        with pytest.raises(SchemaError, match=message):
            loads_instance(data.decode())
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match=message):
        load_instance(path)
    assert cli.main(["degree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert message in captured.err


def _map_matrices(payload, f):
    """The payload with ``f`` applied to each of its matrices, in place."""
    if payload["kind"] == "level_delta_series":
        payload["spaces"] = {key: f(rows) for key, rows in payload["spaces"].items()}
    elif payload["kind"] == "chain":
        for comp in payload["components"]:
            comp["basis"] = f(comp["basis"])
        if "nodes" in payload:
            payload["nodes"] = [f(rows) for rows in payload["nodes"]]
    else:
        payload["basis"] = f(payload["basis"])
    return payload


def in_version(payload, version):
    """A current payload rewritten as a file of version 1, 2 or 3.

    A chain file of those versions also stored each component's degree,
    kind and target and the chain's nodes; versions 1 and 2 wrote every
    matrix row as an array of entry strings; a version 1 chain also stored
    its Hilbert data, the same for every chain of its d and r.
    """
    if payload["kind"] == "chain":
        chain = loads_instance(json.dumps(payload))
        items = zip(payload["components"], chain.series.delta.indices, chain.series.profiles)
        for raw, index, profile in items:
            integer = index.denominator == 1
            raw["degree"] = profile.degree
            raw["kind"] = "fixed" if profile.degree == 0 else "orbit"
            raw["target"] = {
                "kind": "component" if integer else "node", "index": math.ceil(index)
            }
        payload["nodes"] = [
            [" ".join(map(format_rational, row)) for row in node.rows] for node in chain.nodes
        ]
    payload["schema_version"] = version
    if version < 3:
        _map_matrices(payload, lambda rows: [row.split(" ") for row in rows])
    if payload["kind"] == "chain" and version == 1:
        targets = [1] * (payload["d"] + 1)
        payload["hilbert"] = {
            "grassmann": payload["r"] + 1, "picard": 0, "targets": targets, "constant": 1
        }
    return payload


def converted(payload):
    """A version 1, 2 or 3 payload converted as the README says: each row's
    entries joined with single spaces where they are an array, a version 1
    chain's ``hilbert`` dropped, a chain's ``nodes`` dropped and only each
    component's ``index`` and ``basis`` kept, and ``schema_version`` set to 4."""
    _map_matrices(payload, lambda rows: [r if isinstance(r, str) else " ".join(r) for r in rows])
    payload.pop("hilbert", None)
    payload.pop("nodes", None)
    for comp in payload.get("components", ()):
        for key in ("degree", "kind", "target"):
            comp.pop(key)
    payload["schema_version"] = SCHEMA_VERSION
    return payload


def _payload(kind, version=SCHEMA_VERSION):
    if kind == "series":
        obj = random_exact_lls(2, 1, (2, 1), seed=9)
    elif kind == "chain":
        obj = build_chain(random_exact_lls(2, 1, (2, 2), seed=3))
    else:
        obj = SubspaceTask(TorusSplit(2, 2), Subspace.from_spanning(4, [(1, 0, 1, 0)]))
    payload = json.loads(dumps_instance(obj))
    return payload if version == SCHEMA_VERSION else in_version(payload, version)


# each conversion keeps the value that int() would read back, except the
# fractional ones, which int() would truncate
NON_INTEGERS = [
    pytest.param("series", ("d",), lambda d: d + 0.9, id="d-float"),
    pytest.param("series", ("d",), str, id="d-string"),
    pytest.param("series", ("r",), bool, id="r-bool"),
    pytest.param("series", ("r",), lambda r: r + 0.5, id="r-float"),
    pytest.param("series", ("delta",), lambda s: [s[0] - 0.3] + s[1:], id="delta-float"),
    pytest.param("subspace", ("dim1",), lambda n: n + 0.5, id="dim1-float"),
]


def _convert(payload, path, convert):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = convert(node[path[-1]])
    return payload


@pytest.mark.parametrize("kind, path, convert", NON_INTEGERS)
def test_integer_fields_accept_only_json_integers(kind, path, convert):
    payload = _convert(_payload(kind), path, convert)
    with pytest.raises(SchemaError, match="must be a JSON integer"):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize("kind, listed", [("series", "spaces"), ("chain", "components")])
def test_delta_is_bounded_by_the_file(kind, listed):
    payload = _payload(kind)
    payload["delta"] = [10**9, 1]
    # building this ladder would take about an hour
    with pytest.raises(SchemaError, match=f"ladder of 1000000002 indices .* {listed}"):
        loads_instance(json.dumps(payload))


def test_dumps_writes_the_current_version():
    for kind in ("series", "chain", "subspace"):
        payload = _payload(kind)
        assert payload["schema_version"] == SCHEMA_VERSION == 4
        assert "hilbert" not in payload and "nodes" not in payload


def _unsupported(version):
    return f"unsupported schema_version {version}; expected {SCHEMA_VERSION}"


# every command that reads a file of each kind, verify or degree last
_READERS = {
    "series": [["check"], ["numerical-data"], ["reduce"], ["build-chain"], ["verify"]],
    "chain": [["verify"]],
    "subspace": [["limit", "--at", "zero"], ["limit", "--at", "infty"], ["degree"]],
}


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("kind", ["series", "chain", "subspace"])
def test_files_of_versions_1_and_2_are_refused(kind, version, tmp_path, capsys):
    payload = _payload(kind, version)
    with pytest.raises(SchemaError) as refused:
        loads_instance(json.dumps(payload))
    assert str(refused.value) == _unsupported(version)
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(payload))
    for command in _READERS[kind]:
        assert cli.main(command + [str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"malformed input: {_unsupported(version)}\n"


def test_old_files_load_once_converted_as_the_readme_says():
    for obj in _seeded_instances():
        text = dumps_instance(obj)
        for version in (1, 2, 3):
            payload = in_version(json.loads(text), version)
            with pytest.raises(SchemaError, match=_unsupported(version)):
                loads_instance(json.dumps(payload))
            assert loads_instance(json.dumps(converted(payload))) == obj


FABRICATED_HILBERT = [
    pytest.param({"grassmann": 99, "picard": 5, "targets": [7, 7, 7], "constant": -3}, id="all"),
    pytest.param({"grassmann": 3}, id="grassmann"),
    pytest.param({"picard": 5}, id="picard"),
    pytest.param({"targets": [1, 1]}, id="targets-short"),
    pytest.param({"targets": [1, 2, 0]}, id="targets-moved"),
    pytest.param({"constant": -3}, id="constant"),
]

_HILBERT_KEY = "a chain file has a key the schema does not define: 'hilbert'"


@pytest.mark.parametrize("fabricated", FABRICATED_HILBERT)
def test_v1_chain_with_fabricated_hilbert_data_is_refused(fabricated):
    """A version 1 chain is refused for its version, its Hilbert data unread;
    converted but with its ``hilbert`` kept, it is refused for that key."""
    payload = _payload("chain", 1)
    payload["hilbert"].update(fabricated)
    with pytest.raises(SchemaError, match=_unsupported(1)):
        loads_instance(json.dumps(payload))
    hilbert = payload["hilbert"]
    payload = converted(payload)
    payload["hilbert"] = hilbert
    with pytest.raises(SchemaError, match=re.escape(_HILBERT_KEY)):
        loads_instance(json.dumps(payload))


def test_v1_chain_without_hilbert_data_is_refused():
    payload = _payload("chain", 1)
    del payload["hilbert"]
    with pytest.raises(SchemaError, match=_unsupported(1)):
        loads_instance(json.dumps(payload))


def test_v2_chain_with_hilbert_data_is_refused():
    hilbert = _payload("chain", 1)["hilbert"]
    for version, message in ((2, _unsupported(2)), (SCHEMA_VERSION, _HILBERT_KEY)):
        payload = _payload("chain", version)
        payload["hilbert"] = hilbert
        with pytest.raises(SchemaError, match=re.escape(message)):
            loads_instance(json.dumps(payload))


# one key the schema does not define, added to each object of a file
UNDEFINED_KEYS = [
    pytest.param("series", lambda p: p, "note", "a series file", id="series"),
    pytest.param("chain", lambda p: p, "note", "a chain file", id="chain"),
    pytest.param(
        "chain", lambda p: p["components"][1], "note", "a chain component", id="component"
    ),
    pytest.param("subspace", lambda p: p, "note", "a subspace file", id="subspace"),
    pytest.param("chain", lambda p: p, "hilbert", "a chain file", id="chain-hilbert"),
    # what a version 3 chain stored beside each index and basis
    pytest.param("chain", lambda p: p, "nodes", "a chain file", id="chain-nodes"),
    *(
        pytest.param(
            "chain", lambda p: p["components"][1], key, "a chain component", id=f"component-{key}"
        )
        for key in ("kind", "target", "degree")
    ),
]


@pytest.mark.parametrize("kind, where, key, what", UNDEFINED_KEYS)
def test_keys_the_schema_does_not_define_are_refused(kind, where, key, what, tmp_path, capsys):
    def defect(payload):
        # the value an older file holds there, if any
        older = where(_payload(kind, 1 if key == "hilbert" else 3))
        where(payload)[key] = older.get(key, "by hand")

    message = f"{what} has a key the schema does not define: {key!r}"
    _refused(defect, message, tmp_path, capsys, kind)


def test_readme_examples_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert [json.loads(text)["kind"] for text in examples] == [
        "level_delta_series",
        "chain",
        "subspace",
    ]
    for text in examples:
        obj = loads_instance(text)
        assert json.loads(dumps_instance(obj)) == json.loads(text)


def _matrices(payload):
    """Every matrix of a payload as its list of rows, in the order of the file."""
    if payload["kind"] == "level_delta_series":
        return list(payload["spaces"].values())
    if payload["kind"] == "chain":
        return [comp["basis"] for comp in payload["components"]] + payload.get("nodes", [])
    return [payload["basis"]]


# each command loads one payload kind and exits 2 on a malformed file
_COMMAND = {"series": ["check"], "chain": ["verify"], "subspace": ["degree"]}

ROW_FORM_DEFECTS = [
    pytest.param(SCHEMA_VERSION, lambda row: row.replace(" ", "  ", 1), id="double-space"),
    pytest.param(SCHEMA_VERSION, lambda row: " " + row, id="leading-space"),
    pytest.param(SCHEMA_VERSION, lambda row: row + " ", id="trailing-space"),
    pytest.param(SCHEMA_VERSION, lambda row: row.replace(" ", "\t", 1), id="tab"),
    pytest.param(SCHEMA_VERSION, lambda row: "", id="empty-row-string"),
    pytest.param(SCHEMA_VERSION, lambda row: row.split(" "), id="array-row"),
    # rows joined but the version left at 2: a conversion half done
    pytest.param(2, lambda row: " ".join(row), id="row-string-in-v2"),
]


@pytest.mark.parametrize("version, defect", ROW_FORM_DEFECTS)
def test_rows_in_the_wrong_form_are_refused(version, defect, tmp_path, capsys):
    for kind, command in _COMMAND.items():
        payload = _payload(kind, version)
        rows = _matrices(payload)[0]
        rows[0] = defect(rows[0])
        with pytest.raises(SchemaError):
            loads_instance(json.dumps(payload))
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(payload))
        assert cli.main(command + [str(path)]) == 2, kind
        assert "malformed input" in capsys.readouterr().err


def _seeded_instances():
    for d in range(9):
        g = random_exact_lls(d, max(d - 1, 0), (2,) * d, seed=d)
        yield g
        yield build_chain(g)
        rng = random.Random(d)
        split = TorusSplit(d + 1, d + 1)
        dim = rng.randint(0, split.ambient_dim)
        yield SubspaceTask(split, random_subspace(split.ambient_dim, dim, rng))


def _ambient_dim(payload):
    if payload["kind"] == "subspace":
        return payload["dim1"] + payload["dim2"]
    return 2 * payload["d"] + 2


def _scaled(rows):
    return [[F(k + 2) * e for e in row] for k, row in enumerate(rows)]


def _redundant(rows):
    return rows + [[a + b for a, b in zip(rows[0], rows[-1])]] if rows else rows


# spanning sets of each stored space that are not its canonical basis
SPANNING_SETS = [
    pytest.param(lambda rows, n: rows[::-1], id="permuted"),
    pytest.param(lambda rows, n: _scaled(rows), id="scaled"),
    pytest.param(lambda rows, n: _redundant(rows), id="redundant"),
    pytest.param(lambda rows, n: [[F(0)] * n] + rows, id="zero-row"),
]


def test_canonical_files_load_without_elimination(eliminations, monkeypatch):
    # the writer stores canonical bases, and loading keeps them as they are
    texts = [(obj, dumps_instance(obj)) for obj in _seeded_instances()]
    calls = eliminations(linalg)
    sections = []
    real_section_space = curve.section_space
    monkeypatch.setattr(
        curve, "section_space", lambda *args: sections.append(args) or real_section_space(*args)
    )
    for obj, text in texts:
        assert loads_instance(text) == obj
    assert calls == [] and sections == []


@pytest.mark.parametrize("respan", SPANNING_SETS)
def test_other_spanning_sets_load_to_the_canonical_value(respan, eliminations):
    calls = eliminations(linalg)
    for obj in _seeded_instances():
        text = dumps_instance(obj)
        payload = json.loads(text)
        n = _ambient_dim(payload)
        for rows in _matrices(payload):
            parsed = [[parse_rational(e) for e in row.split(" ")] for row in rows]
            rows[:] = [" ".join(map(format_rational, row)) for row in respan(parsed, n)]
        loaded = loads_instance(json.dumps(payload))
        assert loaded == obj
        assert dumps_instance(loaded) == text
    # some stored basis was not canonical and went through the elimination
    assert calls


@pytest.mark.parametrize("version", [1, 3, 4])
@pytest.mark.parametrize(
    "lengths", [(3, 4), (3, 5), (5, 3), (4, 5)], ids=["short", "short-long", "long-short", "long"]
)
def test_rows_of_unequal_length_are_refused(version, lengths):
    # (3, 5) and (5, 3) hold 8 = 2 x 4 entries, as a 2-row basis of Q^4 does
    rows = [" ".join(["1"] + ["0"] * (k - 1)) for k in lengths]
    payload = _subspace_payload(2, 2, rows)
    bad = next(k for k in lengths if k != 4)
    message = f"bad matrix: vector of length {bad} in ambient dimension 4"
    if version != SCHEMA_VERSION:
        # an older file is refused for its version before its rows are read
        payload, message = in_version(payload, version), _unsupported(version)
    with pytest.raises(SchemaError) as refused:
        loads_instance(json.dumps(payload))
    assert str(refused.value) == message


def _file_tokens(payload):
    """The rational texts a loader parses from a current file: each distinct
    entry of the row strings once, then each of a chain's component indices,
    which are read apart from the entries."""
    tokens = set()
    for rows in _matrices(payload):
        for row in rows:
            tokens.update(row.split(" "))
    return sorted(tokens) + [comp["index"] for comp in payload.get("components", ())]


@pytest.mark.parametrize("kind", ["series", "chain"])
def test_each_distinct_token_is_parsed_once_per_file(kind, monkeypatch):
    g = random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=5)
    text = dumps_instance(build_chain(g) if kind == "chain" else g)
    tokens = _file_tokens(json.loads(text))
    parsed = []
    real = serialize.parse_rational
    monkeypatch.setattr(serialize, "parse_rational", lambda t: parsed.append(t) or real(t))
    loaded = loads_instance(text)
    assert sorted(parsed) == sorted(tokens)
    assert dumps_instance(loaded) == text


def test_equal_entries_of_a_loaded_chain_are_one_object():
    chain = loads_instance(
        dumps_instance(build_chain(random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=5)))
    )
    first_seen = {}
    for v in chain.series.spaces:
        for row in v.rows:
            for e in row:
                assert first_seen.setdefault(e, e) is e
    # a loaded chain's nodes are derived, not parsed: a node beside a fixed
    # component on its left is that base space itself
    shared = sum(node is v for node, v in zip(chain.nodes, chain.series.spaces))
    assert shared >= 8


def _verify_large_payload(kind, version=SCHEMA_VERSION):
    """The seed-5 series or chain of the benchmark's verify_large shape; a
    fixed point is written there many times. Its file of an older version
    is refused, and is returned converted as the README says."""
    g = random_exact_lls(8, 3, (1, 1, 1, 1, 3, 1, 3, 1), seed=5)
    payload = json.loads(dumps_instance(build_chain(g) if kind == "chain" else g))
    if version == SCHEMA_VERSION:
        return payload
    old = in_version(payload, version)
    with pytest.raises(SchemaError, match=_unsupported(version)):
        loads_instance(json.dumps(old))
    return converted(old)


def _distinct_matrix_texts(payload):
    return {json.dumps(rows) for rows in _matrices(payload)}


@pytest.mark.parametrize("version", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["series", "chain"])
def test_equal_matrices_of_a_file_load_as_one_subspace(kind, version):
    payload = _verify_large_payload(kind, version)
    loaded = loads_instance(json.dumps(payload))
    if kind == "series":
        texts = [json.dumps(payload["spaces"][format_rational(i)]) for i in loaded.delta]
        spaces = loaded.spaces
    else:
        texts = [json.dumps(comp["basis"]) for comp in payload["components"]]
        spaces = loaded.series.spaces
    repeats = 0
    for (a, text_a), (b, text_b) in itertools.combinations(zip(spaces, texts), 2):
        assert (a is b) == (text_a == text_b)
        repeats += a is b
    assert repeats


@pytest.mark.parametrize("version", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["series", "chain"])
def test_each_distinct_matrix_is_built_once_per_file(kind, version, monkeypatch):
    payload = _verify_large_payload(kind, version)
    text = json.dumps(payload)
    built = []
    real = Subspace.from_spanning
    monkeypatch.setattr(
        Subspace, "from_spanning", lambda n, rows: built.append(rows) or real(n, rows)
    )
    loads_instance(text)
    distinct = _distinct_matrix_texts(payload)
    assert len(built) == len(distinct) < len(_matrices(payload))
    # the table lives for one load: a second load builds every matrix again
    loads_instance(text)
    assert len(built) == 2 * len(distinct)


def test_check_exact_on_a_loaded_series_profiles_each_distinct_space_once(monkeypatch):
    payload = _verify_large_payload("series")
    loaded = loads_instance(json.dumps(payload))
    made = []
    real = torus.BlockProfile
    monkeypatch.setattr(torus, "BlockProfile", lambda **parts: made.append(parts) or real(**parts))
    assert check_exact(loaded).passed
    distinct = _distinct_matrix_texts(payload)
    assert len(made) == len({id(v) for v in loaded.spaces}) == len(distinct) < len(loaded.spaces)


OLD_VERSION_NON_STRINGS = [1, None, 1.5, [], {}, True]


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("kind", ["series", "chain", "subspace"])
@pytest.mark.parametrize("entry", OLD_VERSION_NON_STRINGS, ids=repr)
def test_non_string_entries_of_old_versions_are_refused_as_before(version, kind, entry):
    """An older file is refused for its version before any entry is read, so
    an entry that its reader once refused by name changes nothing."""
    payload = _payload(kind, version)
    _matrices(payload)[-1][0][0] = entry
    with pytest.raises(SchemaError) as excinfo:
        loads_instance(json.dumps(payload))
    assert str(excinfo.value) == _unsupported(version)


@pytest.mark.parametrize("index", [0, None, [], 1.5])
def test_a_non_string_component_index_is_refused_as_before(index):
    payload = _payload("chain")
    payload["components"][0]["index"] = index
    with pytest.raises(SchemaError) as excinfo:
        loads_instance(json.dumps(payload))
    message = f"bad chain payload: not a rational of the form p or p/q: {index!r}"
    assert str(excinfo.value) == message


def test_a_space_at_an_index_off_the_ladder_is_refused_as_missing(tmp_path, capsys):
    # the file lists as many spaces as its ladder has indices, so a space at
    # an index off the ladder leaves a ladder index without one
    def defect(payload):
        payload["spaces"]["1/3"] = payload["spaces"].pop("1/2")

    _refused(defect, "missing space at index 1/2", tmp_path, capsys, kind="series")


def _set_indices(indices):
    def defect(payload):
        for position, index in indices.items():
            payload["components"][position]["index"] = index

    return defect


@pytest.mark.parametrize(
    "defect, message",
    [
        pytest.param(_set_indices({1: "1/3"}), "index 1/3 is not the ladder's index 1/2", id="moved"),
        pytest.param(_set_indices({4: "3"}), "index 3 is not the ladder's index 2", id="off-degree"),
        pytest.param(
            _set_indices({0: "1/2", 1: "0"}), "index 1/2 is not the ladder's index 0", id="swapped"
        ),
    ],
)
def test_a_component_index_off_its_ladder_position_is_refused(defect, message, tmp_path, capsys):
    # the ladder of the chain file is 0, 1/2, 1, 3/2, 2
    _refused(defect, f"component {message} at its position", tmp_path, capsys)


@pytest.mark.parametrize("kind", ["series", "chain", "subspace"])
def test_a_matrix_that_is_not_a_list_of_rows_is_refused(kind):
    payload = _payload(kind)
    if kind == "series":
        payload["spaces"]["0"] = " ".join(payload["spaces"]["0"])
    elif kind == "chain":
        payload["components"][0]["basis"] = " ".join(payload["components"][0]["basis"])
    else:
        payload["basis"] = payload["basis"][0]
    with pytest.raises(SchemaError, match="^a matrix must be a list of rows$"):
        loads_instance(json.dumps(payload))


def test_a_subspace_file_without_a_block_dimension_is_refused_by_name():
    payload = _payload("subspace")
    del payload["dim2"]
    with pytest.raises(SchemaError, match="^bad subspace payload: 'dim2'$"):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize("obj", [object(), build_delta(1, (1,))], ids=["object", "ladder"])
def test_only_instances_are_serialized(obj):
    with pytest.raises(TypeError, match=f"^cannot serialize {type(obj).__name__}$"):
        dumps_instance(obj)
