import json
import re
from pathlib import Path

import pytest

from nodalseries.chain import build_chain
from nodalseries.generate import random_exact_lls
from nodalseries.linalg import Subspace
from nodalseries.serialize import (
    SCHEMA_VERSION,
    SchemaError,
    SubspaceTask,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)
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
    assert payload["basis"] == [["1", "3/2"]]


def test_unknown_schema_version_rejected():
    g = random_exact_lls(1, 0, (1,), seed=0)
    payload = json.loads(dumps_instance(g))
    payload["schema_version"] = 3
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize("version", [True, 2.0, "2", None])
def test_schema_version_must_be_a_json_integer(version):
    payload = _payload("series")
    payload["schema_version"] = version
    with pytest.raises(SchemaError, match="unsupported schema_version"):
        loads_instance(json.dumps(payload))


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        loads_instance(json.dumps({"schema_version": 1, "kind": "mystery"}))


def test_not_json_rejected():
    with pytest.raises(SchemaError):
        loads_instance("definitely not json {")


def test_bad_matrix_entries_rejected():
    payload = {
        "schema_version": 1,
        "kind": "subspace",
        "dim1": 1,
        "dim2": 1,
        "basis": [["1", "x"]],
    }
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


def test_missing_space_rejected():
    g = random_exact_lls(1, 0, (1,), seed=1)
    payload = json.loads(dumps_instance(g))
    del payload["spaces"]["1"]
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


def test_membership_violation_rejected_on_load():
    g = random_exact_lls(1, 0, (1,), seed=2)
    payload = json.loads(dumps_instance(g))
    # a first-block line that breaks the node condition at index 0
    payload["spaces"]["0"] = [["1", "0", "0", "0"]]
    with pytest.raises(SchemaError) as excinfo:
        loads_instance(json.dumps(payload))
    assert "section space" in str(excinfo.value)


def test_dimension_mismatch_rejected_on_load():
    g = random_exact_lls(1, 0, (1,), seed=2)
    payload = json.loads(dumps_instance(g))
    payload["spaces"]["0"] = [["1", "0", "0", "1"], ["0", "1", "0", "0"]]
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize("entry", [" 1.0e0 ", "1.5", "1_000", "1e999999", "1/0", 1])
def test_lenient_rationals_rejected(entry):
    payload = {"schema_version": 1, "kind": "subspace", "dim1": 1, "dim2": 1, "basis": [["1", entry]]}
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize("target", [-5, 3])
def test_chain_targets_outside_the_degree_rejected(target):
    chain = build_chain(random_exact_lls(2, 1, (2, 2), seed=3))
    payload = json.loads(dumps_instance(chain))
    payload["components"][0]["target"]["index"] = target
    with pytest.raises(SchemaError, match="outside 0..2"):
        loads_instance(json.dumps(payload))


def _payload(kind):
    if kind == "series":
        obj = random_exact_lls(2, 1, (2, 1), seed=9)
    elif kind in ("chain", "chain-v1"):
        obj = build_chain(random_exact_lls(2, 1, (2, 2), seed=3))
    else:
        obj = SubspaceTask(TorusSplit(2, 2), Subspace.from_spanning(4, [(1, 0, 1, 0)]))
    payload = json.loads(dumps_instance(obj))
    if kind == "chain-v1":
        payload["schema_version"] = 1
        payload["hilbert"] = {"grassmann": 2, "picard": 0, "targets": [1, 1, 1], "constant": 1}
    return payload


# each conversion keeps the value that int() would read back, except the
# fractional ones, which int() would truncate
NON_INTEGERS = [
    pytest.param("series", ("d",), lambda d: d + 0.9, id="d-float"),
    pytest.param("series", ("d",), str, id="d-string"),
    pytest.param("series", ("r",), bool, id="r-bool"),
    pytest.param("series", ("r",), lambda r: r + 0.5, id="r-float"),
    pytest.param("series", ("delta",), lambda s: [s[0] - 0.3] + s[1:], id="delta-float"),
    pytest.param("subspace", ("dim1",), lambda n: n + 0.5, id="dim1-float"),
    pytest.param("chain", ("components", 0, "degree"), float, id="degree-float"),
    pytest.param("chain", ("components", 0, "target", "index"), float, id="target-float"),
    pytest.param("chain-v1", ("hilbert", "picard"), bool, id="picard-bool"),
    pytest.param(
        "chain-v1", ("hilbert", "targets"), lambda ts: [float(t) for t in ts], id="targets-float"
    ),
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
        assert payload["schema_version"] == SCHEMA_VERSION == 2
        assert "hilbert" not in payload


def test_v1_chain_loads_like_the_v2_chain():
    v2 = loads_instance(json.dumps(_payload("chain")))
    assert loads_instance(json.dumps(_payload("chain-v1"))) == v2


FABRICATED_HILBERT = [
    pytest.param({"grassmann": 99, "picard": 5, "targets": [7, 7, 7], "constant": -3}, id="all"),
    pytest.param({"grassmann": 3}, id="grassmann"),
    pytest.param({"picard": 5}, id="picard"),
    pytest.param({"targets": [1, 1]}, id="targets-short"),
    pytest.param({"targets": [1, 2, 0]}, id="targets-moved"),
    pytest.param({"constant": -3}, id="constant"),
]


@pytest.mark.parametrize("fabricated", FABRICATED_HILBERT)
def test_v1_chain_with_fabricated_hilbert_data_is_refused(fabricated):
    payload = _payload("chain-v1")
    payload["hilbert"].update(fabricated)
    with pytest.raises(SchemaError, match="stored Hilbert data"):
        loads_instance(json.dumps(payload))


def test_v1_chain_without_hilbert_data_is_refused():
    payload = _payload("chain-v1")
    del payload["hilbert"]
    with pytest.raises(SchemaError):
        loads_instance(json.dumps(payload))


def test_v2_chain_with_hilbert_data_is_refused():
    payload = _payload("chain-v1")
    payload["schema_version"] = 2
    with pytest.raises(SchemaError, match="only schema_version 1 chains carry hilbert data"):
        loads_instance(json.dumps(payload))


@pytest.mark.parametrize("kind", ["series", "subspace"])
def test_v1_series_and_subspace_files_still_load(kind):
    current = loads_instance(json.dumps(_payload(kind)))
    payload = _payload(kind)
    payload["schema_version"] = 1
    assert loads_instance(json.dumps(payload)) == current


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
