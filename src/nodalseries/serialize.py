"""JSON instance files: schema version 4, exact rationals as strings.

Rationals serialize as "p/q" (or "p" when the denominator is 1); a matrix as
a list of its rows, each row one string of such rationals separated by
single spaces. Three payload kinds exist: a level-delta series, a chain,
and a bare subspace task carrying its block split. Loading validates the
payload against its structural invariants, and for series also against
section-space membership, read off each section space's equations; loading
what was saved reproduces the object bit-exactly.

Each distinct entry text is parsed once per file: a loader keeps one token
table for the whole file, so equal entries of different matrices (two base
spaces of a chain, say) are one shared ``Fraction`` and compare by
identity. Likewise each distinct matrix text is parsed and checked once per
file, and equal matrices are one ``Subspace``: a loader keeps one matrix
table next to the token table, so a fixed point written as two glued base
spaces is profiled once. Both tables die when the load returns. Stored rows
that are already a canonical basis, as written here, load as they are after
one canonicity check; any other spanning rows are reduced to that basis.

Only version 4 loads; a file of any other ``schema_version`` is refused
before its payload is read. Each object of a file may hold only the keys the
schema defines for it, and any other key is refused by name.

A chain file holds what a chain value holds, its series: the series'
ladder and, in ladder order, each component's ``index`` and ``basis``. The
loader reads them into a ``LimitLinearSeries``, refuses a component whose
index is not the ladder's at its position, and makes the chain of that
series. The chain reads each component's degree off its base space and
refuses a fixed one at a non-integer index, and derives the nodes. Unlike a
series file, a chain file is not checked for section-space membership when
it loads; ``verify`` reports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .chain import ContinuousChain
from .curve import CurveModel
from .delta import DeltaSet, build_delta
from .linalg import Subspace, format_rational, parse_rational
from .series import LimitLinearSeries, membership_failures
from .torus import TorusSplit

SCHEMA_VERSION = 4


class SchemaError(ValueError):
    """The file is not a valid instance of any supported payload kind."""


@dataclass(frozen=True)
class SubspaceTask:
    """A bare subspace together with the block split acting on it."""

    split: TorusSplit
    subspace: Subspace


def _integer(value: Any, field: str) -> int:
    """An integer field; JSON floats, strings and booleans are rejected."""
    if type(value) is not int:
        raise SchemaError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _ladder(d: int, steps: Any, listed: int, what: str) -> DeltaSet:
    """The file's ladder, checked against the file's size before it is built."""
    steps = [_integer(s, "a delta entry") for s in steps]
    size = 1 + sum(steps)
    if size != listed:
        raise SchemaError(
            f"delta gives a ladder of {size} indices but the file lists {listed} {what}"
        )
    return build_delta(d, steps)


# the keys the schema defines for each object of a file
_SERIES_KEYS = frozenset({"schema_version", "kind", "d", "r", "delta", "spaces"})
_CHAIN_KEYS = frozenset({"schema_version", "kind", "d", "r", "delta", "components"})
_COMPONENT_KEYS = frozenset({"index", "basis"})
_SUBSPACE_KEYS = frozenset({"schema_version", "kind", "dim1", "dim2", "basis"})


def _defined_keys(obj: Any, keys: frozenset[str], what: str) -> None:
    """Refuse an object holding a key the schema does not define for it.

    A value that is not an object is left to the reader, which refuses it.
    """
    if isinstance(obj, dict) and not obj.keys() <= keys:
        key = min(obj.keys() - keys)
        raise SchemaError(f"{what} has a key the schema does not define: {key!r}")


def _matrix_json(v: Subspace) -> list[str]:
    return [" ".join(map(format_rational, row)) for row in v.rows]


def _rational(token: str, values: dict[str, Fraction]) -> Fraction:
    """The value of one entry, parsed once per file through its token table."""
    value = values.get(token)
    if value is None:
        value = values[token] = parse_rational(token)
    return value


def _subspace_from_json(
    ambient_dim: int,
    rows: Any,
    values: dict[str, Fraction],
    matrices: dict[tuple, Subspace],
) -> Subspace:
    """The matrix as a subspace, parsed and checked once per file.

    ``matrices`` is the file's matrix table, keyed by the ambient width and
    the stored row strings, so a repeated matrix is the ``Subspace`` its
    first occurrence made.
    """
    if not isinstance(rows, list):
        raise SchemaError("a matrix must be a list of rows")
    if not all(isinstance(r, str) for r in rows):
        raise SchemaError(f"schema_version {SCHEMA_VERSION} writes each matrix row as one string")
    key = (ambient_dim, tuple(rows))
    space = matrices.get(key)
    if space is None:
        try:
            # split on single spaces only: any other whitespace leaves a token
            # that is not a rational
            parsed = [[_rational(e, values) for e in row.split(" ")] for row in rows]
            space = Subspace.from_spanning(ambient_dim, parsed)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad matrix: {exc}") from exc
        matrices[key] = space
    return space


def series_to_json(g: LimitLinearSeries) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "level_delta_series",
        "d": g.model.d,
        "r": g.rank,
        "delta": list(g.delta.steps),
        "spaces": {
            format_rational(i): _matrix_json(v) for i, v in g.items()
        },
    }


def series_from_json(payload: dict) -> LimitLinearSeries:
    _defined_keys(payload, _SERIES_KEYS, "a series file")
    try:
        model = CurveModel(_integer(payload["d"], "d"))
        rank = _integer(payload["r"], "r")
        raw_spaces = payload["spaces"]
        ladder = _ladder(model.d, payload["delta"], len(raw_spaces), "spaces")
        values: dict[str, Fraction] = {}
        matrices: dict[tuple, Subspace] = {}
        spaces = []
        for i in ladder.indices:
            key = format_rational(i)
            if key not in raw_spaces:
                raise SchemaError(f"missing space at index {key}")
            spaces.append(
                _subspace_from_json(model.ambient_dim, raw_spaces[key], values, matrices)
            )
        g = LimitLinearSeries(model, rank, ladder, tuple(spaces))
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad series payload: {exc}") from exc
    bad = membership_failures(g)
    if bad:
        raise SchemaError(
            "spaces leave their section spaces at indices "
            + ", ".join(format_rational(i) for i in bad)
        )
    return g


def chain_to_json(c: ContinuousChain) -> dict:
    g = c.series
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "d": g.model.d,
        "r": g.rank,
        "delta": list(g.delta.steps),
        "components": [
            {"index": format_rational(i), "basis": _matrix_json(v)} for i, v in g.items()
        ],
    }


def chain_from_json(payload: dict) -> ContinuousChain:
    _defined_keys(payload, _CHAIN_KEYS, "a chain file")
    try:
        model = CurveModel(_integer(payload["d"], "d"))
        rank = _integer(payload["r"], "r")
        ladder = _ladder(model.d, payload["delta"], len(payload["components"]), "components")
        values: dict[str, Fraction] = {}
        matrices: dict[tuple, Subspace] = {}
        spaces = []
        for i, raw in zip(ladder.indices, payload["components"]):
            _defined_keys(raw, _COMPONENT_KEYS, "a chain component")
            index = parse_rational(raw["index"])
            if index != i:
                raise SchemaError(
                    f"component index {format_rational(index)} is not the ladder's"
                    f" index {format_rational(i)} at its position"
                )
            spaces.append(
                _subspace_from_json(model.ambient_dim, raw["basis"], values, matrices)
            )
        return ContinuousChain(LimitLinearSeries(model, rank, ladder, tuple(spaces)))
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad chain payload: {exc}") from exc


def subspace_task_to_json(task: SubspaceTask) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "subspace",
        "dim1": task.split.dim1,
        "dim2": task.split.dim2,
        "basis": _matrix_json(task.subspace),
    }


def subspace_task_from_json(payload: dict) -> SubspaceTask:
    _defined_keys(payload, _SUBSPACE_KEYS, "a subspace file")
    try:
        split = TorusSplit(_integer(payload["dim1"], "dim1"), _integer(payload["dim2"], "dim2"))
        subspace = _subspace_from_json(split.ambient_dim, payload["basis"], {}, {})
        return SubspaceTask(split, subspace)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad subspace payload: {exc}") from exc


_TO_JSON = {
    LimitLinearSeries: series_to_json,
    ContinuousChain: chain_to_json,
    SubspaceTask: subspace_task_to_json,
}

_FROM_JSON = {
    "level_delta_series": series_from_json,
    "chain": chain_from_json,
    "subspace": subspace_task_from_json,
}

Instance = LimitLinearSeries | ContinuousChain | SubspaceTask


def dumps_instance(obj: Instance) -> str:
    encoder = _TO_JSON.get(type(obj))
    if encoder is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(encoder(obj), indent=2, sort_keys=True) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"not JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("not JSON: nested too deeply to decode") from None
    if not isinstance(payload, dict):
        raise SchemaError("top-level payload must be an object")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # 4.0 == 4
        raise SchemaError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    kind = payload.get("kind")
    if type(kind) is not str or kind not in _FROM_JSON:
        raise SchemaError(f"unknown payload kind {kind!r}")
    return _FROM_JSON[kind](payload)


def save_instance(obj: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(obj))


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8: {exc}") from exc
    return loads_instance(text)
