"""Payout report structure plus JSON/CSV serialization.

Reports are deterministic: fixed key order, example rows in dataset order,
coalition rows sorted by id.  Exact-mode values travel as fraction strings
("3/2"), float-mode values as JSON numbers, so a report round-trips
bit-for-bit in either mode.  The wall-time field is the one thing two
otherwise identical runs are allowed to disagree on.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .combinatorics import EXACT, Money, check_mode
from .errors import InputError


@dataclass(frozen=True)
class ExampleRow:
    """One example's line of a report; a view built on request."""

    id: int
    value: Money
    coalition: Optional[Hashable] = None


@dataclass
class ValueReport:
    """Per-example payouts held as columns in dataset order.

    ``ids`` is an int64 array; ``value_column`` is a float64 array in float
    mode and a list of ``Fraction``s in exact mode; ``coalition_column``
    gives each example's coalition id, or None.  A held float-mode report
    thus keeps no Python object per example: n of them would be rescanned by
    every full pass of the cyclic garbage collector, which makes large runs
    slower than linear in n.  Row views (``examples``) and the id index
    behind ``value_of`` are built on demand.
    """

    method: str
    numeric_mode: str
    query_count: int
    wall_time: float
    ids: np.ndarray
    value_column: Union[np.ndarray, List[Fraction]]
    coalition_column: List[Optional[Hashable]]
    coalitions: List[Tuple[Hashable, Money]] = field(default_factory=list)
    k: Optional[int] = None
    per_query: Optional[List[Mapping[int, Money]]] = None
    extras: Optional[Mapping[str, object]] = None
    _row_of: Optional[dict] = field(default=None, init=False, repr=False)
    _text: Optional[tuple] = field(default=None, init=False, repr=False)

    def _value_list(self) -> list:
        """Values in dataset order as Python numbers."""
        if self.numeric_mode == EXACT:
            return self.value_column
        return self.value_column.tolist()

    @property
    def examples(self) -> List[ExampleRow]:
        """Row views in dataset order, built on each access."""
        return [
            ExampleRow(i, v, c)
            for i, v, c in zip(self.ids.tolist(), self._value_list(), self.coalition_column)
        ]

    def value_of(self, example_id: int) -> Money:
        if self._row_of is None:
            self._row_of = {i: r for r, i in enumerate(self.ids.tolist())}
        row = self._row_of.get(example_id)
        if row is None:
            raise InputError(f"no example {example_id} in this report")
        v = self.value_column[row]
        return v if self.numeric_mode == EXACT else float(v)

    def values(self) -> dict:
        return dict(zip(self.ids.tolist(), self._value_list()))

    def __eq__(self, other):
        """Field-by-field equality, comparing the columns by their values."""
        if not isinstance(other, ValueReport):
            return NotImplemented
        return self._fields() == other._fields()

    def _fields(self) -> tuple:
        return (
            self.method, self.numeric_mode, self.query_count, self.wall_time,
            self.ids.tolist(), self._value_list(), self.coalition_column,
            self.coalitions, self.k, self.per_query, self.extras,
        )


def _coalition_totals(report: ValueReport) -> List[Tuple[Hashable, Money]]:
    """Coalition totals as sums of member values, in row order per group so
    the float result is reproducible bit-for-bit."""
    zero = Fraction(0) if report.numeric_mode == EXACT else 0.0
    groups: dict = {}
    for cid, v in zip(report.coalition_column, report._value_list()):
        if cid is not None:
            groups[cid] = groups.get(cid, zero) + v
    return [(cid, groups[cid]) for cid in sorted(groups, key=str)]


def assemble_report(
    method: str,
    mode: str,
    dataset,
    values: Union[np.ndarray, Sequence[Money]],
    query_count: int,
    wall_time: float,
    k: Optional[int] = None,
    per_query: Optional[List[Mapping[int, Money]]] = None,
    coalition_column: Optional[Sequence[Optional[Hashable]]] = None,
    extras: Optional[Mapping[str, object]] = None,
) -> ValueReport:
    """Build a report from per-example totals given in dataset order.

    ``coalition_column``, also in dataset order, replaces the examples' own
    coalition ids.
    """
    check_mode(mode)
    column = list(values) if mode == EXACT else np.asarray(values, dtype=float)
    if coalition_column is None:
        coalition_column = dataset.coalition_column()
    else:
        coalition_column = list(coalition_column)
    if len(column) != len(dataset) or len(coalition_column) != len(dataset):
        raise InputError(
            f"{len(column)} values and {len(coalition_column)} coalition ids "
            f"given for {len(dataset)} examples"
        )
    report = ValueReport(
        method=method,
        numeric_mode=mode,
        query_count=query_count,
        wall_time=wall_time,
        ids=dataset.id_array(),
        value_column=column,
        coalition_column=coalition_column,
        k=k,
        per_query=per_query,
        extras=extras,
    )
    report.coalitions = _coalition_totals(report)
    return report


_NON_FINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _value_text(values: Sequence[Money], mode: str) -> Tuple[List[str], List[str]]:
    """Values as CSV cells and as JSON literals.  Exact mode: "p/q", quoted
    in JSON.  Float mode: the float repr in both, except that JSON spells
    nan and the infinities as the json module does (NaN, Infinity)."""
    if mode == EXACT:
        # rows often share one value object: encode each once, keyed by
        # identity, since hashing a Fraction computes a modular inverse
        memo: dict = {}
        text = [memo.get(id(v)) or memo.setdefault(id(v), str(Fraction(v))) for v in values]
        return text, [f'"{s}"' for s in text]
    floats = list(map(float, values))
    text = list(map(repr, floats))
    if all(map(math.isfinite, floats)):
        return text, text
    return text, [_NON_FINITE_JSON.get(s, s) for s in text]


def _text_columns(report: ValueReport) -> Tuple[List[str], List[str], List[str]]:
    """Ids, CSV values and JSON values as text, built once per report and
    shared by the JSON and CSV writers (reports are not edited in place
    once assembled)."""
    cached = report._text
    if cached is None or cached[0] is not report.ids or cached[1] is not report.value_column:
        ids = list(map(str, report.ids.tolist()))
        cached = (report.ids, report.value_column, ids,
                  *_value_text(report._value_list(), report.numeric_mode))
        report._text = cached
    return cached[2:]


def _nested(value, depth: int) -> str:
    """A JSON value laid out as json.dumps(indent=2) lays it out when it
    sits ``depth`` levels deep in a document."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _csv_cell(value) -> str:
    """One cell as csv.writer writes it between other cells (quoted when
    it holds a comma, a quote or a line break)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _cells(column: Sequence[Optional[Hashable]], encode) -> List[str]:
    """Encode each distinct entry of a column once."""
    text = {c: encode(c) for c in set(column)}
    return [text[c] for c in column]


def _json_list(items: List[str], depth: int) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + "  " * depth + "]"


def report_to_json(report: ValueReport) -> str:
    """The report as JSON text in the json module's indent=2 layout,
    written from text columns rather than one dict per example."""
    mode = report.numeric_mode
    meta = {
        "method": report.method,
        "numeric_mode": mode,
        "k": report.k,
        "query_count": report.query_count,
        "wall_time_s": report.wall_time,
    }
    if report.extras:
        for key in sorted(report.extras):
            meta[key] = report.extras[key]
    ids, _, values = _text_columns(report)
    cells = _cells(report.coalition_column, lambda c: _nested(c, 3))
    examples = [
        f'    {{\n      "id": {i},\n      "coalition": {c},\n      "value": {v}\n    }}'
        for i, c, v in zip(ids, cells, values)
    ]
    _, totals = _value_text([v for _, v in report.coalitions], mode)
    coalitions = [
        f'    {{\n      "id": {_nested(cid, 3)},\n      "value": {v}\n    }}'
        for (cid, _), v in zip(report.coalitions, totals)
    ]
    if report.per_query is None:
        per_query = "null"
    else:
        id_list = report.ids.tolist()
        queries = []
        for qi, q in enumerate(report.per_query):
            _, q_values = _value_text([q[i] for i in id_list], mode)
            rows = [
                f'        {{\n          "id": {i},\n          "value": {v}\n        }}'
                for i, v in zip(ids, q_values)
            ]
            queries.append(
                f'    {{\n      "query_index": {qi},\n      "values": {_json_list(rows, 3)}\n    }}'
            )
        per_query = _json_list(queries, 1)
    return (
        '{\n  "meta": ' + _nested(meta, 1)
        + ',\n  "examples": ' + _json_list(examples, 1)
        + ',\n  "coalitions": ' + _json_list(coalitions, 1)
        + ',\n  "per_query": ' + per_query
        + "\n}\n"
    )


def write_report(report: ValueReport, path) -> None:
    _verify_coalition_sums(report)
    with open(path, "w") as fh:
        fh.write(report_to_json(report))


def _verify_coalition_sums(report: ValueReport) -> None:
    if _coalition_totals(report) != list(report.coalitions):
        raise InputError("report coalition totals do not equal member sums")


def _decode_value(v, mode: str) -> Money:
    return Fraction(v) if mode == EXACT else float(v)


def read_report(path) -> ValueReport:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        meta = doc["meta"]
        mode = check_mode(meta["numeric_mode"])
        ids = [r["id"] for r in doc["examples"]]
        if any(type(i) is not int or not 0 <= i < 2**63 for i in ids):
            raise ValueError("example ids must be integers in 0 .. 2**63 - 1")
        values = [_decode_value(r["value"], mode) for r in doc["examples"]]
        coalitions = [(c["id"], _decode_value(c["value"], mode)) for c in doc["coalitions"]]
        per_query = None
        if doc.get("per_query") is not None:
            per_query = [
                {r["id"]: _decode_value(r["value"], mode) for r in q["values"]}
                for q in doc["per_query"]
            ]
        known = {"method", "numeric_mode", "k", "query_count", "wall_time_s"}
        extras = {k: v for k, v in meta.items() if k not in known} or None
        report = ValueReport(
            method=meta["method"],
            numeric_mode=mode,
            query_count=meta["query_count"],
            wall_time=meta["wall_time_s"],
            ids=np.asarray(ids, dtype=np.int64),
            value_column=values if mode == EXACT else np.asarray(values, dtype=float),
            coalition_column=[r.get("coalition") for r in doc["examples"]],
            coalitions=coalitions,
            k=meta.get("k"),
            per_query=per_query,
            extras=extras,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed report file: {exc}") from exc
    if len(ids) != len(set(ids)):
        raise InputError("report lists an example id more than once")
    _verify_coalition_sums(report)
    return report


def export_csv(report: ValueReport, path) -> None:
    """Examples table as CSV: id, coalition, value, quoted as csv.writer
    quotes and with its CRLF line ends."""
    ids, values, _ = _text_columns(report)
    cells = _cells(report.coalition_column, lambda c: "" if c is None else _csv_cell(c))
    with open(path, "w", newline="") as fh:
        fh.write("id,coalition,value\r\n")
        fh.write("".join([f"{i},{c},{v}\r\n" for i, c, v in zip(ids, cells, values)]))
