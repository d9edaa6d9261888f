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
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .combinatorics import EXACT, Money, check_mode
from .errors import InputError
from .model import code_cells, code_names


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
    mode and a list of ``Fraction``s in exact mode; ``coalition_codes``
    gives each example's index in ``coalition_names`` (sorted by ``str``),
    or -1 for none.  ``per_query``, when asked for, holds one column per
    query, laid out like ``value_column``.  A held float-mode report thus
    keeps no Python object per example: n of them would be rescanned by
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
    coalition_names: tuple
    coalition_codes: np.ndarray
    coalitions: List[Tuple[Hashable, Money]] = field(default_factory=list)
    k: Optional[int] = None
    per_query: Optional[List[Union[np.ndarray, List[Fraction]]]] = None
    extras: Optional[Mapping[str, object]] = None
    _row_of: Optional[dict] = field(default=None, init=False, repr=False)
    _text: Optional[tuple] = field(default=None, init=False, repr=False)

    def _value_list(self) -> list:
        """Values in dataset order as Python numbers."""
        return _numbers(self.value_column, self.numeric_mode)

    @property
    def examples(self) -> List[ExampleRow]:
        """Row views in dataset order, built on each access."""
        cids = code_names(self.coalition_names, self.coalition_codes)
        return [ExampleRow(*row) for row in zip(self.ids.tolist(), self._value_list(), cids)]

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
        per_query = self.per_query and [_numbers(c, self.numeric_mode) for c in self.per_query]
        return (
            self.method, self.numeric_mode, self.query_count, self.wall_time,
            self.ids.tolist(), self._value_list(), self.coalition_names,
            self.coalition_codes.tolist(), self.coalitions, self.k, per_query, self.extras,
        )


def _column(values: Union[np.ndarray, Sequence[Money]], mode: str):
    """Money in dataset order as a report holds it: a list of ``Fraction``s
    in exact mode, a float64 array in float mode."""
    return list(values) if mode == EXACT else np.asarray(values, dtype=float)


def _numbers(column, mode: str) -> list:
    """A report column as a list of Python numbers."""
    return column if mode == EXACT else column.tolist()


def _coalition_totals(report: ValueReport) -> List[Tuple[Hashable, Money]]:
    """Coalition totals as sums of member values.  ``np.add.at`` adds the
    rows one at a time in row order, so a float total is reproducible bit
    for bit."""
    codes, exact = report.coalition_codes, report.numeric_mode == EXACT
    held = codes >= 0
    sums = np.full(len(report.coalition_names), Fraction(0) if exact else 0.0,
                   object if exact else float)
    np.add.at(sums, codes[held], np.asarray(report.value_column, dtype=sums.dtype)[held])
    return list(zip(report.coalition_names, sums.tolist()))


def assemble_report(
    method: str,
    mode: str,
    dataset,
    values: Union[np.ndarray, Sequence[Money]],
    query_count: int,
    wall_time: float,
    k: Optional[int] = None,
    per_query: Optional[Sequence[Union[np.ndarray, Sequence[Money]]]] = None,
    extras: Optional[Mapping[str, object]] = None,
) -> ValueReport:
    """Build a report from per-example totals, and optionally each query's
    values, given in dataset order; it carries the dataset's coalition
    codes."""
    check_mode(mode)
    column = _column(values, mode)
    if per_query is not None:
        per_query = [_column(c, mode) for c in per_query]
    for given in [column, *(per_query or ())]:
        if len(given) != len(dataset):
            raise InputError(f"{len(given)} values given for {len(dataset)} examples")
    names, codes = dataset.coalition_codes()
    report = ValueReport(
        method=method,
        numeric_mode=mode,
        query_count=query_count,
        wall_time=wall_time,
        ids=dataset.id_array(),
        value_column=column,
        coalition_names=names,
        coalition_codes=codes,
        k=k,
        per_query=per_query,
        extras=extras,
    )
    report.coalitions = _coalition_totals(report)
    return report


_NON_FINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# An exact value's denominator over n examples divides lcm(1..n + 1), about
# 0.43 n digits, times the value function's and a coalition factorial's;
# text at this cap parses in under a second, and longer text is refused
_VALUE_DIGITS = 300_000


@contextmanager
def _long_ints():
    """Raise, for the block alone, the interpreter's cap on converting ints
    to and from decimal text (4,300 digits by default) to _VALUE_DIGITS."""
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap == 0 or cap >= _VALUE_DIGITS:  # no cap, or a high enough one
        yield
        return
    sys.set_int_max_str_digits(_VALUE_DIGITS)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _value_text(values: Sequence[Money], mode: str) -> Tuple[List[str], List[str]]:
    """Values as CSV cells and as JSON literals.  Exact mode: "p/q", quoted
    in JSON.  Float mode: the float repr in both, except that JSON spells
    nan and the infinities as the json module does (NaN, Infinity)."""
    if mode == EXACT:
        # rows often share one value object: encode each once, keyed by
        # identity, since hashing a Fraction computes a modular inverse
        memo: dict = {}
        with _long_ints():
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
    # each coalition's cell is encoded once and gathered by code
    cells = code_names([_nested(c, 3) for c in report.coalition_names], report.coalition_codes,
                       "null")
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
        queries = []
        for qi, column in enumerate(report.per_query):
            _, q_values = _value_text(_numbers(column, mode), mode)
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
        if len(ids) != len(set(ids)):
            raise InputError("report lists an example id more than once")
        with _long_ints():
            values = [_decode_value(r["value"], mode) for r in doc["examples"]]
            coalitions = [(c["id"], _decode_value(c["value"], mode)) for c in doc["coalitions"]]
            per_query = None
            if doc.get("per_query") is not None:
                row_of, per_query = {i: r for r, i in enumerate(ids)}, []
                for qi, q in enumerate(doc["per_query"]):
                    block_ids = [r["id"] for r in q["values"]]  # true is not id 1, nor is 1.0
                    rows = [row_of.get(i, -1) if type(i) is int else -1 for i in block_ids]
                    if sorted(rows) != list(range(len(ids))):
                        raise ValueError(f"per-query block {qi} does not list each example id once")
                    column = [None] * len(ids)
                    for r, entry in zip(rows, q["values"]):
                        column[r] = _decode_value(entry["value"], mode)
                    per_query.append(_column(column, mode))
        known = {"method", "numeric_mode", "k", "query_count", "wall_time_s"}
        extras = {k: v for k, v in meta.items() if k not in known} or None
        names, codes = code_cells([r.get("coalition") for r in doc["examples"]])
        report = ValueReport(
            method=meta["method"],
            numeric_mode=mode,
            query_count=meta["query_count"],
            wall_time=meta["wall_time_s"],
            ids=np.asarray(ids, dtype=np.int64),
            value_column=_column(values, mode),
            coalition_names=names,
            coalition_codes=codes,
            coalitions=coalitions,
            k=meta.get("k"),
            per_query=per_query,
            extras=extras,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed report file: {exc}") from exc
    _verify_coalition_sums(report)
    return report


def export_csv(report: ValueReport, path) -> None:
    """Examples table as CSV: id, coalition, value, quoted as csv.writer
    quotes and with its CRLF line ends."""
    ids, values, _ = _text_columns(report)
    cells = code_names(list(map(_csv_cell, report.coalition_names)), report.coalition_codes, "")
    with open(path, "w", newline="") as fh:
        fh.write("id,coalition,value\r\n")
        fh.write("".join([f"{i},{c},{v}\r\n" for i, c, v in zip(ids, cells, values)]))
