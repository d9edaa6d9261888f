"""Payout report structure plus JSON/CSV serialization.

Reports are deterministic: fixed key order, example rows in dataset order,
coalition rows sorted by id.  Exact-mode values travel as fraction strings
("3/2"), float-mode values as JSON numbers, so a report round-trips
bit-for-bit in either mode.  The wall-time field is the one thing two
otherwise identical runs are allowed to disagree on.  One writer serves the
JSON and CSV forms: it walks the rows in blocks, encodes ids and values
once for both (a value shared by code once per report, ids once for every
per-query block too), and holds no whole document.

Every report sums its queries in one loop, ``sum_queries``, the only code
that holds totals, per-query columns and a timer.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .combinatorics import EXACT, Money, check_mode
from .errors import InputError
from .model import code_cells, code_names, to_money


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
    mode and an object array of ``Fraction``s in exact mode;
    ``coalition_codes`` gives each example's index in ``coalition_names``
    (sorted by ``str``), or -1 for none.  ``per_query``, when asked for,
    holds one column per query, laid out like ``value_column``.  A held
    float-mode report thus keeps no Python object per example: n of them
    would be rescanned by every full pass of the cyclic garbage collector,
    which makes large runs slower than linear in n.  Coalition totals, row
    views (``examples``) and the id index behind ``value_of`` are derived
    from the columns on demand, so they follow any edit to them.  Rows with
    one ``value_codes`` code, if given, hold one value in every column, which
    the writer encodes once while every row of the column still holds it.
    """

    method: str
    numeric_mode: str
    query_count: int
    wall_time: float
    ids: np.ndarray
    value_column: np.ndarray
    coalition_names: tuple
    coalition_codes: np.ndarray
    k: Optional[int] = None
    per_query: Optional[List[np.ndarray]] = None
    extras: Optional[Mapping[str, object]] = None
    value_codes: Optional[np.ndarray] = None
    _row_of: Optional[dict] = field(default=None, init=False, repr=False)

    @property
    def coalitions(self) -> List[Tuple[Hashable, Money]]:
        """Each coalition's id and its members' sum, summed on each read."""
        return _coalition_totals(self)

    @property
    def examples(self) -> List[ExampleRow]:
        """Row views in dataset order, built on each access."""
        cids = code_names(self.coalition_names, self.coalition_codes)
        rows = zip(self.ids.tolist(), self.value_column.tolist(), cids)
        return [ExampleRow(*row) for row in rows]

    def value_of(self, example_id: int) -> Money:
        if self._row_of is None:
            self._row_of = {i: r for r, i in enumerate(self.ids.tolist())}
        row = self._row_of.get(example_id)
        if row is None:
            raise InputError(f"no example {example_id} in this report")
        v = self.value_column[row]
        return v if self.numeric_mode == EXACT else float(v)

    def values(self) -> dict:
        return dict(zip(self.ids.tolist(), self.value_column.tolist()))

    def __eq__(self, other):
        """Field-by-field equality, comparing the columns by their values."""
        if not isinstance(other, ValueReport):
            return NotImplemented
        return self._fields() == other._fields()

    def _fields(self) -> tuple:
        per_query = self.per_query and [c.tolist() for c in self.per_query]
        return (
            self.method, self.numeric_mode, self.query_count, self.wall_time,
            self.ids.tolist(), self.value_column.tolist(), self.coalition_names,
            self.coalition_codes.tolist(), self.k, per_query, self.extras,
        )


def _column(values: Union[np.ndarray, Sequence[Money]], mode: str, codes=None) -> np.ndarray:
    """Money in dataset order as a report holds it: an object array of
    ``Fraction``s in exact mode, a float64 array in float mode; with
    ``codes``, ``values`` holds one entry per code and each row reads its own."""
    column = np.asarray(values, dtype=object if mode == EXACT else float)
    return column if codes is None else column[codes]


def zeros(shape, mode: str) -> np.ndarray:
    """Zeros laid out as a report's columns are: float64 in float mode, an
    object array of ``Fraction(0)`` in exact mode."""
    return np.full(shape, to_money(0, mode), object if mode == EXACT else float)


def sum_queries(queries: Iterable, slots: int, mode: str, per_query: bool, values_of: Callable):
    """Sum each query's values into ``slots`` totals (one per example, or
    per group a report reads by code); ``values_of(query)`` gives the slots
    it reaches (indices or a slice) and its values there.  ``np.add.at``
    adds them one at a time in query order, so a float total keeps its bits
    and is its per-query column summed in query order.  Returns the queries
    read once into a list, the totals, the columns (None unless
    ``per_query``; 0 where a query reaches no slot) and the seconds taken."""
    queries = list(queries)  # read once: an iterator gives what a list gives
    t0 = time.perf_counter()
    totals = zeros(slots, mode)
    columns = [] if per_query else None
    for query in queries:
        where, values = values_of(query)
        np.add.at(totals, where, values)
        if per_query:
            columns.append(zeros(slots, mode))
            columns[-1][where] = values
    return queries, totals, columns, time.perf_counter() - t0


def _coalition_totals(report: ValueReport) -> List[Tuple[Hashable, Money]]:
    """Coalition totals as sums of member values.  ``np.add.at`` adds the
    rows one at a time in row order, so a float total is reproducible bit
    for bit."""
    codes, column = report.coalition_codes, report.value_column
    held = codes >= 0
    sums = np.zeros(len(report.coalition_names), column.dtype)
    np.add.at(sums, codes[held], column[held])
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
    value_codes: Optional[np.ndarray] = None,
) -> ValueReport:
    """Build a report from per-example totals, and optionally each query's
    values, given in dataset order; it carries the dataset's coalition
    codes.  With ``value_codes``, each example's code, values come one per code."""
    check_mode(mode)
    column = _column(values, mode, value_codes)
    if per_query is not None:
        per_query = [_column(c, mode, value_codes) for c in per_query]
    for given in [column, *(per_query or ())]:
        if len(given) != len(dataset):
            raise InputError(f"{len(given)} values given for {len(dataset)} examples")
    names, codes = dataset.coalition_codes()
    return ValueReport(
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
        value_codes=value_codes,
    )


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


def _value_text(values: np.ndarray, mode: str) -> Tuple[List[str], List[str]]:
    """Values as CSV cells and as JSON literals.  Exact mode: "p/q", quoted
    in JSON.  Float mode: the float repr in both, except that JSON spells
    nan and the infinities as the json module does (NaN, Infinity)."""
    if mode == EXACT:
        with _long_ints():
            text = [str(Fraction(v)) for v in values]
        return text, [f'"{s}"' for s in text]
    text = list(map(repr, values.tolist()))
    if np.isfinite(values).all():
        return text, text
    return text, [_NON_FINITE_JSON.get(s, s) for s in text]


# Rows are encoded and written in blocks of this many; a block's text is
# dropped before the next one is built, so the writer's memory does not grow
# with the report, except that per-query blocks keep the id text (larger
# blocks run no faster)
_BLOCK = 1024


def _text_blocks(column, mode: str, codes=None):
    """Each block of rows as (its first row, values as CSV cells, values as
    JSON literals); with ``codes``, each code's value is
    encoded once, from the last row holding it, and gathered by code, if
    every row still holds its code's value: an equal one in exact mode,
    which gives the same text (list equality tries identity first), the
    same bits in float mode.  Otherwise a row was edited: rows are encoded
    one by one."""
    if codes is not None:
        rows = np.zeros(int(codes.max(initial=-1)) + 1, np.intp)
        rows[codes] = np.arange(len(codes))
        held = column[rows][codes]
        if (column.tolist() == held.tolist() if mode == EXACT
                else (column.view(np.int64) == held.view(np.int64)).all()):
            table = [np.array(text, object) for text in _value_text(column[rows], mode)]
        else:
            codes = None
    for start in range(0, len(column), _BLOCK):
        stop = start + _BLOCK
        yield (start, *(_value_text(column[start:stop], mode) if codes is None
                        else [text[codes[start:stop]].tolist() for text in table]))


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


def _write_list(out, blocks, depth: int) -> None:
    """Write JSON items, given block by block as lists of texts, as one
    list laid out as json.dumps(indent=2) lays it out ``depth`` levels deep."""
    head = "[\n"
    for items in filter(None, blocks):
        out.write(head + ",\n".join(items))
        head = ",\n"
    out.write("[]" if head == "[\n" else "\n" + "  " * depth + "]")


def _write(report: ValueReport, out, csv_out=None) -> None:
    """Write the report as JSON in the json module's indent=2 layout to the
    text stream ``out`` and its examples table as CSV to ``csv_out``, either
    of which may be None, in one pass over blocks of rows."""
    mode, codes, names = report.numeric_mode, report.coalition_codes, report.coalition_names
    # each coalition's cell is encoded once and gathered by code
    json_cells = np.array([*(_nested(c, 3) for c in names), "null"], object)
    csv_cells = np.array([*map(_csv_cell, names), ""], object)
    id_text = [] if out is not None and report.per_query else None  # per block, for each query

    def examples():
        for start, csv_values, json_values in _text_blocks(report.value_column, mode,
                                                           report.value_codes):
            ids = list(map(str, report.ids[start:start + _BLOCK].tolist()))
            if id_text is not None:
                id_text.append(ids)
            block = codes[start:start + len(ids)]
            if csv_out is not None:
                csv_out.write("".join([f"{i},{c},{v}\r\n" for i, c, v in
                                       zip(ids, csv_cells[block].tolist(), csv_values)]))
            if out is not None:
                yield [f'    {{\n      "id": {i},\n      "coalition": {c},\n'
                       f'      "value": {v}\n    }}'
                       for i, c, v in zip(ids, json_cells[block].tolist(), json_values)]

    if csv_out is not None:
        csv_out.write("id,coalition,value\r\n")
    if out is None:
        for _ in examples():  # writes the CSV rows
            pass
        return
    meta = {"method": report.method, "numeric_mode": mode, "k": report.k,
            "query_count": report.query_count, "wall_time_s": report.wall_time,
            **{key: report.extras[key] for key in sorted(report.extras or ())}}
    out.write('{\n  "meta": ' + _nested(meta, 1) + ',\n  "examples": ')
    _write_list(out, examples(), 1)
    coalitions = report.coalitions  # summed on each read, so read once
    _, totals = _value_text(_column([v for _, v in coalitions], mode), mode)
    out.write(',\n  "coalitions": ')
    _write_list(out, [[f'    {{\n      "id": {_nested(cid, 3)},\n      "value": {v}\n    }}'
                       for (cid, _), v in zip(coalitions, totals)]], 1)
    queries = report.per_query  # a list written item by item, each in blocks
    out.write(',\n  "per_query": ' + ("null" if queries is None else "[" if queries else "[]"))
    for qi, column in enumerate(queries or ()):
        out.write(("\n" if qi == 0 else ",\n")
                  + f'    {{\n      "query_index": {qi},\n      "values": ')
        _write_list(out, ([f'        {{\n          "id": {i},\n          "value": {v}\n        }}'
                           for i, v in zip(ids, json_values)]
                          for ids, (*_, json_values) in zip(id_text, _text_blocks(
                              column, mode, report.value_codes))), 3)
        out.write("\n    }")
    out.write("\n  ]\n}\n" if queries else "\n}\n")


def _staged(target, staged: list, newline=None):
    """A context giving ``target`` as a text stream.  A path to a regular
    file (links followed), or to none yet, is opened under a temporary name
    beside that file, with its permission bits, and (temporary name, file)
    is appended to ``staged`` for the caller to rename; anything else (a
    pipe, a device, ``/dev/fd/N``) is opened as it is."""
    if target is None or hasattr(target, "write"):
        return nullcontext(target)
    if os.path.exists(target) and not os.path.isfile(target):
        return open(target, "w", newline=newline)
    path = os.path.realpath(target)
    temp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(temp, "x", newline=newline)
    staged.append((temp, path))
    if os.path.exists(path):
        os.chmod(fh.fileno(), os.stat(path).st_mode)  # chmod keeps the permission bits
    return fh


def report_to_json(report: ValueReport) -> str:
    """The report as JSON text in the json module's indent=2 layout."""
    buf = io.StringIO()
    _write(report, buf)
    return buf.getvalue()


def write_report(report: ValueReport, out, csv=None) -> None:
    """Write the report as JSON to ``out`` and, if ``csv`` is given, its
    examples table as CSV there (as ``export_csv`` writes it), in one pass
    over the rows.  Each is a path or a text stream; a CSV stream should
    not translate line ends.  Files are written under temporary names and
    renamed into place once every output is complete, so a failed write
    leaves no partial report (other hard links to a replaced file keep the
    old one)."""
    staged: list = []
    try:
        with _staged(out, staged) as json_fh, _staged(csv, staged, newline="") as csv_fh:
            _write(report, json_fh, csv_fh)
        while staged:
            os.replace(*staged[-1])
            staged.pop()
    except OSError as exc:
        raise InputError(f"cannot write the report: {exc}") from exc
    finally:
        for temp, _ in staged:
            with suppress(OSError):
                os.remove(temp)


def read_report(path) -> ValueReport:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        meta = doc["meta"]
        mode = check_mode(meta["numeric_mode"])
        ids = [r["id"] for r in doc["examples"]]
        if any(type(i) is not int or not 0 <= i < 2**63 for i in ids):
            raise ValueError("example ids must be integers in 0 .. 2**63 - 1")
        if len(ids) != len(set(ids)):
            raise InputError("report lists an example id more than once")
        with _long_ints():
            values = [to_money(r["value"], mode) for r in doc["examples"]]
            coalitions = [(c["id"], to_money(c["value"], mode)) for c in doc["coalitions"]]
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
                        column[r] = to_money(entry["value"], mode)
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
            k=meta.get("k"),
            per_query=per_query,
            extras=extras,
        )
    except (OSError, UnicodeDecodeError) as exc:  # the latter before ValueError, its base
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed report file {path}: {exc}") from exc
    if report.coalitions != coalitions:
        raise InputError("report coalition totals do not equal member sums")
    return report


def export_csv(report: ValueReport, path) -> None:
    """Examples table as CSV: id, coalition, value, quoted as csv.writer
    quotes and with its CRLF line ends; ``path`` may be a text stream."""
    write_report(report, None, csv=path)
