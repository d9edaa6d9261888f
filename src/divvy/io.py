"""CSV and JSON input parsing for the command-line surface.

Datasets: frequency files carry id,bin,label[,coalition]; k-NN files carry
id,label[,coalition],f0..fd.  Queries: bin,label[,value_function] for
frequency (the optional column holds a path to a per-query value-function
JSON), label,f0..fd for k-NN.  Value functions are JSON documents; numeric
literals in them are parsed as exact decimals.

CSV files are read in blocks of lines, each typed in one call by numpy's C
reader (numpy 2.4 on) where it reads them as csv.reader, int() and float()
would, and by csv.reader and Python otherwise: same values, same messages."""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import re
from fractions import Fraction
from typing import Iterable, List, Mapping, Tuple

import numpy as np

from .combinatorics import is_count
from .errors import InputError
from .model import (
    Dataset,
    FrequencyValueFunction,
    MajorityValueFunction,
    OutcomeValues,
    Query,
    TableValueFunction,
    code_cells,
    code_column,
    code_names,
    duplicate_row,
)

_FEATURE_RE = re.compile(r"^f(\d+)$")


# Rows are read and typed in blocks of this many: each block's cells become
# array and list columns as it arrives and are then dropped, so no column
# of cell strings is ever held and a block's lists die young, before they
# reach the garbage collector's oldest generation.
_BLOCK = 512
# numpy before 2.4 is not checked against csv.reader, int() and float() (1.x
# reads an int64 cell "1.7" as 1, only warning): csv.reader reads every block.
_C_TYPED = np.lib.NumpyVersion(np.__version__) >= "2.4.0"


def _csv_blocks(path, kind=lambda name: object):
    """Yield the header's stripped names, then each block of up to _BLOCK
    data rows as its first row's line and its columns by header name.

    numpy's C reader types a block of lines if it can (see _typed_block),
    each column as ``kind(name)`` says: np.int64, float or object (raw
    cells).  Any other block is read by csv.reader, its columns tuples of
    raw cells for the caller to type; from the first ``"`` on csv.reader
    reads the rest of the file, since a quoted cell may span lines.

    Blank lines are skipped; a row whose cell count differs from the
    header's is refused with its line.  Line numbers in messages count the
    header as line 1 and each data row after it.  A repeated header name
    keeps its last column, as a dict of rows would.
    """
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InputError(f"{path}: empty file, expected a CSV header")
            fields = [f.strip() for f in header]
            yield fields
            dtype = np.dtype([(str(i), kind(f)) for i, f in enumerate(fields)])
            line = 2
            for lines in iter(lambda: list(itertools.islice(fh, _BLOCK)), []):
                text = "".join(lines)
                quoted = '"' in text
                typed = None if quoted else _typed_block(lines, text, dtype)
                if typed is not None:
                    yield line, {f: typed[str(i)].copy() for i, f in enumerate(fields)}
                    line += len(typed)
                    continue
                reader = csv.reader(itertools.chain(lines, fh) if quoted else lines)
                for rows in iter(lambda: list(itertools.islice(reader, _BLOCK)), []):
                    block = [row for row in rows if row]
                    for r, row in enumerate(block):
                        if len(row) != len(fields):
                            raise InputError(f"{path} line {line + r}: {len(row)} cells, "
                                             f"but the header has {len(fields)}")
                    if block:
                        yield line, dict(zip(fields, zip(*block)))
                    line += len(block)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _typed_block(lines: List[str], text: str, dtype: np.dtype):
    """``lines`` (joined: ``text``) typed by numpy's C reader, or None if
    csv.reader must read them: blank lines only (loadtxt would warn), text
    it reads otherwise than int() and float() do (\x1c-\x1f as spaces, some
    non-ASCII letters as digits), a line past csv.reader's cell limit (which
    it refuses), a cell the C reader refuses, or a value out of range."""
    limit = csv.field_size_limit()
    if (not _C_TYPED or not text.isascii() or any(map(text.__contains__, "\x1c\x1d\x1e\x1f"))
            or not text.strip("\r\n") or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        block = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    for name, (kind, _) in dtype.fields.items():
        if (kind == np.int64 and (block[name] < 0).any()
                or kind == float and not np.isfinite(block[name]).all()):
            return None
    return block


def _raise_after(blocks, fault: InputError):
    """Raise ``fault`` once the rest of the file is read: a row with the
    wrong cell count anywhere in it is reported first."""
    for _ in blocks:
        pass
    raise fault


def _feature_columns(fields: Iterable[str], path) -> List[str]:
    found = {}
    for f in fields:
        m = _FEATURE_RE.match(f)
        if m:
            found[int(m.group(1))] = f
    if not found:
        raise InputError(f"{path}: no feature columns (f0, f1, ...) found")
    dims = sorted(found)
    if dims != list(range(len(dims))):
        raise InputError(f"{path}: feature columns must be contiguous f0..f{len(dims) - 1}")
    return [found[d] for d in dims]


def _parse_id(raw, path, line) -> int:
    try:
        v = int(raw)
    except (TypeError, ValueError):
        raise InputError(f"{path} line {line}: id {raw!r} is not an integer") from None
    if not 0 <= v < 2**63:
        raise InputError(f"{path} line {line}: id must be non-negative and below 2**63, got {v}")
    return v


def _parse_feature(raw, path, line, col) -> float:
    if not raw.strip():
        raise InputError(f"{path} line {line}: missing value in feature column {col}")
    try:
        v = float(raw)
    except ValueError:
        raise InputError(f"{path} line {line}: {col}={raw!r} is not numeric") from None
    if not math.isfinite(v):
        raise InputError(f"{path} line {line}: {col}={raw!r} is not finite")
    return v


def _id_block(cells) -> np.ndarray:
    """A block's ids as int64 (as given if the block reader typed them);
    ValueError or OverflowError if any is not an integer in 0 .. 2**63 - 1."""
    if isinstance(cells, np.ndarray):
        return cells
    ids = np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    if ids.min() < 0:
        raise ValueError("id out of range")
    return ids


class _Codes(dict):
    """Raw cell -> code, across a file's blocks: a raw cell not seen before
    is stripped and numbered in order of first appearance of the stripped
    cells (``names`` maps each to its code), or coded -1 if empty."""

    def __init__(self):
        super().__init__()
        self.names = {}

    def __missing__(self, raw):
        name = raw.strip()
        self[raw] = code = self.names.setdefault(name, len(self.names)) if name else -1
        return code

    def block(self, cells, allow_empty=False) -> np.ndarray:
        """A block's cells as codes, in one pass; ValueError on an empty one unless allowed."""
        codes = np.fromiter(map(self.__getitem__, cells), np.intp, count=len(cells))
        if not allow_empty and codes.min(initial=0) < 0:
            raise ValueError("empty cell")
        return codes


def _float_block(columns: List[tuple]) -> np.ndarray:
    """Feature columns, typed or raw cells, as a rows x d float block in
    column-major order; ValueError if a cell is not a number or not finite."""
    block = np.empty((len(columns[0]), len(columns)), order="F")
    for j, cells in enumerate(columns):
        block[:, j] = cells if isinstance(cells, np.ndarray) else np.fromiter(
            map(float, cells), dtype=float, count=len(cells))
    if not np.isfinite(block).all():
        raise ValueError("non-finite feature")
    return block


def _row_fault(path, columns, line, empty: dict, feature_cols=(), seen=None) -> InputError:
    """The first faulty row of a block starting at ``line``, checking each
    row's id, then that no ``empty`` cell (column: its name in messages) is
    empty, then that its id is not in ``seen`` (if given), then its
    features.  Run once the block's typing has failed, to name the line;
    cells the block reader typed are valid, so they pass as text.  Ids and
    features are read raw, by int() and float() as the typing reads them:
    str.strip() would also drop \x1c-\x1f, which those refuse."""
    try:
        for r, raw_id in enumerate(columns["id"]):
            ex_id = _parse_id(str(raw_id), path, line + r)
            for col, what in empty.items():
                if not columns[col][r].strip():
                    raise InputError(f"{path} line {line + r}: empty {what}")
            if seen is not None:
                if ex_id in seen:
                    raise InputError(f"{path} line {line + r}: duplicate id {ex_id}")
                seen.add(ex_id)
            for c in feature_cols:
                _parse_feature(str(columns[c][r]), path, line + r, c)
    except InputError as exc:
        return exc
    return InputError(f"{path}: malformed rows")


def _refuse_repeats(path, ids: np.ndarray, what: str) -> None:
    dup = duplicate_row(ids)
    if dup is not None:
        raise InputError(f"{path} line {dup + 2}: {what} {ids[dup]}")


def parse_dataset(path, family: str) -> Dataset:
    """Read an in-sample dataset CSV for the given model family
    ("frequency" or "knn"), typing it block by block.  Faults are reported
    in this precedence, wherever they sit: a row whose cell count differs
    from the header's, a header fault, the first faulty row (its cells
    checked in the order id, label, bin, features), a repeated id, a third
    label."""
    blocks = _csv_blocks(path, lambda name: np.int64 if name == "id" else
                         float if family == "knn" and _FEATURE_RE.match(name) else object)
    fields = next(blocks)
    ids, codes, features = [np.empty(0, np.int64)], [np.empty(0, np.int8)], []
    bins, coalitions = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    label_of, bin_of, coalition_of = _Codes(), _Codes(), _Codes()
    try:
        if family not in ("frequency", "knn"):
            raise InputError(f"unknown model family {family!r}")
        empty = {"label": "label", "bin": "bin"} if family == "frequency" else {"label": "label"}
        for col in ["id", *empty]:
            if col not in fields:
                raise InputError(f"{path}: missing required column {col!r}")
        feature_cols = _feature_columns(fields, path) if family == "knn" else []
        features.append(np.empty((0, len(feature_cols))))
        for line, columns in blocks:
            try:
                ids.append(_id_block(columns["id"]))
                labels = label_of.block(columns["label"])  # a third is refused below, at code 2
                codes.append(labels.astype(np.int8))  # a code past 127 wraps, after code 2's row
                if family == "frequency":
                    bins.append(bin_of.block(columns["bin"]))
                else:
                    features.append(_float_block([columns[c] for c in feature_cols]))
                coalitions.append(coalition_of.block(columns["coalition"], True) if "coalition"
                                  in columns else np.full(len(labels), -1, np.intp))
            except (ValueError, OverflowError):
                raise _row_fault(path, columns, line, empty, feature_cols) from None
    except InputError as exc:
        _raise_after(blocks, exc)
    ids = np.concatenate(ids)
    _refuse_repeats(path, ids, "duplicate example id")
    codes, symbols = np.concatenate(codes), tuple(label_of.names)
    if len(symbols) > 2:  # data row r sits on line r + 2
        raise InputError(f"{path} line {np.argmax(codes == 2) + 2}: labels must be binary; "
                         f"found a third symbol {symbols[2]!r}")
    names, rank = code_cells(tuple(coalition_of.names))  # sorted by str, as code_cells sorts
    return Dataset._from_columns(
        ids, symbols, codes, (bin_of.names, np.concatenate(bins)) if family == "frequency" else None,
        (names, np.append(rank, -1)[np.concatenate(coalitions)]),
        np.concatenate(features, out=np.empty((len(ids), len(feature_cols)), order="F"))
        if family == "knn" else None)


def parse_queries(path, family: str) -> List[Query]:
    """Read a query CSV.  Frequency queries may name a per-query value
    function file in a ``value_function`` column (resolved relative to the
    query file)."""
    blocks = _csv_blocks(path)
    fields = next(blocks)
    raw = set(filter(_FEATURE_RE.match, fields))  # read by float() as written, as in a dataset
    rows = [{f: c if f in raw else c.strip() for f, c in zip(columns, cells)}
            for _, columns in blocks for cells in zip(*columns.values())]
    queries = []
    if family == "frequency":
        for col in ("bin", "label"):
            if col not in fields:
                raise InputError(f"{path}: missing required column {col!r}")
        base = os.path.dirname(os.path.abspath(path))
        load = functools.lru_cache(maxsize=None)(parse_value_function)  # each file once
        for lineno, row in enumerate(rows, start=2):
            if not row["bin"] or not row["label"]:
                raise InputError(f"{path} line {lineno}: queries need bin and label")
            vf_path = row.get("value_function")  # joined to base unless absolute
            vf = load(os.path.join(base, vf_path)) if vf_path else None
            queries.append(Query(label=row["label"], bin=row["bin"], value_function=vf))
    elif family == "knn":
        if "label" not in fields:
            raise InputError(f"{path}: missing required column 'label'")
        feature_cols = _feature_columns(fields, path)
        for lineno, row in enumerate(rows, start=2):
            if not row["label"]:
                raise InputError(f"{path} line {lineno}: empty label")
            feats = tuple(_parse_feature(row[c], path, lineno, c) for c in feature_cols)
            queries.append(Query(label=row["label"], features=feats))
    else:
        raise InputError(f"unknown model family {family!r}")
    if not queries:
        raise InputError(f"{path}: no queries")
    return queries


def _as_number(x, where) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InputError(f"{where} must be numeric, got {x!r}")
    return Fraction(x)


def parse_value_function(path) -> FrequencyValueFunction:
    """Read a value-function JSON document.

    Decimal literals are parsed exactly (no float detour), so exact-mode
    runs see precisely the numbers written in the file.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=Fraction)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    family = doc.get("family")
    if family == "majority":
        missing = [k for k in ("correct", "wrong", "none") if k not in doc]
        if missing:
            raise InputError(f"{path}: majority family needs keys {missing}")
        return MajorityValueFunction(
            _as_number(doc["correct"], f"{path}: correct"),
            _as_number(doc["wrong"], f"{path}: wrong"),
            _as_number(doc["none"], f"{path}: none"),
        )
    if family == "table":
        raw = doc.get("entries")
        if not isinstance(raw, list) or not raw:
            raise InputError(f"{path}: table family needs a non-empty 'entries' list")
        entries = {}
        for e in raw:
            a, b = (e.get("a"), e.get("b")) if isinstance(e, dict) else (None, None)
            if not (is_count(a) and is_count(b)):  # JSON integers >= 0: no bool, decimal or text
                raise InputError(f"{path}: each entry needs non-negative integer 'a' and 'b'")
            if (a, b) in entries:
                raise InputError(f"{path}: duplicate entry for ({a}, {b})")
            entries[(a, b)] = _as_number(e.get("value"), f"{path}: value of ({a}, {b})")
        default = doc.get("default")
        if default is not None:
            default = _as_number(default, f"{path}: default")
        return TableValueFunction(entries, default)
    raise InputError(f"{path}: unknown value-function family {family!r}")


def parse_outcome_values(text: str) -> OutcomeValues:
    """Parse the --values flag: three comma-separated numbers
    (correct, wrong, none)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InputError(f"--values needs exactly three numbers, got {text!r}")
    try:
        vc, vw, vn = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--values {text!r} is not numeric") from None
    return OutcomeValues(vc, vw, vn)


def parse_coalition_file(path) -> Tuple[np.ndarray, List[str]]:
    """Read an id,coalition CSV overriding any coalition column: its ids as
    an int64 array and its coalition cells, in file order.  The first
    faulty row is named: a bad id, an empty coalition id or a repeated id,
    checked in that order."""
    blocks = _csv_blocks(path, lambda name: np.int64 if name == "id" else object)
    fields = next(blocks)
    ids, codes, memo = [np.empty(0, np.int64)], [np.empty(0, np.intp)], _Codes()
    try:
        for col in ("id", "coalition"):
            if col not in fields:
                raise InputError(f"{path}: missing required column {col!r}")
        for line, columns in blocks:
            try:
                block = _id_block(columns["id"]), memo.block(columns["coalition"])
            except (ValueError, OverflowError):
                earlier = np.concatenate(ids)  # a repeat among these comes first
                _refuse_repeats(path, earlier, "duplicate id")
                raise _row_fault(path, columns, line, {"coalition": "coalition id"},
                                 seen=set(earlier.tolist())) from None
            ids.append(block[0])
            codes.append(block[1])
    except InputError as exc:
        _raise_after(blocks, exc)
    ids = np.concatenate(ids)
    _refuse_repeats(path, ids, "duplicate id")
    return ids, code_names(tuple(memo.names), np.concatenate(codes))


def with_coalitions(dataset: Dataset, assignment, source="coalition file") -> Dataset:
    """New dataset with coalition ids replaced.  ``assignment`` holds
    distinct example ids and their coalition ids, as ``parse_coalition_file``
    gives them or as a mapping; it must name each example of the dataset
    once and no other id.  Errors name ``source``."""
    if isinstance(assignment, Mapping):
        assignment = list(assignment), list(assignment.values())
    ids, cells = assignment
    if not (isinstance(ids, np.ndarray) and ids.dtype == np.int64):
        for i in ids:  # no bool, float or text is cast to an id
            if not is_count(i, signed=True) or i >= 2**63:
                raise InputError(f"{source} names example id {i!r}, not a 64-bit integer")
        ids = np.asarray(ids, dtype=np.int64)
    own = dataset.id_array()
    missing = own[~np.isin(own, ids)]
    if len(missing):
        raise InputError(f"{source} does not cover example ids {missing[:5].tolist()}")
    unknown = ids[~np.isin(ids, own)]
    if len(unknown):
        raise InputError(f"{source} names unknown example ids {unknown[:5].tolist()}")
    if len(ids) != len(own):
        raise InputError(f"{source} names an example id more than once")
    names, codes = code_column("coalition id", ids, cells)
    order = np.argsort(ids)
    rows = order[np.searchsorted(ids, own, sorter=order)]  # each example's row in the assignment
    return dataset.with_coalition_codes(names, codes[rows])
