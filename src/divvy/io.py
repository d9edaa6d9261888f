"""CSV and JSON input parsing for the command-line surface.

Datasets: frequency files carry id,bin,label[,coalition]; k-NN files carry
id,label[,coalition],f0..fd.  Queries: bin,label[,value_function] for
frequency (the optional column holds a path to a per-query value-function
JSON), label,f0..fd for k-NN.  Value functions are JSON documents; numeric
literals in them are parsed as exact decimals.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
from fractions import Fraction
from typing import Dict, Iterable, List

import numpy as np

from .errors import InputError
from .model import (
    Dataset,
    FrequencyValueFunction,
    MajorityValueFunction,
    OutcomeValues,
    Query,
    TableValueFunction,
    duplicate_row,
    label_codes,
)

_FEATURE_RE = re.compile(r"^f(\d+)$")


# Rows are read in blocks of this many, so each block's row lists die young
# instead of reaching the garbage collector's oldest generation.
_BLOCK = 512


def _read_columns(path) -> tuple:
    """One list of raw cells per column, keyed by the stripped header name,
    and the number of data rows.

    Blank lines are skipped; a row whose cell count differs from the
    header's is refused with its line.  Line numbers in messages count the
    header as line 1 and each data row after it.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file, expected a CSV header")
            fields = [f.strip() for f in header]
            columns = [[] for _ in fields]
            n_rows = 0
            while True:
                block = [row for row in itertools.islice(reader, _BLOCK) if row]
                if not block:
                    break
                for r, row in enumerate(block):
                    if len(row) != len(fields):
                        raise InputError(
                            f"{path} line {n_rows + r + 2}: {len(row)} cells, "
                            f"but the header has {len(fields)}"
                        )
                for column, cells in zip(columns, zip(*block)):
                    column.extend(cells)
                n_rows += len(block)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # a repeated header name keeps its last column, as a dict of rows would
    return dict(zip(fields, columns)), n_rows


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
    if raw == "":
        raise InputError(f"{path} line {line}: missing value in feature column {col}")
    try:
        v = float(raw)
    except ValueError:
        raise InputError(f"{path} line {line}: {col}={raw!r} is not numeric") from None
    if not math.isfinite(v):
        raise InputError(f"{path} line {line}: {col}={raw!r} is not finite")
    return v


def _id_list(cells: List[str]) -> List[int]:
    """All ids as ints; ValueError if any is not an integer in range."""
    ids = list(map(int, cells))
    if ids and not (min(ids) >= 0 and max(ids) < 2**63):
        raise ValueError("id out of range")
    return ids


def _nonempty(cells: List[str]) -> List[str]:
    """Stripped cells; ValueError if any is empty."""
    cells = [c.strip() for c in cells]
    if "" in set(cells):
        raise ValueError("empty cell")
    return cells


def _float_matrix(columns: List[List[str]], n: int) -> np.ndarray:
    """Feature columns as an n x d float matrix; ValueError if a cell is
    not a number or not finite."""
    matrix = np.empty((n, len(columns)))
    for j, cells in enumerate(columns):
        matrix[:, j] = np.fromiter(map(float, cells), dtype=float, count=n)
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite feature")
    return matrix


def _row_fault(path, family, columns, feature_cols, n) -> InputError:
    """The first row-level fault, found by checking each row in turn; run
    only once a whole-column check has failed, to name the file and line."""
    try:
        for r in range(n):
            line = r + 2
            _parse_id(columns["id"][r].strip(), path, line)
            if not columns["label"][r].strip():
                raise InputError(f"{path} line {line}: empty label")
            if family == "frequency" and not columns["bin"][r].strip():
                raise InputError(f"{path} line {line}: empty bin")
            for c in feature_cols:
                _parse_feature(columns[c][r].strip(), path, line, c)
    except InputError as exc:
        return exc
    return InputError(f"{path}: malformed rows")


def parse_dataset(path, family: str) -> Dataset:
    """Read an in-sample dataset CSV for the given model family
    ("frequency" or "knn")."""
    columns, n = _read_columns(path)
    if family == "frequency":
        required = ["id", "bin", "label"]
    elif family == "knn":
        required = ["id", "label"]
    else:
        raise InputError(f"unknown model family {family!r}")
    for col in required:
        if col not in columns:
            raise InputError(f"{path}: missing required column {col!r}")
    feature_cols = _feature_columns(columns, path) if family == "knn" else []
    features = None
    try:
        ids = _id_list(columns["id"])
        labels = _nonempty(columns["label"])
        if family == "frequency":
            bins = _nonempty(columns["bin"])
        else:
            bins = [None] * n
            features = _float_matrix([columns[c] for c in feature_cols], n)
    except ValueError:
        raise _row_fault(path, family, columns, feature_cols, n) from None
    dup = duplicate_row(ids)
    if dup is not None:
        raise InputError(f"{path} line {dup + 2}: duplicate example id {ids[dup]}")
    symbols = tuple(dict.fromkeys(labels))
    if len(symbols) > 2:
        third = symbols[2]
        raise InputError(
            f"{path} line {labels.index(third) + 2}: labels must be binary; "
            f"found a third symbol {third!r}"
        )
    if "coalition" in columns:
        coalitions = [c.strip() or None for c in columns["coalition"]]
    else:
        coalitions = [None] * n
    return Dataset._from_columns(
        np.array(ids, dtype=np.int64),
        symbols,
        label_codes(labels, symbols),
        bins,
        coalitions,
        features,
    )


def parse_queries(path, family: str) -> List[Query]:
    """Read a query CSV.  Frequency queries may name a per-query value
    function file in a ``value_function`` column (resolved relative to the
    query file)."""
    columns, _ = _read_columns(path)
    rows = [dict(zip(columns, map(str.strip, cells))) for cells in zip(*columns.values())]
    queries = []
    if family == "frequency":
        for col in ("bin", "label"):
            if col not in columns:
                raise InputError(f"{path}: missing required column {col!r}")
        base = os.path.dirname(os.path.abspath(path))
        cache: dict = {}
        for lineno, row in enumerate(rows, start=2):
            if not row["bin"] or not row["label"]:
                raise InputError(f"{path} line {lineno}: queries need bin and label")
            vf = None
            vf_path = row.get("value_function") or None
            if vf_path:
                full = vf_path if os.path.isabs(vf_path) else os.path.join(base, vf_path)
                if full not in cache:
                    cache[full] = parse_value_function(full)
                vf = cache[full]
            queries.append(Query(label=row["label"], bin=row["bin"], value_function=vf))
    elif family == "knn":
        if "label" not in columns:
            raise InputError(f"{path}: missing required column 'label'")
        feature_cols = _feature_columns(columns, path)
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
    except OSError as exc:
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
            try:
                a, b = int(e["a"]), int(e["b"])
            except (KeyError, TypeError, ValueError):
                raise InputError(f"{path}: each entry needs integer 'a' and 'b'") from None
            if a < 0 or b < 0:
                raise InputError(f"{path}: entry ({a}, {b}) has negative counts")
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


def parse_coalition_file(path) -> Dict[int, str]:
    """Read an id,coalition CSV overriding any coalition column."""
    columns, n = _read_columns(path)
    for col in ("id", "coalition"):
        if col not in columns:
            raise InputError(f"{path}: missing required column {col!r}")
    try:
        ids = _id_list(columns["id"])
        cids = _nonempty(columns["coalition"])
        dup = duplicate_row(ids)
        if dup is not None:
            raise ValueError("duplicate id")
    except ValueError:
        # name the first faulty row, checked in the order of its cells
        seen = set()
        for r in range(n):
            line = r + 2
            ex_id = _parse_id(columns["id"][r].strip(), path, line)
            if not columns["coalition"][r].strip():
                raise InputError(f"{path} line {line}: empty coalition id") from None
            if ex_id in seen:
                raise InputError(f"{path} line {line}: duplicate id {ex_id}") from None
            seen.add(ex_id)
        raise InputError(f"{path}: malformed rows") from None
    return dict(zip(ids, cids))


def with_coalitions(dataset: Dataset, mapping: Dict[int, str]) -> Dataset:
    """New dataset with coalition ids replaced from the mapping."""
    ids = dataset.ids
    missing = [i for i in ids if i not in mapping]
    if missing:
        raise InputError(f"coalition file does not cover example ids {missing[:5]}")
    return dataset.with_coalition_column([mapping[i] for i in ids])
