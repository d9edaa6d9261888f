"""Report bytes pinned against golden files.

Every case runs one subcommand on the small inputs in ``tests/data/golden``
and compares its JSON report (wall time zeroed) and its CSV export with the
committed files, byte for byte.  The inputs use non-contiguous ids and
coalition ids that JSON must escape and CSV must quote (a comma, a double
quote, a non-ASCII letter).  To rewrite the golden files from the program on
``PYTHONPATH``:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import math
import os
import re
import sys

import pytest

from divvy import Dataset, Example, assemble_report, export_csv, report_to_json
from divvy.cli import run_command

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")


def _inputs(*names):
    return [os.path.join(GOLDEN, n) for n in names]


def _freq(command, mode):
    data, queries, value = _inputs("freq.csv", "freq_queries.csv", "majority.json")
    return [command, "--data", data, "--queries", queries, "--value", value, "--numeric", mode]


def _knn(command, mode, *extra):
    data, queries = _inputs("knn.csv", "knn_queries.csv")
    return [command, "--data", data, "--queries", queries,
            "--k", "3", "--values", "2,-1,0.5", "--numeric", mode, *extra]


def _oracle(family, method, *extra):
    if family == "frequency":
        data, queries, value = _inputs("freq.csv", "freq_queries.csv", "majority.json")
        flags = ["--value", value]
    else:
        data, queries = _inputs("knn.csv", "knn_queries.csv")
        flags = ["--k", "3", "--values", "2,-1,0.5"]
    return ["oracle", "--family", family, "--method", method,
            "--data", data, "--queries", queries, *flags, *extra]


def _cases():
    (groups,) = _inputs("groups.csv")
    base = {}
    for mode in ("float", "exact"):
        base[f"shapley-freq-{mode}"] = _freq("shapley-freq", mode)
        base[f"owen-freq-{mode}"] = _freq("owen-freq", mode)
        base[f"shapley-knn-{mode}"] = _knn("shapley-knn", mode)
        base[f"owen-knn-{mode}"] = _knn("owen-knn", mode, "--coalitions", groups)
    base["oracle-freq-exact-shapley"] = _oracle("frequency", "exact-shapley")
    base["oracle-knn-exact-owen"] = _oracle("knn", "exact-owen")
    base["oracle-freq-mc-shapley"] = _oracle(
        "frequency", "mc-shapley", "--samples", "40", "--seed", "3")
    cases = {}
    for name, argv in base.items():
        cases[name] = argv
        cases[f"{name}-per-query"] = argv + ["--per-query"]
    return cases


CASES = _cases()


def _zero_wall_time(text):
    return re.sub(r'"wall_time_s": [-0-9.e+]+', '"wall_time_s": 0', text)


def _run(argv, json_path, csv_path):
    assert run_command(argv + ["--out", str(json_path), "--csv", str(csv_path)]) == 0
    with open(json_path, "rb") as fh:
        report = _zero_wall_time(fh.read().decode("utf-8")).encode("utf-8")
    with open(csv_path, "rb") as fh:
        return report, fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    report, table = _run(CASES[name], tmp_path / "r.json", tmp_path / "r.csv")
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert report == fh.read()
    with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as fh:
        assert table == fh.read()


def test_writers_match_json_and_csv_modules(tmp_path):
    # A hand-built float report with non-finite values, nested extras and
    # coalition ids of several types: the JSON text is what json.dumps with
    # indent=2 gives (NaN and Infinity included), and the CSV is what
    # csv.writer gives.
    values = [math.nan, math.inf, -math.inf, 0.1, -0.0, 1e-300, 2.5]
    cids = ["a,b", 'say "hi"', "Zoë", None, 7, ("t", 1), "a,b"]
    ids = [9, 2, 40, 3, 11, 5, 6]
    dataset = Dataset(Example(i, "x", coalition=c) for i, c in zip(ids, cids))
    per_query = [dict(zip(ids, values)), dict(zip(ids, reversed(values)))]
    extras = {"nested": {"list": [1, [2, 3]], "empty": {}}, "text": "Zoë"}
    report = assemble_report("shapley-knn", "float", dataset, values, 2, 0.25,
                             k=3, per_query=per_query, extras=extras)
    doc = {
        "meta": {"method": "shapley-knn", "numeric_mode": "float", "k": 3,
                 "query_count": 2, "wall_time_s": 0.25, **extras},
        "examples": [{"id": i, "coalition": c, "value": v}
                     for i, c, v in zip(ids, cids, values)],
        "coalitions": [{"id": c, "value": v} for c, v in report.coalitions],
        "per_query": [
            {"query_index": qi, "values": [{"id": i, "value": q[i]} for i in ids]}
            for qi, q in enumerate(per_query)
        ],
    }
    assert report_to_json(report) == json.dumps(doc, indent=2) + "\n"
    assert "NaN" in report_to_json(report) and "-Infinity" in report_to_json(report)

    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["id", "coalition", "value"])
    writer.writerows([i, "" if c is None else c, v] for i, c, v in zip(ids, cids, values))
    export_csv(report, tmp_path / "r.csv")
    with open(tmp_path / "r.csv", newline="") as fh:
        assert fh.read() == expected.getvalue()


def test_empty_report_layout():
    report = assemble_report("shapley-freq", "exact", Dataset([]), [], 0, 0.0, per_query=[])
    doc = {
        "meta": {"method": "shapley-freq", "numeric_mode": "exact", "k": None,
                 "query_count": 0, "wall_time_s": 0.0},
        "examples": [], "coalitions": [], "per_query": [],
    }
    assert report_to_json(report) == json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in sorted(CASES.items()):
            report, table = _run(argv, os.path.join(scratch, "r.json"),
                                 os.path.join(scratch, "r.csv"))
            with open(os.path.join(GOLDEN, f"{name}.json"), "wb") as fh:
                fh.write(report)
            with open(os.path.join(GOLDEN, f"{name}.csv"), "wb") as fh:
                fh.write(table)
            print(f"wrote {name}", file=sys.stderr)
