"""Report bytes pinned against golden files.

Every case runs one subcommand on the small inputs in ``tests/data/golden``
and compares its JSON report (wall time zeroed) and its CSV export with the
committed files, byte for byte.  The frequency cases run with the majority
rule and again with a table that has no default; one query overrides either
with a table that has one.  The inputs use non-contiguous ids and
coalition ids that JSON must escape and CSV must quote (a comma, a double
quote, a non-ASCII letter).  The ``wide`` cases put 60 examples in one bin
and three coalitions, so the prefix weights run along critical diagonals
of up to 28 cells; their table covers the bin's box, and one query
overrides it with the sparse table that has a default.  To rewrite the
golden files from the program on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_golden.py

It names each file whose values moved, and by how much; a file whose exact
values moved, or float values by more than 1e-13 relative, is kept.  To
rewrite such a file on purpose, delete it first: a case with no file is new
and is written.  Float files also stay within 1e-13 of the exact ones.
"""

import csv
import io
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

import pytest

import divvy.report as report_module
from divvy import Dataset, Example, assemble_report, export_csv, report_to_json, write_report
from divvy.cli import run_command

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")


def _inputs(*names):
    return [os.path.join(GOLDEN, n) for n in names]


def _freq(command, mode, rule="majority.json", stem="freq"):
    data, queries, value = _inputs(f"{stem}.csv", f"{stem}_queries.csv", rule)
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
        # a run-wide table with no default that covers every bin's box
        for command in ("shapley-freq", "owen-freq"):
            base[f"{command}-table-{mode}"] = _freq(command, mode, "covering_table.json")
            base[f"{command}-wide-{mode}"] = _freq(command, mode, stem="wide")
            base[f"{command}-wide-table-{mode}"] = _freq(command, mode, "wide_table.json", "wide")
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


def _values(text):
    """Every value of a JSON report, as Fractions: examples, coalition
    totals, then each query's values."""
    doc = json.loads(text)
    rows = doc["examples"] + doc["coalitions"]
    rows += [r for q in doc["per_query"] or () for r in q["values"]]
    return [Fraction(str(r["value"])) for r in rows]


def _worst_move(old, new):
    """The largest relative gap between two equal-length value lists."""
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(old, new) if x != y), default=0)


@pytest.mark.parametrize("name", sorted(n for n in CASES if "-float" in n and "oracle" not in n))
def test_float_golden_files_track_the_exact_ones(name):
    # float values are the exact ones up to rounding: within 1e-13 relative
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        approx = _values(fh.read())
    with open(os.path.join(GOLDEN, f"{name.replace('-float', '-exact')}.json"), "rb") as fh:
        exact = _values(fh.read())
    assert len(approx) == len(exact) and _worst_move(exact, approx) <= 1e-13


def test_writers_match_json_and_csv_modules(tmp_path):
    # A hand-built float report with non-finite values, nested extras and
    # coalition ids of several types: the JSON text is what json.dumps with
    # indent=2 gives (NaN and Infinity included), and the CSV is what
    # csv.writer gives.
    values = [math.nan, math.inf, -math.inf, 0.1, -0.0, 1e-300, 2.5]
    cids = ["a,b", 'say "hi"', "Zoë", None, 7, ("t", 1), "a,b"]
    ids = [9, 2, 40, 3, 11, 5, 6]
    dataset = Dataset(Example(i, "x", coalition=c) for i, c in zip(ids, cids))
    per_query = [values, values[::-1]]
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
            {"query_index": qi, "values": [{"id": i, "value": v} for i, v in zip(ids, q)]}
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


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_writers_match_the_modules_at_block_edges(mode, tmp_path):
    # reports of 0, 1, B - 1, B, B + 1 and 2B + 1 rows, with coalitions and
    # per-query columns: every writer gives the modules' text, whatever the
    # block boundaries, and the path and stream forms write the same
    block = report_module._BLOCK
    rng = random.Random(block)
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        ids = rng.sample(range(10 * n + 1), n)
        cids = [rng.choice(["a,b", 'say "hi"', "Zoë", None, 7]) for _ in ids]
        if mode == "float":
            columns = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in ids]
                       for _ in range(3)]
        else:
            columns = [[Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in ids]
                       for _ in range(3)]
        dataset = Dataset(Example(i, "x", coalition=c) for i, c in zip(ids, cids))
        report = assemble_report("shapley-knn", mode, dataset, columns[0], 2, 0.5, k=3,
                                 per_query=columns[1:])
        out = str if mode == "exact" else float
        doc = {
            "meta": {"method": "shapley-knn", "numeric_mode": mode, "k": 3, "query_count": 2,
                     "wall_time_s": 0.5},
            "examples": [{"id": i, "coalition": c, "value": out(v)}
                         for i, c, v in zip(ids, cids, columns[0])],
            "coalitions": [{"id": c, "value": out(v)} for c, v in report.coalitions],
            "per_query": [
                {"query_index": qi, "values": [{"id": i, "value": out(v)} for i, v in zip(ids, q)]}
                for qi, q in enumerate(columns[1:])
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
        assert report_to_json(report) == text, n
        table = io.StringIO()
        csv.writer(table).writerows([["id", "coalition", "value"]] + [
            [i, "" if c is None else c, out(v)] for i, c, v in zip(ids, cids, columns[0])])
        write_report(report, tmp_path / "r.json", csv=tmp_path / "r.csv")
        export_csv(report, tmp_path / "e.csv")
        json_stream, csv_stream = io.StringIO(), io.StringIO(newline="")
        write_report(report, json_stream, csv=csv_stream)
        assert json_stream.getvalue() == (tmp_path / "r.json").read_text() == text, n
        for written in (csv_stream.getvalue(), *(
                (tmp_path / name).read_bytes().decode() for name in ("r.csv", "e.csv"))):
            assert written == table.getvalue(), n


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

    # a rewrite may move float values by rounding alone: a file whose values
    # change in number, or move at all in exact mode or by more than 1e-13
    # relative in float, is left as it is and named
    refused = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in sorted(CASES.items()):
            report, table = _run(argv, os.path.join(scratch, "r.json"),
                                 os.path.join(scratch, "r.csv"))
            path = os.path.join(GOLDEN, f"{name}.json")
            old, new = [], _values(report)
            if os.path.exists(path):  # a new case has no file yet
                with open(path, "rb") as fh:
                    old = _values(fh.read())
            moved = sum(x != y for x, y in zip(old, new))
            if moved or old and len(old) != len(new):
                worst = _worst_move(old, new) if len(old) == len(new) else math.inf
                print(f"{name}: {moved} of {len(old)} values moved, "
                      f"by at most {float(worst):.2g} relative", file=sys.stderr)
                bound = 1e-13 if b'"numeric_mode": "float"' in report else 0
                if worst > bound:
                    refused.append(name)
                    continue
            with open(os.path.join(GOLDEN, f"{name}.json"), "wb") as fh:
                fh.write(report)
            with open(os.path.join(GOLDEN, f"{name}.csv"), "wb") as fh:
                fh.write(table)
            print(f"wrote {name}", file=sys.stderr)
    if refused:
        sys.exit(f"not rewritten, values moved past the bound: {', '.join(refused)}")
