"""CSV/JSON parsing and the report file round trip."""

import csv
import dataclasses
import io
import json
import os
import random
import re
import stat
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from divvy import (
    Dataset,
    Example,
    MajorityValueFunction,
    Query,
    TableValueFunction,
    assemble_report,
    export_csv,
    owen_frequency_report,
    read_report,
    report_to_json,
    shapley_frequency_report,
    write_report,
)
import divvy.io as divvy_io
from divvy.errors import InputError
from divvy.io import (
    parse_coalition_file,
    parse_dataset,
    parse_outcome_values,
    parse_queries,
    parse_value_function,
    with_coalitions,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_frequency_dataset(tmp_path):
    p = _write(tmp_path, "d.csv", "id,bin,label,coalition\n0,b0,x,g0\n1,b1,y,\n")
    ds = parse_dataset(p, "frequency")
    assert ds.ids == [0, 1]
    assert ds.examples[0].bin == "b0" and ds.examples[0].coalition == "g0"
    assert ds.examples[1].coalition is None, "an empty coalition cell means unassigned"


def test_parse_knn_dataset(tmp_path):
    p = _write(tmp_path, "d.csv", "id,label,f0,f1\n3,x,0.5,-1\n4,y,1.5,2\n")
    ds = parse_dataset(p, "knn")
    assert ds.examples[0].features == (0.5, -1.0)
    assert ds.feature_matrix().shape == (2, 2)


def test_parse_dataset_errors(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        parse_dataset(tmp_path / "absent.csv", "frequency")
    p = _write(tmp_path, "empty.csv", "")
    with pytest.raises(InputError, match="header"):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "nobin.csv", "id,label\n0,x\n")
    with pytest.raises(InputError, match="'bin'"):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "badid.csv", "id,bin,label\nseven,b0,x\n")
    with pytest.raises(InputError, match="integer"):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "negid.csv", "id,bin,label\n-1,b0,x\n")
    with pytest.raises(InputError, match="non-negative"):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "bigid.csv", f"id,bin,label\n{2**63},b0,x\n")
    with pytest.raises(InputError, match=r"bigid.csv line 2: .*2\*\*63"):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "dup.csv", "id,bin,label\n0,b0,x\n0,b1,y\n")
    with pytest.raises(InputError):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "third.csv", "id,bin,label\n0,b0,x\n1,b0,y\n2,b0,z\n")
    with pytest.raises(InputError, match="third symbol"):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "nofeat.csv", "id,label\n0,x\n")
    with pytest.raises(InputError, match="feature columns"):
        parse_dataset(p, "knn")
    p = _write(tmp_path, "gap.csv", "id,label,f0,f2\n0,x,1,2\n")
    with pytest.raises(InputError, match="contiguous"):
        parse_dataset(p, "knn")
    p = _write(tmp_path, "nonnum.csv", "id,label,f0\n0,x,wide\n")
    with pytest.raises(InputError, match="not numeric"):
        parse_dataset(p, "knn")
    p = _write(tmp_path, "hole.csv", "id,label,f0,f1\n0,x,1,\n")
    with pytest.raises(InputError, match="missing value"):
        parse_dataset(p, "knn")
    with pytest.raises(InputError, match="family"):
        parse_dataset(_write(tmp_path, "ok.csv", "id,label\n0,x\n"), "tree")
    # a row with more or fewer cells than the header is refused with its line
    p = _write(tmp_path, "long.csv", "id,label,f0\n0,x,1.0,9\n")
    with pytest.raises(InputError, match=r"long.csv line 2: 4 cells, but the header has 3"):
        parse_dataset(p, "knn")
    p = _write(tmp_path, "short.csv", "id,bin,label\n0,b0,x\n1,b0\n")
    with pytest.raises(InputError, match=r"short.csv line 3: 2 cells, but the header has 3"):
        parse_dataset(p, "frequency")
    # the first faulty row is named, and its cells are checked in order
    p = _write(tmp_path, "order.csv", "id,label,f0,f1\n0,x,1,2\n1,x,wide,\nseven,,1,2\n")
    with pytest.raises(InputError, match=r"order.csv line 3: f0='wide' is not numeric"):
        parse_dataset(p, "knn")
    p = _write(tmp_path, "dup2.csv", "id,bin,label\n4,b0,x\n9,b0,x\n4,b1,y\n")
    with pytest.raises(InputError, match=r"dup2.csv line 4: duplicate example id 4"):
        parse_dataset(p, "frequency")
    p = _write(tmp_path, "third2.csv", "id,bin,label\n0,b0,x\n1,b0,y\n2,b0,x\n3,b0,z\n")
    with pytest.raises(InputError, match=r"third2.csv line 5: .*third symbol 'z'"):
        parse_dataset(p, "frequency")


def test_non_finite_features_are_refused(tmp_path):
    for cell in ("nan", "inf", "-inf", "NaN", "Infinity", "1e999"):
        p = _write(tmp_path, "d.csv", f"id,label,f0,f1\n0,x,1,2\n1,y,3,{cell}\n")
        with pytest.raises(InputError, match=rf"d.csv line 3: f1='{cell}' is not finite"):
            parse_dataset(p, "knn")
        q = _write(tmp_path, "q.csv", f"label,f0,f1\nx,0,0\ny,{cell},1\n")
        with pytest.raises(InputError, match=rf"q.csv line 3: f0='{cell}' is not finite"):
            parse_queries(q, "knn")


def test_ragged_query_and_coalition_rows_are_refused(tmp_path):
    q = _write(tmp_path, "q.csv", "label,f0\nx,1.0,2.0\n")
    with pytest.raises(InputError, match=r"q.csv line 2: 3 cells, but the header has 2"):
        parse_queries(q, "knn")
    q = _write(tmp_path, "fq.csv", "bin,label\nb0,x\nb1\n")
    with pytest.raises(InputError, match=r"fq.csv line 3: 1 cells, but the header has 2"):
        parse_queries(q, "frequency")
    c = _write(tmp_path, "c.csv", "id,coalition\n0,g0,extra\n")
    with pytest.raises(InputError, match=r"c.csv line 2: 3 cells, but the header has 2"):
        parse_coalition_file(c)


def test_parsed_dataset_matches_one_built_from_examples(tmp_path):
    from divvy import Dataset, Example

    p = _write(tmp_path, "d.csv",
               "id,label,coalition,f0,f1\n7, x ,g0,0.5,-1\n3,y,,1e-3, 2 \n11,x,g1,4,0\n")
    parsed = parse_dataset(p, "knn")
    built = Dataset([
        Example(7, "x", features=(0.5, -1.0), coalition="g0"),
        Example(3, "y", features=(1e-3, 2.0)),
        Example(11, "x", features=(4.0, 0.0), coalition="g1"),
    ])
    assert parsed.examples == built.examples
    assert parsed.ids == built.ids == [7, 3, 11]
    assert parsed.coalition_column() == built.coalition_column() == ["g0", None, "g1"]
    assert np.array_equal(parsed.feature_matrix(), built.feature_matrix())
    for ds in (parsed, built):  # column-major on both ways in, for the distance kernel
        assert ds.feature_matrix().flags.f_contiguous and not ds.feature_matrix().flags.c_contiguous
    assert parsed.label_mask("x").tolist() == built.label_mask("x").tolist()
    assert parsed.examples is parsed.examples, "row views are built once"
    regrouped = with_coalitions(parsed, {3: "h", 7: "h", 11: "k"})
    assert regrouped.coalition_column() == ["h", "h", "k"]
    assert regrouped.feature_matrix() is parsed.feature_matrix()
    assert [ex.coalition for ex in parsed] == ["g0", None, "g1"]


def test_parse_frequency_queries_with_override(tmp_path):
    _write(
        tmp_path,
        "gen.json",
        json.dumps({"family": "majority", "correct": 9, "wrong": -9, "none": 0}),
    )
    p = _write(tmp_path, "q.csv", "bin,label,value_function\nb0,x,\nb1,y,gen.json\n")
    queries = parse_queries(p, "frequency")
    assert queries[0].value_function is None
    assert isinstance(queries[1].value_function, MajorityValueFunction)
    assert queries[1].value_function.correct == 9


def test_parse_queries_share_override_cache(tmp_path):
    _write(
        tmp_path,
        "gen.json",
        json.dumps({"family": "majority", "correct": 1, "wrong": 0, "none": 0}),
    )
    p = _write(tmp_path, "q.csv", "bin,label,value_function\nb0,x,gen.json\nb1,x,gen.json\n")
    queries = parse_queries(p, "frequency")
    assert queries[0].value_function is queries[1].value_function


def test_parse_knn_queries(tmp_path):
    p = _write(tmp_path, "q.csv", "label,f0,f1\nx,0.25,4\n")
    (q,) = parse_queries(p, "knn")
    assert q.features == (0.25, 4.0)
    with pytest.raises(InputError, match="no queries"):
        parse_queries(_write(tmp_path, "e.csv", "label,f0\n"), "knn")
    with pytest.raises(InputError, match="bin"):
        parse_queries(_write(tmp_path, "nb.csv", "label\nx\n"), "frequency")


def test_query_features_are_read_raw_as_dataset_features_are(tmp_path):
    # float() refuses the separators \x1c-\x1f that str.strip() drops, so a
    # query cell is refused with its file, line and column, as a dataset's is
    for sep in "\x1c\x1d\x1e\x1f":
        q = _write(tmp_path, "q.csv", f"label,f0,f1\nx,1,2\n y ,3,{sep}2\n")
        with pytest.raises(InputError, match=re.escape(f"q.csv line 3: f1={sep + '2'!r} is not numeric")):
            parse_queries(q, "knn")
        d = _write(tmp_path, "d.csv", f"id,label,f0,f1\n0,x,1,2\n1,y,3,{sep}2\n")
        with pytest.raises(InputError, match=re.escape(f"d.csv line 3: f1={sep + '2'!r} is not numeric")):
            parse_dataset(d, "knn")
    q = _write(tmp_path, "q.csv", "label,f0,f1\n y , 0.5 ,\t4\n")
    (query,) = parse_queries(q, "knn")
    assert query.label == "y" and query.features == (0.5, 4.0), "labels stripped, spaces read by float()"
    with pytest.raises(InputError, match=r"q.csv line 2: missing value in feature column f1"):
        parse_queries(_write(tmp_path, "q.csv", "label,f0,f1\nx,1,  \n"), "knn")


def test_parse_value_function_majority_exact_decimals(tmp_path):
    p = _write(
        tmp_path,
        "vf.json",
        '{"family": "majority", "correct": 0.1, "wrong": -0.3, "none": 0}',
    )
    vf = parse_value_function(p)
    assert vf.correct == Fraction(1, 10), "decimals must not take a float detour"
    assert vf.wrong == Fraction(-3, 10)


def test_parse_value_function_table(tmp_path):
    doc = {
        "family": "table",
        "entries": [
            {"a": 0, "b": 0, "value": 0},
            {"a": 2, "b": 1, "value": 3.5},
        ],
        "default": -1,
    }
    vf = parse_value_function(_write(tmp_path, "t.json", json.dumps(doc)))
    assert isinstance(vf, TableValueFunction)
    assert vf.value(2, 1) == Fraction(7, 2)
    assert vf.value(9, 9) == -1


def test_parse_value_function_errors(tmp_path):
    with pytest.raises(InputError, match="JSON"):
        parse_value_function(_write(tmp_path, "bad.json", "{"))
    with pytest.raises(InputError, match="object"):
        parse_value_function(_write(tmp_path, "arr.json", "[1]"))
    with pytest.raises(InputError, match="family"):
        parse_value_function(_write(tmp_path, "fam.json", '{"family": "poly"}'))
    with pytest.raises(InputError, match="needs keys"):
        parse_value_function(
            _write(tmp_path, "m.json", '{"family": "majority", "correct": 1}')
        )
    with pytest.raises(InputError, match="numeric"):
        parse_value_function(
            _write(
                tmp_path,
                "s.json",
                '{"family": "majority", "correct": "big", "wrong": 0, "none": 0}',
            )
        )
    doc = {"family": "table", "entries": [{"a": 1, "b": 0, "value": 1}]}
    with pytest.raises(InputError, match=r"v\(0, 0\)"):
        parse_value_function(_write(tmp_path, "t0.json", json.dumps(doc)))
    doc = {
        "family": "table",
        "entries": [
            {"a": 0, "b": 0, "value": 0},
            {"a": 0, "b": 0, "value": 1},
        ],
    }
    with pytest.raises(InputError, match="duplicate"):
        parse_value_function(_write(tmp_path, "t1.json", json.dumps(doc)))
    # counts are JSON integers: no decimal, text or boolean is rounded or cast
    for n, bad in enumerate(['{"a": 1.5, "b": "2"}', '{"a": 1.5, "b": 2}', '{"a": 1, "b": "2"}',
                             '{"a": true, "b": 0}', '{"a": 1.0, "b": 0}', '{"a": 1}', '[1, 0]']):
        text = '{"family": "table", "default": 0, "entries": [%s]}' % bad
        with pytest.raises(InputError, match="integer 'a' and 'b'"):
            parse_value_function(_write(tmp_path, f"t2_{n}.json", text))


def test_parse_outcome_values():
    ov = parse_outcome_values("1,-0.5,0")
    assert ov.wrong == Fraction(-1, 2)
    with pytest.raises(InputError):
        parse_outcome_values("1,2")
    with pytest.raises(InputError):
        parse_outcome_values("a,b,c")


def test_coalition_file_and_override(tmp_path):
    d = _write(tmp_path, "d.csv", "id,bin,label,coalition\n0,b0,x,old\n1,b0,y,old\n")
    ds = parse_dataset(d, "frequency")
    c = _write(tmp_path, "c.csv", "id,coalition\n0,g0\n1,g1\n")
    mapping = parse_coalition_file(c)
    assert mapping[0].tolist() == [0, 1] and mapping[1] == ["g0", "g1"]
    ds2 = with_coalitions(ds, mapping)
    assert [ex.coalition for ex in ds2] == ["g0", "g1"]
    with pytest.raises(InputError, match="cover"):
        with_coalitions(ds, {0: "g0"})
    with pytest.raises(InputError, match=r"example 0 has an unhashable coalition id \['a'\]"):
        with_coalitions(ds, {0: ["a"], 1: "b"})
    # an id the dataset lacks is refused, as the library refuses a partition
    # that names one
    extra = _write(tmp_path, "cx.csv", "id,coalition\n0,g0\n99,g2\n1,g1\n")
    with pytest.raises(InputError, match=r"cx.csv names unknown example ids \[99\]"):
        with_coalitions(ds, parse_coalition_file(extra), str(extra))
    with pytest.raises(InputError, match=r"unknown example ids \[99\]"):
        with_coalitions(ds, {0: "g0", 1: "g1", 99: "g2"})
    bad = _write(tmp_path, "cb.csv", "id,coalition\n0,g0\n0,g1\n")
    with pytest.raises(InputError, match="duplicate"):
        parse_coalition_file(bad)
    empty = _write(tmp_path, "ce.csv", "id,coalition\n0,\n")
    with pytest.raises(InputError, match="empty coalition"):
        parse_coalition_file(empty)


def _sample_report(mode="exact", per_query=False):
    from divvy import Dataset, Example, Query

    ds = Dataset([
        Example(0, "x", bin="b0", coalition="g0"),
        Example(1, "y", bin="b0", coalition="g1"),
    ])
    vf = MajorityValueFunction(Fraction(10), Fraction(-10), Fraction(0))
    return shapley_frequency_report(ds, [Query(label="x", bin="b0")], vf, mode=mode,
                                    per_query=per_query)


def test_report_round_trip(tmp_path):
    for mode in ("exact", "float"):
        rep = _sample_report(mode)
        path = tmp_path / f"r_{mode}.json"
        write_report(rep, path)
        back = read_report(path)
        assert back.values() == rep.values()
        assert back.method == rep.method
        assert back.numeric_mode == mode
        assert dict(back.coalitions) == dict(rep.coalitions)
        # a second write of the parsed report is byte-identical
        again = tmp_path / f"r2_{mode}.json"
        write_report(back, again)
        assert again.read_text() == path.read_text()
        # a per-query report reads back equal: each block's rows go to their
        # ids' dataset rows, in whatever order the block lists them
        ds = Dataset([Example(5, "x", bin="b0", coalition="g0"),
                      Example(2, "y", bin="b0", coalition="g1"), Example(9, "x", bin="b1")])
        vf = MajorityValueFunction(Fraction(3), Fraction(-1), Fraction(1, 3))
        rep = shapley_frequency_report(ds, [Query(label="x", bin="b0"), Query(label="y", bin="b1")],
                                       vf, mode=mode, per_query=True)
        write_report(rep, path)
        assert read_report(path) == rep
        doc = json.loads(path.read_text())
        doc["per_query"][0]["values"].reverse()
        path.write_text(json.dumps(doc))
        assert read_report(path) == rep


def test_exact_values_past_the_int_text_cap_round_trip(tmp_path):
    # Python refuses int <-> decimal text past 4,300 digits by default; the
    # writers and the reader lift that cap while they convert, and only then
    huge = Fraction(10**5000 + 1, 3)
    ds = Dataset([Example(0, "x", coalition="g0"), Example(1, "y", coalition="g0")])
    values = [huge, -huge / 7]
    rep = assemble_report("shapley-freq", "exact", ds, values, 1, 0.0, per_query=[values])
    cap = sys.get_int_max_str_digits()
    path = tmp_path / "r.json"
    write_report(rep, path)
    back = read_report(path)
    assert back == rep and back.value_of(0) == huge
    export_csv(rep, tmp_path / "r.csv")
    first = json.loads(path.read_text())["examples"][0]["value"]
    assert len(first) > 5000
    assert (tmp_path / "r.csv").read_text().splitlines()[1] == f"0,g0,{first}"
    assert sys.get_int_max_str_digits() == cap


def test_exact_value_past_the_raised_cap_is_refused(tmp_path):
    # the reader lifts the cap to a finite bound only: text whose parsing
    # would take quadratic time is still refused, not decoded
    ds = Dataset([Example(0, "x", coalition="g0")])
    rep = assemble_report("shapley-freq", "exact", ds, [Fraction(1, 3)], 1, 0.0)
    path = tmp_path / "r.json"
    write_report(rep, path)
    doc = json.loads(path.read_text())
    doc["examples"][0]["value"] = doc["coalitions"][0]["value"] = "1" * 300_001 + "/3"
    path.write_text(json.dumps(doc))
    cap = sys.get_int_max_str_digits()
    with pytest.raises(InputError, match="malformed report file"):
        read_report(path)
    assert sys.get_int_max_str_digits() == cap


def test_exact_report_serializes_fractions_as_strings(tmp_path):
    rep = _sample_report("exact")
    doc = json.loads(report_to_json(rep))
    vals = {r["id"]: r["value"] for r in doc["examples"]}
    assert vals[0] == "10" and vals[1] == "-10"


def test_read_report_rejects_tampering(tmp_path):
    rep = _sample_report("exact")
    path = tmp_path / "r.json"
    write_report(rep, path)
    doc = json.loads(path.read_text())
    doc["examples"][0]["value"] = "999"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="coalition"):
        read_report(broken)
    doc = json.loads(path.read_text())
    del doc["meta"]["method"]
    broken.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="malformed"):
        read_report(broken)
    # a per-query block must list each example id once: no unknown, missing
    # or repeated id
    rep = _sample_report("exact", per_query=True)
    write_report(rep, path)
    for edit in (lambda rows: rows.append({"id": 7, "value": "0"}),
                 lambda rows: rows.pop(),
                 lambda rows: rows.append(dict(rows[0]))):
        doc = json.loads(path.read_text())
        edit(doc["per_query"][0]["values"])
        broken.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="malformed"):
            read_report(broken)


def test_read_report_refuses_a_path_it_cannot_read(tmp_path):
    # a missing file and a directory are input errors naming the path, as
    # for every other reader, not a raw OSError
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(InputError, match=f"cannot read {re.escape(str(path))}"):
            read_report(path)


def test_read_report_rejects_non_integer_ids(tmp_path):
    path = tmp_path / "r.json"
    write_report(_sample_report("exact"), path)
    for bad in ("7", -1, 1.5, True, 2**63):
        doc = json.loads(path.read_text())
        doc["examples"][0]["id"] = bad
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="malformed"):
            read_report(broken)
    # a per-query block's ids are held to the same rule: true and 1.0 are not id 1
    write_report(_sample_report("exact", per_query=True), path)
    for bad in (True, 1.0):
        doc = json.loads(path.read_text())
        doc["per_query"][0]["values"][1]["id"] = bad
        broken.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="malformed"):
            read_report(broken)


def test_read_report_refuses_a_list_coalition_cell(tmp_path):
    path = tmp_path / "r.json"
    write_report(_sample_report("float"), path)
    doc = json.loads(path.read_text())
    doc["examples"][0]["coalition"] = ["g0"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="malformed report file"):
        read_report(broken)
    # a library report may name coalitions by tuples, which JSON writes as lists
    ds = Dataset([Example(0, "x", bin="b0", coalition=("a", 1)),
                  Example(1, "y", bin="b0", coalition=("b", 2))])
    vf = MajorityValueFunction(Fraction(10), Fraction(-10), Fraction(0))
    write_report(shapley_frequency_report(ds, [Query(label="x", bin="b0")], vf), path)
    with pytest.raises(InputError, match="malformed report file"):
        read_report(path)


def test_coalition_totals_match_a_row_order_sum_bit_for_bit():
    # float totals are one bincount; it must add each coalition's members in
    # row order, as a plain Python loop does, to give the same bits
    from divvy.model import code_cells
    from divvy.report import ValueReport, _coalition_totals

    rng = np.random.default_rng(1601)
    for _ in range(300):
        n, m = int(rng.integers(0, 5001)), int(rng.integers(1, 31))
        draws = rng.integers(-1, m, n).tolist()  # -1: no coalition
        names, codes = code_cells([None if c < 0 else f"g{c:02d}" for c in draws])
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-10, 10, n)
        report = ValueReport("shapley-knn", "float", 1, 0.0, np.arange(n, dtype=np.int64),
                             values, names, codes)
        want: dict = {}
        for c, v in zip(codes.tolist(), values.tolist()):
            if c >= 0:
                want[names[c]] = want.get(names[c], 0.0) + v
        got = _coalition_totals(report)
        assert [c for c, _ in got] == sorted(want)
        assert [v.hex() for _, v in got] == [want[c].hex() for c, _ in got]


def test_coalition_totals_follow_the_columns(tmp_path, monkeypatch):
    # a report stores no totals: assembling one sums nothing, writing it
    # sums once, an edited value shows in the next totals read, and a file
    # whose totals disagree with its members' sums is refused
    import divvy.report as report_module

    calls = []
    sums = report_module._coalition_totals
    monkeypatch.setattr(report_module, "_coalition_totals", lambda r: calls.append(r) or sums(r))
    for mode in ("exact", "float"):
        rep = _sample_report(mode, per_query=True)
        assert calls == [], mode
        path = tmp_path / f"r_{mode}.json"
        write_report(rep, path, csv=tmp_path / f"r_{mode}.csv")
        assert len(calls) == 1, mode
        before = dict(rep.coalitions)
        rep.value_column[0] += 7
        assert dict(rep.coalitions) == {"g0": before["g0"] + 7, "g1": before["g1"]}, mode
        doc = json.loads(path.read_text())
        doc["coalitions"][1]["value"] = "1/7" if mode == "exact" else 0.125
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="do not equal member sums"):
            read_report(path)
        calls.clear()


def test_write_report_writes_a_pipe_in_place(tmp_path):
    # a path that is no regular file (a pipe, /dev/stdout) is written as it
    # is: renaming a finished temporary file over it would replace it
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    rep = _sample_report("exact")
    write_report(rep, pipe)
    reader.join(10)
    assert got == [report_to_json(rep)]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
    # a /dev/fd/N link to an anonymous pipe (as /dev/stdout is, piped, and
    # a shell's process substitution) resolves to no path a file could sit
    # beside, so it is opened as given
    if not os.path.isdir("/dev/fd"):
        return
    r, w = os.pipe()
    chunks = []

    def drain():
        with os.fdopen(r) as fh:
            chunks.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        write_report(rep, f"/dev/fd/{w}", csv=tmp_path / "r.csv")
    finally:
        os.close(w)
    reader.join(10)
    assert chunks == [report_to_json(rep)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "r.csv"]


def test_write_report_replaces_a_file_keeping_its_mode(tmp_path, monkeypatch):
    # a report written over an existing file keeps that file's permission
    # bits; a rename that fails leaves no temporary file behind
    import divvy.report as report_module

    rep = _sample_report("float")
    path, table = tmp_path / "r.json", tmp_path / "r.csv"
    path.write_text("old")
    path.chmod(0o600)
    write_report(rep, path)
    assert path.read_text() == report_to_json(rep)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    real = os.replace

    def fail_on_json(src, dst):
        if str(dst).endswith(".json"):
            raise PermissionError("no rename")
        real(src, dst)

    monkeypatch.setattr(report_module.os, "replace", fail_on_json)
    with pytest.raises(InputError, match="cannot write the report"):
        write_report(rep, path, csv=table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]


def test_report_equality_compares_columns(tmp_path):
    for mode in ("exact", "float"):
        rep = _sample_report(mode)
        path = tmp_path / f"r_{mode}.json"
        write_report(rep, path)
        back = read_report(path)
        assert back == rep
        back.coalition_codes = back.coalition_codes[::-1]
        assert back != rep


def test_mapping_keys_that_are_not_integers_are_refused(tmp_path):
    ds = Dataset([Example(0, "x", bin="b0"), Example(1, "y", bin="b0")])
    with pytest.raises(InputError, match=r"names example id 0\.5, not a 64-bit integer"):
        with_coalitions(ds, {0.5: "g", 1: "h"})
    with pytest.raises(InputError, match=r"names example id 'a', not a 64-bit integer"):
        with_coalitions(ds, {"a": "g", 1: "h"})
    with pytest.raises(InputError, match=r"names example id True, not a 64-bit integer"):
        with_coalitions(ds, {True: "g", 0: "h"})
    with pytest.raises(InputError, match=r"names example id 9223372036854775808, not a 64"):
        with_coalitions(ds, {2**63: "g", 0: "h"})
    with pytest.raises(InputError, match=r"unknown example ids \[-1\]"):
        with_coalitions(ds, {-1: "g", 0: "h", 1: "h"})
    assert with_coalitions(ds, {np.int64(1): "h", 0: "g"}).coalition_column() == ["g", "h"]


# parse blocks: data rows 0 .. B - 1 sit on lines 2 .. B + 1
B = divvy_io._BLOCK


def _knn_rows(n, label=lambda i: "xy"[i % 2]):
    return [f"{i},{label(i)},{i * 0.5},{-i}" for i in range(n)]


def _knn_file(tmp_path, rows, name="d.csv"):
    return _write(tmp_path, name, "id,label,f0,f1\n" + "\n".join(rows) + "\n")


def test_parse_faults_in_later_blocks_name_their_line(tmp_path):
    n = 2 * B + 40
    for r, cells, message in [
        (B, "x,x,1,1", "id 'x' is not an integer"),
        (B + 7, f"{B + 7},,1,1", "empty label"),
        (2 * B + 3, f"{2 * B + 3},x,1,inf", "f1='inf' is not finite"),
        (2 * B + 39, f"{2 * B + 39},x,,1", "missing value in feature column f0"),
        (n - 1, f"{2 ** 63},x,1,1", r"id must be .*below 2\*\*63"),
    ]:
        rows = _knn_rows(n)
        rows[r] = cells
        with pytest.raises(InputError, match=rf"d.csv line {r + 2}: {message}"):
            parse_dataset(_knn_file(tmp_path, rows), "knn")
    # a repeat and a third label are found across blocks, at their first row
    rows = _knn_rows(n)
    rows[2 * B + 1] = f"{B - 1},x,1,1"
    with pytest.raises(InputError, match=rf"d.csv line {2 * B + 3}: duplicate example id {B - 1}"):
        parse_dataset(_knn_file(tmp_path, rows), "knn")
    rows = _knn_rows(n, lambda i: "z" if i in (B + 5, 2 * B) else "xy"[i % 2])
    with pytest.raises(InputError, match=rf"d.csv line {B + 7}: .*third symbol 'z'"):
        parse_dataset(_knn_file(tmp_path, rows), "knn")
    rows = _knn_rows(n)
    rows[2 * B] += ",9"
    with pytest.raises(InputError, match=rf"d.csv line {2 * B + 2}: 5 cells, but the header has 4"):
        parse_dataset(_knn_file(tmp_path, rows), "knn")


@pytest.mark.parametrize("cell", ["\x1c2", "2\x1f", "\x1e 2"])
def test_separator_characters_are_refused_at_their_cell(tmp_path, cell):
    # str.strip() drops \x1c-\x1f, but int() and float() refuse them: a
    # cell holding one is refused with its line and column, in any block
    for r in (3, B + 2):
        rows = _knn_rows(B + 5)
        rows[r] = f"{r},x,{cell},1"
        message = rf"d.csv line {r + 2}: f0={re.escape(repr(cell))} is not numeric"
        with pytest.raises(InputError, match=message):
            parse_dataset(_knn_file(tmp_path, rows), "knn")
        rows[r] = f"{cell},x,1,1"
        message = rf"d.csv line {r + 2}: id {re.escape(repr(cell))} is not an integer"
        with pytest.raises(InputError, match=message):
            parse_dataset(_knn_file(tmp_path, rows), "knn")
    path = _write(tmp_path, "c.csv", f"id,coalition\n0,a\n{cell},b\n")
    with pytest.raises(InputError, match=rf"c.csv line 3: id {re.escape(repr(cell))} is not"):
        parse_coalition_file(path)


def test_parse_fault_precedence_across_blocks(tmp_path):
    # a wrong cell count anywhere beats a value fault in an earlier block,
    # and beats a missing column
    rows = _knn_rows(2 * B + 1)
    rows[3] = "3,x,wide,1"
    rows[2 * B] = "9"
    with pytest.raises(InputError, match=rf"line {2 * B + 2}: 1 cells, but the header has 4"):
        parse_dataset(_knn_file(tmp_path, rows), "knn")
    with pytest.raises(InputError, match=rf"line {2 * B + 2}: 1 cells"):
        parse_dataset(_knn_file(tmp_path, rows), "frequency")
    # a bad feature in a later block beats a duplicate id in an earlier one,
    # and a duplicate id beats a third label before it
    rows = _knn_rows(2 * B + 1, lambda i: "z" if i == 1 else "xy"[i % 2])
    rows[5] = "4,x,1,1"
    rows[2 * B] = f"{2 * B},x,1,nan"
    with pytest.raises(InputError, match=rf"line {2 * B + 2}: f1='nan' is not finite"):
        parse_dataset(_knn_file(tmp_path, rows), "knn")
    rows[2 * B] = f"{2 * B},x,1,1"
    with pytest.raises(InputError, match=r"line 7: duplicate example id 4"):
        parse_dataset(_knn_file(tmp_path, rows), "knn")
    # queries: a wrong cell count in a later block beats an empty label
    q = _write(tmp_path, "q.csv", "label,f0,f1\n,1,1\n" + "x,1,1\n" * B + "x,1\n")
    with pytest.raises(InputError, match=rf"q.csv line {B + 3}: 2 cells"):
        parse_queries(q, "knn")


def test_coalition_file_faults_across_blocks(tmp_path):
    def rows(n, **cells):
        return "id,coalition\n" + "".join(f"{cells.get(f'r{i}', f'{i},g{i % 3}')}\n"
                                          for i in range(n))

    n = 2 * B + 2
    ids, cids = parse_coalition_file(_write(tmp_path, "c.csv", rows(n)))
    assert ids.tolist() == list(range(n)) and cids[B + 1] == f"g{(B + 1) % 3}"
    cases = [
        # (edits, line named): the first faulty row wins, a repeat included
        ({"r3": "1,g0", f"r{B + 1}": f"{B + 1},"}, "line 5: duplicate id 1"),
        ({"r3": "3, ", f"r{B + 1}": "1,g0"}, "line 5: empty coalition id"),
        ({f"r{B + 4}": "2,g0", f"r{B + 9}": "x,g0"}, rf"line {B + 6}: duplicate id 2"),
        ({f"r{B + 4}": f"{B + 4},", f"r{B + 9}": "2,g0"}, rf"line {B + 6}: empty coalition"),
        ({f"r{2 * B + 1}": "7,g0"}, rf"line {2 * B + 3}: duplicate id 7"),
    ]
    for edits, message in cases:
        with pytest.raises(InputError, match=message):
            parse_coalition_file(_write(tmp_path, "c.csv", rows(n, **edits)))


def test_blank_lines_do_not_end_the_file(tmp_path):
    # a run of blank lines longer than a block is skipped like a short one
    p = _write(tmp_path, "d.csv", "id,label,f0,f1\n0,x,1,2\n" + "\n" * (2 * B + 5) + "1,y,3,4\n")
    assert parse_dataset(p, "knn").ids == [0, 1]


def test_parse_across_blocks_matches_examples(tmp_path):
    n = 2 * B + 3
    rows = [f" {i} ,{' x' if i % 3 else 'y '},b{i % 4} ,{'' if i % 5 == 0 else f' g{i % 7}'}"
            for i in range(n)]
    parsed = parse_dataset(_write(tmp_path, "d.csv", "id,label,bin,coalition\n" + "\n".join(rows)),
                           "frequency")
    built = Dataset(Example(i, "x" if i % 3 else "y", bin=f"b{i % 4}",
                            coalition=None if i % 5 == 0 else f"g{i % 7}") for i in range(n))
    assert parsed.examples == built.examples
    assert parsed.coalition_codes()[0] == built.coalition_codes()[0]
    assert parsed.coalition_codes()[1].tolist() == built.coalition_codes()[1].tolist()
    assert parsed.label_mask("y").tolist() == built.label_mask("y").tolist()


def test_parse_and_write_hold_no_text_column(tmp_path):
    # the parser keeps no cell string past its block and the writer no text
    # past its block: traced peaks stay within a small multiple of the
    # arrays, where whole-file text columns take over ten times them
    n = 20_000
    rng = np.random.default_rng(18)
    feats = rng.normal(size=(n, 4)).round(6)
    path = _knn_file(tmp_path, [f"{i},{'xy'[i % 2]},{a},{b},{c},{d}"
                                for i, (a, b, c, d) in enumerate(feats.tolist())])
    path.write_text(path.read_text().replace("f0,f1", "f0,f1,f2,f3", 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = parse_dataset(path, "knn")
        parse_peak = tracemalloc.get_traced_memory()[1] - before
        report = assemble_report("shapley-knn", "float", ds, rng.normal(size=n), 1, 0.0, k=3)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_report(report, tmp_path / "r.json", csv=tmp_path / "r.csv")
        write_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.feature_matrix(), feats) and ds.feature_matrix().flags.f_contiguous
    parsed = ds.id_array().nbytes + ds.feature_matrix().nbytes + n  # one int8 label code a row
    assert parse_peak < 3 * parsed, (parse_peak, parsed)
    written = report.ids.nbytes + report.value_column.nbytes
    assert write_peak < 3 * written, (write_peak, written)


def _parsed(parse, path):
    """What a parse gives, as plain values: a dataset's or a coalition
    file's columns (feature bits included), or the InputError's message."""
    try:
        result = parse(path)
    except InputError as exc:
        return str(exc)
    if isinstance(result, tuple):  # parse_coalition_file
        return result[0].dtype, result[0].tolist(), result[1]
    symbols, labels = result.label_column()
    names, codes = result.coalition_codes()
    try:
        features = result.feature_matrix().tobytes()
    except InputError:  # a frequency dataset has none
        features = None
    return (result.id_array().dtype, result.ids, symbols, labels.dtype, labels.tolist(),
            [ex.bin for ex in result], names, codes.tolist(), features)


def _both_readers(monkeypatch, parse, path):
    """``_parsed`` with numpy's C reader typing what it can, then with
    csv.reader forced on every block, and the C reader's verdict on each
    block it was offered."""
    real, typed, outcomes = divvy_io._typed_block, [], []

    def counted(*args):
        block = real(*args)
        typed.append(block is not None)
        return block

    for reader in (counted, lambda *args: None):
        monkeypatch.setattr(divvy_io, "_typed_block", reader)
        outcomes.append(_parsed(parse, path))
    monkeypatch.setattr(divvy_io, "_typed_block", real)
    return outcomes, typed


def _typed_cases():
    """(name, family, header, rows) for files the two readers must read
    alike, each three blocks long."""
    rng = np.random.default_rng(20)
    n = 2 * B + 40
    scaled = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 8, (n, 2))
    feats = [[repr(x) for x in row] for row in scaled.tolist()]
    feats[5] = ["-0.0", "1e-310"]
    knn = [f"{i},{'xy'[i % 3 == 0]},g{i % 5},{a},{b}" for i, (a, b) in enumerate(feats)]
    freq = [f"{i},b{i % 7},{'xy'[i % 2]},{'' if i % 4 == 0 else f'g{i % 3}'}" for i in range(n)]
    coal = [f"{i},c{i % 6}" for i in range(n)]
    kh, fh, ch = "id,label,coalition,f0,f1", "id,bin,label,coalition", "id,coalition"

    def edit(rows, cells):
        rows = list(rows)
        for r, cell in cells.items():
            rows[r] = cell
        return rows

    late = 2 * B + 7
    yield "plain", "knn", kh, knn
    yield "plain", "frequency", fh, freq
    yield "plain", "coalitions", ch, coal
    yield "padded", "knn", kh, [" " + r.replace(",", " ,\t") + " " for r in knn]
    yield "padded", "frequency", fh, [r.replace(",", " , ") for r in freq]
    yield "padded", "coalitions", ch, [f" {r} " for r in coal]
    yield "quoted comma", "knn", kh, edit(knn, {3: '3,x,"g,0",1,2'})
    yield "quoted comma", "coalitions", ch, edit(coal, {late: f'{late},"c,1"'})
    # the quoted cell opens on the first block's last line and closes on the next
    yield "quoted newline", "frequency", fh, edit(freq, {B - 1: f'{B - 1},b0,x,"g\n0"'})
    yield "blank lines", "knn", kh, edit(knn, {2: knn[2] + "\n\n\r\n", late: knn[late] + "\n"})
    yield "whitespace-only line", "knn", kh, edit(knn, {late: knn[late] + "\n \t"})
    yield "crlf", "knn", kh, [r + "\r" for r in knn]
    yield "bare cr", "frequency", fh, ["\r".join(freq)]
    yield "bare cr", "coalitions", ch, ["\r".join(coal) + "\r\r"]
    for cell in ("1_000_000", "٣٣٣٣", "Ǿ", "-1", str(2**63), "1.0", ""):
        yield f"id {cell!r}", "knn", kh, edit(knn, {late: f"{cell},x,g0,1,2"})
        yield f"id {cell!r}", "coalitions", ch, edit(coal, {4: f"{cell},c0"})
    for cell in ("1_0.5", "٣.٥", "nan", "inf", "-Infinity", "1e400", "", "1,5", "0x1p3"):
        yield f"feature {cell!r}", "knn", kh, edit(knn, {late: f"{late},x,g0,1,{cell}"})
    yield "feature \\x1c", "knn", kh, edit(knn, {9: "9,x,g0,1,\x1c2"})
    yield "repeated name", "knn", kh + ",f1,label", [f"{r},{i % 3}.5,{'yx'[i % 2]}"
                                                    for i, r in enumerate(knn)]
    yield "repeated id", "coalitions", "id,coalition,id", [f"x{r},{i}" for i, r in enumerate(coal)]
    yield "empty label", "knn", kh, edit(knn, {late: f"{late}, ,g0,1,2"})
    yield "empty bin", "frequency", fh, edit(freq, {late: f"{late},,x,g0"})
    yield "empty coalition", "coalitions", ch, edit(coal, {late: f"{late},\t"})
    yield "non-ascii label", "knn", kh, [r.replace(",y,", ",é,") for r in knn]
    # csv.reader refuses a cell past its limit, quoted or not
    for cell in ("x" * 131_073, '"' + "x" * 131_073 + '"', "x" * 100_000):
        yield f"{len(cell)}-character cell", "coalitions", ch, edit(coal, {late: f"{late},{cell}"})
    yield "third label late", "frequency", fh, edit(freq, {late: f"{late},b0,z,"})
    yield "duplicate id late", "knn", kh, edit(knn, {late: "3,x,g0,1,2"})
    yield "duplicate id late", "coalitions", ch, edit(coal, {late: "3,c0"})
    yield "wrong count after a fault", "knn", kh, edit(knn, {3: "3,,g0,1,2", late: f"{late},x,1,2"})
    yield "wrong count after a fault", "coalitions", ch, edit(coal, {3: "3,", late: "9"})


def test_typed_reader_matches_csv_reader(tmp_path, monkeypatch):
    # numpy's C reader types the blocks it can and csv.reader the rest; on
    # every file both give the same columns, bit for bit, or the same fault
    parsers = {"knn": lambda p: parse_dataset(p, "knn"),
               "frequency": lambda p: parse_dataset(p, "frequency"),
               "coalitions": parse_coalition_file}
    verdicts = {}
    for name, family, header, rows in _typed_cases():
        path = tmp_path / "d.csv"
        path.write_bytes((header + "\n" + "\n".join(rows) + "\n").encode())
        (typed, forced), verdicts[name, family] = _both_readers(monkeypatch, parsers[family], path)
        assert typed == forced, (name, family)
    if not divvy_io._C_TYPED:  # numpy before 2.4: csv.reader reads every block
        assert not any(map(any, verdicts.values()))
        return
    # the cases above are not all read by csv.reader: plain, padded and
    # blank-lined files are typed in C throughout
    for key in [("plain", "knn"), ("plain", "frequency"), ("plain", "coalitions"),
                ("padded", "knn"), ("padded", "coalitions"), ("blank lines", "knn"),
                ("crlf", "knn"), ("bare cr", "frequency")]:
        assert verdicts[key] and all(verdicts[key]), key
    assert verdicts["id '-1'", "knn"] == [True, True, False]  # only its block is read again
    assert verdicts["quoted comma", "knn"] == [], "a quote hands the file to csv.reader"


def test_numpy_before_2_4_reads_every_block_through_csv_reader(tmp_path, monkeypatch):
    # numpy 1.x's C reader reads an int64 cell "1.7" as 1, with only a
    # DeprecationWarning; below 2.4 it is never called and such an id is refused
    calls = []
    monkeypatch.setattr(divvy_io, "_C_TYPED", False)
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(args))
    rows = "".join(f"{i},{'xy'[i % 2]},{i}.5\n" for i in range(B + 2))
    path = _write(tmp_path, "d.csv", "id,label,f0\n" + rows)
    assert parse_dataset(path, "knn").ids == list(range(B + 2))
    path.write_text("id,label,f0\n" + rows + "1.7,x,1\n")
    with pytest.raises(InputError, match=rf"line {B + 4}: id '1.7' is not an integer"):
        parse_dataset(path, "knn")
    path.write_text("id,coalition\n0,a\n1e3,b\n")
    with pytest.raises(InputError, match=r"line 3: id '1e3' is not an integer"):
        parse_coalition_file(path)
    assert calls == []


def test_typed_reader_lets_no_warning_through(tmp_path):
    # a header-only file and an all-blank body read as no rows, as before,
    # without numpy's "input contained no data" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for body in ("", "\n", "\n\r\n\r\n" * B):
            path = _write(tmp_path, "d.csv", "id,label,f0\n" + body)
            assert parse_dataset(path, "knn").ids == []
            path.write_bytes(("id,coalition\n" + body).encode())
            ids, cells = parse_coalition_file(path)
            assert ids.tolist() == [] and cells == []


@pytest.mark.parametrize("reader", ["dataset", "queries", "coalitions", "value function",
                                    "report"])
def test_text_that_is_not_utf8_is_an_input_error(tmp_path, reader):
    # a byte such as \xe9 that UTF-8 cannot decode, early or in a later
    # block, names the file in an InputError instead of a traceback
    texts = {
        "dataset": (lambda p: parse_dataset(p, "frequency"),
                    "id,bin,label\n" + "".join(f"{i},b0,x\n" for i in range(3 * B)), "2,b0,x"),
        "queries": (lambda p: parse_queries(p, "frequency"), "bin,label\nb0,x\n" * B, "b0,x"),
        "coalitions": (parse_coalition_file,
                       "id,coalition\n" + "".join(f"{i},g0\n" for i in range(3 * B)), "5,g0"),
        "value function": (parse_value_function,
                           '{"family": "majority", "correct": 1, "wrong": -1, "none": 0, '
                           '"note": "caf"}', "caf"),
    }
    if reader == "report":
        path = tmp_path / "r.json"
        write_report(_sample_report("exact"), path)
        parse, text, cell = read_report, path.read_text(), '"x"'
        text = text.replace("{", '{"note": "x",', 1)
    else:
        parse, text, cell = texts[reader]
    for at in (text.index(cell), text.rindex(cell)):
        path = tmp_path / "bad"
        data = text.encode()
        path.write_bytes(data[:at + len(cell) - 1] + b"\xe9" + data[at + len(cell) - 1:])
        with pytest.raises(InputError, match=rf"{re.escape(str(path))}: 'utf-8' codec can't"):
            parse(path)


def _reference_columns(text: str):
    """A frequency dataset's label, bin and coalition columns as a row by
    row reading codes them: every row through csv.reader, blank ones
    skipped, each cell stripped; labels and bins numbered in order of first
    appearance, coalitions (empty: -1) by their sorted names.  Or the
    message naming the first empty label or bin, else a third label's
    first line."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row][1:]
    symbols, bins, labels, bin_col, cells = {}, {}, [], [], []
    for line, (_, b, lab, c) in enumerate(rows, start=2):
        b, lab, c = b.strip(), lab.strip(), c.strip() or None
        if not lab or not b:
            return f"line {line}: empty {'label' if not lab else 'bin'}"
        labels.append(symbols.setdefault(lab, (len(symbols), line))[0])
        bin_col.append(bins.setdefault(b, len(bins)))
        cells.append(c)
    if len(symbols) > 2:
        third, (_, line) = list(symbols.items())[2]
        return f"line {line}: labels must be binary; found a third symbol {third!r}"
    names = sorted({c for c in cells if c is not None})
    return (tuple(symbols), labels, bins, bin_col, tuple(names),
            [-1 if c is None else names.index(c) for c in cells])


def test_coded_columns_match_a_row_by_row_reading(tmp_path, monkeypatch):
    # labels, bins and coalitions are coded a block at a time, each raw
    # cell stripped once; both block readers give the columns, and the
    # faults, of reading row by row, whitespace variants of one cell alike
    rng = random.Random(2300)
    cells = {"label": ["x", " x", "x ", "\tx", "y", " y ", '" y"'],
             "bin": ["b0", " b0", "b0 ", "b1", "b10", "B1", '"b,2"'],
             "coalition": ["g0", " g0", "g1", "g10", "", " ", "\t", '" g1 "']}
    faults = [None, None, ("label", ""), ("label", " "), ("bin", " \t"), ("label", "z")]
    real, typed_blocks = divvy_io._typed_block, []

    def counted(*args):
        block = real(*args)
        typed_blocks.append(block is not None)
        return block

    for case in range(60):
        n = rng.choice([1, 7, B - 1, B, 2 * B + 17])
        pool = {col: [c for c in cs if case % 3 or '"' not in c] for col, cs in cells.items()}
        if case % 5 == 0:
            pool["bin"] = pool["bin"] + ["bé"]  # not ASCII: its blocks go to csv.reader
        rows = [[str(i), *(rng.choice(pool[col]) for col in ("bin", "label", "coalition"))]
                for i in range(n)]
        fault = rng.choice(faults)
        if fault:
            rows[rng.randrange(n)][1 + ["bin", "label"].index(fault[0])] = fault[1]
        text = "id,bin,label,coalition\n" + "".join(",".join(r) + "\n" for r in rows)
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        want = _reference_columns(text)
        for typed in (counted, lambda *args: None):
            monkeypatch.setattr(divvy_io, "_typed_block", typed)
            try:
                ds = parse_dataset(path, "frequency")
            except InputError as exc:
                assert isinstance(want, str) and str(exc) == f"{path} {want}", (case, exc)
                continue
            symbols, labels = ds.label_column()
            bins, bin_col = ds.bin_codes()
            names, codes = ds.coalition_codes()
            assert labels.dtype == np.int8 and bin_col.dtype == codes.dtype == np.intp
            got = (symbols, labels.tolist(), dict(bins), bin_col.tolist(), names, codes.tolist())
            assert got == want, case
    monkeypatch.setattr(divvy_io, "_typed_block", real)
    assert any(typed_blocks) == divvy_io._C_TYPED and not all(typed_blocks)
    # hundreds of labels (codes past int8) name the third one's first line
    rows = [f"{i},b0,{'xy'[i % 2] if i < B + 3 or i % 3 else f'l{i}'}" for i in range(3 * B)]
    path = _write(tmp_path, "many.csv", "id,bin,label\n" + "\n".join(rows))
    third = next(r for r in range(B + 3, 3 * B) if r % 3 == 0)
    with pytest.raises(InputError, match=rf"line {third + 2}: .*third symbol 'l{third}'"):
        parse_dataset(path, "frequency")
    # the coalition file codes its cells the same way and gives them back as text
    path = _write(tmp_path, "c.csv", "id,coalition\n" + "".join(
        f"{i},{[' g0', 'g0 ', 'g1', ' g10'][i % 4]}\n" for i in range(B + 9)))
    ids, cids = parse_coalition_file(path)
    assert cids == [["g0", "g0", "g1", "g10"][i % 4] for i in range(B + 9)]


def _sequences(obj, seen):
    """Each list or tuple reachable from ``obj`` through containers and
    instance attributes, arrays excluded."""
    if id(obj) in seen or isinstance(obj, (str, bytes, np.ndarray)):
        return
    seen.add(id(obj))
    if isinstance(obj, (list, tuple)):
        yield obj
    items = obj.items() if hasattr(obj, "items") else []
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    for key, value in items:
        yield from _sequences(key, seen)
        yield from _sequences(value, seen)


def test_a_parsed_frequency_dataset_holds_no_sequence_per_example(tmp_path):
    # labels, bins and coalitions are held as codes and features are absent:
    # no list or tuple of n entries exists until the row views are asked for
    n = B + 11
    path = _write(tmp_path, "d.csv", "id,bin,label,coalition\n" + "".join(
        f"{i},b{i % 3},{'xy'[i % 2]},{'' if i % 5 else 'g0'}\n" for i in range(n)))
    ds = parse_dataset(path, "frequency")
    ds.bin_codes(), ds.coalition_codes(), ds.label_mask("x"), ds.require_bins()
    assert [len(s) for s in _sequences(ds, set()) if len(s) >= n] == []
    assert ds.examples[4] == Example(4, "x", bin="b1")
    assert n in [len(s) for s in _sequences(ds, set())]


def _coded_reports(mode):
    """Frequency reports, whose rows read their values by group code, over
    more rows than one writer block: Shapley with some coalitions missing
    and Owen, each with and without per-query columns."""
    rng = random.Random(f"coded-{mode}")
    n = 2 * 1024 + 37
    rows = [(i, rng.choice("xy"), f"b{rng.randrange(5)}", rng.choice(["g0", "g1", "g2"]))
            for i in rng.sample(range(10 * n), n)]
    full = Dataset(Example(i, lab, bin=b, coalition=c) for i, lab, b, c in rows)
    partial = Dataset(Example(i, lab, bin=b, coalition=c if i % 4 else None)
                      for i, lab, b, c in rows)
    queries = [Query(label=rng.choice("xy"), bin=f"b{rng.randrange(5)}") for _ in range(4)]
    vf = MajorityValueFunction(Fraction(3, 2), Fraction(-5), Fraction(1, 3))
    for per_query in (False, True):
        yield shapley_frequency_report(partial, queries, vf, mode, per_query)
        yield owen_frequency_report(full, queries, vf, mode, per_query)


def _written(report, directory):
    directory.mkdir()
    write_report(report, directory / "r.json", csv=directory / "r.csv")
    return (directory / "r.json").read_bytes(), (directory / "r.csv").read_bytes()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_coded_report_writes_the_bytes_of_its_rows(tmp_path, mode):
    # each group's value is encoded once and gathered by code: the files are
    # those of the same values written row by row, and read back equal
    for r, report in enumerate(_coded_reports(mode)):
        assert report.value_codes is not None and len(report.value_codes) == len(report.ids)
        plain = dataclasses.replace(report, value_codes=None)
        assert plain == report
        coded_files = _written(report, tmp_path / f"coded{r}")
        assert coded_files == _written(plain, tmp_path / f"plain{r}")
        assert read_report(tmp_path / f"coded{r}" / "r.json") == report
    # a table of non-finite, signed-zero and shared values, gathered by code
    rng = np.random.default_rng(23)
    ds = Dataset(Example(i, "x", bin="b0") for i in range(1500))
    table = ([Fraction(1, 3), Fraction(-7, 2), Fraction(0), Fraction(1, 3)] if mode == "exact"
             else [float("nan"), float("inf"), -float("inf"), -0.0, 0.1])
    codes = rng.integers(0, len(table), len(ds))
    report = assemble_report("shapley-freq", mode, ds, table, 3, 0.5, value_codes=codes,
                             per_query=[table[::-1], table])
    assert [str(v) for v in report.value_column] == [str(table[c]) for c in codes]
    assert [str(v) for v in report.per_query[0]] == [str(table[::-1][c]) for c in codes]
    assert (_written(report, tmp_path / "table")
            == _written(dataclasses.replace(report, value_codes=None), tmp_path / "rows"))
