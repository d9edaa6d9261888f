"""CSV/JSON parsing and the report file round trip."""

import json
from fractions import Fraction

import numpy as np
import pytest

from divvy import (
    MajorityValueFunction,
    TableValueFunction,
    read_report,
    report_to_json,
    shapley_frequency_report,
    write_report,
)
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
    assert mapping == {0: "g0", 1: "g1"}
    ds2 = with_coalitions(ds, mapping)
    assert [ex.coalition for ex in ds2] == ["g0", "g1"]
    with pytest.raises(InputError, match="cover"):
        with_coalitions(ds, {0: "g0"})
    bad = _write(tmp_path, "cb.csv", "id,coalition\n0,g0\n0,g1\n")
    with pytest.raises(InputError, match="duplicate"):
        parse_coalition_file(bad)
    empty = _write(tmp_path, "ce.csv", "id,coalition\n0,\n")
    with pytest.raises(InputError, match="empty coalition"):
        parse_coalition_file(empty)


def _sample_report(mode="exact"):
    from divvy import Dataset, Example, Query

    ds = Dataset([
        Example(0, "x", bin="b0", coalition="g0"),
        Example(1, "y", bin="b0", coalition="g1"),
    ])
    vf = MajorityValueFunction(Fraction(10), Fraction(-10), Fraction(0))
    return shapley_frequency_report(ds, [Query(label="x", bin="b0")], vf, mode=mode)


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


def test_report_equality_compares_columns(tmp_path):
    for mode in ("exact", "float"):
        rep = _sample_report(mode)
        path = tmp_path / f"r_{mode}.json"
        write_report(rep, path)
        back = read_report(path)
        assert back == rep
        back.coalition_column = ["g1", "g0"]
        assert back != rep
