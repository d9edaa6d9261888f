"""Exit codes, report wiring and flag handling for the command line front end."""

import importlib
import itertools
import json
import os
import random
import re
import runpy
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import divvy
import divvy.freq_owen as freq_owen
import divvy.io
import divvy.report
from divvy.cli import run_command


@pytest.fixture
def freq_files(tmp_path):
    data = tmp_path / "data.csv"
    rows = ["id,bin,label"]
    for i in range(6):
        rows.append(f"{i},b{i % 2},{'x' if i % 3 else 'y'}")
    data.write_text("\n".join(rows) + "\n")
    queries = tmp_path / "queries.csv"
    queries.write_text("bin,label\nb0,x\nb1,y\n")
    vf = tmp_path / "vf.json"
    vf.write_text('{"family": "majority", "correct": 100, "wrong": -500, "none": 0}')
    return data, queries, vf


@pytest.fixture
def knn_files(tmp_path):
    data = tmp_path / "knn.csv"
    rows = ["id,label,f0,f1"]
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.5), (2.0, 2.0), (0.5, 0.5)]
    for i, (a, b) in enumerate(coords):
        rows.append(f"{i},{'x' if i % 2 else 'y'},{a},{b}")
    data.write_text("\n".join(rows) + "\n")
    queries = tmp_path / "q.csv"
    queries.write_text("label,f0,f1\ny,0.1,0.2\n")
    return data, queries


def _freq_argv(data, queries, vf, *extra):
    return [
        "shapley-freq",
        "--data", str(data),
        "--queries", str(queries),
        "--value", str(vf),
        *extra,
    ]


def _strip_wall(text):
    return re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', text)


def test_shapley_freq_stdout(freq_files, capsys):
    data, queries, vf = freq_files
    assert run_command(_freq_argv(data, queries, vf)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["method"] == "shapley-freq"
    assert doc["meta"]["numeric_mode"] == "float"
    assert doc["meta"]["query_count"] == 2
    assert len(doc["examples"]) == 6
    assert doc["coalitions"] == [], "no coalition column, so no group totals"
    assert all(isinstance(r["value"], float) for r in doc["examples"])


def test_exact_mode_emits_fraction_strings(freq_files, capsys):
    data, queries, vf = freq_files
    assert run_command(_freq_argv(data, queries, vf, "--numeric", "exact")) == 0
    doc = json.loads(capsys.readouterr().out)
    for row in doc["examples"]:
        Fraction(row["value"])  # parses, i.e. no float leaked through


def test_out_csv_and_per_query(freq_files, tmp_path, capsys):
    data, queries, vf = freq_files
    out = tmp_path / "report.json"
    csv_path = tmp_path / "values.csv"
    rc = run_command(
        _freq_argv(data, queries, vf, "--numeric", "exact",
                   "--out", str(out), "--csv", str(csv_path), "--per-query")
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert len(doc["per_query"]) == 2
    for qrow in doc["per_query"]:
        assert len(qrow["values"]) == 6
    # per-query contributions add up to the published totals
    for row in doc["examples"]:
        parts = [
            Fraction(v["value"])
            for q in doc["per_query"]
            for v in q["values"]
            if v["id"] == row["id"]
        ]
        assert len(parts) == 2 and sum(parts) == Fraction(row["value"])
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "id,coalition,value"
    assert len(lines) == 7


@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_stdout_equals_the_out_file_at_block_edges(tmp_path, capsysbinary, numeric):
    # the report goes to stdout or to --out through one writer; both carry
    # the same bytes, and the CSV beside them too, at every block boundary
    block = divvy.report._BLOCK
    queries = tmp_path / "q.csv"
    queries.write_text("label,f0,f1\nx,0.5,1\ny,3,-2\n")
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        data = tmp_path / "d.csv"
        data.write_text("id,label,coalition,f0,f1\n" + "".join(
            f"{7 * i},{'xy'[i % 2]},{'' if i % 4 == 0 else f'g{i % 5}'},{i % 13},{i % 11 / 3}\n"
            for i in range(n)))
        argv = ["shapley-knn", "--data", str(data), "--queries", str(queries), "--k", "3",
                "--values", "1,-1,0.5", "--numeric", numeric, "--per-query"]
        assert run_command(argv + ["--csv", str(tmp_path / "a.csv")]) == 0
        printed = capsysbinary.readouterr().out
        assert run_command(argv + ["--out", str(tmp_path / "b.json"),
                                   "--csv", str(tmp_path / "b.csv")]) == 0
        assert capsysbinary.readouterr().out == b""
        written = (tmp_path / "b.json").read_bytes()
        assert _strip_wall(printed.decode()) == _strip_wall(written.decode()), n
        assert len(json.loads(written)["examples"]) == n
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes(), n


def test_unwritable_output_exits_1(freq_files, tmp_path, capsys):
    for flag in ("--out", "--csv"):
        argv = _freq_argv(*freq_files, flag, str(tmp_path / "absent" / "r"))
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert "cannot write the report" in err and "absent" in err, flag
    # a report is renamed into place only once every output is complete:
    # a CSV that cannot be written leaves no JSON file, whole or partial,
    # and no temporary file beside it
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = _freq_argv(*freq_files, "--out", str(tmp_path / "o.json"),
                      "--csv", str(tmp_path / "absent" / "r.csv"))
    assert run_command(argv) == 1
    assert "cannot write the report" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_rerun_is_stable_except_wall_time(freq_files, tmp_path):
    data, queries, vf = freq_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = _freq_argv(data, queries, vf, "--numeric", "exact")
    assert run_command(argv + ["--out", str(a)]) == 0
    assert run_command(argv + ["--out", str(b)]) == 0
    assert _strip_wall(a.read_text()) == _strip_wall(b.read_text())


def test_cli_matches_oracle(freq_files, tmp_path):
    data, queries, vf = freq_files
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    assert run_command(
        _freq_argv(data, queries, vf, "--numeric", "exact", "--out", str(fast))
    ) == 0
    rc = run_command([
        "oracle", "--family", "frequency", "--method", "exact-shapley",
        "--data", str(data), "--queries", str(queries), "--value", str(vf),
        "--out", str(slow),
    ])
    assert rc == 0
    fast_doc = json.loads(fast.read_text())
    slow_doc = json.loads(slow.read_text())
    fast_vals = {r["id"]: Fraction(r["value"]) for r in fast_doc["examples"]}
    slow_vals = {r["id"]: Fraction(r["value"]) for r in slow_doc["examples"]}
    assert fast_vals == slow_vals


def test_owen_freq_with_coalition_file(freq_files, tmp_path):
    data, queries, vf = freq_files
    groups = tmp_path / "groups.csv"
    groups.write_text("id,coalition\n" + "\n".join(f"{i},g{i % 2}" for i in range(6)) + "\n")
    out = tmp_path / "owen.json"
    rc = run_command([
        "owen-freq",
        "--data", str(data), "--queries", str(queries), "--value", str(vf),
        "--coalitions", str(groups), "--numeric", "exact", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["method"] == "owen-freq"
    assert {r["coalition"] for r in doc["examples"]} == {"g0", "g1"}
    by_group = {c["id"]: Fraction(c["value"]) for c in doc["coalitions"]}
    member_sums = {"g0": Fraction(0), "g1": Fraction(0)}
    for r in doc["examples"]:
        member_sums[r["coalition"]] += Fraction(r["value"])
    assert by_group == member_sums


def test_owen_without_coalitions_is_an_input_error(freq_files, capsys):
    data, queries, vf = freq_files
    rc = run_command([
        "owen-freq", "--data", str(data), "--queries", str(queries), "--value", str(vf),
    ])
    assert rc == 1
    assert "coalition" in capsys.readouterr().err


def test_knn_commands(knn_files, tmp_path, capsys):
    data, queries = knn_files
    out = tmp_path / "knn.json"
    rc = run_command([
        "shapley-knn", "--data", str(data), "--queries", str(queries),
        "--k", "3", "--values", "1,-1,0", "--numeric", "exact", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["method"] == "shapley-knn"
    assert doc["meta"]["k"] == 3
    assert sum(Fraction(r["value"]) for r in doc["examples"]) != 0

    groups = tmp_path / "g.csv"
    groups.write_text("id,coalition\n0,a\n1,a\n2,b\n3,b\n4,b\n")
    rc = run_command([
        "owen-knn", "--data", str(data), "--queries", str(queries),
        "--k", "1", "--values", "1,-1,0", "--coalitions", str(groups), "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["meta"]["method"] == "owen-knn"
    capsys.readouterr()

    # a coalition file naming an id the dataset lacks is refused, by name
    groups.write_text("id,coalition\n0,a\n1,a\n2,b\n3,b\n4,b\n99,b\n")
    rc = run_command([
        "owen-knn", "--data", str(data), "--queries", str(queries),
        "--k", "1", "--values", "1,-1,0", "--coalitions", str(groups),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "g.csv names unknown example ids [99]" in err, err

    rc = run_command([
        "shapley-knn", "--data", str(data), "--queries", str(queries),
        "--k", "2", "--values", "1,-1,0",
    ])
    assert rc == 1
    assert "odd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["shapley-freq", "owen-freq", "shapley-knn", "owen-knn", "oracle"]
)
def test_no_cache_is_refused(command, freq_files, knn_files, tmp_path, capsys):
    # every cache is always on and changes no number, so no command takes a
    # flag to turn one off; euclidean is the only distance the CLI offers,
    # so no command takes a flag to choose it
    freq_data, freq_queries, vf = freq_files
    knn_data, knn_queries = knn_files
    freq_groups, knn_groups = tmp_path / "fg.csv", tmp_path / "kg.csv"
    freq_groups.write_text("id,coalition\n" + "\n".join(f"{i},g{i % 2}" for i in range(6)) + "\n")
    knn_groups.write_text("id,coalition\n0,a\n1,a\n2,b\n3,b\n4,b\n")
    freq = ["--data", str(freq_data), "--queries", str(freq_queries), "--value", str(vf)]
    knn = ["--data", str(knn_data), "--queries", str(knn_queries), "--k", "3",
           "--values", "1,-1,0"]
    argv = {
        "shapley-freq": ["shapley-freq", *freq],
        "owen-freq": ["owen-freq", *freq, "--coalitions", str(freq_groups)],
        "shapley-knn": ["shapley-knn", *knn],
        "owen-knn": ["owen-knn", *knn, "--coalitions", str(knn_groups)],
        "oracle": ["oracle", "--family", "frequency", "--method", "exact-shapley", *freq],
    }[command] + ["--out", str(tmp_path / "out.json")]
    assert run_command(argv) == 0
    capsys.readouterr()
    for flag in (["--no-cache"], ["--metric", "euclidean"]):
        assert run_command(argv + flag) == 1
        assert flag[0] in capsys.readouterr().err


def test_argument_errors_exit_1(freq_files, tmp_path, capsys):
    data, queries, vf = freq_files
    assert run_command(["no-such-command"]) == 1
    assert run_command(["shapley-freq", "--data", str(data)]) == 1
    assert run_command(_freq_argv(tmp_path / "missing.csv", queries, vf)) == 1
    assert run_command(_freq_argv(data, queries, vf, "--numeric", "decimal")) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_third_label_exits_1(tmp_path, freq_files, capsys):
    data, _, vf = freq_files
    queries = tmp_path / "bad_q.csv"
    queries.write_text("bin,label\nb0,zebra\n")
    assert run_command(_freq_argv(data, queries, vf)) == 1
    assert "third symbol" in capsys.readouterr().err


def test_input_that_is_not_utf8_exits_1(tmp_path, freq_files, capsys):
    # a dataset, query, value-function or coalition file holding a byte
    # UTF-8 cannot decode is an input error naming that file, not a traceback
    data, queries, vf = freq_files
    coalitions = tmp_path / "c.csv"
    coalitions.write_text("id,coalition\n" + "".join(f"{i},g{i % 2}\n" for i in range(6)))
    for path in (data, queries, vf, coalitions):
        good = path.read_bytes()
        path.write_bytes(good.replace(b"0", b"0\xe9", 1))
        argv = _freq_argv(data, queries, vf, "--coalitions", str(coalitions))
        assert run_command(["owen-freq", *argv[1:]]) == 1
        assert f"cannot read {path}: 'utf-8' codec can't decode" in capsys.readouterr().err
        path.write_bytes(good)
    assert run_command(["owen-freq", *argv[1:]]) == 0


@pytest.fixture
def big_freq(tmp_path):
    data = tmp_path / "big.csv"
    rows = ["id,bin,label"] + [f"{i},b0,{'x' if i % 2 else 'y'}" for i in range(11)]
    data.write_text("\n".join(rows) + "\n")
    queries = tmp_path / "bq.csv"
    queries.write_text("bin,label\nb0,x\n")
    vf = tmp_path / "v.json"
    vf.write_text('{"family": "majority", "correct": 1, "wrong": -1, "none": 0}')
    return data, queries, vf


def _oracle_argv(data, queries, vf, *extra):
    return [
        "oracle", "--family", "frequency", "--method", "exact-shapley",
        "--data", str(data), "--queries", str(queries), "--value", str(vf),
        *extra,
    ]


def test_oracle_guard_paths(big_freq, freq_files, capsys):
    data, queries, vf = big_freq
    assert run_command(_oracle_argv(data, queries, vf)) == 2
    assert "blocked" in capsys.readouterr().err
    # overriding is honored; exercise it on a small instance (the point of the
    # guard is that a factorial sweep past it really does take forever)
    small_data, small_queries, small_vf = freq_files
    assert run_command(
        _oracle_argv(small_data, small_queries, small_vf, "--yes-i-know")
    ) == 0


def test_mc_shapley_reporting(big_freq, tmp_path):
    data, queries, vf = big_freq
    argv = [
        "oracle", "--family", "frequency", "--method", "mc-shapley",
        "--data", str(data), "--queries", str(queries), "--value", str(vf),
        "--samples", "300", "--seed", "7",
    ]
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run_command(argv + ["--out", str(a)]) == 0
    assert run_command(argv + ["--out", str(b)]) == 0
    assert _strip_wall(a.read_text()) == _strip_wall(b.read_text())
    doc = json.loads(a.read_text())
    assert doc["meta"]["oracle_method"] == "mc-shapley"
    assert doc["meta"]["samples"] == 300
    assert doc["meta"]["seed"] == 7
    assert doc["meta"]["numeric_mode"] == "float"
    assert run_command(argv[:-2] + ["--seed", "8", "--out", str(c)]) == 0
    vals_a = [r["value"] for r in doc["examples"]]
    vals_c = [r["value"] for r in json.loads(c.read_text())["examples"]]
    assert vals_a != vals_c, "a fresh seed should draw fresh permutations"


def test_mc_shapley_one_player_matches_the_one_walk_for_all():
    # the CLI estimates every player from one walk of the permutation
    # stream; a one-player call must give the same numbers
    rng = random.Random(31)
    players = [3, 5, 8, 13, 21]
    table = {
        frozenset(c): Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        for r in range(len(players) + 1)
        for c in itertools.combinations(players, r)
    }
    game = divvy.table_game(players, table)
    for samples, seed in ((1, 0), (25, 4), (200, 11)):
        every = divvy.mc_shapley_all(game, samples, seed)
        assert every == {p: divvy.mc_shapley(game, p, samples, seed) for p in players}


def test_oracle_knn_family(knn_files, tmp_path):
    data, queries = knn_files
    out = tmp_path / "o.json"
    rc = run_command([
        "oracle", "--family", "knn", "--method", "exact-shapley",
        "--data", str(data), "--queries", str(queries),
        "--k", "1", "--values", "1,-1,0", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["family"] == "knn"
    assert doc["meta"]["k"] == 1
    fast = tmp_path / "f.json"
    rc = run_command([
        "shapley-knn", "--data", str(data), "--queries", str(queries),
        "--k", "1", "--values", "1,-1,0", "--numeric", "exact", "--out", str(fast),
    ])
    assert rc == 0
    fast_vals = {
        r["id"]: Fraction(r["value"])
        for r in json.loads(fast.read_text())["examples"]
    }
    slow_vals = {
        r["id"]: Fraction(r["value"])
        for r in json.loads(out.read_text())["examples"]
    }
    assert fast_vals == slow_vals


@pytest.mark.parametrize("method", ["exact-shapley", "exact-owen", "mc-shapley"])
@pytest.mark.parametrize("family", ["frequency", "knn"])
def test_oracle_per_query_columns_sum_to_its_totals(tmp_path, family, method):
    # each total is its per-query values summed in query order: exactly, or
    # bit for bit in float (mc-shapley); without --per-query the totals hold
    rng = random.Random(73)
    data, queries = tmp_path / "data.csv", tmp_path / "queries.csv"
    if family == "frequency":
        data.write_text("id,bin,label,coalition\n" + "".join(
            f"{3 * i + 1},b{i % 2},{rng.choice('xy')},g{rng.randrange(3)}\n" for i in range(7)))
        queries.write_text("bin,label\nb0,x\nb1,y\nb0,y\n")
        (tmp_path / "vf.json").write_text('{"family": "majority", "correct": 3, "wrong": -5, '
                                          '"none": 1}')
        rule = ["--value", str(tmp_path / "vf.json")]
    else:
        data.write_text("id,label,f0,f1,coalition\n" + "".join(
            f"{3 * i + 1},{rng.choice('xy')},{rng.uniform(-1, 1)!r},{rng.uniform(-1, 1)!r},"
            f"g{rng.randrange(3)}\n" for i in range(7)))
        queries.write_text("label,f0,f1\nx,0.1,0.2\ny,-0.5,0.3\nx,0.7,-0.9\n")
        rule = ["--k", "3", "--values", "3,-5,1"]
    argv = ["oracle", "--family", family, "--method", method, "--data", str(data),
            "--queries", str(queries), *rule] + (["--samples", "50"] if method == "mc-shapley"
                                                 else [])
    docs = []
    for extra in ([], ["--per-query"]):
        out = tmp_path / f"out{len(docs)}.json"
        assert run_command(argv + ["--out", str(out)] + extra) == 0
        docs.append(json.loads(out.read_text()))
    plain, doc = docs
    assert plain["per_query"] is None and plain["examples"] == doc["examples"]
    assert len(doc["per_query"]) == doc["meta"]["query_count"] == 3
    read = float if method == "mc-shapley" else Fraction
    for r, row in enumerate(doc["examples"]):
        parts = [read(q["values"][r]["value"]) for q in doc["per_query"]]
        assert [q["values"][r]["id"] for q in doc["per_query"]] == [row["id"]] * 3
        total = sum(parts, read(0))
        assert total == read(row["value"]) and repr(total) == repr(read(row["value"]))


@pytest.mark.parametrize("family, method, flag", [
    ("frequency", "exact-shapley", ["--samples", "7"]),
    ("knn", "exact-owen", ["--seed", "3"]),
    ("frequency", "mc-shapley", ["--yes-i-know"]),
    ("knn", "exact-shapley", ["--value", "v.json"]),
    ("frequency", "exact-shapley", ["--k", "5"]),
    ("frequency", "mc-shapley", ["--values", "1,2,3"]),
])
def test_oracle_refuses_a_flag_its_run_ignores(freq_files, knn_files, tmp_path, capsys, family,
                                               method, flag):
    # every accepted flag does what it says: one the family or method
    # would not read exits 1 and names it, where the run without it passes
    data, queries, vf = freq_files
    knn_data, knn_queries = knn_files
    groups = tmp_path / "g.csv"
    groups.write_text("id,coalition\n0,a\n1,a\n2,b\n3,b\n4,b\n")
    if family == "frequency":
        inputs = ["--data", data, "--queries", queries, "--value", vf]
    else:
        inputs = ["--data", knn_data, "--queries", knn_queries, "--k", "1",
                  "--values", "1,-1,0", "--coalitions", groups]
    argv = ["oracle", "--family", family, "--method", method, *map(str, inputs),
            "--out", str(tmp_path / "o.json")]
    assert run_command(argv) == 0, capsys.readouterr().err
    assert run_command(argv + flag) == 1
    err = capsys.readouterr().err
    assert err.startswith("divvy: error:") and f"does not read {flag[0]}" in err, err


def test_oracle_frequency_requires_value(big_freq, capsys):
    data, queries, _ = big_freq
    rc = run_command([
        "oracle", "--family", "frequency", "--method", "exact-shapley",
        "--data", str(data), "--queries", str(queries),
    ])
    assert rc == 1
    assert "--value" in capsys.readouterr().err


# a table with a default still convolves its (a, b) law with the 2-D box
# of within-coalition prefix weights; a majority rule reads diagonal sums
_TABLE_WITH_DEFAULT = '{"family": "table", "default": 0, "entries": [{"a": 1, "b": 0, "value": 1}]}'
_MAJORITY = '{"family": "majority", "correct": %d, "wrong": -1, "none": 0}'


def _coalition_totals(out):
    """The Fraction sum of a report's coalition totals: its examples' sum."""
    return sum(Fraction(str(c["value"])) for c in json.loads(out.read_text())["coalitions"])


@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_owen_freq_grid_guard_exits_2_before_allocating(tmp_path, capsys, numeric):
    # one bin: a coalition of 5,800 + 5,800 examples and one of a single
    # match, so under a table rule the large coalition's law has two cells
    # and its within-coalition grid is 5,800 x 5,801 (~257 MiB of float64 or
    # of object pointers), over the fixed budget; a majority rule of the
    # same bin computes, and its values sum to v(N) - v(empty) = 1
    data = tmp_path / "wide.csv"
    rows = ["id,bin,label,coalition"]
    rows += [f"{i},b0,{'xy'[i % 2]},g{i // 11600}" for i in range(11601)]
    data.write_text("\n".join(rows) + "\n")
    queries = tmp_path / "q.csv"
    queries.write_text("bin,label\nb0,x\n")
    vf, out = tmp_path / "v.json", tmp_path / "out.json"
    argv = ["owen-freq", "--data", str(data), "--queries", str(queries), "--value", str(vf),
            "--numeric", numeric, "--out", str(out)]
    vf.write_text(_TABLE_WITH_DEFAULT)
    tracemalloc.start()
    try:
        assert run_command(argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "MiB budget" in capsys.readouterr().err
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB: the grid was allocated"
    vf.write_text(_MAJORITY % 1)
    assert run_command(argv) == 0
    total = _coalition_totals(out)
    assert total == 1 if numeric == "exact" else abs(total - 1) <= 1e-9, total


def test_exact_within_grid_guard_counts_int_cells(tmp_path, monkeypatch, capsys):
    # one bin: a coalition of 40 + 40 examples and two more of tallies
    # (1, 0) and (0, 2), so under a table rule the large coalition's law has
    # several cells and its within-coalition grid is 40 x 41.  That is
    # 13,120 bytes at 8 bytes a cell, but an exact cell also holds an int of
    # ~2^82 (36 bytes), ~72 KB in all: over a 32 KiB budget in exact mode
    # alone.  A majority rule of the same bin computes in both modes, and
    # its values sum to v(N) - v(empty) = -1
    monkeypatch.setattr(freq_owen, "GRID_BUDGET_BYTES", 2**15)
    data = tmp_path / "d.csv"
    rows = [f"{i},b0,{'xy'[i % 2]},g0" for i in range(80)]
    rows += ["80,b0,x,g1", "81,b0,y,g2", "82,b0,y,g2"]
    data.write_text("id,bin,label,coalition\n" + "\n".join(rows) + "\n")
    queries = tmp_path / "q.csv"
    queries.write_text("bin,label\nb0,x\n")
    vf, out = tmp_path / "v.json", tmp_path / "out.json"
    argv = ["owen-freq", "--data", str(data), "--queries", str(queries), "--value", str(vf),
            "--out", str(out), "--numeric"]
    vf.write_text(_TABLE_WITH_DEFAULT)
    assert run_command(argv + ["float"]) == 0
    assert run_command(argv + ["exact"]) == 2
    assert "within-coalition grid" in capsys.readouterr().err
    vf.write_text(_MAJORITY % 3)
    assert run_command(argv + ["exact"]) == 0
    assert _coalition_totals(out) == -1
    assert run_command(argv + ["float"]) == 0
    assert abs(_coalition_totals(out) + 1) <= 1e-9


@pytest.mark.parametrize("flag, bad", [("--samples", "-3"), ("--seed", "-1")])
def test_mc_shapley_rejects_a_bad_count_or_seed(freq_files, knn_files, capsys, flag, bad):
    data, queries, vf = freq_files
    knn_data, knn_queries = knn_files
    knn_data.write_text("id,label,f0,f1\n")  # a header and no rows: a game of no players
    for argv in (["--family", "frequency", "--data", str(data), "--queries", str(queries),
                  "--value", str(vf)],
                 ["--family", "knn", "--data", str(knn_data), "--queries", str(knn_queries),
                  "--k", "1", "--values", "1,-1,0"]):
        assert run_command(["oracle", "--method", "mc-shapley", *argv, flag, bad]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("divvy: error:") and "samples >= 1 and seed >= 0" in err, err


def test_owen_freq_exact_on_many_equal_coalitions(tmp_path):
    # 80 coalitions of 10 matches + 10 mismatches in one bin: past int64
    # counts (m = 79), yet subsets of one size all land on one cell, so the
    # exact law stays small and the report matches the float one
    data = tmp_path / "eq.csv"
    rows = ["id,bin,label,coalition"]
    rows += [f"{i},b0,{'xy'[i % 2]},g{i // 20}" for i in range(1600)]
    data.write_text("\n".join(rows) + "\n")
    queries = tmp_path / "q.csv"
    queries.write_text("bin,label\nb0,x\n")
    vf = tmp_path / "v.json"
    vf.write_text('{"family": "majority", "correct": 3, "wrong": -1, "none": 0}')
    values = {}
    for numeric in ("exact", "float"):
        out = tmp_path / f"{numeric}.json"
        argv = ["owen-freq", "--data", str(data), "--queries", str(queries),
                "--value", str(vf), "--numeric", numeric, "--out", str(out)]
        assert run_command(argv) == 0
        values[numeric] = [r["value"] for r in json.loads(out.read_text())["examples"]]
    for e, f in zip(values["exact"], values["float"]):
        e = float(Fraction(e))
        assert abs(e - f) <= 1e-9 * max(1.0, abs(e))


def test_cli_import_leaves_scipy_signal_unloaded():
    # importing scipy costs a third of a second or more, and no divvy module
    # needs it, so importing the CLI must not load it (say, through a
    # dependency) either
    src = os.path.dirname(os.path.dirname(os.path.abspath(divvy.__file__)))
    code = "import sys, divvy.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    package = os.path.dirname(os.path.abspath(divvy.__file__))
    importer = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                assert not importer.search(fh.read()), name


@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_one_cell_laws_build_no_within_grid(tmp_path, monkeypatch, capsys, numeric):
    # With a budget of 64 bytes (float) or 256 (exact) a within-coalition
    # grid of more than 8 cells, or 7 cells of ints, is refused.  A preceder
    # law of one cell (no other coalition moves the bin's counts: every
    # shapley-freq value, and an owen-freq target alone in its bin) reads
    # the prefix weights at the critical cells alone, so it computes, and
    # matches the oracle.  So does a majority rule's two-cell law, which
    # reads at most 4 diagonal sums; a table rule's still exits 2.
    monkeypatch.setattr(freq_owen, "GRID_BUDGET_BYTES", 64 if numeric == "float" else 256)
    vf = tmp_path / "v.json"
    vf.write_text('{"family": "majority", "correct": 3, "wrong": -1, "none": 0}')
    payout = divvy.io.parse_value_function(vf)
    lone = [f"{i},b0,{'xy'[i % 2]},g0" for i in range(6)]  # grids of 3 x 4 cells
    shared = ["6,b1,x,g1", "7,b1,x,g1", "8,b1,y,g1", "9,b1,x,g1", "10,b1,y,g1", "11,b1,x,g2"]

    def run(command, rows, queries):
        data, q, out = tmp_path / "d.csv", tmp_path / "q.csv", tmp_path / "out.json"
        data.write_text("id,bin,label,coalition\n" + "\n".join(rows) + "\n")
        q.write_text("bin,label\n" + "".join(f"{b},{lab}\n" for b, lab in queries))
        rc = run_command([command, "--data", str(data), "--queries", str(q), "--value", str(vf),
                          "--numeric", numeric, "--out", str(out)])
        if rc:
            return rc, None
        values = {r["id"]: r["value"] for r in json.loads(out.read_text())["examples"]}
        dataset = divvy.io.parse_dataset(data, "frequency")
        for i, v in oracle(command, dataset, queries).items():
            if numeric == "exact":
                assert Fraction(values[i]) == v, (command, i)
            else:
                assert abs(values[i] - float(v)) <= 1e-9 * max(1.0, abs(float(v))), (command, i)
        return rc, values

    def oracle(command, dataset, queries):
        total = dict.fromkeys(dataset.ids, Fraction(0))
        for b, lab in queries:
            game = divvy.frequency_game(dataset, divvy.Query(label=lab, bin=b), payout)
            if command == "shapley-freq":
                values = divvy.exact_shapley_all(game)
            else:
                values = divvy.exact_owen_all(game, dataset.partition_codes()[1], override=True)
            for i, v in values.items():
                total[i] += v
        return total

    assert run("shapley-freq", lone, [("b0", "x"), ("b0", "y")])[0] == 0
    assert run("owen-freq", lone + shared, [("b0", "x")])[0] == 0
    # g1 shares its bin with g2: its law has two cells
    assert run("owen-freq", lone + shared, [("b1", "x")])[0] == 0
    # but under a table rule its law is of (a, b) and its grid 3 x 3 (72
    # bytes, or 324 of ints): one of them is over the budget
    vf.write_text(_TABLE_WITH_DEFAULT)
    payout = divvy.io.parse_value_function(vf)
    assert run("owen-freq", lone + shared, [("b1", "x")])[0] == 2
    assert "budget" in capsys.readouterr().err


def test_every_traced_site_is_bound():
    # perfbench/spans.py times a run by rebinding these module globals; a
    # refactor that drops one leaves its layer unmeasured without an error
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bindings = runpy.run_path(os.path.join(root, "perfbench", "spans.py"))["BINDINGS"]
    unbound = [
        f"{module}.{name}" for module, name, _, _ in bindings
        if not callable(getattr(importlib.import_module(f"divvy.{module}"), name, None))
    ]
    assert bindings
    assert unbound == []


@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_one_law_over_the_grid_budget_exits_2(tmp_path, monkeypatch, capsys, numeric):
    # one bin of 12 pure coalitions of 5 to 16 examples: under a 1 KiB
    # budget every preceder law (~125 cells of a - b, 3 float nodes or 12
    # exact subset sizes) is refused before it is built, however the float
    # laws are batched; under the real budget the bin computes
    rows = [f"{i},b0,{'xy'[c % 2]},g{c}" for i, c in enumerate(
        c for c in range(12) for _ in range(c + 5))]
    data, queries, vf = tmp_path / "d.csv", tmp_path / "q.csv", tmp_path / "v.json"
    data.write_text("id,bin,label,coalition\n" + "\n".join(rows) + "\n")
    queries.write_text("bin,label\nb0,x\n")
    vf.write_text(_MAJORITY % 1)
    argv = ["owen-freq", "--data", str(data), "--queries", str(queries), "--value", str(vf),
            "--numeric", numeric, "--out", str(tmp_path / "out.json")]
    with monkeypatch.context() as patch:
        patch.setattr(freq_owen, "GRID_BUDGET_BYTES", 2**10)
        assert run_command(argv) == 2
    assert re.search(r"Owen law grid of .* over the 0 MiB budget", capsys.readouterr().err)
    assert run_command(argv) == 0
