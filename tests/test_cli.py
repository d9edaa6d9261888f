"""Exit codes, report wiring and flag handling for the command line front end."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import divvy
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
    # flag to turn one off
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
    assert run_command(argv + ["--no-cache"]) == 1
    assert "--no-cache" in capsys.readouterr().err


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
    assert run_command(_oracle_argv(data, queries, vf, "--max-n", "12")) == 2
    assert "yes-i-know" in capsys.readouterr().err
    # overriding is honored; exercise it on a small instance (the point of the
    # guard is that a factorial sweep past it really does take forever)
    small_data, small_queries, small_vf = freq_files
    assert run_command(
        _oracle_argv(small_data, small_queries, small_vf, "--max-n", "5")
    ) == 2
    assert run_command(
        _oracle_argv(small_data, small_queries, small_vf, "--max-n", "5", "--yes-i-know")
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


def test_oracle_frequency_requires_value(big_freq, capsys):
    data, queries, _ = big_freq
    rc = run_command([
        "oracle", "--family", "frequency", "--method", "exact-shapley",
        "--data", str(data), "--queries", str(queries),
    ])
    assert rc == 1
    assert "--value" in capsys.readouterr().err


@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_owen_freq_grid_guard_exits_2_before_allocating(tmp_path, capsys, numeric):
    # one bin, two coalitions of 5,800 + 5,800 examples: each target's law
    # is a 5,801 x 5,801 grid (~257 MiB of float64 or of object pointers),
    # over the fixed budget
    data = tmp_path / "wide.csv"
    rows = ["id,bin,label,coalition"]
    rows += [f"{i},b0,{'xy'[i % 2]},g{i // 11600}" for i in range(23200)]
    data.write_text("\n".join(rows) + "\n")
    queries = tmp_path / "q.csv"
    queries.write_text("bin,label\nb0,x\n")
    vf = tmp_path / "v.json"
    vf.write_text('{"family": "majority", "correct": 1, "wrong": -1, "none": 0}')
    argv = ["owen-freq", "--data", str(data), "--queries", str(queries), "--value", str(vf),
            "--numeric", numeric]
    tracemalloc.start()
    try:
        assert run_command(argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "MiB budget" in capsys.readouterr().err
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB: the grid was allocated"


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
    # importing scipy costs a third of a second or more; only the float
    # k-NN sweep needs it (for gammaln), so the CLI must not load it up front
    src = os.path.dirname(os.path.dirname(os.path.abspath(divvy.__file__)))
    code = "import sys, divvy.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
