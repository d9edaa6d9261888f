"""Tests of the scale probes, at small sizes.

Run from the repository root with ``python3 -m pytest probes``.  Each test
runs the real CLI in a fresh interpreter, on inputs of a few dozen rows.
"""

import dataclasses
import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("probes_run", os.path.join(HERE, "run.py"))
probes = sys.modules["probes_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probes)


def test_the_named_probes():
    assert set(probes.PROBES) == {
        "freq-bin-10k", "freq-bin-20k", "freq-bin-50k", "freq-bin-25k-75k", "owen-freq-box-1k",
        "owen-freq-box-3k", "owen-freq-box-5k", "owen-freq-box-1k-exact", "knn-query-100k",
        "knn-query-100k-trim", "knn-query-100k-d16", "knn-query-100k-d16-trim",
        "knn-exact-10k-4c", "knn-exact-5k-q10", "owen-knn-m20", "owen-knn-m100",
        "owen-knn-m200", "owen-knn-k5", "owen-knn-k21", "owen-knn-k51", "owen-freq-m200",
        "owen-freq-m400", "owen-freq-m800", "owen-freq-m200-exact", "exact-owen-5x5",
        "exact-shapley-10"}
    for name, probe in probes.PROBES.items():  # a -trim twin differs in its child's env alone
        if name.endswith("-trim"):
            assert probe == dataclasses.replace(probes.PROBES[name[:-5]], trim=True)


@pytest.mark.parametrize("kind, size", [("freq-bin", 30), ("freq-bin-lopsided", 12),
                                        ("owen-freq-box", 24)])
@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_small_probes_pass_their_verdict(kind, size, numeric):
    record = probes.run_probe("small", probes.Probe(kind, size, numeric), seed=3)
    assert record["exit"] == 0 and record["efficiency"]["ok"], record
    assert record["command"] == ("owen-freq" if kind == "owen-freq-box" else "shapley-freq")
    assert 0 < record["wall_s"] < record["process_s"]
    assert record["peak_rss_mb"] > 0 and record["minor_faults"] >= 0


@pytest.mark.parametrize("dims", [1, 4, 16])
@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_small_knn_query_probes_pass_their_verdict(dims, numeric):
    record = probes.run_probe("small", probes.Probe("knn-query", 40, numeric, dims), seed=3)
    assert record["exit"] == 0 and record["efficiency"]["ok"], record
    assert record["command"] == "shapley-knn" and record["efficiency"]["expected"] in (100, -500)
    assert 0 < record["wall_s"] < record["process_s"] and record["minor_faults"] >= 0


@pytest.mark.parametrize("queries", [1, 3])
def test_small_knn_exact_probes_pass_their_verdict(tmp_path, queries):
    probe = probes.Probe("knn-exact", 60, "exact", dims=2, queries=queries, coalitions=4)
    record = probes.run_probe("small", probe, seed=3)
    assert record["exit"] == 0 and record["efficiency"]["ok"], record
    assert record["command"] == "shapley-knn" and record["numeric"] == "exact"
    # one vote per query, each paying 100 or -500; the points sit in 4 coalitions
    assert record["efficiency"]["expected"] in {100 * x - 500 * (queries - x)
                                                for x in range(queries + 1)}
    probes.write_inputs(probe, 3, str(tmp_path))
    rows = (tmp_path / "data.csv").read_text().splitlines()
    assert rows[0] == "id,label,f0,f1,coalition" and len(rows) == 61
    assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"g0", "g1", "g2", "g3"}
    assert len((tmp_path / "queries.csv").read_text().splitlines()) == queries + 1


@pytest.mark.parametrize("probe", [probes.Probe("owen-knn", 60, dims=2, coalitions=4, k=3),
                                   probes.Probe("owen-knn", 60, dims=2, coalitions=7, k=5),
                                   probes.Probe("owen-freq", 50, coalitions=6)])
@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_small_owen_probes_pass_their_verdict(tmp_path, probe, numeric):
    probe = dataclasses.replace(probe, numeric=numeric)
    record = probes.run_probe("small", probe, seed=3)
    assert record["exit"] == 0 and record["efficiency"]["ok"], record
    assert record["command"] == probe.kind and record["numeric"] == numeric
    argv, _ = probes.write_inputs(probe, 3, str(tmp_path))
    if probe.kind == "owen-knn":
        assert argv[argv.index("--k") + 1] == str(probe.k)
    rows = (tmp_path / "data.csv").read_text().splitlines()[1:]
    assert len(rows) == probe.size and len({row.rsplit(",", 1)[1] for row in rows}) > 1


def test_small_exact_owen_probe_passes_its_verdict(tmp_path):
    # the oracle has one numeric mode, exact; its guard admits 5 coalitions of 5
    assert probes.PROBES["exact-owen-5x5"] == probes.Probe("exact-owen", 25, "exact",
                                                           coalitions=5)
    probe = probes.Probe("exact-owen", 6, "exact", coalitions=2)
    record = probes.run_probe("small", probe, seed=3)
    assert record["exit"] == 0 and record["efficiency"]["ok"], record
    assert record["command"] == "oracle"
    probes.write_inputs(probe, 3, str(tmp_path))
    rows = (tmp_path / "data.csv").read_text().splitlines()[1:]
    assert sorted(row.rsplit(",", 1)[1] for row in rows) == ["g0"] * 3 + ["g1"] * 3


def test_small_exact_shapley_probe_passes_its_verdict(tmp_path):
    # the oracle's Shapley guard admits 10 examples: all 10! orderings
    assert probes.PROBES["exact-shapley-10"] == probes.Probe("exact-shapley", 10, "exact")
    probe = probes.Probe("exact-shapley", 5, "exact")
    record = probes.run_probe("small", probe, seed=3)
    assert record["exit"] == 0 and record["efficiency"]["ok"], record
    assert record["command"] == "oracle"
    argv, _ = probes.write_inputs(probe, 3, str(tmp_path))
    assert argv[argv.index("--method") + 1] == "exact-shapley"
    rows = (tmp_path / "data.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and {row.rsplit(",", 1)[1] for row in rows} == {""}


def test_the_exact_verdict_reads_values_past_the_int_text_cap():
    # a value's text may run past the interpreter's cap on int digits; the
    # verdict sums it all the same, and leaves the cap as it found it
    big = "1" + "0" * 5000  # 10**5000; its numerator below is 10**5000 + 1
    exact = {"meta": {"numeric_mode": "exact"}, "examples": [
        {"value": f"{big[:-1]}1/{big}"}, {"value": f"-1/{big}"}, {"value": "2"}]}
    cap = sys.get_int_max_str_digits()
    assert probes.efficiency(exact, 3)["ok"]
    assert sys.get_int_max_str_digits() == cap


def test_a_trim_twin_fixes_the_threshold_in_its_child_alone(monkeypatch):
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
    seen, run = [], probes.subprocess.run

    def spy(argv, env, **kwargs):
        seen.append(env.get("MALLOC_TRIM_THRESHOLD_"))
        return run(argv, env=env, **kwargs)

    monkeypatch.setattr(probes.subprocess, "run", spy)
    for trim in (False, True):
        record = probes.run_probe("small", probes.Probe("knn-query", 20, trim=trim), seed=2)
        assert record["efficiency"]["ok"] and record["trim"] is trim
    assert seen == [None, "131072"] and "MALLOC_TRIM_THRESHOLD_" not in os.environ


def test_knn_inputs_follow_the_seed_alone(tmp_path):
    texts = []
    for seed, trim in ((1, False), (1, True), (2, False)):
        work = tmp_path / f"run{len(texts)}"
        work.mkdir()
        argv, expected = probes.write_inputs(probes.Probe("knn-query", 30, trim=trim), seed, str(work))
        texts.append((work / "data.csv").read_text() + (work / "queries.csv").read_text())
        assert argv[0] == "shapley-knn" and expected in (100, -500)
    assert texts[0] == texts[1] != texts[2]


def test_inputs_follow_the_seed(tmp_path):
    probe = probes.Probe("owen-freq-box", 12)
    texts = []
    for seed in (1, 1, 2):
        work = tmp_path / f"run{len(texts)}"
        work.mkdir()
        argv, expected = probes.write_inputs(probe, seed, str(work))
        texts.append((work / "data.csv").read_text())
        # matches 12 + 12 + 6 against mismatches 12 + 12 + 4: v(N) - v(empty) = 100
        assert expected == 100 and argv[0] == "owen-freq"
    assert texts[0] == texts[1] != texts[2]


def test_the_verdict_catches_a_wrong_sum():
    values = [{"value": v} for v in (60.0, 40.0, 0.25)]
    report = {"meta": {"numeric_mode": "float"}, "examples": values}
    assert not probes.efficiency(report, 100)["ok"]
    values[2]["value"] = 1e-12
    assert probes.efficiency(report, 100)["ok"]
    exact = {"meta": {"numeric_mode": "exact"}, "examples": [{"value": "1/3"}, {"value": "2/3"}]}
    assert probes.efficiency(exact, 1) == {"sum": "1", "expected": 1, "ok": True}
    assert not probes.efficiency(exact, 2)["ok"]


def test_main_prints_one_json_line_per_probe(monkeypatch, capsys):
    monkeypatch.setitem(probes.PROBES, "tiny", probes.Probe("freq-bin", 8))
    assert probes.main(["tiny", "tiny", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["probe"] for r in records] == ["tiny", "tiny"]
    assert all(r["seed"] == 5 and r["efficiency"]["ok"] for r in records)
    with pytest.raises(SystemExit):
        probes.main(["no-such-probe"])
