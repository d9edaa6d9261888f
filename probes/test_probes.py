"""Tests of the scale probes, at small sizes.

Run from the repository root with ``python3 -m pytest probes``.  Each test
runs the real CLI in a fresh interpreter, on inputs of a few dozen rows.
"""

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
        "owen-freq-box-3k", "owen-freq-box-5k", "owen-freq-box-1k-exact"}


@pytest.mark.parametrize("kind, size", [("freq-bin", 30), ("freq-bin-lopsided", 12),
                                        ("owen-freq-box", 24)])
@pytest.mark.parametrize("numeric", ["float", "exact"])
def test_small_probes_pass_their_verdict(kind, size, numeric):
    record = probes.run_probe("small", probes.Probe(kind, size, numeric), seed=3)
    assert record["exit"] == 0 and record["efficiency"]["ok"], record
    assert record["command"] == ("owen-freq" if kind == "owen-freq-box" else "shapley-freq")
    assert 0 < record["wall_s"] < record["process_s"]
    assert record["peak_rss_mb"] > 0 and record["minor_faults"] >= 0


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
