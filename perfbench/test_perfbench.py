"""Tests of the benchmark's own parts: generator, tracing wrappers, checker.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workloads are shrunk here so that each test runs the real CLI in well
under a second.
"""

import dataclasses
import json
import os
import pathlib
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "knn-wide": {"examples": 300, "features": 4, "queries": 3, "k": 5},
    "freq-exact": {"examples": 200, "bins": 5, "queries": 6},
    "owen-freq": {"examples": 60, "bins": 2, "coalitions": 4, "queries": 2},
    "owen-knn": {"examples": 40, "features": 2, "coalitions": 3, "queries": 2, "k": 3},
}

FAMILY_REPORT = {
    "shapley-knn": "knn_shapley.report_s",
    "shapley-freq": "freq_shapley.report_s",
    "owen-freq": "freq_owen.report_s",
    "owen-knn": "knn_owen.report_s",
}


@pytest.fixture
def small(monkeypatch):
    for name, sizes in SMALL.items():
        spec = dataclasses.replace(workloads.SPECS[name], sizes=sizes)
        monkeypatch.setitem(workloads.SPECS, name, spec)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(directory).iterdir())}


def _generate(tmp_path, name, seed, tag):
    d = tmp_path / f"{name}-{seed}-{tag}"
    d.mkdir()
    return workloads.generate(name, seed, str(d)), str(d)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_a_function_of_the_seed(small, tmp_path, name):
    _, a = _generate(tmp_path, name, 5, "a")
    _, b = _generate(tmp_path, name, 5, "b")
    _, c = _generate(tmp_path, name, 6, "c")
    same, other = _files(a), _files(b)
    assert same == other
    different = _files(c)
    assert same.keys() == different.keys()
    assert same["data.csv"] != different["data.csv"]


def _report(job, i):
    with open(job["out"].format(i=i)) as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_restores_bindings_and_report(small, tmp_path, name):
    inputs, work = _generate(tmp_path, name, 3, "in")
    job = child.make_job(inputs, work)
    before = spans.originals()
    plain = child._invoke(job, 0, False)
    traced = child._invoke(job, 1, True)
    after = spans.originals()
    assert all(after[site] is fn for site, fn in before.items())
    assert plain["rc"] == traced["rc"] == 0
    assert checker.stable_digest(_report(job, 0)) == checker.stable_digest(_report(job, 1))
    layers = traced["layers"]
    assert traced["missing"] == []
    assert layers["io.parse_s"] > 0 and layers["report.emit_s"] > 0
    assert layers[FAMILY_REPORT[inputs.spec.command]] > 0
    assert layers["report.assemble_s"] > 0
    assert 0 < layers["trace.coverage"] <= 1


def test_bindings_restored_when_the_run_raises():
    before = spans.originals()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert spans.originals() != before
            raise RuntimeError("boom")
    assert all(spans.originals()[site] is fn for site, fn in before.items())


def _edit_first_value(text, exact):
    doc = json.loads(text)
    v = doc["examples"][0]["value"]
    doc["examples"][0]["value"] = str(Fraction(v) + Fraction(1, 10**9)) if exact else v + 1e-6
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", ["freq-exact", "owen-knn"])
def test_checker_flags_one_changed_value(small, tmp_path, name):
    inputs, work = _generate(tmp_path, name, 4, "in")
    job = child.make_job(inputs, work)
    assert child._invoke(job, 0, False)["rc"] == 0
    text = _report(job, 0)
    exact = inputs.spec.numeric == "exact"
    values = [(Fraction if exact else float)(r["value"]) for r in json.loads(text)["examples"]]
    reference = checker.reference_entry(text, values, inputs)
    assert checker.check_report(text, inputs, reference) == []
    edited = _edit_first_value(text, exact)
    assert checker.check_report(edited, inputs, None) != []
    assert checker.check_report(edited, inputs, reference) != []


def test_benchmark_json_lists_what_the_run_prints():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SPECS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER
