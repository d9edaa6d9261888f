"""Scale probes: named, seeded CLI runs at the sizes the open items claim.

Run from the repository root (Python 3.10+, with numpy):

    python3 probes/run.py --all --seed 1
    python3 probes/run.py freq-bin-20k owen-freq-box-5k --seed 3
    python3 -m pytest probes            # the probes' own tests, at small sizes

Each probe writes its inputs from the seed into a temporary directory, runs
one divvy CLI invocation in a fresh interpreter (this checkout's ``src`` on
``PYTHONPATH``) and prints one JSON line:

- ``wall_s``: the ``run_command`` call, timed in the child;
- ``process_s``: the child from launch to exit, start-up included;
- ``peak_rss_mb``: the child's ``VmHWM``; ``ru_maxrss`` would not do, as a
  child's starts at its parent's size at fork;
- ``minor_faults``: the child's minor page faults during ``run_command``;
- ``exit``: the CLI's exit code (2: a size guard refused the run);
- ``efficiency``: the sum of the report's values against v(N) - v(empty),
  which the probe works out from the data it wrote, not from divvy, so a
  fast wrong answer fails; null when the run did not exit 0;
- ``twin`` (an exact probe with a float twin only): the largest gap
  between the float run's values and the exact ones on the same inputs,
  by the README's rule (absolute below |v| = 1, relative above), and
  whether it is within 1e-9.

Probes:

- ``freq-bin-N``: ``shapley-freq`` on one majority bin of N matches and
  N + 1 mismatches, so each value sums one binomial row of ~2N;
- ``freq-bin-N-3N``: the same on a lopsided bin of N matches and 3N
  mismatches, whose row of ~4N is summed over a stretch of ~N terms, not
  one: the case the row's binary splitting is for;
- ``owen-freq-box-H``: ``owen-freq`` on one bin of three coalitions,
  (H, H), (H, H) and (H/2, H/3) matches and mismatches, whose within-
  coalition prefix weights once filled an (H + 1) x (H + 1) box per value;
- ``knn-query-N`` and ``knn-query-N-dD``: one ``shapley-knn`` query on N
  points of 4 (or D) features.  The child parses the inputs once, untimed,
  then calls ``knn_shapley_report`` once to warm up and 10 times more:
  ``wall_s`` and ``minor_faults`` are the medians per call, so they show
  the query's own time and the pages its temporaries refault;
- a ``-trim`` twin of a probe runs its child alone with
  ``MALLOC_TRIM_THRESHOLD_=131072``, which fixes glibc's trim threshold:
  freed heap tops are then given back at once, and every n-sized
  temporary a call allocates faults its pages in again;
- ``knn-exact-N-4c`` and ``knn-exact-N-qQ``: one exact ``shapley-knn`` CLI
  run, k = 5, on N two-feature points dealt at random into 4 coalitions,
  with one query or Q: exact values carry denominators of thousands of
  bits, so their sums and their text dominate.  The verdict sums the
  values over each distinct denominator first, as a sequential sum of
  such fractions would take longer than the run;
- ``owen-knn-mM`` and ``owen-knn-kK``: one float ``owen-knn`` query on
  10,000 two-feature points dealt at random into M coalitions (20 on the
  k axis), with k = 5 or K: the preceder laws the engine builds per
  coalition pair and live rank dominate;
- ``owen-knn-3k-k5-exact`` and ``owen-knn-3k-k21-exact``: one exact
  ``owen-knn`` query on 3,000 two-feature points in 20 coalitions, k = 5
  or 21, each then run once more in float on the same inputs, whose values
  it checks against its own;
- ``owen-freq-mM``: one ``owen-freq`` query on one majority bin of 4,000
  examples, labelled and dealt into M coalitions at random, so each
  coalition's tally has its own preceder law.  ``owen-freq-m200-exact``
  is the exact twin of ``owen-freq-m200``: the same inputs, run in exact
  mode, then once more in float, whose values it checks against its own;
- ``exact-owen-5x5``: the ``oracle``'s exact Owen enumeration on one bin of
  5 coalitions of 5 examples each, the largest its guard admits;
- ``exact-shapley-10``: the ``oracle``'s exact Shapley enumeration on one
  majority bin of 10 examples labelled at random, the largest its guard
  admits: all 10! orderings.

The command exits 1 if any probe failed a verdict or did not exit 0.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MAJORITY = {"correct": 100, "wrong": -500, "none": 0}


@dataclass(frozen=True)
class Probe:
    kind: str                  # "freq-bin", "freq-bin-lopsided", "owen-freq-box", "owen-freq",
    size: int                  # "exact-owen", "exact-shapley", "knn-query", "knn-exact" or
                               # "owen-knn"
    numeric: str = "float"
    dims: int = 4              # features per point, for the k-NN kinds
    trim: bool = False         # the child runs with a fixed glibc trim threshold
    queries: int = 1           # for "knn-exact"
    coalitions: int = 0        # the examples are dealt into this many, if any
    k: int = 5                 # for the k-NN kinds
    twin: bool = False         # an exact probe also runs in float, and compares


PROBES = {
    "freq-bin-10k": Probe("freq-bin", 10_000),
    "freq-bin-20k": Probe("freq-bin", 20_000),
    "freq-bin-50k": Probe("freq-bin", 50_000),
    "freq-bin-25k-75k": Probe("freq-bin-lopsided", 25_000),
    "owen-freq-box-1k": Probe("owen-freq-box", 1_000),
    "owen-freq-box-3k": Probe("owen-freq-box", 3_000),
    "owen-freq-box-5k": Probe("owen-freq-box", 5_000),
    "owen-freq-box-1k-exact": Probe("owen-freq-box", 1_000, "exact"),
    "knn-query-100k": Probe("knn-query", 100_000),
    "knn-query-100k-trim": Probe("knn-query", 100_000, trim=True),
    "knn-query-100k-d16": Probe("knn-query", 100_000, dims=16),
    "knn-query-100k-d16-trim": Probe("knn-query", 100_000, dims=16, trim=True),
    "knn-exact-10k-4c": Probe("knn-exact", 10_000, "exact", dims=2, coalitions=4),
    "knn-exact-5k-q10": Probe("knn-exact", 5_000, "exact", dims=2, queries=10, coalitions=4),
    "owen-knn-m20": Probe("owen-knn", 10_000, dims=2, coalitions=20),
    "owen-knn-m100": Probe("owen-knn", 10_000, dims=2, coalitions=100),
    "owen-knn-m200": Probe("owen-knn", 10_000, dims=2, coalitions=200),
    "owen-knn-k5": Probe("owen-knn", 10_000, dims=2, coalitions=20, k=5),
    "owen-knn-k21": Probe("owen-knn", 10_000, dims=2, coalitions=20, k=21),
    "owen-knn-k51": Probe("owen-knn", 10_000, dims=2, coalitions=20, k=51),
    "owen-knn-3k-k5-exact": Probe("owen-knn", 3_000, "exact", dims=2, coalitions=20, twin=True),
    "owen-knn-3k-k21-exact": Probe("owen-knn", 3_000, "exact", dims=2, coalitions=20, k=21,
                                   twin=True),
    "owen-freq-m200": Probe("owen-freq", 4_000, coalitions=200),
    "owen-freq-m400": Probe("owen-freq", 4_000, coalitions=400),
    "owen-freq-m800": Probe("owen-freq", 4_000, coalitions=800),
    "owen-freq-m200-exact": Probe("owen-freq", 4_000, "exact", coalitions=200, twin=True),
    "exact-owen-5x5": Probe("exact-owen", 25, "exact", coalitions=5),
    "exact-shapley-10": Probe("exact-shapley", 10, "exact"),
}

TRIM_ENV = {"MALLOC_TRIM_THRESHOLD_": "131072"}

# Every child's last lines: its high-water mark, and one JSON line.
HWM = r"""
hwm = None
try:
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
print(json.dumps({"exit": rc, "wall_s": wall, "minor_faults": faults,
                  "peak_rss_mb": None if hwm is None else hwm / 1024}))
"""

# The child: one run_command, then its own time, faults and high-water mark.
CHILD = r"""
import json, resource, sys, time
from divvy.cli import run_command
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
rc = run_command(json.loads(sys.argv[1]))
wall = time.perf_counter() - t0
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
""" + HWM

# The k-NN query child: the inputs parsed once, a warm-up report, then the
# medians of 10 more.  Its argv is the CLI's; the last report is written.
QUERY_CHILD = r"""
import json, resource, statistics, sys, time
from divvy.cli import build_parser
from divvy.io import parse_dataset, parse_outcome_values, parse_queries
from divvy.knn_shapley import knn_shapley_report
from divvy.model import KnnConfig
from divvy.report import write_report
args = build_parser("shapley-knn").parse_args(json.loads(sys.argv[1]))
inputs = (parse_dataset(args.data, "knn"), parse_queries(args.queries, "knn"),
          KnnConfig(args.k, parse_outcome_values(args.values)))
report = knn_shapley_report(*inputs, mode=args.numeric)
walls, faults = [], []
for _ in range(10):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    report = knn_shapley_report(*inputs, mode=args.numeric)
    walls.append(time.perf_counter() - t0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
write_report(report, args.out)
rc, wall, faults = 0, statistics.median(walls), statistics.median(faults)
""" + HWM


def majority(a: int, b: int) -> int:
    return MAJORITY["correct"] if a > b else MAJORITY["wrong"] if a < b else MAJORITY["none"]


def write_inputs(probe: Probe, seed: int, directory: str):
    """The probe's CSV and JSON inputs under ``directory``, rows and ids
    shuffled by ``seed``: the CLI argv (without ``--out``) and
    v(N) - v(empty) for its one query."""
    if probe.kind in ("knn-query", "knn-exact", "owen-knn"):
        return _knn_inputs(probe, seed, directory)
    rng = random.Random(f"{probe.kind}:{probe.size}:{seed}")
    n = probe.size
    if probe.kind == "freq-bin":
        command, groups = "shapley-freq", [(None, n, n + 1)]
    elif probe.kind == "freq-bin-lopsided":
        command, groups = "shapley-freq", [(None, n, 3 * n)]
    elif probe.kind == "owen-freq-box":
        command, groups = "owen-freq", [("target", n, n), ("even", n, n), ("lean", n // 2, n // 3)]
    elif probe.kind == "owen-freq":  # each example to a coalition and a label at random
        tallies = collections.Counter((rng.randrange(probe.coalitions), rng.random() < 0.5)
                                      for _ in range(n))
        command, groups = "owen-freq", [(f"g{c}", tallies[c, True], tallies[c, False])
                                        for c in range(probe.coalitions)]
    elif probe.kind == "exact-owen":  # coalitions of n // coalitions, labelled at random
        size = n // probe.coalitions
        matches = [rng.randint(0, size) for _ in range(probe.coalitions)]
        command, groups = "oracle", [(f"g{c}", x, size - x) for c, x in enumerate(matches)]
    elif probe.kind == "exact-shapley":  # n examples, labelled at random
        x = sum(rng.random() < 0.5 for _ in range(n))
        command, groups = "oracle", [(None, x, n - x)]
    else:
        raise ValueError(f"unknown probe kind {probe.kind!r}")
    labels = [(g, lab) for g, x, y in groups for lab in "x" * x + "y" * y]
    rng.shuffle(labels)
    ids = rng.sample(range(10 * len(labels)), len(labels))
    data = os.path.join(directory, "data.csv")
    with open(data, "w") as fh:
        fh.write("id,bin,label,coalition\n")
        fh.writelines(f"{i},b0,{lab},{g or ''}\n" for i, (g, lab) in zip(ids, labels))
    queries, value = os.path.join(directory, "queries.csv"), os.path.join(directory, "value.json")
    with open(queries, "w") as fh:
        fh.write("bin,label\nb0,x\n")
    with open(value, "w") as fh:
        json.dump({"family": "majority", **MAJORITY}, fh)
    a, b = sum(x for _, x, _ in groups), sum(y for *_, y in groups)
    argv = [command, "--data", data, "--queries", queries, "--value", value]
    argv += (["--family", "frequency", "--method", probe.kind] if command == "oracle"
             else ["--numeric", probe.numeric])
    return argv, majority(a, b) - majority(0, 0)


def _knn_inputs(probe: Probe, seed: int, directory: str):
    """``write_inputs`` for k-NN queries: N points labelled x or y at
    random, each feature normal around +0.5 (x) or -0.5 (y), under shuffled
    ids (with a coalition column if the probe asks for one), and queries
    labelled x.  v(N) is the sum of the probe's own votes of each query's k
    nearest points, ties to the lower id; v(empty) pays ``none`` per query."""
    rng = np.random.default_rng(random.Random(f"{probe.kind}:{probe.size}:{probe.dims}:{seed}")
                                .getrandbits(64))
    n, d = probe.size, probe.dims
    is_x = rng.random(n) < 0.5
    feats = rng.normal(size=(n, d)) + np.where(is_x, 0.5, -0.5)[:, None]
    queries = rng.normal(size=(probe.queries, d)) + 0.5
    ids = rng.permutation(10 * n)[:n]
    groups = ([f",g{c}" for c in rng.integers(0, probe.coalitions, n)] if probe.coalitions
              else [""] * n)
    names = ",".join(f"f{j}" for j in range(d))
    data, query_file = os.path.join(directory, "data.csv"), os.path.join(directory, "queries.csv")
    with open(data, "w") as fh:  # repr: the shortest text that reads back as the same float
        fh.write(f"id,label,{names}{',coalition' if probe.coalitions else ''}\n")
        fh.writelines(f"{i},{'x' if x else 'y'},{','.join(map(repr, row))}{g}\n"
                      for i, x, row, g in zip(ids.tolist(), is_x.tolist(), feats.tolist(), groups))
    with open(query_file, "w") as fh:
        fh.write(f"label,{names}\n")
        fh.writelines(f"x,{','.join(map(repr, q))}\n" for q in queries.tolist())
    expected = 0
    for query in queries:
        nearest = np.lexsort((ids, ((feats - query) ** 2).sum(axis=1)))[:probe.k]
        votes = int(is_x[nearest].sum())
        vote = MAJORITY["correct"] if 2 * votes > probe.k else MAJORITY["wrong"]
        expected += vote - MAJORITY["none"]
    command = "owen-knn" if probe.kind == "owen-knn" else "shapley-knn"
    argv = [command, "--data", data, "--queries", query_file, "--k", str(probe.k),
            "--values", "{correct},{wrong},{none}".format(**MAJORITY), "--numeric", probe.numeric]
    return argv, expected


@contextlib.contextmanager
def _long_int_text():
    """Lift the interpreter's cap on int digits while exact values' text,
    which may be longer, is read; put it back after."""
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        if cap:
            sys.set_int_max_str_digits(0)
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def efficiency(report: dict, expected: int) -> dict:
    """Whether the report's values sum to ``expected``: exactly in exact
    mode, within 1e-9 of the values' absolute sum (at least 1) in float."""
    values = [r["value"] for r in report["examples"]]
    if report["meta"]["numeric_mode"] == "exact":
        numerators: dict = {}  # denominator text -> its values' numerators summed
        with _long_int_text():
            for p, _, q in (v.partition("/") for v in values):
                numerators[q] = numerators.get(q, 0) + int(p)
            total = sum(Fraction(p, int(q or 1)) for q, p in numerators.items())
        return {"sum": str(total), "expected": expected, "ok": total == expected}
    total = math.fsum(values)
    scale = max(1.0, math.fsum(map(abs, values)))
    return {"sum": total, "expected": expected, "ok": abs(total - expected) <= 1e-9 * scale}


def float_gap(exact: dict, approx: dict) -> dict:
    """The largest gap between a float report's values and an exact report's,
    example by example, by the README's rule: |float - exact| / max(1,
    |exact|), so absolute below |v| = 1 and relative above; ok within 1e-9."""
    with _long_int_text():
        want = {r["id"]: Fraction(r["value"]) for r in exact["examples"]}
    got = {r["id"]: Fraction(r["value"]) for r in approx["examples"]}
    gap = max((abs(v - want[i]) / max(1, abs(want[i])) for i, v in got.items() if i in want),
              default=Fraction(0))
    return {"gap": float(gap), "ok": got.keys() == want.keys() and gap <= Fraction(1, 10**9)}


def _child(name: str, probe: Probe, argv: List[str], out: str) -> dict:
    """One CLI run in a fresh interpreter, writing its report to ``out``:
    the child's JSON line, and its time from launch to exit."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
           **(TRIM_ENV if probe.trim else {})}
    child = QUERY_CHILD if probe.kind == "knn-query" else CHILD
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", child, json.dumps(argv + ["--out", out])],
                          env=env, capture_output=True, text=True)
    process_s = time.perf_counter() - t0
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"probe {name}: the child failed:\n{done.stderr}")
    record = {**json.loads(done.stdout.splitlines()[-1]), "process_s": process_s}
    if record["exit"] != 0:
        record["stderr"] = done.stderr.strip()
    return record


def run_probe(name: str, probe: Probe, seed: int) -> dict:
    """Run one probe in a fresh interpreter (and its float twin in another,
    if it has one) and return its JSON record."""
    with tempfile.TemporaryDirectory(prefix="divvy-probe-") as work:
        argv, expected = write_inputs(probe, seed, work)
        out = os.path.join(work, "report.json")
        record = {"probe": name, "seed": seed, "command": argv[0], "numeric": probe.numeric,
                  "trim": probe.trim, **_child(name, probe, argv, out)}
        record["efficiency"] = None
        if record["exit"] == 0:
            with open(out) as fh:
                report = json.load(fh)
            record["efficiency"] = efficiency(report, expected)
            if probe.twin:  # the same inputs, in float
                at = argv.index("--numeric") + 1
                twin_out = os.path.join(work, "twin.json")
                twin = _child(name, probe, argv[:at] + ["float"] + argv[at + 1:], twin_out)
                record["twin"] = {"gap": None, "ok": False, **twin}
                if twin["exit"] == 0:
                    with open(twin_out) as fh:
                        record["twin"].update(float_gap(report, json.load(fh)))
        return record


def passed(record: dict) -> bool:
    """Whether a probe's run exited 0 and passed every verdict it has."""
    return (record["exit"] == 0 and record["efficiency"]["ok"]
            and record.get("twin", {"ok": True})["ok"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run named scale probes, one JSON line each.")
    parser.add_argument("names", nargs="*", help=f"probes to run, of: {', '.join(PROBES)}")
    parser.add_argument("--all", action="store_true", help="run every probe")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = list(PROBES) if args.all else args.names
    unknown = [n for n in names if n not in PROBES]
    if unknown or not names:
        parser.error(f"name probes of {', '.join(PROBES)}, or pass --all"
                     + (f"; unknown: {', '.join(unknown)}" if unknown else ""))
    failed = 0
    for name in names:
        record = run_probe(name, PROBES[name], args.seed)
        print(json.dumps(record), flush=True)
        failed += not passed(record)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
