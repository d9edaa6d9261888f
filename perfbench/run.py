"""Benchmark for the divvy command line.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload is generated from the seed into a scratch directory under
the checkout, then run through ``divvy.cli.run_command`` in a child
interpreter, one invocation at a time (a closed loop with one client).
The child runs one warm-up and then invocations until ``--seconds`` have
passed (by default ``run_seconds`` from ``BENCHMARK.json``); every report
is checked.  ``setup_s`` is the median time from launching a fresh
interpreter to ``divvy.cli`` being imported, over several launches.  With
``--trace 1`` the timed invocations alternate plain and traced ones and the
per-layer metrics are printed instead.

The host this benchmark was built on swings in speed by up to 2x over
seconds to minutes, longer than a run.  So every timing is taken next to a
fixed calibration loop (``child.calibrate``) and reported at a fixed host
speed: wall time x REFERENCE_CAL_S / the loop's time around it.  A change
that makes divvy slower or faster moves the reported times by the same
share; a slow spell of the host moves the loop too and cancels.  The raw
wall-time median is printed beside each timing.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

import checker
import child
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

SETUP_LAUNCHES = 2      # fresh interpreters per workload besides its own
RUN_BUDGET_S = 170.0    # each workload's run must end well inside 180 s
# The calibration loop's time at the reference host speed, close to its
# median on the 2-vCPU Xeon VM the bounds were set on; timings are scaled
# to that speed.
REFERENCE_CAL_S = 0.05

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("values_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark could not measure at all (as opposed to a failed check)."""


def _launch() -> Tuple[subprocess.Popen, float]:
    """Start a child and wait for it to report divvy.cli imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, SRC],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("child interpreter did not import divvy.cli")
    return proc, setup


def _finish(proc: subprocess.Popen, line: str, deadline: float) -> None:
    """Send the child its one line and wait for it, killing it at the deadline."""
    try:
        proc.communicate(line + "\n", timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child interpreter did not finish within the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"child interpreter exited with {proc.returncode}")


def _setup_sample(deadline: float) -> Tuple[float, float]:
    """(raw, scaled) set-up time of one fresh interpreter."""
    before = child.calibrate()
    proc, setup = _launch()
    after = child.calibrate()
    _finish(proc, "", deadline)
    return setup, setup * REFERENCE_CAL_S * 2 / (before + after)


def _spread(xs: List[float], unit: str) -> str:
    return f"median of {len(xs)} (min {min(xs):.4g}, max {max(xs):.4g} {unit})"


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Generate, run and check one workload.  Returns the result object
    for the last line and the human-readable lines before it."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    try:
        inputs_dir = os.path.join(work, "inputs")
        os.mkdir(inputs_dir)
        inputs = workloads.generate(name, seed, inputs_dir)
        setup = [_setup_sample(deadline) for _ in range(SETUP_LAUNCHES)]
        before = child.calibrate()
        proc, s = _launch()
        setup.append((s, s * REFERENCE_CAL_S * 2 / (before + child.calibrate())))
        job = child.make_job(inputs, work, seconds, trace)
        _finish(proc, json.dumps(job), deadline)
        with open(job["result"]) as fh:
            result = json.load(fh)
        return _evaluate(inputs, job, result, setup, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there


def _evaluate(inputs, job, result, setup, trace):
    records = result["records"]
    reference = checker.load_reference().get(inputs.spec.name, {}).get(str(inputs.seed))
    verdicts: Dict[Tuple[str, str], List[str]] = {}
    baseline = None
    failures = []
    for rec in records:
        if "error" in rec:
            problems = [rec["error"].strip().splitlines()[-1]]
        elif rec["rc"] != 0:
            problems = [f"exit code {rec['rc']}"]
        else:
            with open(job["out"].format(i=rec["i"])) as fh:
                text = fh.read()
            csv_path = job["csv"].format(i=rec["i"]) if job["csv"] else None
            key = (checker.stable_digest(text), _file_digest(csv_path))
            if key not in verdicts:
                verdicts[key] = checker.check_report(text, inputs, reference, csv_path)
            problems = list(verdicts[key])
            baseline = baseline or key
            if key != baseline:
                problems.append("report differs from the warm-up's apart from wall_time_s")
        if problems:
            failures.append((rec["i"], problems))

    plain = [r for r in records[1:] if not r["traced"] and "wall" in r]
    traced = [r for r in records[1:] if r["traced"] and "layers" in r]
    spec = inputs.spec
    sizes = " ".join(f"{k}={v}" for k, v in spec.sizes.items())
    lines = [
        f"workload {spec.name} (seed {inputs.seed}): divvy {spec.command} --numeric {spec.numeric}, {sizes}",
        f"  why: {spec.why}",
    ]
    attempted, failed = len(records), len(failures)
    metrics: Dict[str, dict] = {}
    if plain:
        scaled = [_scaled(r) for r in plain]
        run_s = statistics.median(scaled)
        setup_s = statistics.median(s for _, s in setup)
        raw_setup = statistics.median(r for r, _ in setup)
        raw_run = statistics.median(r["wall"] for r in plain)
        e2e = {
            "setup_s": (setup_s, _spread([s for _, s in setup], "s")
                        + f" fresh interpreters; raw median {raw_setup:.4g} s"),
            "run_s": (run_s, _spread(scaled, "s")
                      + f" after 1 warm-up; raw median {raw_run:.4g} s"),
            "values_per_s": (inputs.payouts / run_s, f"{inputs.payouts} payouts / run_s"),
            "peak_rss_mb": (result["peak_rss_mb"], "ru_maxrss of the child after its first invocation"),
        }
        for metric, unit in END_TO_END:
            value, note = e2e[metric]
            lines.append(f"  {metric:<14} {value:>14.6g} {unit:<6} {note}")
            if not trace:
                metrics[metric] = {"value": value, "unit": unit}
    lines.append(f"  {'failed_ops':<14} {failed / attempted:>14.6g} {'ratio':<6} "
                 f"{failed} of {attempted} invocations")
    lines.append("  reference: " + ("checked" if reference is not None
                                     else "none recorded for this seed"))
    if trace and traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _ in spans.PER_LAYER if name != "trace.overhead"}
        # Each traced invocation directly follows a plain one; pairing them
        # keeps a slow spell of the machine out of the ratio.
        by_i = {r["i"]: r for r in records}
        layers["trace.overhead"] = statistics.median(
            _scaled(r) / _scaled(by_i[r["i"] - 1]) for r in traced
        ) - 1
        lines.append(f"  per layer, median of {len(traced)} traced invocations:")
        for metric, unit in spans.PER_LAYER:
            lines.append(f"    {metric:<34} {layers[metric]:>14.6g} {unit}")
            metrics[metric] = {"value": layers[metric], "unit": unit}
        missing = sorted({m for r in traced for m in r["missing"]})
        if missing:
            lines.append("  traced sites absent from the program: " + ", ".join(missing))
    for i, problems in failures:
        lines.append(f"  FAILED invocation {i}: " + "; ".join(problems))
    correct = failed == 0 and bool(plain) and (bool(traced) or not trace)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def _scaled(record) -> float:
    """An invocation's wall time at the reference host speed."""
    return record["wall"] * REFERENCE_CAL_S / record["cal"]


def _file_digest(path):
    if path is None:
        return ""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_seconds() -> float:
    """The run length BENCHMARK.json fixes, so a bare run measures as long
    as a run given ``--seconds`` from that file."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.SPECS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"input seed (held-out seed: {workloads.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    seconds = _run_seconds() if args.seconds is None else args.seconds

    if not os.path.isfile(os.path.join(SRC, "divvy", "cli.py")):
        print(f"perfbench: no divvy sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            result, lines = run_workload(name, args.seed, seconds, bool(args.trace), deadline)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
