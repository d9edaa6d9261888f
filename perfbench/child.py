"""Child interpreter that runs CLI invocations for the benchmark.

Usage: ``python3 child.py SRC_DIR``.  The child imports ``divvy.cli`` from
SRC_DIR and prints ``ready``; the parent times a fresh interpreter from
launch to that line (``setup_s``).  It then reads one line from stdin.  An
empty line ends the child.  Otherwise the line is a JSON job: run
``run_command`` once as a warm-up, then repeatedly until ``seconds`` have
passed, each invocation writing its own report files, and write one JSON
record per invocation to ``job["result"]``.  With ``trace`` set, the timed
invocations alternate untraced and traced ones, so both kinds see the same
conditions and their ratio gives the tracing overhead.

A fixed calibration loop runs before the first invocation and after each
one; every record carries the mean of the two loops around it, so the
parent can express the invocation's wall time at a fixed host speed.
"""

import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

import spans


def _log_binom_stats():
    """(hits, misses, entries) of the log_binom cache, zeros if it has none."""
    from divvy import combinatorics

    info = getattr(combinatorics.log_binom, "cache_info", None)
    if info is None:
        return (0, 0, 0)
    ci = info()
    return (ci.hits, ci.misses, ci.currsize)


def calibrate():
    """Seconds one fixed, divvy-free loop takes now: integer arithmetic and
    Fraction sums, the interpreter work the workloads spend most time in.
    The benchmark's host swings in speed by up to 2x over seconds to
    minutes, and this loop's time tracks those swings."""
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(4_000):
        f += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def make_job(inputs, work, seconds=0.0, trace=False):
    """The job for one workload's generated ``inputs``; every invocation
    writes its own report files under ``work``."""
    return {
        "argv": inputs.argv,
        "out": os.path.join(work, "report-{i}.json"),
        "csv": os.path.join(work, "values-{i}.csv") if inputs.spec.with_csv else None,
        "rows": inputs.rows,
        "seconds": seconds,
        "trace": trace,
        "result": os.path.join(work, "result.json"),
    }


def _invoke(job, i, traced):
    """One CLI run as a fresh process would see it: no garbage left over and
    a cold log_binom cache, which every real invocation starts with."""
    from divvy import cli, combinatorics

    paths = [job["out"].format(i=i)]
    argv = job["argv"] + ["--out", paths[0]]
    if job["csv"]:
        paths.append(job["csv"].format(i=i))
        argv += ["--csv", paths[1]]
    clear = getattr(combinatorics.log_binom, "cache_clear", None)
    if clear is not None:
        clear()
    gc.collect()
    record = {"i": i, "traced": traced, "rc": None}
    tracer = spans.Tracer()
    lb0 = _log_binom_stats()
    try:
        with spans.installed(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            record["rc"] = cli.run_command(argv)
            wall = time.perf_counter() - t0
    except Exception:  # noqa: BLE001 - reported as a failed invocation
        record["error"] = traceback.format_exc()
        return record
    record["wall"] = wall
    if traced:
        bytes_out = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
        record["layers"] = spans.layer_metrics(
            tracer, wall, job["rows"], bytes_out, lb0, _log_binom_stats()
        )
        record["missing"] = tracer.missing
    return record


def run_job(job):
    """Warm-up, then invocations until job["seconds"] have passed."""
    before = calibrate()

    def invoke(i, traced):
        nonlocal before
        record = _invoke(job, i, traced)
        after = calibrate()
        record["cal"] = (before + after) / 2
        before = after
        return record

    records = [invoke(0, False)]
    # A CLI user's process runs one invocation, so its peak memory is the
    # high-water mark after the first one; later ones add fragmentation.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pattern = [False, True] if job["trace"] else [False]
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < job["seconds"] and "error" not in records[-1]:
        for traced in pattern:
            records.append(invoke(i, traced))
            i += 1
            if "error" in records[-1]:
                break
    return {"records": records, "peak_rss_mb": peak_kb / 1024.0}


def main():
    sys.path.insert(0, sys.argv[1])
    import divvy.cli  # noqa: F401  (this import is the set-up being timed)

    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line:
        return
    job = json.loads(line)
    result = run_job(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
