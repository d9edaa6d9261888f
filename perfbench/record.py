"""Record the reference reports the output checker compares against.

    python3 perfbench/record.py

For every workload and for seeds 0-31 and the held-out seed, this
generates the inputs, runs the CLI once in-process, checks the report with
every check except the reference one, and stores what later runs must
reproduce in ``reference.json``: the report digest for exact workloads,
seeded weighted sums for float ones.  Re-record only when a change is
meant to alter the numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

import checker
import child
import workloads
from run import SRC, WORK_ROOT

SEEDS = [*range(32), workloads.HELD_OUT_SEED]


def record(name: str, seed: int) -> dict:
    work = tempfile.mkdtemp(prefix=f"record-{name}-{seed}-", dir=WORK_ROOT)
    try:
        inputs = workloads.generate(name, seed, work)
        job = child.make_job(inputs, work)
        rec = child._invoke(job, 0, False)
        if rec["rc"] != 0:
            raise SystemExit(f"{name} seed {seed}: the CLI failed\n{rec.get('error', '')}")
        with open(job["out"].format(i=0)) as fh:
            text = fh.read()
        csv_path = job["csv"].format(i=0) if job["csv"] else None
        problems = checker.check_report(text, inputs, None, csv_path)
        if problems:
            raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
        parse = Fraction if inputs.spec.numeric == "exact" else float
        values = [parse(r["value"]) for r in json.loads(text)["examples"]]
        return checker.reference_entry(text, values, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    reference = checker.load_reference()
    try:
        for name in workloads.SPECS:
            for seed in SEEDS:
                reference.setdefault(name, {})[str(seed)] = record(name, seed)
                print(f"recorded {name} seed {seed}", flush=True)
    finally:
        with open(checker.REFERENCE_PATH, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
