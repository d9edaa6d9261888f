"""
The command line, end to end
============================

Everything in the library is reachable from the ``divvy`` command: CSV in,
JSON report out, with exit codes that scripts can branch on (0 ok, 1 bad
input, 2 a safety guard refused).  This script stages a small job in a
temporary directory and drives the same entry point the console script uses.
"""

import json
import tempfile
from pathlib import Path

from divvy.cli import run_command

work = Path(tempfile.mkdtemp(prefix="divvy_demo_"))
print(f"staging files under {work}")

(work / "trades.csv").write_text(
    "id,bin,label,coalition\n"
    "0,volatile,buy,desk_a\n"
    "1,volatile,buy,desk_a\n"
    "2,volatile,sell,desk_b\n"
    "3,calm,buy,desk_b\n"
)
(work / "sessions.csv").write_text("bin,label\nvolatile,buy\n")
(work / "payout.json").write_text(
    '{"family": "majority", "correct": 100, "wrong": -500, "none": 0}\n'
)

# 1. plain per-example split, exact arithmetic, report to a file
rc = run_command([
    "shapley-freq",
    "--data", str(work / "trades.csv"),
    "--queries", str(work / "sessions.csv"),
    "--value", str(work / "payout.json"),
    "--numeric", "exact",
    "--out", str(work / "report.json"),
    "--csv", str(work / "values.csv"),
])
doc = json.loads((work / "report.json").read_text())
print(f"\nshapley-freq exited {rc}; values:")
for row in doc["examples"]:
    print(f"  id {row['id']}: {row['value']}")
print("csv export:")
print((work / "values.csv").read_text().rstrip())

# 2. the same job with desks bargaining as blocks
rc = run_command([
    "owen-freq",
    "--data", str(work / "trades.csv"),
    "--queries", str(work / "sessions.csv"),
    "--value", str(work / "payout.json"),
    "--numeric", "exact",
    "--out", str(work / "owen.json"),
])
doc = json.loads((work / "owen.json").read_text())
print(f"\nowen-freq exited {rc}; per-desk totals:")
for row in doc["coalitions"]:
    print(f"  {row['id']}: {row['value']}")

# 3. bad input fails loudly with exit code 1
rc = run_command([
    "shapley-knn",
    "--data", str(work / "trades.csv"),   # has no feature columns
    "--queries", str(work / "sessions.csv"),
    "--k", "3", "--values", "1,-1,0",
])
print(f"\nshapley-knn on binned data exited {rc} (expected 1)")

# 4. the brute-force oracle refuses factorial jobs: 12 examples means
#    12! = 479 million join orders, so it stops with exit code 2
big = "id,bin,label\n" + "".join(f"{i},volatile,buy\n" for i in range(12))
(work / "big.csv").write_text(big)
argv = [
    "oracle", "--family", "frequency", "--method", "exact-shapley",
    "--data", str(work / "big.csv"),
    "--queries", str(work / "sessions.csv"),
    "--value", str(work / "payout.json"),
]
print(f"\noracle on 12 examples exited {run_command(argv)} (expected 2)")

# --yes-i-know waives the guard whatever the size, for when you really mean
# it; here it runs the 4-example job, which needs no consent
argv = [
    "oracle", "--family", "frequency", "--method", "exact-shapley",
    "--data", str(work / "trades.csv"),
    "--queries", str(work / "sessions.csv"),
    "--value", str(work / "payout.json"),
]
rc = run_command(argv + ["--yes-i-know", "--out", str(work / "oracle.json")])
print(f"with --yes-i-know on 4 examples it exited {rc}; the 24-permutation sweep agrees:")
fast = {r["id"]: r["value"]
        for r in json.loads((work / "report.json").read_text())["examples"]}
slow = {r["id"]: r["value"]
        for r in json.loads((work / "oracle.json").read_text())["examples"]}
print(f"  closed form {fast}")
print(f"  enumerated  {slow}")
