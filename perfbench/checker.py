"""Output checks behind ``failed_ops``.

A report passes when

- its invocation exited 0;
- its meta block names the workload's method, numeric mode and query count,
  and it lists every example once, in dataset order;
- its values sum to the sum over queries of v(N) - v(empty), which the
  generator worked out itself: exactly in exact mode, within 1e-9 relative
  in float mode;
- each coalition total equals the sum of its members' values (same rule);
- the CSV export, where there is one, carries the same ids and values;
- it matches the reference recorded for this workload and seed, where one
  is recorded: the SHA-256 of the report without its wall_time_s line in
  exact mode, a few seeded weighted sums of the values in float mode.

"Relative" is measured against the sum of the magnitudes involved, so a
total that cancels to nearly zero is not held to an impossible bound.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from workloads import Inputs

FLOAT_RTOL = 1e-9
WEIGHTED_SUMS = 3
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_WALL_LINE = re.compile(r'^\s*"wall_time_s": .*\n', re.M)


def stable_digest(text: str) -> str:
    """SHA-256 of a report with its wall_time_s line removed."""
    return hashlib.sha256(_WALL_LINE.sub("", text).encode()).hexdigest()


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= FLOAT_RTOL * max(scale, abs(want), 1e-300)


def _weights(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 99]).uniform(-1.0, 1.0, size=(WEIGHTED_SUMS, n))


def weighted_sums(seed: int, values: List[float]) -> List[float]:
    """Seeded weighted sums of the float values, for the reference check."""
    return [float(s) for s in _weights(seed, len(values)) @ np.asarray(values)]


def _sum_problems(values, expected: Fraction, exact: bool, what: str) -> List[str]:
    if exact:
        got = sum(values, Fraction(0))
        if got != expected:
            return [f"{what} is {got}, expected exactly {expected}"]
        return []
    got = math.fsum(values)
    scale = math.fsum(abs(v) for v in values)
    if not _close(got, float(expected), scale):
        return [f"{what} is {got!r}, expected {float(expected)!r} within {FLOAT_RTOL} relative"]
    return []


def load_reference() -> Dict[str, Dict[str, dict]]:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_entry(text: str, values, inputs: Inputs) -> dict:
    """What the reference file records for one report."""
    if inputs.spec.numeric == "exact":
        return {"sha256": stable_digest(text)}
    return {"weighted_sums": weighted_sums(inputs.seed, values)}


def check_report(
    text: str,
    inputs: Inputs,
    reference: Optional[dict],
    csv_path: Optional[str] = None,
) -> List[str]:
    """Problems found in one report's JSON text (empty when it passes)."""
    spec = inputs.spec
    exact = spec.numeric == "exact"
    try:
        doc = json.loads(text)
        meta = doc["meta"]
        rows = doc["examples"]
        parse = Fraction if exact else float
        values = [parse(r["value"]) for r in rows]
        ids = [r["id"] for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    want_meta = {"method": spec.command, "numeric_mode": spec.numeric,
                 "query_count": spec.sizes["queries"]}
    for key, want in want_meta.items():
        if meta.get(key) != want:
            problems.append(f"meta {key} is {meta.get(key)!r}, expected {want!r}")
    if ids != list(range(spec.sizes["examples"])):
        problems.append("example ids are not the dataset's ids in dataset order")
        return problems
    problems += _sum_problems(values, inputs.expected_total, exact, "sum of example values")

    members: Dict[str, list] = {}
    for r, v in zip(rows, values):
        if r.get("coalition") is not None:
            members.setdefault(r["coalition"], []).append(v)
    listed = {c["id"]: parse(c["value"]) for c in doc.get("coalitions", [])}
    if set(listed) != set(members):
        problems.append("coalition list does not match the examples' coalitions")
    else:
        for cid, total in listed.items():
            problems += _sum_problems(members[cid], Fraction(total), exact,
                                      f"members of coalition {cid!r}")

    if csv_path is not None:
        problems += _csv_problems(csv_path, rows, parse)

    if reference is not None:
        got = reference_entry(text, values, inputs)
        if exact and got != reference:
            problems.append("report differs from the recorded reference digest")
        elif not exact:
            scale = np.abs(_weights(inputs.seed, len(values))) @ np.abs(values)
            for g, want, sc in zip(got["weighted_sums"], reference["weighted_sums"], scale):
                if not _close(g, want, sc):
                    problems.append(f"weighted sum {g!r} differs from reference {want!r}")
    return problems


def _csv_problems(path: str, rows, parse) -> List[str]:
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        return [f"CSV export unreadable: {exc}"]
    if table[:1] != [["id", "coalition", "value"]] or len(table) != len(rows) + 1:
        return ["CSV export has the wrong header or row count"]
    for line, r in zip(table[1:], rows):
        cid = "" if r.get("coalition") is None else str(r["coalition"])
        if line[0] != str(r["id"]) or line[1] != cid or parse(line[2]) != parse(r["value"]):
            return [f"CSV export row for id {line[0]} differs from the JSON report"]
    return []
