"""Exact Shapley payouts for frequency-binned decision rules.

A rule that scores a query only through its bin's (match, mismatch) label
counts has a tiny effective game: an example's Shapley value collapses to a
sum over the count pairs where adding one more example of its label class
actually moves the value.  That critical set is scanned (or, for the
majority family, read off two diagonals), weighted by the probability that
a uniformly random permutation shows the example exactly that prefix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from .combinatorics import EXACT, Money, check_mode, precede_probability
from .errors import InputError
from .model import (
    BinTally,
    Dataset,
    FrequencyValueFunction,
    MajorityValueFunction,
    Query,
    delta_value,
    tally_bin,
    to_money,
)
from .report import ValueReport, assemble_report

METHOD = "shapley-freq"


@dataclass(frozen=True)
class CriticalSet:
    """Count pairs (a, b) where one more example of the fixed label class
    changes the value, with the (exact) deltas."""

    entries: Tuple[Tuple[int, int, Fraction], ...]

    @cached_property
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries as arrays: a, b, and the deltas in float."""
        a, b, d = zip(*self.entries) if self.entries else ((), (), ())
        return np.array(a, dtype=np.intp), np.array(b, dtype=np.intp), np.array(d, dtype=float)


def critical_set(
    vf: FrequencyValueFunction,
    size_a: int,
    size_b: int,
    label_matches: bool,
) -> CriticalSet:
    """All (a, b) with 0 <= a <= size_a, 0 <= b <= size_b and a non-zero
    delta for the given label class.

    The majority family is special-cased: its deltas vanish off two
    diagonals, so the scan is linear instead of quadratic.
    """
    if size_a < 0 or size_b < 0:
        raise InputError("critical_set needs non-negative box sizes")
    entries: List[Tuple[int, int, Fraction]] = []
    if isinstance(vf, MajorityValueFunction):
        # adding a match flips outcomes only on a == b and a == b - 1;
        # adding a mismatch only on a == b and a == b + 1.
        pairs = []
        for a in range(size_a + 1):
            for b in {a, a + 1} if label_matches else {a, a - 1}:
                if 0 <= b <= size_b:
                    pairs.append((a, b))
        for a, b in sorted(pairs):
            d = Fraction(delta_value(vf, a, b, label_matches))
            if d != 0:
                entries.append((a, b, d))
    else:
        for a in range(size_a + 1):
            for b in range(size_b + 1):
                d = Fraction(delta_value(vf, a, b, label_matches))
                if d != 0:
                    entries.append((a, b, d))
    return CriticalSet(tuple(entries))


def shapley_frequency_single(
    tally: BinTally,
    vf: FrequencyValueFunction,
    label_matches: bool,
    mode: str = "float",
) -> Money:
    """Shapley value of one example given its bin's tally (which includes
    the example itself)."""
    check_mode(mode)
    size_a = tally.n_match - (1 if label_matches else 0)
    size_b = tally.n_mismatch - (0 if label_matches else 1)
    if size_a < 0 or size_b < 0:
        raise InputError("tally does not include an example of the requested label class")
    total: Money = Fraction(0) if mode == EXACT else 0.0
    for a, b, d in critical_set(vf, size_a, size_b, label_matches).entries:
        w = precede_probability((size_a, size_b), (a, b), mode)
        total += w * to_money(d, mode)
    return total


def _query_values(dataset, query, vf, mode, cache, use_cache):
    """Shapley values for one query of the examples in its bin, keyed by
    example id; every other example's value is zero."""
    dataset.require_bins()
    dataset.check_query_label(query.label)
    if query.bin not in dataset.bins():
        raise InputError(f"query bin {query.bin!r} is unknown to the dataset")
    tally = tally_bin(dataset, query.bin, query.label)
    values = {}
    for ex in dataset.by_bin(query.bin):
        matches = ex.label == query.label
        key = (id(vf), query.bin, query.label, matches)
        if use_cache and key in cache:
            values[ex.id] = cache[key]
            continue
        v = shapley_frequency_single(tally, vf, matches, mode)
        if use_cache:
            cache[key] = v
        values[ex.id] = v
    return values


def shapley_frequency_report(
    dataset: Dataset,
    queries: Sequence[Query],
    vf: FrequencyValueFunction,
    mode: str = "float",
    per_query: bool = False,
    use_cache: bool = True,
) -> ValueReport:
    """Total Shapley payout per example over a batch of queries.

    Within one run, values are cached per (bin, label class, query label):
    every example of a class receives the identical number, so the cache
    changes nothing but the wall time (a property the tests pin down).
    """
    check_mode(mode)
    t0 = time.perf_counter()
    totals = [to_money(0, mode)] * len(dataset)
    row = dataset.row_index()
    rows = []
    cache: dict = {}
    for q in queries:
        q_vf = q.value_function if q.value_function is not None else vf
        values = _query_values(dataset, q, q_vf, mode, cache, use_cache)
        for i, v in values.items():
            totals[row[i]] += v
        if per_query:
            zero = to_money(0, mode)
            rows.append({i: values.get(i, zero) for i in dataset.ids})
    return assemble_report(
        method=METHOD,
        mode=mode,
        dataset=dataset,
        values=totals,
        query_count=len(queries),
        wall_time=time.perf_counter() - t0,
        per_query=rows if per_query else None,
    )
