"""Exact Shapley payouts for frequency-binned decision rules.

A rule that scores a query only through its bin's (match, mismatch) label
counts has a tiny effective game: an example's Shapley value collapses to a
sum over the count pairs where adding one more example of its label class
actually moves the value.  That critical set is scanned (or, for the
majority family, read off two diagonals), weighted by the probability that
a uniformly random permutation shows the example exactly that prefix.
"""

from __future__ import annotations

import math
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

    @cached_property
    def diagonals(self) -> dict:
        """Each diagonal a - b the entries touch, with its delta: the
        majority family has one delta per diagonal."""
        return {a - b: d for a, b, d in self.entries}


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
    if isinstance(vf, MajorityValueFunction):
        # adding a match moves the value only on a == b and b == a + 1, a
        # mismatch only on a == b and a == b + 1; each diagonal has one delta
        da, db = (0, 1) if label_matches else (1, 0)
        tie = Fraction(delta_value(vf, 0, 0, label_matches))
        off = Fraction(delta_value(vf, da, db, label_matches))
        entries = sorted(
            [(c, c, tie) for c in range(min(size_a, size_b) + 1) if tie]
            + [(c + da, c + db, off) for c in range(min(size_a - da, size_b - db) + 1) if off]
        )
    else:
        entries: List[Tuple[int, int, Fraction]] = []
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
    the example itself).

    With A other matches, B other mismatches and t = A + B + 1, the example
    sees the prefix (a, b) with probability
    C(a + b, a) C(t - 1 - a - b, A - a) / (t C(t - 1, A)), so an exact value
    is one integer sum over that denominator times the deltas' lcm.
    """
    check_mode(mode)
    size_a = tally.n_match - (1 if label_matches else 0)
    size_b = tally.n_mismatch - (0 if label_matches else 1)
    if size_a < 0 or size_b < 0:
        raise InputError("tally does not include an example of the requested label class")
    entries = critical_set(vf, size_a, size_b, label_matches).entries
    if mode == EXACT:
        den = math.lcm(*(d.denominator for _, _, d in entries))
        rest = size_a + size_b
        total = sum(
            d.numerator * (den // d.denominator)
            * math.comb(a + b, a) * math.comb(rest - a - b, size_a - a)
            for a, b, d in entries
        )
        return Fraction(total, den * (rest + 1) * math.comb(rest, size_a))
    total = 0.0
    for a, b, d in entries:
        total += precede_probability((size_a, size_b), (a, b), mode) * float(d)
    return total


def shapley_frequency_report(
    dataset: Dataset,
    queries: Sequence[Query],
    vf: FrequencyValueFunction,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Shapley payout per example over a batch of queries.

    Every example of one bin and label class gets the same value, so a query
    adds one value per class in its bin to that (bin, label) group's total,
    and each example reads its group's total at the end.  Values are cached
    per (bin, label class, query label) across queries.
    """
    check_mode(mode)
    t0 = time.perf_counter()
    bin_code, bin_col = dataset.bin_codes()
    symbols, label_col = dataset.label_column()
    groups = bin_col * len(symbols) + label_col
    zero = to_money(0, mode)
    totals = [zero] * (len(bin_code) * len(symbols))
    dtype = object if mode == EXACT else float
    rows = []
    cache: dict = {}
    for q in queries:
        q_vf = q.value_function if q.value_function is not None else vf
        code = dataset.query_bin_code(q)
        tally = tally_bin(dataset, q.bin, q.label)
        q_values = [zero] * len(totals)
        for c, symbol in enumerate(symbols):
            matches = symbol == q.label
            if not (tally.n_match if matches else tally.n_mismatch):
                continue
            key = (id(q_vf), q.bin, q.label, matches)
            v = cache.get(key)
            if v is None:
                v = cache[key] = shapley_frequency_single(tally, q_vf, matches, mode)
            g = code * len(symbols) + c
            totals[g] += v
            q_values[g] = v
        if per_query:
            rows.append(dict(zip(dataset.ids, np.array(q_values, dtype)[groups].tolist())))
    return assemble_report(
        method=METHOD,
        mode=mode,
        dataset=dataset,
        values=np.array(totals, dtype)[groups],
        query_count=len(queries),
        wall_time=time.perf_counter() - t0,
        per_query=rows if per_query else None,
    )
