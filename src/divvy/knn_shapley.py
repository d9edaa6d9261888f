"""Exact Shapley payouts for a k-nearest-neighbor majority vote.

Each example's value splits into a creation term (the example arrives as
the k-th member and casts the deciding pattern) and a change term (the
example arrives later and knocks the current k-th voter out).  The change
terms over all examples share one reverse sweep down the distance ranking,
so a whole query costs O(n log n) for the sort plus O(n) arithmetic.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .combinatorics import EXACT, Money, binom, check_mode, precede_probability
from .errors import InputError
from .model import (
    Dataset,
    KnnConfig,
    OutcomeValues,
    Query,
    RankedNeighborhood,
    rank_by_distance,
    to_money,
)
from .report import ValueReport, assemble_report

METHOD = "shapley-knn"


def knn_creation_value(
    n: int,
    match_others: int,
    label_matches: bool,
    k: int,
    ov: OutcomeValues,
    mode: str = "float",
) -> Money:
    """Creation term: expected payoff from the permutations where the
    example is the k-th to arrive.

    ``match_others`` counts the examples other than this one whose label
    matches the query.  Returns 0 when n < k: the k-th position never
    exists, so the example can neither complete nor change a vote.
    """
    check_mode(mode)
    if n < 1 or match_others < 0 or match_others > n - 1:
        raise InputError("inconsistent creation-term counts")
    if n < k:
        return to_money(0, mode)
    size_a = match_others
    size_b = n - 1 - match_others
    half = (k - 1) // 2
    wrong_top = half - (1 if label_matches else 0)
    total = to_money(0, mode)
    for a in range(0, k):
        w = precede_probability((size_a, size_b), (a, k - 1 - a), mode)
        outcome = ov.wrong if a <= wrong_top else ov.correct
        total += w * to_money(outcome, mode)
    return total - to_money(ov.none, mode) / n


@functools.lru_cache(maxsize=8)
def _log_binom_table(n: int, r: int) -> np.ndarray:
    """ln C(m, r) for m = -1 .. n at entry m + 1, -inf where the zero
    convention applies, read-only.  Prefix counts stay in that range, so
    the sweep gathers from one table per r instead of running gammaln over
    every position."""
    from scipy.special import gammaln  # ~0.3 s to import, so only this sweep pays

    m = np.arange(-1.0, n + 1)
    table = np.full(m.shape, -np.inf)
    ok = m >= r
    if r >= 0:
        table[ok] = gammaln(m[ok] + 1.0) - gammaln(r + 1.0) - gammaln(m[ok] - r + 1.0)
    table.flags.writeable = False
    return table


def _exact_weight(a: int, b: int, half: int, k: int) -> Fraction:
    num = binom(a - 1, half) * binom(b - 1, half)
    # a non-zero numerator means a + b - 1 >= k, so the denominator is too
    return Fraction(num, (a + b) * math.comb(a + b - 1, k)) if num else Fraction(0)


def _change_weights(ranking: RankedNeighborhood, k: int, mode: str) -> np.ndarray:
    """Per rank position j, the probability that j is the pivotal k-th
    voter and a nearer example of the other class displaces it.

    Only the class opposite to j's own collects a term at j, so each
    position needs one weight.  With a = prefix_match + matches and
    b = prefix_mismatch + not matches (each one more than the nearer
    examples of its class, the displacing one left out), it is
    C(a-1, h) C(b-1, h) / ((a+b) C(a+b-1, k)) for h = (k - 1) / 2: zero
    where a class has fewer than h nearer examples.
    """
    half = (k - 1) // 2
    a = ranking.prefix_match + ranking.matches
    b = ranking.prefix_mismatch + ~ranking.matches
    if mode == EXACT:
        return np.array(
            [_exact_weight(x, y, half, k) for x, y in zip(a.tolist(), b.tolist())],
            dtype=object,
        )
    n = len(ranking)
    lb_half = _log_binom_table(n, half)  # entry x holds ln C(x - 1, h)
    with np.errstate(invalid="ignore"):
        log_w = lb_half[a]
        log_w += lb_half[b]
        log_w -= _log_binom_table(n, k)[a + b]
        log_w -= np.log(a + b)
        finite = np.isfinite(log_w)
        weight = np.exp(log_w, out=log_w)
    weight[~finite] = 0.0
    return weight


def _zeros(n: int, mode: str) -> np.ndarray:
    return np.full(n, Fraction(0), dtype=object) if mode == EXACT else np.zeros(n)


def _change_values(ranking: RankedNeighborhood, k: int, ov: OutcomeValues, mode: str) -> np.ndarray:
    weight = _change_weights(ranking, k, mode)
    delta = to_money(ov.correct, mode) - to_money(ov.wrong, mode)
    vals = np.empty_like(weight)
    hit = np.flatnonzero(ranking.matches)
    miss = np.flatnonzero(~ranking.matches)
    for mine, other, ahead, d in ((hit, miss, ranking.prefix_mismatch, delta),
                                  (miss, hit, ranking.prefix_match, -delta)):
        # each class collects the terms of the farther other-class positions:
        # a suffix sum over those alone, read at entry ahead[i] since ahead[i]
        # of them are nearer than i (past the last one, the empty sum)
        suffix = np.append(np.cumsum((weight[other] * d)[::-1])[::-1], to_money(0, mode))
        vals[mine] = suffix[ahead[mine]]
    return vals


def knn_change_values_all(
    ranking: RankedNeighborhood,
    k: int,
    ov: OutcomeValues,
    mode: str = "float",
) -> List[Money]:
    """Change term for every example, indexed by rank position.

    Position i's term sums over the strictly farther positions with the
    opposite label; accumulating the shared suffix once per label class
    turns the quadratic double loop into one reverse sweep.
    """
    check_mode(mode)
    if k < 1 or k % 2 == 0:
        raise InputError("k must be odd")
    return _change_values(ranking, k, ov, mode).tolist()


def _row_values(dataset: Dataset, query: Query, config: KnnConfig, mode: str) -> np.ndarray:
    """Shapley value per example for one query, in dataset order."""
    ranking = rank_by_distance(dataset, query.features, query.label, config.metric)
    n = len(dataset)
    if n < config.k:
        return _zeros(n, mode)
    k, ov = config.k, config.outcome_values
    m = int(ranking.matches.sum())
    # a class with no example here needs no creation term
    f_true = knn_creation_value(n, m - 1, True, k, ov, mode) if m else 0
    f_false = knn_creation_value(n, m, False, k, ov, mode) if m < n else 0
    vals = _change_values(ranking, k, ov, mode)
    vals += np.where(ranking.matches, f_true, f_false)
    out = _zeros(n, mode)
    out[ranking.rows] = vals
    return out


def knn_shapley_values(
    dataset: Dataset,
    query: Query,
    config: KnnConfig,
    mode: str = "float",
) -> dict:
    """Shapley value per example id for a single query."""
    check_mode(mode)
    return dict(zip(dataset.ids, _row_values(dataset, query, config, mode).tolist()))


def knn_shapley_report(
    dataset: Dataset,
    queries: Sequence[Query],
    config: KnnConfig,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Shapley payout per example over a batch of queries."""
    check_mode(mode)
    t0 = time.perf_counter()
    totals = _zeros(len(dataset), mode)
    rows = []
    for q in queries:
        values = _row_values(dataset, q, config, mode)
        totals += values
        if per_query:
            rows.append(dict(zip(dataset.ids, values.tolist())))
    return assemble_report(
        method=METHOD,
        mode=mode,
        dataset=dataset,
        values=totals,
        query_count=len(queries),
        wall_time=time.perf_counter() - t0,
        k=config.k,
        per_query=rows if per_query else None,
    )
