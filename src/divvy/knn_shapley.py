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
from typing import Callable, List, Optional, Sequence

import numpy as np

from .combinatorics import EXACT, Money, check_mode, precede_probability
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
    convention applies, read-only.  Prefix counts stay in that range, so a
    sweep gathers from one table per r instead of taking logs at every
    position.  Each entry sums the r logs of m, m - 1, ..., m - r + 1 and
    subtracts ln r!, which for the small r of a k-NN vote keeps it to a few
    ulps; a difference of log-gammas would cancel most of its digits."""
    table = np.full(n + 2, -np.inf)
    if 0 <= r <= n:
        m = np.arange(r, n + 1.0)
        log_fall = np.zeros(len(m))
        for i in range(r):
            log_fall += np.log(m - i)
        table[r + 1:] = log_fall - math.lgamma(r + 1)
    table.flags.writeable = False
    return table


def _pivot_weights(x: np.ndarray, y: np.ndarray, a: int, b: int, n: int, mode: str) -> np.ndarray:
    """C(x, a) C(y, b) / (t C(t - 1, a + b + 1)) for t = x + y + 2, elementwise:
    the probability that, of x + y examples in two classes, exactly a and b
    precede one more example, and one pivot precedes it too, in a uniform
    order of all t.  Zero where x < a or y < b; counts lie in -1 .. n - 2."""
    if mode == EXACT:  # x >= a and y >= b keep the denominator non-zero
        return np.array([Fraction(math.comb(u, a) * math.comb(v, b),
                                  (u + v + 2) * math.comb(u + v + 1, a + b + 1))
                         if u >= a and v >= b else Fraction(0)
                         for u, v in zip(x.tolist(), y.tolist())], dtype=object)
    t = x + y + 2
    # summed as precede_probability sums them; a short count gives nan, weight 0
    with np.errstate(invalid="ignore"):
        log_w = -_log_binom_table(n, a + b + 1)[t]
        log_w += _log_binom_table(n, a)[x + 1]
        log_w += _log_binom_table(n, b)[y + 1]
        w = np.exp(log_w, out=log_w) / t
    w[np.isnan(w)] = 0.0
    return w


def _zeros(n: int, mode: str) -> np.ndarray:
    return np.full(n, Fraction(0), dtype=object) if mode == EXACT else np.zeros(n)


def _change_values(ranking: RankedNeighborhood, k: int, ov: OutcomeValues, mode: str) -> np.ndarray:
    """Change term of every rank position.  Position j's weight is the
    probability that j is the pivotal k-th voter and a nearer example of
    the other class displaces it: h = (k - 1) / 2 of the nearer examples of
    each class precede the displacing one, which is left out of its class's
    count, and j precedes it too."""
    half = (k - 1) // 2
    x = ranking.prefix_match - ~ranking.matches
    y = ranking.prefix_mismatch - ranking.matches
    weight = _pivot_weights(x, y, half, half, len(ranking), mode)
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


def _ranked_values(ranking: RankedNeighborhood, config: KnnConfig, mode: str) -> np.ndarray:
    """Shapley value of every rank position for one query."""
    n = len(ranking)
    if n < config.k:
        return _zeros(n, mode)
    k, ov = config.k, config.outcome_values
    m = int(ranking.matches.sum())
    # a class with no example here needs no creation term
    f_true = knn_creation_value(n, m - 1, True, k, ov, mode) if m else 0
    f_false = knn_creation_value(n, m, False, k, ov, mode) if m < n else 0
    vals = _change_values(ranking, k, ov, mode)
    vals += np.where(ranking.matches, f_true, f_false)
    return vals


def knn_shapley_values(
    dataset: Dataset,
    query: Query,
    config: KnnConfig,
    mode: str = "float",
) -> dict:
    """Shapley value per example id for a single query."""
    check_mode(mode)
    ranking = rank_by_distance(dataset, query.features, query.label, config.metric)
    out = _zeros(len(dataset), mode)
    out[ranking.rows] = _ranked_values(ranking, config, mode)
    return dict(zip(dataset.ids, out.tolist()))


def _knn_report(method: str, dataset: Dataset, queries: Sequence[Query], config: KnnConfig,
                mode: str, per_query: bool, ranked_values: Callable[..., np.ndarray],
                coalition_column: Optional[list] = None) -> ValueReport:
    """Total payout per example over a batch of queries, for either k-NN
    method: each query ranks the examples once, and ``ranked_values`` gives
    the values that the rows, in rank order, add to their totals."""
    check_mode(mode)
    t0 = time.perf_counter()
    totals = _zeros(len(dataset), mode)
    rows = []
    for q in queries:
        ranking = rank_by_distance(dataset, q.features, q.label, config.metric)
        values = ranked_values(ranking)
        totals[ranking.rows] += values
        if per_query:
            rows.append(dict(zip(ranking.ordering.tolist(), values.tolist())))
    return assemble_report(
        method=method, mode=mode, dataset=dataset, values=totals, query_count=len(queries),
        wall_time=time.perf_counter() - t0, k=config.k, per_query=rows if per_query else None,
        coalition_column=coalition_column,
    )


def knn_shapley_report(
    dataset: Dataset,
    queries: Sequence[Query],
    config: KnnConfig,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Shapley payout per example over a batch of queries."""
    return _knn_report(METHOD, dataset, queries, config, mode, per_query,
                       lambda ranking: _ranked_values(ranking, config, mode))
