"""Exact Shapley payouts for a k-nearest-neighbor majority vote.

Each example's value splits into a creation term (the example arrives as
the k-th member and casts the deciding pattern) and a change term (the
example arrives later and knocks the current k-th voter out).  The change
terms over all examples share one reverse sweep down the distance ranking,
so a whole query costs O(n log n) for the sort plus O(n) arithmetic.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from typing import List, Sequence

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


def _change_term(a_j: int, b_j: int, u_matches: bool, half: int, k: int, mode: str) -> Money:
    """One sweep term: probability that the example at a rank with prefix
    counts (a_j, b_j) is the pivotal k-th voter displaced by a nearer
    example of the other class.

    A prefix holding no example of the nearer one's class can never pair
    up; the sweep still asks, so answer zero rather than treat it as a
    malformed probability query."""
    size_a = a_j - (1 if u_matches else 0)
    size_b = b_j - (0 if u_matches else 1)
    if size_a < 0 or size_b < 0:
        return to_money(0, mode)
    return precede_probability((size_a, size_b, 1), (half, half, 1), mode)


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
    n = len(ranking)
    half = (k - 1) // 2
    if mode == EXACT:
        ovx = ov.as_fractions()
        deltas = {True: ovx.correct - ovx.wrong, False: ovx.wrong - ovx.correct}
        suffix = {True: Fraction(0), False: Fraction(0)}
        out: List[Money] = [Fraction(0)] * n
        for pos in range(n - 1, -1, -1):
            m = bool(ranking.matches[pos])
            out[pos] = suffix[m]
            # this position becomes a "farther j" for everything nearer
            a_j = int(ranking.prefix_match[pos])
            b_j = int(ranking.prefix_mismatch[pos])
            u = not m  # only the opposite class collects a term at j = pos
            suffix[u] += _change_term(a_j, b_j, u, half, k, EXACT) * deltas[u]
        return out
    return list(_change_values_float(ranking, k, ov))


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


def _change_values_float(ranking: RankedNeighborhood, k: int, ov: OutcomeValues) -> np.ndarray:
    n = len(ranking)
    half = (k - 1) // 2
    a = ranking.prefix_match
    b = ranking.prefix_mismatch
    matches = ranking.matches
    j_tot = a + b
    lb_half = _log_binom_table(n, half)
    # Only the class opposite to position j's own collects a term at j, so
    # each position needs one weight.  With u = not matches[j], the prefix
    # sizes a - u and b - (1 - u) sit at table entries a + matches[j] and
    # b + (not matches[j]).
    with np.errstate(invalid="ignore"):
        log_w = lb_half[a + matches]
        log_w += lb_half[b + ~matches]
        log_w -= _log_binom_table(n, k)[j_tot + 1]
        log_w -= np.log(j_tot + 1.0)
        finite = np.isfinite(log_w)
        weight = np.exp(log_w, out=log_w)
    weight[~finite] = 0.0
    delta = float(ov.correct) - float(ov.wrong)
    vals = np.empty(n)
    for u, d in ((True, delta), (False, -delta)):
        # class-u positions collect the terms of farther other-class ones
        mine = matches == u
        term = np.where(mine, 0.0, weight)
        term *= d
        suffix = np.cumsum(term[::-1])[::-1]
        suffix -= term
        vals[mine] = suffix[mine]
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
    n = len(dataset)
    k = config.k
    ov = config.outcome_values
    if n < k:
        return dict.fromkeys(dataset.ids, to_money(0, mode))
    total_match = int(ranking.matches.sum())
    f = {}
    for u in (True, False):
        others = total_match - 1 if u else total_match
        if 0 <= others <= n - 1:
            f[u] = knn_creation_value(n, others, u, k, ov, mode)
    g = knn_change_values_all(ranking, k, ov, mode)
    out = {}
    for pos in range(n):
        u = bool(ranking.matches[pos])
        out[int(ranking.ordering[pos])] = f[u] + g[pos]
    return out


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
    n = len(dataset)
    rows = []
    if mode == EXACT:
        totals = [Fraction(0)] * n
        row = dataset.row_index()
        for q in queries:
            values = knn_shapley_values(dataset, q, config, mode)
            for i, v in values.items():
                totals[row[i]] += v
            if per_query:
                rows.append(values)
    else:
        # float path stays in arrays aligned to dataset order
        totals = np.zeros(n)
        for q in queries:
            ranking = rank_by_distance(dataset, q.features, q.label, config.metric)
            if n < config.k:
                vals_pos = np.zeros(n)
            else:
                vals_pos = _change_values_float(ranking, config.k, config.outcome_values)
                total_match = int(ranking.matches.sum())
                for u in (True, False):
                    others = total_match - 1 if u else total_match
                    if 0 <= others <= n - 1:
                        fv = knn_creation_value(n, others, u, config.k, config.outcome_values, mode)
                        vals_pos = vals_pos + np.where(ranking.matches == u, fv, 0.0)
            arr = np.zeros(n)
            arr[ranking.rows] = vals_pos
            totals += arr
            if per_query:
                rows.append(dict(zip(dataset.ids, arr.tolist())))
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
