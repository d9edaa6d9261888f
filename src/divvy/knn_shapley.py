"""Exact Shapley payouts for a k-nearest-neighbor majority vote.

Under the partition with one coalition the Owen value is the Shapley value
(Owen 1977, *Values of games with a priori unions*), so ``knn_owen``
computes it with every example in coalition 0: its query engine gives the
creation and change terms, and its report function hands each query's
values to ``report.sum_queries``, the loop every report sums its queries in.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .combinatorics import Money, check_mode, is_count, precede_probability
from .errors import InputError
from .knn_owen import _QueryEngine, _knn_report
from .model import (Dataset, KnnConfig, OutcomeValues, Query, RankedNeighborhood,
                    rank_by_distance)
from .report import ValueReport, assemble_report

# precede_probability, rank_by_distance and assemble_report are not called
# here, but stay bound under the names that perfbench/spans.py wraps

METHOD = "shapley-knn"


def _one_coalition(ranking: RankedNeighborhood, k: int, ov: OutcomeValues,
                   mode: str) -> _QueryEngine:
    """The k-NN Owen engine for one query, with every example in coalition 0."""
    return _QueryEngine(ranking, np.zeros(len(ranking), np.uint8), 1, k, ov, mode)


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
    if not (is_count(n) and is_count(match_others)) or n < 1 or match_others > n - 1:
        raise InputError("inconsistent creation-term counts")
    at = np.arange(n)
    ranking = RankedNeighborhood(at, at < match_others + label_matches, at)  # counts alone matter
    return _one_coalition(ranking, k, ov, mode).creation(0, label_matches)


def knn_change_values_all(
    ranking: RankedNeighborhood,
    k: int,
    ov: OutcomeValues,
    mode: str = "float",
) -> List[Money]:
    """Change term for every example, indexed by rank position: position
    i's term sums over the strictly farther positions with the opposite
    label, read off one suffix total per label class."""
    check_mode(mode)
    return _one_coalition(ranking, k, ov, mode).change_terms().tolist()


def knn_shapley_values(
    dataset: Dataset,
    query: Query,
    config: KnnConfig,
    mode: str = "float",
) -> dict:
    """Shapley value per example id for a single query."""
    return knn_shapley_report(dataset, [query], config, mode).values()


def knn_shapley_report(
    dataset: Dataset,
    queries: Sequence[Query],
    config: KnnConfig,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Shapley payout per example over a batch of queries; the report
    carries the dataset's own coalition column."""
    codes = np.zeros(len(dataset), np.uint8)
    return _knn_report(METHOD, dataset, codes, 1, queries, config, mode, per_query)
