"""Exact Shapley payouts for frequency-binned decision rules.

Under the partition with one coalition the Owen value is the Shapley value
(Owen 1977, *Values of games with a priori unions*), so ``freq_owen``
computes it with every example in coalition 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .combinatorics import Money, precede_probability
from .freq_owen import _frequency_report, owen_frequency_single
from .model import BinTally, Dataset, FrequencyValueFunction, Query, tally_bin
from .report import ValueReport, assemble_report

# precede_probability, tally_bin and assemble_report are not called here,
# but stay bound under the names that perfbench/spans.py wraps

METHOD = "shapley-freq"


def shapley_frequency_single(
    tally: BinTally,
    vf: FrequencyValueFunction,
    label_matches: bool,
    mode: str = "float",
) -> Money:
    """Shapley value of one example given its bin's tally (which includes
    the example itself)."""
    own = (tally.n_match - label_matches, tally.n_mismatch - (not label_matches))
    return owen_frequency_single([], *own, vf, label_matches, mode)


def shapley_frequency_report(
    dataset: Dataset,
    queries: Sequence[Query],
    vf: FrequencyValueFunction,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Shapley payout per example over a batch of queries; the report
    carries the dataset's own coalition column."""
    owner = np.zeros(len(dataset), np.intp)
    return _frequency_report(METHOD, dataset, owner, queries, vf, mode, per_query)
