"""Owen payouts for frequency-binned rules under a coalition partition.

The outer layer is a distribution over what the coalitions ahead of the
target coalition contribute to the bin: a dynamic program inserts one
coalition at a time into the ordering, advancing a (preceders, matches,
mismatches) state.  The inner layer is the same precedence weight the
Shapley computation uses, restricted to the target coalition's own in-bin
members.  Out-of-bin members of any coalition never move the value, so
they are ignored throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .combinatorics import EXACT, Money, check_mode, precede_probability
from .errors import InputError
from .model import (
    CoalitionStructure,
    Dataset,
    FrequencyValueFunction,
    Query,
    to_money,
)
from .freq_shapley import critical_set
from .report import ValueReport, assemble_report

METHOD = "owen-freq"

CountPair = Tuple[int, int]


@dataclass(frozen=True)
class PrecedeDistribution:
    """Distribution of (match, mismatch) counts contributed by the
    coalitions that precede the target in a uniform coalition ordering."""

    probs: Mapping[CountPair, Money]

    def mass(self) -> Money:
        return sum(self.probs.values())

    def grid(self) -> np.ndarray:
        """Dense float grid, indexed [a, b]."""
        if not self.probs:
            return np.zeros((1, 1))
        max_a = max(a for a, _ in self.probs)
        max_b = max(b for _, b in self.probs)
        g = np.zeros((max_a + 1, max_b + 1))
        for (a, b), p in self.probs.items():
            g[a, b] = float(p)
        return g


def layered_insertion_dp(
    pairs: Sequence[CountPair],
    mode: str = EXACT,
    start_state: Tuple[int, int, int] = (0, 0, 0),
    start_mass: Money = 1,
    start_layer: int = 1,
    caps: Optional[CountPair] = None,
) -> Dict[CountPair, Money]:
    """Insert coalitions one at a time into a random ordering against a
    fixed target, tracking (s, a, b): how many inserted coalitions precede
    the target and what counts they contribute.

    At layer j (the j-th coalition overall, counting any baked into the
    start state) a previous state with s preceders advances with
    probability (s + 1) / (j + 1) and stays with (j - s) / (j + 1).
    States whose counts exceed ``caps`` are dropped; they can never come
    back under it, and callers only read capped entries.

    Returns the (a, b) marginal.
    """
    check_mode(mode)
    one = Fraction(1) if mode == EXACT else 1.0
    states: Dict[Tuple[int, int, int], Money] = {tuple(start_state): one * start_mass}
    j = start_layer
    for a_j, b_j in pairs:
        nxt: Dict[Tuple[int, int, int], Money] = {}
        for (s, a, b), mass in states.items():
            if mode == EXACT:
                p_adv = Fraction(s + 1, j + 1)
            else:
                p_adv = (s + 1) / (j + 1)
            key = (s + 1, a + a_j, b + b_j)
            if caps is None or (key[1] <= caps[0] and key[2] <= caps[1]):
                nxt[key] = nxt.get(key, 0) + mass * p_adv
            stay = (s, a, b)
            nxt[stay] = nxt.get(stay, 0) + mass * (one - p_adv)
        states = nxt
        j += 1
    out: Dict[CountPair, Money] = {}
    for (s, a, b), mass in states.items():
        out[(a, b)] = out.get((a, b), 0) + mass
    return out


def _dp_float_grid(pairs: Sequence[CountPair]) -> np.ndarray:
    """Float DP over a dense (s, a, b) grid; the dict version is exact but
    too slow once bins hold hundreds of examples."""
    max_a = sum(a for a, _ in pairs)
    max_b = sum(b for _, b in pairs)
    m = len(pairs)
    P = np.zeros((m + 1, max_a + 1, max_b + 1))
    P[0, 0, 0] = 1.0
    svec = np.arange(m + 1, dtype=float)
    for j, (a_j, b_j) in enumerate(pairs, start=1):
        p_adv = ((svec + 1) / (j + 1))[:, None, None]
        p_stay = (np.maximum(j - svec, 0.0) / (j + 1))[:, None, None]
        nxt = P * p_stay
        adv = P * p_adv
        nxt[1:, a_j:, b_j:] += adv[:-1, : P.shape[1] - a_j, : P.shape[2] - b_j]
        P = nxt
    return P.sum(axis=0)


def owen_precede_distribution(
    other_tallies: Sequence[CountPair],
    mode: str = EXACT,
) -> PrecedeDistribution:
    """Distribution of in-bin counts contributed by the non-target
    coalitions that land ahead of the target coalition."""
    check_mode(mode)
    for a, b in other_tallies:
        if a < 0 or b < 0:
            raise InputError("coalition tallies must be non-negative")
    if mode == EXACT:
        probs = layered_insertion_dp(list(other_tallies), mode=EXACT)
        return PrecedeDistribution(dict(probs))
    grid = _dp_float_grid(list(other_tallies))
    probs = {
        (int(a), int(b)): float(grid[a, b])
        for a, b in zip(*np.nonzero(grid))
    }
    if not probs:
        probs = {(0, 0): 1.0}
    return PrecedeDistribution(probs)


def _log_binom_row(n: int, ks: np.ndarray) -> np.ndarray:
    return gammaln(n + 1.0) - gammaln(ks + 1.0) - gammaln(n - ks + 1.0)


def _within_block_grid_float(a_m: int, b_m: int) -> np.ndarray:
    """W[a', b'] = probability that exactly a' of the target coalition's
    in-bin matches and b' of its mismatches precede the target example."""
    t = a_m + b_m + 1
    la = _log_binom_row(a_m, np.arange(a_m + 1.0))
    lb = _log_binom_row(b_m, np.arange(b_m + 1.0))
    lu = _log_binom_row(t - 1, np.arange(t + 0.0))  # indices 0..a_m+b_m
    tot = np.add.outer(np.arange(a_m + 1), np.arange(b_m + 1))
    return np.exp(la[:, None] + lb[None, :] - lu[tot]) / t


def _value_from_distribution(
    dist: PrecedeDistribution,
    size_a: int,
    size_b: int,
    a_m: int,
    b_m: int,
    vf: FrequencyValueFunction,
    label_matches: bool,
    mode: str,
) -> Money:
    """Inner Owen sum: critical pairs weighted by (others-ahead counts)
    convolved with the within-coalition precedence weight."""
    crit = critical_set(vf, size_a, size_b, label_matches)
    if mode == EXACT:
        total = Fraction(0)
        for a, b, d in crit.entries:
            inner = Fraction(0)
            for a2 in range(0, min(a, a_m) + 1):
                for b2 in range(0, min(b, b_m) + 1):
                    p = dist.probs.get((a - a2, b - b2))
                    if not p:
                        continue
                    inner += p * precede_probability((a_m, b_m), (a2, b2), EXACT)
            total += inner * Fraction(d)
        return total
    # scipy.signal takes over a second to import, so only this branch pays
    from scipy.signal import fftconvolve

    conv = fftconvolve(dist.grid(), _within_block_grid_float(a_m, b_m))
    total = 0.0
    for a, b, d in crit.entries:
        if a < conv.shape[0] and b < conv.shape[1]:
            total += conv[a, b] * float(d)
    return total


def owen_frequency_single(
    other_tallies: Sequence[CountPair],
    target_match: int,
    target_mismatch: int,
    vf: FrequencyValueFunction,
    label_matches: bool,
    mode: str = "float",
) -> Money:
    """Owen value of one example.

    ``other_tallies`` holds the in-bin (match, mismatch) counts of every
    other coalition; ``target_match`` / ``target_mismatch`` count the
    target coalition's in-bin members *excluding* the example itself.
    """
    check_mode(mode)
    if target_match < 0 or target_mismatch < 0:
        raise InputError("target coalition counts must be non-negative")
    dist = owen_precede_distribution(other_tallies, mode)
    size_a = sum(a for a, _ in other_tallies) + target_match
    size_b = sum(b for _, b in other_tallies) + target_mismatch
    return _value_from_distribution(
        dist, size_a, size_b, target_match, target_mismatch, vf, label_matches, mode
    )


def owen_frequency_report(
    dataset: Dataset,
    coalitions: CoalitionStructure,
    queries: Sequence[Query],
    vf: FrequencyValueFunction,
    mode: str = "float",
    per_query: bool = False,
    use_cache: bool = True,
) -> ValueReport:
    """Total Owen payout per example over a batch of queries.

    Precedence distributions are computed once per (target coalition, bin,
    query label) and shared by every member example.
    """
    check_mode(mode)
    dataset.require_bins()
    coalitions.validate_partition(dataset.ids)
    t0 = time.perf_counter()
    totals = [to_money(0, mode)] * len(dataset)
    row = dataset.row_index()
    rows = []
    cids = coalitions.coalition_ids()
    value_cache: dict = {}
    for q in queries:
        q_vf = q.value_function if q.value_function is not None else vf
        dataset.check_query_label(q.label)
        if q.bin not in dataset.bins():
            raise InputError(f"query bin {q.bin!r} is unknown to the dataset")
        in_bin = dataset.by_bin(q.bin)
        tallies = {cid: [0, 0] for cid in cids}
        for ex in in_bin:
            pair = tallies[coalitions.coalition_of(ex.id)]
            pair[0 if ex.label == q.label else 1] += 1
        values = {}
        dist_cache: dict = {}
        for ex in in_bin:
            cid = coalitions.coalition_of(ex.id)
            matches = ex.label == q.label
            vkey = (id(q_vf), q.bin, q.label, cid, matches)
            if use_cache and vkey in value_cache:
                values[ex.id] = value_cache[vkey]
                continue
            if use_cache and cid in dist_cache:
                dist = dist_cache[cid]
            else:
                others = [tuple(tallies[c]) for c in cids if c != cid]
                dist = owen_precede_distribution(others, mode)
                dist_cache[cid] = dist
            a_m = tallies[cid][0] - (1 if matches else 0)
            b_m = tallies[cid][1] - (0 if matches else 1)
            size_a = sum(t[0] for t in tallies.values()) - (1 if matches else 0)
            size_b = sum(t[1] for t in tallies.values()) - (0 if matches else 1)
            v = _value_from_distribution(
                dist, size_a, size_b, a_m, b_m, q_vf, matches, mode
            )
            if use_cache:
                value_cache[vkey] = v
            values[ex.id] = v
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
        coalition_column=[coalitions.coalition_of(i) for i in dataset.ids],
    )
