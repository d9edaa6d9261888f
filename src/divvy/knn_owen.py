"""Owen payouts for a k-nearest-neighbor majority vote under a coalition
partition.

The same creation/change split as the Shapley case applies, but the
predecessor mix now comes from two stages: whole coalitions landing ahead
of the target coalition (a layered insertion DP, like the frequency Owen
computation but over per-coalition label counts relative to one pivotal
rank) and the within-coalition ordering (the usual precedence weight).
DP inputs are clamped to the read window before caching: any per-coalition
count at or beyond cap+1 overflows the window on every path, so clamping
changes nothing a caller can observe while making cache keys collide often.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .combinatorics import EXACT, Money, check_mode, precede_probability
from .errors import InputError
from .freq_owen import layered_insertion_dp
from .model import (
    CoalitionStructure,
    Dataset,
    KnnConfig,
    OutcomeValues,
    Query,
    RankedNeighborhood,
    rank_by_distance,
    to_money,
)
from .report import ValueReport, assemble_report

METHOD = "owen-knn"

CountPair = Tuple[int, int]

BASE_TARGET = "target"
BASE_FIRST = "first"


def knn_owen_distribution(
    other_counts: Sequence[CountPair],
    base: str = BASE_TARGET,
    first_counts: Optional[CountPair] = None,
    caps: Optional[CountPair] = None,
    mode: str = EXACT,
) -> Dict[CountPair, Money]:
    """Distribution over what the coalitions ahead of the target contribute
    to a pivotal rank's nearer-match / nearer-mismatch counts.

    ``base="target"`` is the plain case (the pivotal example j sits in the
    target coalition).  ``base="first"`` handles j living in some other
    coalition: that coalition is pinned as the first DP layer with mass 1/2
    (the chance it precedes the target at all), so the returned masses sum
    to 1/2 rather than 1 and the absent half carries no j.
    """
    check_mode(mode)
    for a, b in other_counts:
        if a < 0 or b < 0:
            raise InputError("coalition counts must be non-negative")
    if base == BASE_TARGET:
        if first_counts is not None:
            raise InputError("first_counts only applies to base='first'")
        return layered_insertion_dp(
            list(other_counts), mode=mode, caps=caps
        )
    if base != BASE_FIRST:
        raise InputError(f"unknown base case {base!r}")
    if first_counts is None:
        raise InputError("base='first' needs the first coalition's counts")
    a1, b1 = first_counts
    half_mass = Fraction(1, 2) if mode == EXACT else 0.5
    if caps is not None and (a1 > caps[0] or b1 > caps[1]):
        return {}
    return layered_insertion_dp(
        list(other_counts),
        mode=mode,
        start_state=(1, a1, b1),
        start_mass=half_mass,
        start_layer=2,
        caps=caps,
    )


class _QueryEngine:
    """Shared per-query state: the ranking, per-coalition prefix counts at
    every rank, and the DP caches."""

    def __init__(
        self,
        ranking: RankedNeighborhood,
        coalitions: CoalitionStructure,
        k: int,
        ov: OutcomeValues,
        mode: str,
        use_cache: bool = True,
    ):
        if k < 1 or k % 2 == 0:
            raise InputError("k must be odd")
        self.ranking = ranking
        self.k = k
        self.half = (k - 1) // 2
        self.ov = ov
        self.mode = mode
        self.use_cache = use_cache
        self.cids = coalitions.coalition_ids()
        self.m = len(self.cids)
        cindex = {cid: c for c, cid in enumerate(self.cids)}
        n = len(ranking)
        self.coal_of_pos = np.asarray(
            [cindex[coalitions.coalition_of(int(i))] for i in ranking.ordering],
            dtype=np.int64,
        )
        self.matches = np.asarray(ranking.matches, dtype=bool)
        # prefix[c][pos] counts coalition c's members strictly nearer than pos
        self.pref_match = np.zeros((self.m, n), dtype=np.int64)
        self.pref_mismatch = np.zeros((self.m, n), dtype=np.int64)
        for c in range(self.m):
            mine = self.coal_of_pos == c
            if n > 1:
                self.pref_match[c, 1:] = np.cumsum(mine[:-1] & self.matches[:-1])
                self.pref_mismatch[c, 1:] = np.cumsum(mine[:-1] & ~self.matches[:-1])
        self.tot_match = [
            int((self.matches & (self.coal_of_pos == c)).sum()) for c in range(self.m)
        ]
        self.tot_mismatch = [
            int((~self.matches & (self.coal_of_pos == c)).sum()) for c in range(self.m)
        ]
        self._positions_by_class = {
            True: np.nonzero(self.matches)[0],
            False: np.nonzero(~self.matches)[0],
        }
        if mode == EXACT:
            ovx = ov.as_fractions()
            self.d_change = {True: ovx.correct - ovx.wrong, False: ovx.wrong - ovx.correct}
            self.d_wrong = ovx.wrong - ovx.none
            self.d_correct = ovx.correct - ovx.none
        else:
            d = float(ov.correct) - float(ov.wrong)
            self.d_change = {True: d, False: -d}
            self.d_wrong = float(ov.wrong) - float(ov.none)
            self.d_correct = float(ov.correct) - float(ov.none)
        self._dp_cache: dict = {}
        self._q_cache: dict = {}

    def _dp(self, base, first, others, caps):
        """Run (or fetch) a distribution for canonical clamped inputs."""
        key = (base, first, others, caps)
        if self.use_cache and key in self._dp_cache:
            return self._dp_cache[key]
        q = knn_owen_distribution(
            list(others), base=base, first_counts=first, caps=caps, mode=self.mode
        )
        if self.use_cache:
            self._dp_cache[key] = q
        return q

    def _clamp(self, a, b, caps):
        return (min(int(a), caps[0] + 1), min(int(b), caps[1] + 1))

    def creation_q(self, c: int):
        """Distribution of coalition-stage counts for the creation term of
        coalition c's members; shared by all of them."""
        caps = (self.k - 1, self.k - 1)
        others = tuple(
            sorted(
                self._clamp(self.tot_match[o], self.tot_mismatch[o], caps)
                for o in range(self.m)
                if o != c
            )
        )
        return self._dp(BASE_TARGET, None, others, caps)

    def creation(self, ipos: int) -> Money:
        """Creation term for the example at rank ipos."""
        c = int(self.coal_of_pos[ipos])
        i_match = bool(self.matches[ipos])
        q = self.creation_q(c)
        a_m = self.tot_match[c] - (1 if i_match else 0)
        b_m = self.tot_mismatch[c] - (0 if i_match else 1)
        k = self.k
        total = to_money(0, self.mode)
        for (a, b), mass in q.items():
            rem = k - 1 - a - b
            if rem < 0 or not mass:
                continue
            for a2 in range(0, min(rem, a_m) + 1):
                b2 = rem - a2
                w = precede_probability((a_m, b_m), (a2, b2), self.mode)
                if not w:
                    continue
                gain = self.d_correct if 2 * (a + a2 + i_match) > k else self.d_wrong
                total += mass * w * gain
        return total

    def change_q(self, c: int, jpos: int):
        """Distribution for the change term at pivotal rank jpos, target
        coalition c; cached per (c, jpos) and per clamped DP input."""
        key = (c, jpos)
        if self.use_cache and key in self._q_cache:
            return self._q_cache[key]
        caps = (self.half, self.half)
        cj = int(self.coal_of_pos[jpos])
        others = tuple(
            sorted(
                self._clamp(self.pref_match[o, jpos], self.pref_mismatch[o, jpos], caps)
                for o in range(self.m)
                if o != c and o != cj
            )
        )
        if cj == c:
            q = self._dp(BASE_TARGET, None, others, caps)
        else:
            first = self._clamp(self.pref_match[cj, jpos], self.pref_mismatch[cj, jpos], caps)
            q = self._dp(BASE_FIRST, first, others, caps)
        if self.use_cache:
            self._q_cache[key] = q
        return q

    def change(self, ipos: int) -> Money:
        """Change term for the example at rank ipos: one contribution per
        farther opposite-label example j."""
        c = int(self.coal_of_pos[ipos])
        i_match = bool(self.matches[ipos])
        delta = self.d_change[i_match]
        h = self.half
        total = to_money(0, self.mode)
        opposite = self._positions_by_class[not i_match]
        start = int(np.searchsorted(opposite, ipos + 1))
        for jpos in opposite[start:]:
            jpos = int(jpos)
            a_m = int(self.pref_match[c, jpos]) - (1 if i_match else 0)
            b_m = int(self.pref_mismatch[c, jpos]) - (0 if i_match else 1)
            in_target = int(self.coal_of_pos[jpos]) == c
            q = self.change_q(c, jpos)
            if not q:
                continue
            inner = to_money(0, self.mode)
            for a in range(0, min(a_m, h) + 1):
                for b in range(0, min(b_m, h) + 1):
                    mass = q.get((h - a, h - b))
                    if not mass:
                        continue
                    if in_target:
                        w = precede_probability((a_m, b_m, 1), (a, b, 1), self.mode)
                    else:
                        w = precede_probability((a_m, b_m), (a, b), self.mode)
                    inner += mass * w
            total += inner * delta
        return total


def _engine_for(
    dataset: Dataset,
    coalitions: CoalitionStructure,
    query: Query,
    config: KnnConfig,
    mode: str,
    use_cache: bool = True,
) -> _QueryEngine:
    coalitions.validate_partition(dataset.ids)
    ranking = rank_by_distance(dataset, query.features, query.label, config.metric)
    return _QueryEngine(ranking, coalitions, config.k, config.outcome_values, mode, use_cache)


def knn_owen_creation(
    ranking: RankedNeighborhood,
    coalitions: CoalitionStructure,
    example_id: int,
    k: int,
    ov: OutcomeValues,
    mode: str = "float",
) -> Money:
    """Creation term of one example's Owen value."""
    check_mode(mode)
    eng = _QueryEngine(ranking, coalitions, k, ov, mode)
    return eng.creation(ranking.position_of(example_id))


def knn_owen_change(
    ranking: RankedNeighborhood,
    coalitions: CoalitionStructure,
    example_id: int,
    k: int,
    ov: OutcomeValues,
    mode: str = "float",
) -> Money:
    """Change term of one example's Owen value."""
    check_mode(mode)
    eng = _QueryEngine(ranking, coalitions, k, ov, mode)
    return eng.change(ranking.position_of(example_id))


def knn_owen_report(
    dataset: Dataset,
    coalitions: CoalitionStructure,
    queries: Sequence[Query],
    config: KnnConfig,
    mode: str = "float",
    per_query: bool = False,
    use_cache: bool = True,
) -> ValueReport:
    """Total Owen payout per example over a batch of queries."""
    check_mode(mode)
    t0 = time.perf_counter()
    totals = [to_money(0, mode)] * len(dataset)
    row = dataset.row_index()
    rows = []
    for q in queries:
        eng = _engine_for(dataset, coalitions, q, config, mode, use_cache)
        values = {}
        for pos in range(len(eng.ranking)):
            i = int(eng.ranking.ordering[pos])
            values[i] = eng.creation(pos) + eng.change(pos)
        for i, v in values.items():
            totals[row[i]] += v
        if per_query:
            rows.append(values)
    return assemble_report(
        method=METHOD,
        mode=mode,
        dataset=dataset,
        values=totals,
        query_count=len(queries),
        wall_time=time.perf_counter() - t0,
        k=config.k,
        per_query=rows if per_query else None,
        coalition_column=[coalitions.coalition_of(i) for i in dataset.ids],
    )
