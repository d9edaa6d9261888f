"""Owen payouts for a k-nearest-neighbor majority vote under a coalition
partition.

The same creation/change split as the Shapley case applies, but the
predecessor mix now comes from two stages: whole coalitions landing ahead
of the target coalition (the preceder law of the frequency Owen
computation, over per-coalition label counts relative to one pivotal rank,
with the pivot's coalition pinned ahead when it is not the target's) and
the within-coalition ordering (the usual precedence weight).  Law inputs
are clamped to the read window before caching: any per-coalition count at
or beyond cap+1 overflows the window on every path, so clamping changes
nothing a caller can observe while making cache keys collide often.

Both terms depend on an example only through its coalition and its label
class (and, for the change term, its rank).  The creation term is computed
once per (coalition, class).  The change term of rank i sums over every
farther opposite-class rank j an inner sum that depends on (coalition,
class, j) alone, so one sweep from the farthest rank to the nearest keeps a
suffix total per (coalition, class) and reads each rank's term from it:
O(n * m * k^2) work per query for n examples and m coalitions.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from .combinatorics import EXACT, Money, check_mode, precede_probability
from .errors import InputError
from .freq_owen import owen_precede_distribution
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

# the preceder law, bound under the name through which this module calls it
knn_owen_distribution = owen_precede_distribution


class _QueryEngine:
    """Shared per-query state: the ranking, per-coalition prefix counts at
    every rank, and the law cache."""

    def __init__(
        self,
        ranking: RankedNeighborhood,
        coalitions: CoalitionStructure,
        k: int,
        ov: OutcomeValues,
        mode: str,
    ):
        if k < 1 or k % 2 == 0:
            raise InputError("k must be odd")
        self.ranking = ranking
        self.k = k
        self.half = (k - 1) // 2
        self.mode = mode
        cindex = {cid: c for c, cid in enumerate(coalitions.coalition_ids())}
        self.m = len(cindex)
        self.coal_of_pos = [
            cindex[coalitions.coalition_of(i)] for i in ranking.ordering.tolist()
        ]
        matches = np.asarray(ranking.matches, dtype=bool)
        self.matches = matches.tolist()
        # [pos, c] counts coalition c's members strictly nearer than pos
        mine = np.asarray(self.coal_of_pos, dtype=np.int64)[:, None] == np.arange(self.m)
        hit = mine & matches[:, None]
        self.pref_match = np.cumsum(hit, axis=0) - hit
        self.pref_mismatch = np.cumsum(mine, axis=0) - mine - self.pref_match
        self.tot_match = hit.sum(axis=0).tolist()
        self.tot_mismatch = (mine.sum(axis=0) - hit.sum(axis=0)).tolist()
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
        self.zero = to_money(0, mode)
        self._dp_cache: dict = {}

    def _dp(self, pinned, others, caps) -> list:
        """The law for canonical clamped inputs, as (a, b, probability)
        triples of Python numbers for its non-zero entries, fetched from the
        cache or built."""
        key = (pinned, others, caps)
        if key not in self._dp_cache:
            probs = knn_owen_distribution(others, self.mode, pinned, caps).probs.tolist()
            self._dp_cache[key] = [(a, b, p) for a, r in enumerate(probs) for b, p in enumerate(r) if p]
        return self._dp_cache[key]

    def creation(self, c: int, i_match: bool) -> Money:
        """Creation term shared by coalition c's members of one class."""
        k = self.k
        others = tuple(
            sorted(
                (min(self.tot_match[o], k), min(self.tot_mismatch[o], k))
                for o in range(self.m)
                if o != c
            )
        )
        q = self._dp(None, others, (k - 1, k - 1))
        a_m = self.tot_match[c] - i_match
        b_m = self.tot_mismatch[c] - (not i_match)
        total = self.zero
        for a, b, mass in q:
            rem = k - 1 - a - b
            if rem < 0:
                continue
            for a2 in range(0, min(rem, a_m) + 1):
                b2 = rem - a2
                w = precede_probability((a_m, b_m), (a2, b2), self.mode)
                if not w:
                    continue
                gain = self.d_correct if 2 * (a + a2 + i_match) > k else self.d_wrong
                total += mass * w * gain
        return total

    def _change_inner(self, c: int, cj: int, a_m: int, b_m: int, clamped) -> Money:
        """What a pivotal rank j in coalition cj adds to the change term of
        each member of coalition c, of the class opposite to j's, that is
        nearer than j.  a_m / b_m count that member's coalition-mates nearer
        than j; ``clamped`` holds every coalition's counts nearer than j,
        clamped to the law's window."""
        h = self.half
        if a_m < 0 or b_m < 0 or (cj != c and max(clamped[cj]) > h):
            # no such member is nearer than j, or j's own coalition
            # overfills the window whenever it precedes c
            return self.zero
        others = tuple(sorted(clamped[o] for o in range(self.m) if o != c and o != cj))
        q = self._dp(None if cj == c else clamped[cj], others, (h, h))
        inner = self.zero
        for qa, qb, mass in q:
            a, b = h - qa, h - qb
            if a > a_m or b > b_m:
                continue
            if cj == c:
                w = precede_probability((a_m, b_m, 1), (a, b, 1), self.mode)
            else:
                w = precede_probability((a_m, b_m), (a, b), self.mode)
            inner += mass * w
        return inner

    def change_terms(self) -> List[Money]:
        """Change term of every rank position, in one sweep from the farthest
        position to the nearest with one suffix total per (coalition, class):
        a farther opposite-class j adds the same inner sum to every member of
        a coalition and class that is nearer than j."""
        cap = self.half + 1
        suffix = {(c, u): self.zero for c in range(self.m) for u in (True, False)}
        out = [self.zero] * len(self.matches)
        for jpos in range(len(out) - 1, -1, -1):
            uj, cj = self.matches[jpos], self.coal_of_pos[jpos]
            out[jpos] = suffix[(cj, uj)] * self.d_change[uj]
            nearer_a = self.pref_match[jpos].tolist()
            nearer_b = self.pref_mismatch[jpos].tolist()
            clamped = [(min(a, cap), min(b, cap)) for a, b in zip(nearer_a, nearer_b)]
            for c in range(self.m):
                # coalition c's counts nearer than j include the member itself
                a_m, b_m = nearer_a[c] - (not uj), nearer_b[c] - uj
                suffix[(c, not uj)] += self._change_inner(c, cj, a_m, b_m, clamped)
        return out

    def values(self) -> List[Money]:
        """Owen value of every rank position: its creation term, computed
        once per (coalition, class), plus its change term."""
        made = {
            (c, u): self.creation(c, u)
            for c, u in set(zip(self.coal_of_pos, self.matches))
        }
        return [
            made[(c, u)] + g
            for c, u, g in zip(self.coal_of_pos, self.matches, self.change_terms())
        ]


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
    pos = ranking.position_of(example_id)
    return eng.creation(eng.coal_of_pos[pos], eng.matches[pos])


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
    return eng.change_terms()[ranking.position_of(example_id)]


def knn_owen_report(
    dataset: Dataset,
    coalitions: CoalitionStructure,
    queries: Sequence[Query],
    config: KnnConfig,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Owen payout per example over a batch of queries."""
    check_mode(mode)
    coalitions.validate_partition(dataset.ids)
    t0 = time.perf_counter()
    totals = [to_money(0, mode)] * len(dataset)
    rows = []
    for q in queries:
        ranking = rank_by_distance(dataset, q.features, q.label, config.metric)
        eng = _QueryEngine(ranking, coalitions, config.k, config.outcome_values, mode)
        values = eng.values()
        for r, v in zip(eng.ranking.rows.tolist(), values):
            totals[r] += v
        if per_query:
            rows.append(dict(zip(eng.ranking.ordering.tolist(), values)))
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
