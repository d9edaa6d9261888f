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
once per (coalition, class).  The change term of rank i sums what every
farther opposite-class rank j adds to each member of i's coalition and
class nearer than j: one suffix total per (coalition, class), added
farthest rank first.  With h = (k - 1) / 2, a coalition with more than h
nearer members of either class overflows the law's window whenever it is
ahead, so only the first k members of each coalition change any law's
inputs or add to other coalitions' members.  Between two such ranks a
same-coalition term is a closed form in the member's own nearer counts,
evaluated over the whole run at once: a query costs O(m^2 * k) law
lookups plus O(n) array work for n examples and m coalitions.

The report codes coalitions once (``CoalitionStructure.codes``) and sums
each query's values as one array, in the k-NN Shapley report's query loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .combinatorics import Money, check_mode, precede_probability
from .errors import InputError
from .freq_owen import owen_precede_distribution
from .knn_shapley import _knn_report, _pivot_weights, _zeros
from .model import (CoalitionStructure, Dataset, KnnConfig, OutcomeValues, Query,
                    RankedNeighborhood, rank_by_distance, to_money)
from .report import ValueReport, assemble_report

METHOD = "owen-knn"

# the preceder law, bound under the name through which this module calls it
knn_owen_distribution = owen_precede_distribution

# rank_by_distance and assemble_report are not called here (the report runs
# knn_shapley's loop), but stay bound under the names perfbench/spans.py wraps


class _QueryEngine:
    """One query's state: at each rank position the coalition's code
    (0 .. m - 1) and class and the coalition-mates nearer than it, by
    class; and the law cache."""

    def __init__(self, ranking: RankedNeighborhood, codes: np.ndarray, m: int, k: int,
                 ov: OutcomeValues, mode: str):
        if k < 1 or k % 2 == 0:
            raise InputError("k must be odd")
        self.k = k
        self.half = (k - 1) // 2
        self.mode = mode
        self.m, self.codes = m, codes
        self.matches = matches = np.asarray(ranking.matches, dtype=bool)
        # each coalition's positions, nearest first, and at every position its
        # coalition-mates nearer than it, by class
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=m))
        self.members = [order[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]
        self.own_a, self.own_b = np.zeros((2, len(order)), dtype=np.int64)
        for pos in self.members:
            self.own_a[pos] = np.cumsum(matches[pos]) - matches[pos]
            self.own_b[pos] = np.arange(len(pos)) - self.own_a[pos]
        self.tot_match = [int(matches[pos].sum()) for pos in self.members]
        self.tot_mismatch = [len(pos) - a for pos, a in zip(self.members, self.tot_match)]
        correct, wrong, none = (to_money(v, mode) for v in (ov.correct, ov.wrong, ov.none))
        self.d_change = {True: correct - wrong, False: wrong - correct}
        self.d_wrong, self.d_correct = wrong - none, correct - none
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
        others = tuple(sorted((min(self.tot_match[o], k), min(self.tot_mismatch[o], k))
                              for o in range(self.m) if o != c))
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
        """What a live pivotal rank j in another coalition cj adds to the
        change term of each member of coalition c and of j's other class
        nearer than j.  a_m / b_m count that member's coalition-mates nearer
        than j; ``clamped`` holds every coalition's row as the laws read it."""
        h = self.half
        if a_m < 0 or b_m < 0:
            return self.zero  # no such member is nearer than j
        others = tuple(sorted(clamped[o] for o in range(self.m) if o != c and o != cj))
        inner = self.zero
        for qa, qb, mass in self._dp(clamped[cj], others, (h, h)):
            a, b = h - qa, h - qb
            if a <= a_m and b <= b_m:
                inner += mass * precede_probability((a_m, b_m), (a, b), self.mode)
        return inner

    def change_terms(self) -> np.ndarray:
        """Change term of every rank position: the exclusive suffix total,
        per (coalition, class), of what the farther opposite-class ranks add
        to that coalition's members of that class."""
        h, m, n = self.half, self.m, len(self.codes)
        codes, matches, own_a, own_b = self.codes, self.matches, self.own_a, self.own_b
        # A rank is live while its coalition has at most h nearer members of
        # each class; past that, every law reads the coalition as (h + 1, h + 1).
        # Segment s spans the ranks with s live ranks nearer; rows[s][c] is
        # coalition c's clamped (match, mismatch) row there.
        live = np.flatnonzero((own_a <= h) & (own_b <= h))
        step = np.zeros((len(live) + 1, m, 2), dtype=np.int64)
        step[np.arange(1, len(live) + 1), codes[live], (~matches[live]).astype(np.int64)] = 1
        rows = [[tuple(r) if max(r) <= h else (h + 1, h + 1) for r in seg]
                for seg in np.cumsum(step, axis=0).tolist()]
        seg = np.searchsorted(live, np.arange(n))

        # Within a coalition: one law per (segment, coalition) run.  a_m / b_m
        # count the displaced member's coalition-mates nearer than the rank.
        same = _zeros(n, self.mode)
        a_m, b_m = own_a - ~matches, own_b - matches
        run = seg * m + codes
        order = np.argsort(run, kind="stable")
        bounds = [*np.flatnonzero(np.diff(run[order], prepend=-1)).tolist(), n]
        for lo, hi in zip(bounds, bounds[1:]):
            pos = order[lo:hi]
            s, c = divmod(int(run[pos[0]]), m)
            inner, x, y = _zeros(len(pos), self.mode), a_m[pos], b_m[pos]
            # a law entry leaves h - qa and h - qb of those mates ahead
            for qa, qb, mass in self._dp(None, tuple(sorted(rows[s][:c] + rows[s][c + 1:])), (h, h)):
                inner += mass * _pivot_weights(x, y, h - qa, h - qb, n, self.mode)
            same[pos] = inner

        # Across coalitions, from the live ranks alone: near[c] holds
        # coalition c's members nearer than each of them, by class.
        live_codes = codes[live]
        near = [(np.searchsorted(pos[matches[pos]], live).tolist(),
                 np.searchsorted(pos[~matches[pos]], live).tolist()) for pos in self.members]
        across = [_zeros(len(live), self.mode) for _ in range(m)]
        for i, (j, cj, uj) in enumerate(zip(live.tolist(), live_codes.tolist(), matches[live].tolist())):
            for c in set(range(m)) - {cj}:
                a, b = near[c][0][i] - (not uj), near[c][1][i] - uj
                across[c][i] = self._change_inner(c, cj, a, b, rows[seg[j]])

        out = _zeros(n, self.mode)
        for c, mine in enumerate(self.members):
            theirs = live_codes != c
            pos = np.concatenate([mine, live[theirs]])
            adds = np.concatenate([same[mine], across[c][theirs]])
            by_rank = np.argsort(pos, kind="stable")
            pos, adds = pos[by_rank], adds[by_rank]
            for u in (True, False):
                src = matches[pos] != u
                # added farthest first; a reader sees only the farther terms
                suffix = np.append(np.cumsum(adds[src][::-1])[::-1], self.zero)
                readers = mine[matches[mine] == u]
                out[readers] = suffix[np.searchsorted(pos[src], readers)] * self.d_change[u]
        return out

    def values(self) -> np.ndarray:
        """Owen value of every rank position: its creation term, from a
        table with one entry per (coalition, class), plus its change term."""
        cell = 2 * self.codes + self.matches  # entry 2c + 1 for c's matches
        made = _zeros(2 * self.m, self.mode)
        for x in np.unique(cell).tolist():
            made[x] = self.creation(x // 2, bool(x % 2))
        return made[cell] + self.change_terms()


def knn_owen_creation(ranking: RankedNeighborhood, coalitions: CoalitionStructure, example_id: int,
                      k: int, ov: OutcomeValues, mode: str = "float") -> Money:
    """Creation term of one example's Owen value."""
    check_mode(mode)
    cids, codes = coalitions.codes(ranking.ordering.tolist())
    eng = _QueryEngine(ranking, codes, len(cids), k, ov, mode)
    pos = ranking.position_of(example_id)
    return eng.creation(int(codes[pos]), bool(eng.matches[pos]))


def knn_owen_change(ranking: RankedNeighborhood, coalitions: CoalitionStructure, example_id: int,
                    k: int, ov: OutcomeValues, mode: str = "float") -> Money:
    """Change term of one example's Owen value."""
    check_mode(mode)
    cids, codes = coalitions.codes(ranking.ordering.tolist())
    eng = _QueryEngine(ranking, codes, len(cids), k, ov, mode)
    return eng.change_terms().tolist()[ranking.position_of(example_id)]


def knn_owen_report(
    dataset: Dataset,
    coalitions: CoalitionStructure,
    queries: Sequence[Query],
    config: KnnConfig,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Owen payout per example over a batch of queries, summed by the
    query loop that the k-NN Shapley report runs."""
    cids, codes = coalitions.codes(dataset.ids)  # by dataset row

    def ranked_values(ranking: RankedNeighborhood) -> np.ndarray:
        return _QueryEngine(ranking, codes[ranking.rows], len(cids), config.k,
                            config.outcome_values, mode).values()

    return _knn_report(METHOD, dataset, queries, config, mode, per_query, ranked_values,
                       cids[codes].tolist())
