"""Owen payouts for a k-nearest-neighbor majority vote under a coalition
partition, and the one k-NN kernel: under the partition with one coalition
the Owen value is the Shapley value (Owen 1977), so ``knn_shapley`` runs
this module's query engine and report loop with every example coded 0.

Each example's value splits into a creation term (the example arrives as
the k-th member and casts the deciding pattern) and a change term (the
example arrives later and knocks the current k-th voter out).  The
predecessor mix comes from two stages: whole coalitions landing ahead of
the target coalition (the preceder law of the frequency Owen computation,
over per-coalition label counts relative to one pivotal rank, with the
pivot's coalition pinned ahead when it is not the target's) and the
within-coalition ordering (the usual precedence weight).  Law inputs are
clamped to the read window before caching: any per-coalition count at or
beyond cap+1 overflows the window on every path, so clamping changes
nothing a caller can observe while making cache keys collide often.

Both terms depend on an example only through its coalition and its label
class (and, for the change term, its rank).  The creation term is computed
once per (coalition, class).  The change term of rank i sums what every
farther opposite-class rank j adds to each member of i's coalition and
class nearer than j, times that class's delta.  With h = (k - 1) / 2, a
coalition with more than h nearer members of either class overflows the
law's window whenever it is ahead, so only the first k members of each
coalition (the live ranks) change any law's inputs or add to other
coalitions' members.  Between two live ranks a same-coalition add is a
closed form in the member's own nearer counts, evaluated over the whole
run at once; a member reads the suffix total of its coalition's adds at
its own count of nearer opposite-class mates, and searches only the few
adds of other coalitions' live ranks.  A query costs O(m^2 * k) law
lookups plus O(n) array work for n examples and m coalitions.

The report reads the coalition codes the dataset holds
(``Dataset.partition_codes``), ranks the examples once per query and sums
each query's values as one array.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinatorics import EXACT, Money, check_mode, precede_probability
from .freq_owen import owen_precede_distribution
from .model import (Dataset, KnnConfig, OutcomeValues, Query, RankedNeighborhood,
                    dense_codes, rank_by_distance, require_k, to_money)
from .report import ValueReport, assemble_report

METHOD = "owen-knn"

# the preceder law, bound under the name through which this module calls it
knn_owen_distribution = owen_precede_distribution


@functools.lru_cache(maxsize=1)
def _log_binom_rows(n: int, rows: tuple) -> tuple:
    """Item r, for each r in ``rows`` (None at the other r below the
    largest), holds ln C(m, r) for m = -1 .. n at entry m + 1, -inf where the
    zero convention applies, read-only: a sweep gathers from one row per r.
    One walk up r sums, at each m, the logs of m, m - 1, ..., m - r + 1 in
    that order, and a row is that sum less ln r!, a few ulps for the small r
    of a k-NN vote, where a difference of log-gammas would cancel most of
    its digits.  A report's queries all ask for the same rows of one n."""
    log_fall, logs, out = np.zeros(n + 1), np.log(np.arange(1.0, n + 1)), []
    for r in range(max(rows) + 1):
        if 0 < r <= n:
            log_fall[r:] += logs[:n - r + 1]  # log(m - r + 1) at each m >= r
        row = None
        if r in rows:
            row = np.full(n + 2, -np.inf)
            np.subtract(log_fall[r:], math.lgamma(r + 1), out=row[r + 1:])
            row.flags.writeable = False
        out.append(row)
    return tuple(out)


def _pivot_weights(p: np.ndarray, q: np.ndarray, a: int, b: int, rows: tuple, scale: Money,
                   mode: str) -> np.ndarray:
    """``scale`` times C(p - 1, a) C(q - 1, b) / (t C(t - 1, a + b + 1)) for
    t = p + q, elementwise: the probability that, of p - 1 and q - 1 examples
    in two classes, exactly a and b precede one more example, and one pivot
    precedes it too, in a uniform order of all t.  Zero where p <= a or
    q <= b; a float weight gathers ``_log_binom_rows`` items a, b, a + b + 1."""
    if mode == EXACT:  # p > a and q > b keep the denominator non-zero
        num, den = scale.numerator, scale.denominator
        return np.array([Fraction(num * math.comb(u - 1, a) * math.comb(v - 1, b),
                                  den * (u + v) * math.comb(u + v - 1, a + b + 1))
                         if u > a and v > b else Fraction(0)
                         for u, v in zip(p.tolist(), q.tolist())], dtype=object)
    t = p + q
    # summed as precede_probability sums them; a short count gives nan, weight 0
    with np.errstate(invalid="ignore"):
        w = -rows[a + b + 1][t]
        w += rows[a][p]
        w += rows[b][q]
        np.exp(w, out=w)
        w /= t
    w[np.isnan(w)] = 0.0
    w *= scale
    return w


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """``x`` with every entry but the last (the empty sum) replaced, in
    place, by its sum with the entries after it, added farthest first."""
    np.cumsum(x[-2::-1], out=x[-2::-1])
    return x


def _zeros(n: int, mode: str) -> np.ndarray:
    return np.full(n, Fraction(0), dtype=object) if mode == EXACT else np.zeros(n)


class _QueryEngine:
    """One query's state: the coalition (codes 0 .. m - 1) and class at every
    rank position, each coalition's members of each class, and the law
    cache."""

    def __init__(self, ranking: RankedNeighborhood, codes: np.ndarray, m: int, k: int,
                 ov: OutcomeValues, mode: str):
        require_k(k)
        self.k = k
        self.half = (k - 1) // 2
        self.mode = mode
        self.m, self.codes = m, codes
        self.matches = matches = np.asarray(ranking.matches, dtype=bool)
        # Per coalition and class (matches first), nearest first: the members'
        # rank positions (pos None: one coalition, every rank) and, at each, its
        # mates of the other class nearer; the i-th has i of its own class nearer.
        parts = [None] if m == 1 else np.split(np.argsort(codes, kind="stable"),
                                               np.cumsum(np.bincount(codes, minlength=m)))[:m]
        self.groups = []
        for pos in parts:
            u = matches if pos is None else matches[pos]
            self.groups.append([(i if pos is None else pos[i], i - np.arange(len(i)))
                                for i in (np.flatnonzero(u), np.flatnonzero(~u))])
        self.tot_match = [len(both[0][0]) for both in self.groups]
        self.tot_mismatch = [len(both[1][0]) for both in self.groups]
        correct, wrong, none = (to_money(v, mode) for v in (ov.correct, ov.wrong, ov.none))
        self.d_change = {True: correct - wrong, False: wrong - correct}
        self.d_wrong, self.d_correct = wrong - none, correct - none
        self.zero = to_money(0, mode)
        self._dp_cache: dict = {}

    def _dp(self, pinned, others, caps) -> list:
        """The law for clamped inputs, the ``others`` rows in any order, as
        (a, b, probability) triples of Python numbers for its non-zero
        entries, fetched from the cache (keyed by the sorted rows) or built."""
        key = (pinned, tuple(sorted(others)), caps)
        if key not in self._dp_cache:
            probs = knn_owen_distribution(key[1], self.mode, pinned, caps).probs.tolist()
            self._dp_cache[key] = [(a, b, p) for a, r in enumerate(probs) for b, p in enumerate(r) if p]
        return self._dp_cache[key]

    def creation(self, c: int, i_match: bool) -> Money:
        """Creation term shared by coalition c's members of one class."""
        k = self.k
        others = ((min(self.tot_match[o], k), min(self.tot_mismatch[o], k))
                  for o in range(self.m) if o != c)
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
        others = (clamped[o] for o in range(self.m) if o != c and o != cj)
        inner = self.zero
        for qa, qb, mass in self._dp(clamped[cj], others, (h, h)):
            a, b = h - qa, h - qb
            if a <= a_m and b <= b_m:
                inner += mass * precede_probability((a_m, b_m), (a, b), self.mode)
        return inner

    def change_terms(self) -> np.ndarray:
        """Change term of every rank position: the exclusive suffix total,
        per (coalition, class), of what the farther opposite-class ranks add
        to that coalition's members of that class, times the class's delta."""
        h, m, n, mode = self.half, self.m, len(self.codes), self.mode
        d_change, zero, groups = self.d_change, self.zero, self.groups
        # A rank is live while its coalition has at most h nearer members of
        # each class; past that, every law reads the coalition as (h + 1, h + 1).
        # Segment s spans the ranks with s live ranks nearer; rows[s][c] is
        # coalition c's clamped (match, mismatch) row there.
        live = np.sort(np.concatenate([np.zeros(0, np.intp)] + [
            ranks[:h + 1][other[:h + 1] <= h] for both in groups for ranks, other in both]))
        live_codes, live_match = self.codes[live], self.matches[live]
        step = np.zeros((len(live) + 1, m, 2), dtype=np.int64)
        step[np.arange(1, len(live) + 1), live_codes, (~live_match).astype(np.int64)] = 1
        rows = [[tuple(r) if max(r) <= h else (h + 1, h + 1) for r in seg]
                for seg in np.cumsum(step, axis=0).tolist()]

        # Across coalitions, from the live ranks alone: live rank i, in
        # segment i, adds to every other coalition's members of its other
        # class nearer than it; near[c] counts c's members of each class nearer.
        near = [[np.searchsorted(ranks, live).tolist() for ranks, _ in both] for both in groups]
        across = np.full((m, len(live)), zero, object if mode == EXACT else float)
        for i, (cj, uj) in enumerate(zip(live_codes.tolist(), live_match.tolist())):
            for c in set(range(m)) - {cj}:
                a, b = near[c][0][i] - (not uj), near[c][1][i] - uj
                across[c, i] = self._change_inner(c, cj, a, b, rows[i]) * d_change[not uj]

        # the rows a float weight reads; one coalition's law is the point mass
        binoms = None if mode == EXACT else _log_binom_rows(
            n, (h, self.k) if m == 1 else tuple(range(self.k + 1)))
        out = _zeros(n, mode)
        for c, both in enumerate(groups):
            laws: dict = {}  # by segment, read by both classes
            for u, (ranks, other), (readers, ahead) in ((True, *both), (False, *both[::-1])):
                # Within the coalition, one law per segment.  A member of class u
                # pivots for the other class's nearer members: a law entry leaves
                # h - qa and h - qb of its other nearer mates ahead of the one
                # displaced, and p - 1 and q - 1 count those mates by class.
                mine = np.arange(1, len(ranks) + 1)
                p, q = (mine, other) if u else (other, mine)
                adds = _zeros(len(ranks) + 1, mode)  # and the empty sum
                cuts = [0, *np.searchsorted(ranks, live, side="right").tolist(), len(ranks)]
                for s, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                    if lo == hi:
                        continue
                    if s not in laws:
                        laws[s] = self._dp(None, rows[s][:c] + rows[s][c + 1:], (h, h))
                    adds[lo:hi] = functools.reduce(operator.add, (
                        _pivot_weights(p[lo:hi], q[lo:hi], h - qa, h - qb, binoms,
                                       mass * d_change[not u], mode)
                        for qa, qb, mass in laws[s]))
                # a reader sees only the farther adds, past the ``ahead`` of
                # them nearer than it ...
                got = _suffix_sums(adds)[ahead]
                # ... and the farther adds of other coalitions' class-u live ranks
                src = (live_codes != c) & (live_match == u)
                tail = _suffix_sums(np.append(across[c, src], zero))
                reach = np.searchsorted(readers, live[src].max(initial=-1))
                got[:reach] += tail[np.searchsorted(live[src], readers[:reach])]
                out[readers] = got
        return out

    def values(self) -> np.ndarray:
        """Owen value of every rank position: its change term plus its
        creation term, computed once per (coalition, class) present."""
        out = self.change_terms()
        for c, both in enumerate(self.groups):
            for u, (ranks, _) in zip((True, False), both):
                if len(ranks):
                    out[ranks] += self.creation(c, u)
        return out


def _term_engine(ranking: RankedNeighborhood, codes: Sequence[int], k: int, ov: OutcomeValues,
                 mode: str) -> _QueryEngine:
    """The engine for one query over coalition ``codes`` by dataset row."""
    check_mode(mode)
    m, codes = dense_codes(codes, len(ranking))
    return _QueryEngine(ranking, codes[ranking.rows], m, k, ov, mode)


def knn_owen_creation(ranking: RankedNeighborhood, codes: Sequence[int], example_id: int,
                      k: int, ov: OutcomeValues, mode: str = "float") -> Money:
    """Creation term of one example's Owen value.  ``codes[r]`` is the
    coalition of dataset row r, any non-negative integer, as
    ``Dataset.partition_codes()[1]`` gives them; ``ranking.rows`` maps the
    rank positions to those rows."""
    eng = _term_engine(ranking, codes, k, ov, mode)
    pos = ranking.position_of(example_id)
    return eng.creation(int(eng.codes[pos]), bool(eng.matches[pos]))


def knn_owen_change(ranking: RankedNeighborhood, codes: Sequence[int], example_id: int,
                    k: int, ov: OutcomeValues, mode: str = "float") -> Money:
    """Change term of one example's Owen value; ``codes`` holds each
    dataset row's coalition, as for ``knn_owen_creation``."""
    eng = _term_engine(ranking, codes, k, ov, mode)
    return eng.change_terms().tolist()[ranking.position_of(example_id)]


def _knn_report(method: str, dataset: Dataset, codes: np.ndarray, m: int,
                queries: Sequence[Query], config: KnnConfig, mode: str,
                per_query: bool) -> ValueReport:
    """Total payout per example over a batch of queries, each example in the
    coalition coded ``codes`` (by dataset row, 0 .. m - 1), for either k-NN
    method: each query ranks the examples once, and the engine gives the
    values that the rows, in rank order, add to their totals."""
    check_mode(mode)
    t0 = time.perf_counter()
    codes = codes.astype(np.min_scalar_type(m - 1), copy=False)  # a byte each up to m = 256
    totals = _zeros(len(dataset), mode)
    columns = []
    for q in queries:
        ranking = rank_by_distance(dataset, q.features, q.label)
        values = _QueryEngine(ranking, codes[ranking.rows], m, config.k,
                              config.outcome_values, mode).values()
        np.add.at(totals, ranking.rows, values)  # no gathered copy of totals
        if per_query:
            columns.append(_zeros(len(dataset), mode))
            columns[-1][ranking.rows] = values
    return assemble_report(
        method=method, mode=mode, dataset=dataset, values=totals, query_count=len(queries),
        wall_time=time.perf_counter() - t0, k=config.k, per_query=columns if per_query else None,
    )


def knn_owen_report(
    dataset: Dataset,
    queries: Sequence[Query],
    config: KnnConfig,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Owen payout per example over a batch of queries, under the
    partition the dataset's coalition ids make."""
    names, codes = dataset.partition_codes()
    return _knn_report(METHOD, dataset, codes, len(names), queries, config, mode, per_query)
