"""Owen payouts for frequency-binned rules under a coalition partition.

The outer layer is the law of the in-bin counts that the coalitions ahead
of the target coalition contribute: one expansion of Owen's multilinear
extension over a dense array (``owen_precede_distribution``), which the
k-NN Owen computation shares.  The inner layer is the same precedence
weight the Shapley computation uses, restricted to the target coalition's
own in-bin members and correlated with the law at the critical entries.
Out-of-bin members of any coalition never move the value, so they are
ignored throughout.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from .combinatorics import EXACT, Money, check_mode, log_binom, precede_probability
from .errors import GuardError, InputError
from .model import (
    CoalitionStructure,
    Dataset,
    FrequencyValueFunction,
    MajorityValueFunction,
    Query,
    to_money,
)
from .freq_shapley import CriticalSet, critical_set
from .report import ValueReport, assemble_report

METHOD = "owen-freq"

CountPair = Tuple[int, int]

# The law is built in dense arrays of at most this many bytes in all;
# larger ones are refused before they are allocated.
GRID_BUDGET_BYTES = 2**28


@dataclass(frozen=True)
class PrecedeDistribution:
    """Law of the summed tallies contributed by the coalitions that precede
    the target in a uniform coalition ordering: the tally ``origin`` plus a
    cell's index has probability ``weights[cell] / scale``.  Exact mode
    holds Python-int weights over (m + 1)!, float mode float64
    probabilities over 1."""

    weights: np.ndarray
    scale: int = 1
    origin: Tuple[int, ...] = (0, 0)

    @cached_property
    def probs(self) -> np.ndarray:
        """The probabilities, as Fractions in exact mode."""
        if self.weights.dtype != object:
            return self.weights
        return np.frompyfunc(lambda w: Fraction(w, self.scale), 1, 1)(self.weights)

    def mass(self) -> Money:
        total = self.weights.sum()
        return float(total) if self.weights.dtype != object else Fraction(total, self.scale)


def _guard(need: int, what: str) -> None:
    """Refuse an array of ``need`` bytes over the budget, before it exists."""
    if need > GRID_BUDGET_BYTES:
        raise GuardError(
            f"{what} of {need / 2**20:.1f} MiB is over the {GRID_BUDGET_BYTES >> 20} MiB budget"
        )


@lru_cache(maxsize=128)  # k-NN asks for many tiny laws; leggauss costs ~0.1 ms
def _nodes(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes as t and 1 - t on [0, 1], each rounded
    once, ascending in t, and their weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)  # ascending, symmetric about 0
    return (1 + x[:, None, None]) / 2, (1 - x[:, None, None]) / 2, w


def owen_precede_distribution(
    other_tallies: Sequence[CountPair],
    mode: str = EXACT,
    pinned: Optional[CountPair] = None,
    caps: Optional[CountPair] = None,
) -> PrecedeDistribution:
    """Law of the summed tallies of the non-target coalitions that land
    ahead of the target coalition.

    The m other coalitions precede in a set S with probability
    |S|!(m - |S|)!/(m + 1)!, the integral of t^|S| (1 - t)^(m - |S|) over
    [0, 1].  So the law's generating function is the integral of
    prod_h (1 - t + t x^a_h y^b_h), expanded with one shift-add per
    coalition over dense arrays.  In exact mode each size |S| has an array
    of integer subset counts over the box that size can reach, each
    non-zero cell weighted once at the end.  In float mode one array's
    leading axis runs over the Gauss-Legendre nodes, exact for degree m;
    without pin or caps only the nodes t <= 1/2 are built, since trading
    t for 1 - t reverses the law along both axes.

    A tally may be negative: the majority family passes (a - b, 0), whose
    law is one column of at most A + B + 1 cells.  The array then starts at
    ``origin``, the sums of the negative entries.  A ``pinned`` coalition
    always precedes the target: one more factor of t, so the mass is 1/2.
    ``caps`` drops counts above them, which for non-negative tallies can
    never come back under; entries within the caps are unchanged.
    All-zero tallies are dropped (an ordering of the rest is still
    uniform) and the rest sorted, so the law depends only on their
    multiset.
    """
    check_mode(mode)
    pairs = sorted(tuple(p) for p in other_tallies if tuple(p) != (0, 0))
    origin = sum(a for a, _ in pairs if a < 0), sum(b for _, b in pairs if b < 0)
    a0, b0 = pinned or (0, 0)
    m = len(pairs) + (pinned is not None)
    top_a = a0 + sum(a for a, _ in pairs if a > 0)
    top_b = b0 + sum(b for _, b in pairs if b > 0)
    if caps is not None:
        top_a, top_b = min(top_a, caps[0]), min(top_b, caps[1])
    # from here on counts are cell indices, measured from the origin
    oa, ob = origin
    a0, b0, top_a, top_b = a0 - oa, b0 - ob, top_a - oa, top_b - ob
    exact = mode == EXACT
    if a0 > top_a or b0 > top_b:  # the pinned coalition overflows the caps
        zeros = np.zeros((top_a + 1, top_b + 1), object if exact else float)
        return PrecedeDistribution(zeros, 1, origin)
    if exact:
        # subsets of size k reach only the box from the sums of the k smallest
        # tallies to those of the k largest: one array per box, not per grid
        k0 = m - len(pairs)  # 1 with a pin, else 0
        sa, sb = sorted(a for a, _ in pairs), sorted(b for _, b in pairs)
        lows, shapes = [(top_a + 1, top_b + 1)] * k0, [(0, 0)] * k0
        for la, lb, ua, ub in zip(accumulate(sa, initial=a0), accumulate(sb, initial=b0),
                                  accumulate(sa[::-1], initial=a0), accumulate(sb[::-1], initial=b0)):
            lows.append((la, lb))
            shapes.append((max(min(ua, top_a) - la + 1, 0), max(min(ub, top_b) - lb + 1, 0)))
        widest = math.comb(m, m // 2)  # the largest count of subsets of one size
        dtype = np.int64 if widest < 2**63 else object
        cell = 8 if dtype is np.int64 else 8 + sys.getsizeof(widest)
        # plus the weighted law, one pointer per cell of the full grid
        need = sum(x * y for x, y in shapes) * cell + (top_a + 1) * (top_b + 1) * 8
    else:
        n = m // 2 + 1  # exact for degree 2n - 1 >= m
        mirror = pinned is None and caps is None
        depth = (n + 1) // 2 if mirror else n
        need = depth * (top_a + 1) * (top_b + 1) * 8
    _guard(need, "Owen law grid")
    if exact:
        g = [np.zeros(shape, dtype) for shape in shapes]
        lo, hi = [(top_a + 1, top_b + 1)] * (m + 1), [(-1, -1)] * (m + 1)  # reached so far
        g[k0][0, 0] = 1
        lo[k0] = hi[k0] = (a0, b0)
        for j, (a, b) in enumerate(pairs):
            for k in range(k0 + j, -1, -1):  # each size is read before it is written
                (la, lb), (ua, ub) = lo[k], hi[k]
                ua, ub = min(ua, top_a - a), min(ub, top_b - b)
                if la <= ua and lb <= ub:
                    (oa, ob), (pa, pb) = lows[k], lows[k + 1]  # the boxes' corners
                    held = g[k][la - oa : ua - oa + 1, lb - ob : ub - ob + 1]
                    g[k + 1][la + a - pa : ua + a - pa + 1, lb + b - pb : ub + b - pb + 1] += held
                    lo[k + 1] = min(lo[k + 1][0], la + a), min(lo[k + 1][1], lb + b)
                    hi[k + 1] = max(hi[k + 1][0], ua + a), max(hi[k + 1][1], ub + b)
        weights = np.zeros((top_a + 1, top_b + 1), object)
        for k, (box, (oa, ob)) in enumerate(zip(g, lows)):
            i, j = np.nonzero(box)
            weights[oa + i, ob + j] += box[i, j].astype(object) * (
                math.factorial(k) * math.factorial(m - k)
            )
        return PrecedeDistribution(weights, math.factorial(m + 1), origin)
    g = np.zeros((depth, top_a + 1, top_b + 1))
    t, s, w = _nodes(n)
    t, s = t[:depth], s[:depth]
    g[:, a0, b0] = t[:, 0, 0] if pinned is not None else 1.0
    ratio = t / s  # held cells are scaled first, so the shifted copy takes t / s
    hi_a, hi_b = a0, b0  # highest cells reached so far
    for a, b in pairs:
        held = g[:, : hi_a + 1, : hi_b + 1]
        held *= s
        fit_a, fit_b = min(hi_a, top_a - a), min(hi_b, top_b - b)
        # a negative shift moves cells from index -a up, as none lies lower
        ia, ib = max(-a, 0), max(-b, 0)
        if fit_a >= 0 and fit_b >= 0:
            moved = held[:, ia : fit_a + 1, ib : fit_b + 1] * ratio
            g[:, ia + a : fit_a + a + 1, ib + b : fit_b + b + 1] += moved
        hi_a, hi_b = min(max(hi_a, hi_a + a), top_a), min(max(hi_b, hi_b + b), top_b)
    if not mirror:  # the weights sum to 2 on [-1, 1]
        return PrecedeDistribution(np.tensordot(w, g, axes=1) / 2, 1, origin)
    mirrored = np.tensordot(w[: n // 2], g[: n // 2], axes=1)[::-1, ::-1]
    return PrecedeDistribution((np.tensordot(w[:depth], g, axes=1) + mirrored) / 2, 1, origin)


def _within_block_grid_float(a_m: int, b_m: int) -> np.ndarray:
    """W[a', b'] = probability that exactly a' of the target coalition's
    in-bin matches and b' of its mismatches precede the target example."""
    t = a_m + b_m + 1
    la = np.array([log_binom(a_m, i) for i in range(a_m + 1)])
    lb = np.array([log_binom(b_m, i) for i in range(b_m + 1)])
    lu = np.array([log_binom(t - 1, i) for i in range(t)])
    tot = np.add.outer(np.arange(a_m + 1), np.arange(b_m + 1))
    return np.exp(la[:, None] + lb[None, :] - lu[tot]) / t


def _within_block_units(a_m: int, b_m: int) -> np.ndarray:
    """The same weights W[a', b'] in units of W[a_m, 0]: the integers
    C(a' + b', a') C(a_m + b_m - a' - b', a_m - a'), since ordering the
    target among its coalition-mates leaves a' + b' of them ahead."""
    i, j = np.ogrid[: a_m + 1, : b_m + 1]
    comb = np.frompyfunc(math.comb, 2, 1)
    return comb(i + j, i) * comb(a_m + b_m - i - j, a_m - i)


def _convolve_at(x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray, d: np.ndarray):
    """sum_e d[e] (x * y)[a[e], b[e]] for the full 2-D convolution of two
    integer object arrays, as a Python int: one weighted gather of the
    larger array per row of the smaller."""
    if x.size > y.size:
        x, y = y, x
    pa, pb = x.shape[0] - 1, x.shape[1] - 1
    padded = np.zeros((y.shape[0] + 2 * pa, y.shape[1] + 2 * pb), object)
    padded[pa : pa + y.shape[0], pb : pb + y.shape[1]] = y
    cols = b[:, None] + np.arange(pb + 1)
    return sum(d @ padded[a[:, None] + p, cols] @ x[pa - p, ::-1] for p in range(pa + 1))


def _fft_len(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n; a prime length takes several times longer."""
    k = n
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return n if k == 1 else _fft_len(n + 1)


def _value_from_distribution(
    dist: PrecedeDistribution,
    crit: CriticalSet,
    a_m: int,
    b_m: int,
    mode: str,
) -> Money:
    """Inner Owen sum: critical pairs weighted by (others-ahead counts)
    convolved with the within-coalition precedence weight.  A law of a - b
    alone (the majority family) is convolved with that weight summed along
    each diagonal a' - b', then read once per critical diagonal: every cell
    of a diagonal lies inside the box, so the read sums all of them."""
    _guard((a_m + 1) * (b_m + 1) * 8, "within-coalition grid")
    exact = mode == EXACT
    if exact:  # in integers: deltas over a common denominator, weights in units of W[a_m, 0]
        den = math.lcm(*(d.denominator for _, _, d in crit.entries))

        def scaled(d: Fraction) -> int:
            return d.numerator * (den // d.denominator)

        law, within = dist.weights, _within_block_units(a_m, b_m)
    else:
        scaled, law, within = float, dist.probs, _within_block_grid_float(a_m, b_m)
    if law.ndim == 1:
        by_diff = [within.trace(o) for o in range(b_m, -a_m - 1, -1)]  # a' - b' from -b_m up
        conv = np.convolve(law, np.array(by_diff, law.dtype))
        at = b_m - dist.origin[0]  # conv[at + d] weighs a - b = d
        total = sum(conv[at + c] * scaled(d) for c, d in crit.diagonals.items()
                    if 0 <= at + c < len(conv))
    elif exact:
        a, b, _ = crit.columns
        d = np.array([scaled(d) for _, _, d in crit.entries], object)
        total = _convolve_at(law, within, a, b, d)
    else:
        shape = [_fft_len(m + n - 1) for m, n in zip(law.shape, within.shape)]
        conv = np.fft.irfft2(np.fft.rfft2(law, shape) * np.fft.rfft2(within, shape), shape)
        a, b, d = crit.columns
        total = conv[a, b] @ d
    if not exact:
        return float(total)
    unit = precede_probability((a_m, b_m), (a_m, 0), EXACT)
    return Fraction(total, den * dist.scale) * unit


def _preceder_law(other_tallies: Sequence[CountPair], vf: FrequencyValueFunction, mode: str):
    """The preceder law a value reads: for the majority family, whose
    deltas depend on nothing else, the law of a - b alone, as one axis;
    else the law of (a, b)."""
    if not isinstance(vf, MajorityValueFunction):
        return owen_precede_distribution(other_tallies, mode)
    law = owen_precede_distribution([(a - b, 0) for a, b in other_tallies], mode)
    return PrecedeDistribution(law.weights[:, 0], law.scale, law.origin[:1])


def _law_key(vf: FrequencyValueFunction, tally: CountPair):
    """Tallies with one key share one preceder law in a query.  Equal
    tallies leave equal other coalitions; a majority law reads only the
    others' a - b, which tallies with equal a - b leave equal too."""
    return tally[0] - tally[1] if isinstance(vf, MajorityValueFunction) else tally


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
    if min(target_match, target_mismatch, *(c for p in other_tallies for c in p)) < 0:
        raise InputError("coalition counts must be non-negative")
    dist = _preceder_law(other_tallies, vf, mode)
    size_a = sum(a for a, _ in other_tallies) + target_match
    size_b = sum(b for _, b in other_tallies) + target_mismatch
    crit = critical_set(vf, size_a, size_b, label_matches)
    return _value_from_distribution(dist, crit, target_match, target_mismatch, mode)


def owen_frequency_report(
    dataset: Dataset,
    coalitions: CoalitionStructure,
    queries: Sequence[Query],
    vf: FrequencyValueFunction,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Owen payout per example over a batch of queries.

    An example's value depends only on its coalition's in-bin tally and
    its label class.  So per query the critical set is built once per
    class, the preceder law once per distinct law key (a - b for a
    majority rule, else the tally), and the value once per (tally, class),
    reused across queries with the same bin, label and value function.
    """
    check_mode(mode)
    dataset.require_bins()
    coalitions.validate_partition(dataset.ids)
    t0 = time.perf_counter()
    column = [coalitions.coalition_of(i) for i in dataset.ids]
    code: dict = {}  # coalition id -> code, in order of first appearance
    owner = np.fromiter((code.setdefault(c, len(code)) for c in column), np.intp, len(column))
    zero = to_money(0, mode)
    dtype = object if mode == EXACT else float
    totals = np.full(len(dataset), zero, dtype)
    rows = []
    value_cache: dict = {}
    for q in queries:
        q_vf = q.value_function if q.value_function is not None else vf
        dataset.query_bin_code(q)
        in_bin = np.flatnonzero(dataset.bin_mask(q.bin))
        # slot 2c holds coalition c's matches, 2c + 1 its mismatches
        slots = 2 * owner[in_bin] + ~dataset.label_mask(q.label)[in_bin]
        counts = np.bincount(slots, minlength=2 * len(code)).reshape(-1, 2)
        tallies = list(map(tuple, counts.tolist()))
        pairs = sorted(t for t in tallies if t != (0, 0))
        size_a, size_b = counts.sum(axis=0).tolist()
        crits: dict = {}  # label matches -> critical set
        found: dict = {}  # (own tally, label matches) -> value
        law_key, law = None, None  # tallies sharing a law key come in a row
        needed = {(t, m) for t in pairs for m in (True, False) if t[not m]}
        for own, m in sorted(needed, key=lambda p: (_law_key(q_vf, p[0]), p)):
            vkey = (id(q_vf), q.bin, q.label, own, m)
            v = value_cache.get(vkey)
            if v is None:
                key = _law_key(q_vf, own)
                if key != law_key:
                    others = list(pairs)
                    others.remove(own)
                    law_key, law = key, _preceder_law(others, q_vf, mode)
                if m not in crits:
                    crits[m] = critical_set(q_vf, size_a - m, size_b - (not m), m)
                v = _value_from_distribution(law, crits[m], own[0] - m, own[1] - (not m), mode)
                value_cache[vkey] = v
            found[own, m] = v
        by_slot = np.array([found.get((t, m), zero) for t in tallies for m in (True, False)], dtype)
        values = by_slot[slots]
        totals[in_bin] += values
        if per_query:
            q_values = np.full(len(dataset), zero, dtype)
            q_values[in_bin] = values
            rows.append(dict(zip(dataset.ids, q_values.tolist())))
    return assemble_report(
        method=METHOD,
        mode=mode,
        dataset=dataset,
        values=totals,
        query_count=len(queries),
        wall_time=time.perf_counter() - t0,
        per_query=rows if per_query else None,
        coalition_column=column,
    )
