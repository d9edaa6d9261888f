"""Owen payouts for frequency-binned rules under a coalition partition.

The outer layer is the law of the in-bin counts that the coalitions ahead
of the target coalition contribute: exact mode inserts one coalition at a
time into the ordering in a dynamic program, float mode integrates Owen's
multilinear extension (``_precede_grid``).  The inner layer is the same
precedence weight the Shapley computation uses, restricted to the target
coalition's own in-bin members.  Out-of-bin members of any coalition never
move the value, so they are ignored throughout.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .combinatorics import EXACT, Money, check_mode, log_binom, precede_probability
from .errors import GuardError, InputError
from .model import (
    CoalitionStructure,
    Dataset,
    FrequencyValueFunction,
    Query,
    to_money,
)
from .freq_shapley import CriticalSet, critical_set
from .report import ValueReport, assemble_report

METHOD = "owen-freq"

CountPair = Tuple[int, int]

# The float law is built in one (nodes t <= 1/2, A + 1, B + 1) float64 array;
# larger ones are refused before they are allocated.  Peak memory is about
# twice it.
GRID_BUDGET_BYTES = 2**28


@dataclass(frozen=True)
class PrecedeDistribution:
    """Distribution of (match, mismatch) counts contributed by the
    coalitions that precede the target in a uniform coalition ordering:
    ``probs[a, b]`` is a Fraction in a dict (exact) or a float in a grid.
    """

    probs: Union[Mapping[CountPair, Fraction], np.ndarray]

    def mass(self) -> Money:
        probs = self.probs
        return float(probs.sum()) if isinstance(probs, np.ndarray) else sum(probs.values())


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


def _precede_grid(pairs: Sequence[CountPair]) -> np.ndarray:
    """Float law of the preceders' counts as a grid indexed [a, b].

    The m other coalitions precede in a set S with probability
    |S|!(m - |S|)!/(m + 1)!, the integral of t^|S| (1 - t)^(m - |S|) over
    [0, 1].  So the law's generating function is the integral of
    prod_h (1 - t + t x^a_h y^b_h), a degree-m polynomial in t, built at
    all Gauss-Legendre nodes t <= 1/2 at once, one shift-add per coalition.
    The nodes are symmetric about 1/2, and trading t for 1 - t reverses the
    grid along both axes, so the nodes above 1/2 are read off in mirror."""
    n = len(pairs) // 2 + 1  # exact for degree 2n - 1 >= m
    half = (n + 1) // 2
    size_a = sum(a for a, _ in pairs)
    size_b = sum(b for _, b in pairs)
    need = half * (size_a + 1) * (size_b + 1) * 8
    if need > GRID_BUDGET_BYTES:
        raise GuardError(
            f"float Owen grid of {need / 2**20:.1f} MiB is over the "
            f"{GRID_BUDGET_BYTES >> 20} MiB budget"
        )
    x, w = np.polynomial.legendre.leggauss(n)  # ascending, symmetric about 0
    # nodes t and 1 - t on [0, 1], each rounded once
    t, s = (1 + x[:half, None, None]) / 2, (1 - x[:half, None, None]) / 2
    g = np.zeros((half, size_a + 1, size_b + 1))
    g[:, 0, 0] = 1.0
    top_a = top_b = 0  # highest counts reached so far
    for a, b in pairs:
        held = g[:, : top_a + 1, : top_b + 1]
        held *= s  # scaled first, so the shifted copy takes t / s
        g[:, a : a + top_a + 1, b : b + top_b + 1] += held * (t / s)
        top_a, top_b = top_a + a, top_b + b
    mirrored = np.tensordot(w[: n // 2], g[: n // 2], axes=1)[::-1, ::-1]
    return (np.tensordot(w[:half], g, axes=1) + mirrored) / 2  # weights sum to 2 on [-1, 1]


def owen_precede_distribution(
    other_tallies: Sequence[CountPair],
    mode: str = EXACT,
) -> PrecedeDistribution:
    """Distribution of in-bin counts contributed by the non-target
    coalitions that land ahead of the target coalition.  Coalitions with
    no in-bin member are dropped (an ordering of the rest is still uniform)
    and the rest sorted, so the float grid depends only on their multiset.
    """
    check_mode(mode)
    if any(a < 0 or b < 0 for a, b in other_tallies):
        raise InputError("coalition tallies must be non-negative")
    pairs = sorted(tuple(p) for p in other_tallies if tuple(p) != (0, 0))
    if mode == EXACT:
        return PrecedeDistribution(layered_insertion_dp(pairs, mode=EXACT))
    return PrecedeDistribution(_precede_grid(pairs))


def _within_block_grid_float(a_m: int, b_m: int) -> np.ndarray:
    """W[a', b'] = probability that exactly a' of the target coalition's
    in-bin matches and b' of its mismatches precede the target example."""
    t = a_m + b_m + 1
    la = np.array([log_binom(a_m, i) for i in range(a_m + 1)])
    lb = np.array([log_binom(b_m, i) for i in range(b_m + 1)])
    lu = np.array([log_binom(t - 1, i) for i in range(t)])
    tot = np.add.outer(np.arange(a_m + 1), np.arange(b_m + 1))
    return np.exp(la[:, None] + lb[None, :] - lu[tot]) / t


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
    convolved with the within-coalition precedence weight."""
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
    within = _within_block_grid_float(a_m, b_m)
    shape = [_fft_len(m + n - 1) for m, n in zip(dist.probs.shape, within.shape)]
    conv = np.fft.irfft2(np.fft.rfft2(dist.probs, shape) * np.fft.rfft2(within, shape), shape)
    a, b, d = crit.columns
    return float(conv[a, b] @ d)


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
    crit = critical_set(vf, size_a, size_b, label_matches)
    return _value_from_distribution(dist, crit, target_match, target_mismatch, mode)


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

    An example's value depends only on its coalition's in-bin tally and
    its label class.  So per query the critical set is built once per
    class, the precedence distribution once per distinct tally, and the
    value once per (tally, class); ``use_cache`` also reuses values across
    queries with the same bin, label and value function.
    """
    check_mode(mode)
    dataset.require_bins()
    coalitions.validate_partition(dataset.ids)
    t0 = time.perf_counter()
    totals = [to_money(0, mode)] * len(dataset)
    row = dataset.row_index()
    rows = []
    value_cache: dict = {}
    for q in queries:
        q_vf = q.value_function if q.value_function is not None else vf
        dataset.check_query_label(q.label)
        if q.bin not in dataset.bins():
            raise InputError(f"query bin {q.bin!r} is unknown to the dataset")
        in_bin = dataset.by_bin(q.bin)
        owners = [coalitions.coalition_of(ex.id) for ex in in_bin]
        classes = [ex.label == q.label for ex in in_bin]
        counts = Counter(zip(owners, classes))
        tallies = {cid: (counts[cid, True], counts[cid, False]) for cid, _ in counts}
        pairs = sorted(tallies.values())
        size_a, size_b = map(sum, zip(*pairs))
        crits: dict = {}  # label matches -> critical set
        found: dict = {}  # (own tally, label matches) -> value
        last = None  # (tally, distribution); both classes of a tally come in a row
        for own, m in sorted({(tallies[cid], m) for cid, m in counts}):
            vkey = (id(q_vf), q.bin, q.label, own, m)
            v = value_cache.get(vkey) if use_cache else None
            if v is None:
                if last is None or last[0] != own:
                    others = list(pairs)
                    others.remove(own)
                    last = (own, owen_precede_distribution(others, mode))
                if m not in crits:
                    crits[m] = critical_set(q_vf, size_a - m, size_b - (not m), m)
                v = _value_from_distribution(last[1], crits[m], own[0] - m, own[1] - (not m), mode)
                if use_cache:
                    value_cache[vkey] = v
            found[own, m] = v
        values = {ex.id: found[tallies[c], m] for ex, c, m in zip(in_bin, owners, classes)}
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
