"""Owen payouts for frequency-binned rules under a coalition partition.

An example's value is a sum over the count pairs where one more example of
its label class moves the value (the critical set).  The outer layer is
the law of the in-bin counts that the coalitions ahead of the target
coalition contribute: an expansion of Owen's multilinear extension over
dense arrays (``owen_precede_laws``), in float one per query for all the
laws it needs, batched over a leading axis of laws; the k-NN Owen
computation builds its laws one at a time with it.  The inner layer is the probability that a prefix of
the target coalition's own in-bin members precedes the example, correlated
with the law at the critical entries.  For a rule of a - b alone those
probabilities summed along a diagonal are a prefix sum of one binomial row
(``_diagonal_sums``), so its law of a - b is read against them at the
critical diagonals, with no within-coalition grid; a table rule's law of
(a, b) is convolved with the grid.  Out-of-bin members of any coalition
never move the value, so they are ignored throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, groupby
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .combinatorics import (EXACT, Money, check_mode, log_binom, precede_probability,
                           require_pairs)
from .errors import GuardError, InputError
from .model import Dataset, FrequencyValueFunction, Query, diagonal_cells, to_money
from .report import ValueReport, assemble_report, sum_queries

METHOD = "owen-freq"

CountPair = Tuple[int, int]

# precede_probability is not called here, but stays bound under the name
# that perfbench/spans.py wraps

# The law is built in dense arrays of at most this many bytes in all;
# larger ones are refused before they are allocated.
GRID_BUDGET_BYTES = 2**28

# Float laws share one expansion in an array of at most this many bytes (or
# the grid budget, if lower), as many as fit; a larger law is built alone.
BATCH_BYTES = 2**17


@dataclass(frozen=True)
class CriticalSet:
    """Count pairs (a, b) of the box [0, size_a] x [0, size_b] where one more
    example of the fixed label class changes the value, with the (exact)
    deltas: listed cell by cell, or for a rule of a - b alone as
    ``diagonals``, each diagonal a - b = d that crosses the box with its
    one delta, in d order."""

    size: CountPair
    cells: Tuple[Tuple[int, int, Fraction], ...] = ()
    diagonals: Optional[dict] = None

    @cached_property
    def entries(self) -> Tuple[Tuple[int, int, Fraction], ...]:
        """Every critical cell (a, b, delta), in (a, b) order."""
        return self.cells if self.diagonals is None else tuple(
            diagonal_cells(self.diagonals, *self.size))

    @cached_property
    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cells as arrays: a, and b."""
        a, b, _ = zip(*self.cells) if self.cells else ((), (), ())
        return np.array(a, dtype=np.intp), np.array(b, dtype=np.intp)

    @cached_property
    def scaled(self) -> Tuple[int, np.ndarray]:
        """The deltas over their common denominator: it, and the integer
        numerator of each cell's delta, or each diagonal's, over it, as an
        object array."""
        deltas = [*self.diagonals.values()] if self.diagonals is not None else [
            x for *_, x in self.cells]
        den = math.lcm(*(d.denominator for d in deltas))
        return den, np.array([d.numerator * (den // d.denominator) for d in deltas], object)


def critical_set(
    vf: FrequencyValueFunction,
    size_a: int,
    size_b: int,
    label_matches: bool,
) -> CriticalSet:
    """All (a, b) with 0 <= a <= size_a, 0 <= b <= size_b and a non-zero
    delta for the given label class, as the value function lists them: by
    diagonal for a rule of a - b alone."""
    require_pairs("(size_a, size_b) =", [(size_a, size_b)])
    if vf.by_difference:  # in d order, however the rule lists them
        diagonals = vf.critical_diagonals(size_a, size_b, label_matches)
        return CriticalSet((size_a, size_b), diagonals=dict(sorted(diagonals.items())))
    return CriticalSet((size_a, size_b), tuple(vf.critical_cells(size_a, size_b, label_matches)))


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
    if n == 1:  # leggauss(1), without importing numpy.polynomial for it
        x, w = np.zeros(1), np.full(1, 2.0)
    else:
        x, w = np.polynomial.legendre.leggauss(n)  # ascending, symmetric about 0
    return (1 + x[:, None, None]) / 2, (1 - x[:, None, None]) / 2, w


def owen_precede_laws(
    tallies: Iterable[CountPair],
    left_out: Iterable[CountPair],
    mode: str = EXACT,
    pinned: Optional[CountPair] = None,
    caps: Optional[CountPair] = None,
) -> Iterator[PrecedeDistribution]:
    """Law of the summed tallies of the non-target coalitions that land
    ahead of the target coalition, the others being ``tallies`` less one
    copy of each entry of ``left_out`` in turn, yielded as built.

    The m other coalitions precede in a set S with probability
    |S|!(m - |S|)!/(m + 1)!, the integral of t^|S| (1 - t)^(m - |S|) over
    [0, 1].  So a law's generating function is the integral of
    prod_h (1 - t + t x^a_h y^b_h), expanded with one shift-add per
    coalition over dense arrays.  In exact mode each size |S| has an array
    of integer subset counts over the box that size can reach, each
    non-zero cell weighted once at the end.  In float mode one array's
    axes run over laws and Gauss-Legendre nodes, exact for degree m;
    without pin or caps only the nodes t <= 1/2 are built, since trading t
    for 1 - t reverses the law along both axes.  Laws alike in node count
    and next to each other share the array, as many as fit in
    ``BATCH_BYTES``; a law's slab is set aside at the pair it leaves out,
    so each is bit for bit the law built alone.

    A tally may be negative: a rule of a - b alone passes (a - b, 0), whose
    law is one column of at most A + B + 1 cells.  The array then starts at
    ``origin``, the sums of the negative entries.  A ``pinned`` coalition
    always precedes the target: one more factor of t, so the mass is 1/2.
    ``caps`` drops counts above them, which for non-negative tallies can
    never come back under.  All-zero tallies are dropped, so leaving out
    (0, 0) removes nothing, and the rest sorted: a law depends only on
    their multiset.
    """
    check_mode(mode)
    tallies = require_pairs("other tally", tallies, signed=True)
    left_out = require_pairs("left-out tally", left_out, signed=True)
    require_pairs("pinned or caps", [p for p in (pinned, caps) if p is not None])
    if not {*map(tuple, left_out)} <= {*map(tuple, tallies), (0, 0)}:
        raise InputError("a left-out tally is not among the tallies")
    return _precede_laws(tallies, left_out, mode, pinned, caps)


def owen_precede_distribution(other_tallies: Iterable[CountPair], mode: str = EXACT,
                              pinned: Optional[CountPair] = None,
                              caps: Optional[CountPair] = None) -> PrecedeDistribution:
    """The one law of ``owen_precede_laws`` that leaves no tally out."""
    return next(owen_precede_laws(other_tallies, [(0, 0)], mode, pinned, caps))


def _precede_laws(tallies, left_out, mode: str, pinned=None, caps=None):
    """``owen_precede_laws`` past its checks, for counts the caller built."""
    pairs = sorted(tuple(p) for p in tallies if tuple(p) != (0, 0))
    pin, cap = pinned or (0, 0), caps or (math.inf, math.inf)

    def frame(rest):  # the lowest tallies a law's cells hold, and the highest
        return (tuple(sum(p[i] for p in rest if p[i] < 0) for i in (0, 1)),
                tuple(min(pin[i] + sum(p[i] for p in rest if p[i] > 0), cap[i]) for i in (0, 1)))
    laws = []  # per law: the index of the pair it leaves out (-1: none), the rest, its frame
    for x in map(tuple, left_out):
        skip = -1 if x == (0, 0) else pairs.index(x)
        rest = pairs if skip < 0 else pairs[:skip] + pairs[skip + 1:]
        laws.append((skip, rest, *frame(rest)))
    if pin[0] > cap[0] or pin[1] > cap[1]:  # the pinned coalition overflows the caps
        for *_, (la, lb), (ta, tb) in laws:
            zeros = np.zeros((ta - la + 1, tb - lb + 1), object if mode == EXACT else float)
            yield PrecedeDistribution(zeros, 1, (la, lb))
    elif mode == EXACT:
        yield from (_exact_law(rest, pinned, low, top) for _, rest, low, top in laws)
    else:
        # a batch spans the cells of all pairs, and a law alone its own
        m, span = len(pairs) + (pinned is not None), frame(pairs) if len(laws) != 1 else laws[0][2:]
        (la, lb), (ta, tb) = span
        for n, run in groupby(laws, key=lambda law: (m - (law[0] >= 0)) // 2 + 1):
            run, depth = list(run), (n + 1) // 2 if pinned is None and caps is None else n
            per = max(min(BATCH_BYTES, GRID_BUDGET_BYTES) // (depth * (ta - la + 1) * (tb - lb + 1) * 8), 1)
            for batch in (run[i : i + per] for i in range(0, len(run), per)):
                yield from _float_laws(pairs, batch, n, depth, pinned, *(
                    span if len(batch) > 1 else batch[0][2:]))


def _exact_law(pairs, pinned, origin: CountPair, top: CountPair) -> PrecedeDistribution:
    """The exact law of ``pairs``, sorted and non-zero, one law alone."""
    (oa, ob), (a0, b0), m = origin, pinned or (0, 0), len(pairs) + (pinned is not None)
    # from here on counts are cell indices, measured from the origin
    a0, b0, top_a, top_b = a0 - oa, b0 - ob, top[0] - oa, top[1] - ob
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
    _guard(sum(x * y for x, y in shapes) * cell + (top_a + 1) * (top_b + 1) * 8, "Owen law grid")
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


def _float_laws(pairs, run, n: int, depth: int, pinned, low: CountPair,
                top: CountPair) -> list:
    """The float laws of ``run`` (as ``_precede_laws`` lists them), alike in
    node count n: one expansion of ``pairs`` over the tallies low to top."""
    (oa, ob), (pa, pb) = low, pinned or (0, 0)
    a0, b0, top_a, top_b = pa - oa, pb - ob, top[0] - oa, top[1] - ob
    _guard(len(run) * depth * (top_a + 1) * (top_b + 1) * 8, "Owen law grid")
    g = np.zeros((len(run), depth, top_a + 1, top_b + 1))
    t, s, w = _nodes(n)
    t, s = t[:depth], s[:depth]
    g[:, :, a0, b0] = t[:, 0, 0] if pinned is not None else 1.0
    ratio = t / s  # held cells are scaled first, so the shifted copy takes t / s
    hi_a, hi_b = a0, b0  # highest cells reached so far
    leaving: dict = {}  # pair index -> the laws that leave it out
    for j, law in enumerate(run):
        leaving.setdefault(law[0], []).append(j)
    for p, (a, b) in enumerate(pairs):
        out = leaving.get(p, ())
        if len(out) == len(run):
            continue
        kept = g[out] if out else None  # a copy, put back after the shift-add
        held = g[:, :, : hi_a + 1, : hi_b + 1]
        held *= s
        fit_a, fit_b = min(hi_a, top_a - a), min(hi_b, top_b - b)
        # a negative shift moves cells from index -a up, as none lies lower
        ia, ib = max(-a, 0), max(-b, 0)
        if fit_a >= 0 and fit_b >= 0:
            moved = held[:, :, ia : fit_a + 1, ib : fit_b + 1] * ratio
            g[:, :, ia + a : fit_a + a + 1, ib + b : fit_b + b + 1] += moved
        if out:
            g[out] = kept
        hi_a, hi_b = min(max(hi_a, hi_a + a), top_a), min(max(hi_b, hi_b + b), top_b)
    def sums(v, x):  # np.tensordot(v, x, axes=1) of a contiguous x, without its bookkeeping
        return np.dot(v, x.reshape(len(v), -1)).reshape(x.shape[1:])
    laws = []
    for law, (*_, low, top) in zip(g, run):  # each cut to its own cells, as if alone
        law = np.ascontiguousarray(law[:, low[0] - oa : top[0] - oa + 1, low[1] - ob : top[1] - ob + 1])
        if depth == n:  # no mirror, or one node; the weights sum to 2 on [-1, 1]
            laws.append(PrecedeDistribution(sums(w, law) / 2, 1, low))
        else:
            mirrored = sums(w[: n // 2], law[: n // 2])[::-1, ::-1]
            laws.append(PrecedeDistribution((sums(w[:depth], law) + mirrored) / 2, 1, low))
    return laws


def _log_binoms(n: int, k: np.ndarray) -> np.ndarray:
    """ln C(n, k) at each entry of ``k``, from one table up to its largest."""
    return np.array([log_binom(n, i) for i in range(int(k.max(initial=-1)) + 1)])[k]


def _diagonal_walk(size_a: int, size_b: int, a: np.ndarray, b: np.ndarray):
    """(index, integer prefix weight over t C(t - 1, size_a)) for each cell
    of the 1-D arrays ``a`` and ``b``, up each diagonal a - b: one
    ``math.comb`` pair at its lowest cell, then one multiply and one exact
    divide a step."""
    t = size_a + size_b + 1
    order = np.lexsort((a, a - b))  # by diagonal, then up it
    below = None
    for i, x, y in zip(order.tolist(), a[order].tolist(), b[order].tolist()):
        if below == (x - 1, y - 1):  # the binomials' ratio from the cell below
            w = w * (x + y - 1) * (x + y) * (size_a + 1 - x) * (size_b + 1 - y) // (
                x * y * (t + 1 - x - y) * (t - x - y))
        else:
            w = math.comb(x + y, x) * math.comb(t - 1 - x - y, size_a - x)
        yield i, w
        below = x, y


def _prefix_weights(size_a: int, size_b: int, a: np.ndarray, b: np.ndarray, mode: str):
    """Probability that exactly a of ``size_a`` matches and b of ``size_b``
    mismatches precede one more example in a uniform order of them all, at
    the cells of the broadcast arrays ``a`` and ``b``: with t = size_a +
    size_b + 1, C(a + b, a) C(t - 1 - a - b, size_a - a) / (t C(t - 1,
    size_a)), and their denominator: ``_diagonal_walk``'s ints in exact
    mode, and in float (an integer box would hold exact-size ints) exp of
    log-binomials summed as ``precede_probability`` sums them, / t, over 1."""
    t = size_a + size_b + 1
    if mode == EXACT:
        a, b = np.broadcast_arrays(a, b)
        weights = np.empty(a.size, object)
        for i, w in _diagonal_walk(size_a, size_b, a.ravel(), b.ravel()):
            weights[i] = w
        return weights.reshape(a.shape), t * math.comb(t - 1, size_a)
    logs = -_log_binoms(t - 1, a + b) + _log_binoms(size_a, a) + _log_binoms(size_b, b)
    return np.exp(logs, out=logs) / t, 1


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


def _row_prefix(t: int, j: int, term: int) -> int:
    """The sum S(j) of C(t, i) over i <= j <= t / 2, given term = C(t, j), by
    binary splitting (Haible & Papanikolaou 1998) over the row's shorter
    stretch: up from 0, or down from h = floor(t / 2), where the row's
    symmetry makes S(h) 2^(t - 1), plus C(t, h) / 2 for an even t."""
    def split(lo, hi):  # P / Q = C(t, hi - 1) / C(t, lo - 1), and T / Q the sum from lo
        if hi - lo <= 16:
            p, q, total = 1, 1, 0
            for i in range(lo, hi):  # C(t, i) / C(t, i - 1) = (t - i + 1) / i
                total, p, q = total * i + p * (t - i + 1), p * (t - i + 1), q * i
            return p, q, total
        (p1, q1, t1), (p2, q2, t2) = split(lo, (lo + hi) // 2), split((lo + hi) // 2, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    if j < t // 2 - j:
        _, q, total = split(1, j + 1)
        return 1 + total // q
    p, q, total = split(j + 1, t // 2 + 1)
    return (1 << t - 1) - term * (2 * total - (t % 2 == 0) * p) // (2 * q)


def _diagonal_sums(size_a: int, size_b: int, lo: int, hi: int, exact: bool):
    """``_prefix_weights`` summed along diagonals, from one binomial row: the
    cells of the box on a - b = d weigh S(j) / (t C(t - 1, size_a)) in all,
    with t = size_a + size_b + 1, j = min(size_a, size_b, size_a - d,
    size_b + d) and S as in ``_row_prefix`` (0 for j < 0).  Returns S(j) at
    entry j - lo + 1 for lo <= j <= hi, 0 at entry 0, and the denominator;
    in float, each S(j) divided by it, rounded once, over 1.

    Proof, for a box A x B: C(x + y, x) C(A + B - x - y, A - x) counts the
    lattice paths from (0, 0) to (A, B) through (x, y), so the diagonal's
    sum F(A, B, d) counts (path, visit to the diagonal) pairs.  A path's
    last step ends at (A, B) from (A - 1, B) or (A, B - 1), so
    F(A, B, d) = F(A - 1, B, d) + F(A, B - 1, d) + [d = A - B] C(A + B, A).
    On the right j = min(u, v), u = A - max(d, 0), v = B - max(-d, 0), and
    the boxes (A - 1, B) and (A, B - 1) lower u and v by one.  Pascal's rule
    makes S(j) of row t S(j) + S(j - 1) of row t - 1: the two smaller boxes'
    sums if u != v; if u = v (d = A - B) both have j - 1, and C(A + B, j) =
    C(A + B, A) is left over.  Both sides vanish when A or B is -1, so they
    agree by induction on A + B."""
    t, short = size_a + size_b + 1, min(size_a, size_b)
    term = math.comb(t, hi)  # t C(t - 1, size_a) = C(t, short) (1 + the longer side)
    den = (term if hi == short else math.comb(t, short)) * (t - short)
    total = _row_prefix(t, hi, term)
    sums = np.zeros(hi - lo + 2, object if exact else float)
    for j in range(hi, lo - 1, -1):
        sums[j - lo + 1] = total if exact else total / den
        total, term = total - term, term * j // (t - j + 1)
    return sums, den if exact else 1


def _fft_len(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n; a prime length takes several times longer."""
    k = n
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return n if k == 1 else _fft_len(n + 1)


def _value_from_distribution(dist: PrecedeDistribution, crit: CriticalSet, a_m: int, b_m: int,
                             mode: str) -> Money:
    """Inner Owen sum: the deltas weighted by (others-ahead counts)
    convolved with the within-coalition prefix weights.  A rule of a - b
    alone reads a law of a - b: each critical diagonal c is one dot product
    of the law with ``_diagonal_sums`` at the target's a - b = c minus the
    others', every cell of which lies inside the box.  Any other rule
    convolves its law of (a, b) with the box of prefix weights.  A one-cell
    law is the point mass at the origin: in both modes each critical
    integer weight times its delta's numerator is summed, so a float value
    is the exact one rounded once, by the closing division."""
    exact = mode == EXACT
    den, deltas = crit.scaled
    law = dist.weights
    ints = exact or law.size == 1  # weight 1 over scale 1, in either mode
    if crit.diagonals is not None:
        c = [*crit.diagonals] or [0]  # in d order
        low, top = c[0] - dist.origin[0] - law.size + 1, c[-1] - dist.origin[0]  # target a - b
        short = min(a_m, b_m)  # the j of a diagonal a - b = r is min(short, a_m - r, b_m + r)
        lo, hi = max(min(short, a_m - top, b_m + low), 0), min(short, a_m - low, b_m + top)
        if hi < 0 or not crit.diagonals:
            return to_money(0, mode)
        if exact:  # as the box was: an int below 2^t per entry
            cell = 8 + sys.getsizeof(1 << a_m + b_m + 1)
            _guard((hi - lo + 2) * cell, "within-coalition diagonal sums")
        sums, w_den = _diagonal_sums(a_m, b_m, lo, hi, ints)
        r = np.arange(low, top + 1)
        by_diff = sums[np.maximum(np.minimum(np.minimum(a_m - r, b_m + r), short) - lo + 1, 0)]
        # the law against by_diff, one dot product per diagonal from c[0] up
        along = (by_diff if law.size == 1 else np.convolve(by_diff, law, "valid"))[
            np.subtract(c, c[0])]
        # float mode reads each delta as numerator / den, rounded once, and
        # has nothing left to divide: a numerator alone can pass 1e308
        total = deltas @ along if ints else along @ (deltas / den).astype(float)
    elif law.size == 1:
        a, b = crit.columns
        inside = np.flatnonzero((a <= a_m) & (b <= b_m))
        d = deltas[inside].tolist()
        total = sum(w * d[i] for i, w in _diagonal_walk(a_m, b_m, a[inside], b[inside]))
        w_den = (a_m + b_m + 1) * math.comb(a_m + b_m, a_m)
    else:
        # an exact cell holds an int up to the weights' denominator
        cell = 8 + sys.getsizeof((a_m + b_m + 1) * math.comb(a_m + b_m, a_m)) if exact else 8
        _guard((a_m + 1) * (b_m + 1) * cell, "within-coalition grid")
        box = np.arange(a_m + 1)[:, None], np.arange(b_m + 1)
        within, w_den = _prefix_weights(a_m, b_m, *box, mode)
        if exact:
            total = _convolve_at(law, within, *crit.columns, deltas)
        else:
            shape = [_fft_len(m + n - 1) for m, n in zip(law.shape, within.shape)]
            conv = np.fft.irfft2(np.fft.rfft2(law, shape) * np.fft.rfft2(within, shape), shape)
            total = conv[crit.columns] @ (deltas / den).astype(float)
    if not ints:
        return float(total)
    scale = den * dist.scale * w_den
    return Fraction(total, scale) if exact else float(total / scale)


def _law_input(vf: FrequencyValueFunction, tally: CountPair) -> CountPair:
    """A tally as the preceder law reads it: (a - b, 0) for a rule of a - b
    alone, whose deltas depend on nothing else, else (a, b).  Tallies with
    one input leave the others' inputs equal, so they share one law."""
    return (tally[0] - tally[1], 0) if vf.by_difference else tally


def _preceder_laws(tallies: Sequence[CountPair], left_out: Sequence[CountPair],
                   vf: FrequencyValueFunction, mode: str) -> Iterator[PrecedeDistribution]:
    """The laws of the ``_law_input``s of ``tallies``, less one of each law
    input in ``left_out`` in turn, as one axis for a rule of a - b alone."""
    laws = owen_precede_laws([_law_input(vf, t) for t in tallies], left_out, mode)
    if not vf.by_difference:
        return laws
    return (PrecedeDistribution(law.weights[:, 0], law.scale, law.origin[:1]) for law in laws)


def owen_frequency_single(
    other_tallies: Iterable[CountPair],
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
    _, *other_tallies = require_pairs("target or other tally",
                                      [(target_match, target_mismatch), *other_tallies])
    dist = next(_preceder_laws(other_tallies, [(0, 0)], vf, mode))
    size_a = sum(a for a, _ in other_tallies) + target_match
    size_b = sum(b for _, b in other_tallies) + target_mismatch
    crit = critical_set(vf, size_a, size_b, label_matches)
    return _value_from_distribution(dist, crit, target_match, target_mismatch, mode)


def owen_frequency_report(
    dataset: Dataset,
    queries: Sequence[Query],
    vf: FrequencyValueFunction,
    mode: str = "float",
    per_query: bool = False,
) -> ValueReport:
    """Total Owen payout per example over a batch of queries, under the
    partition the dataset's coalition ids make."""
    check_mode(mode)
    dataset.require_bins()
    _, owner = dataset.partition_codes()
    return _frequency_report(METHOD, dataset, owner, queries, vf, mode, per_query)


def _frequency_report(method, dataset, owner, queries, vf, mode, per_query):
    """Total payout per example over a batch of queries, each example in
    the coalition coded ``owner``, summed per (bin, coalition, label) group,
    which the report's rows read by code.  Per query the critical set is
    built once per class, the preceder law once per law input and the value
    once per (tally, class), reused across queries alike in bin, label and
    value function; a query's laws come from one call, built as read, by
    law input with (0, 0) last: its law alone may differ in node count."""
    check_mode(mode)
    _, bin_col = dataset.bin_codes()
    symbols, label_col = dataset.label_column()
    width = int(owner.max(initial=-1)) + 1
    # the groups present, in key order: by bin, then coalition, then label
    keys, group = np.unique((bin_col * width + owner) * 2 + label_col, return_inverse=True)
    group_size = np.bincount(group, minlength=len(keys))
    value_cache: dict = {}

    def values_of(q: Query):
        q_vf = q.value_function if q.value_function is not None else vf
        in_bin = np.flatnonzero(keys // (2 * width) == dataset.query_bin_code(q))
        matches = np.array([s == q.label for s in symbols], bool)[keys[in_bin] % 2]
        held, slot = np.unique(keys[in_bin] // 2, return_inverse=True)  # coalitions in the bin
        # slot 2c holds in-bin coalition c's matches, 2c + 1 its mismatches
        counts = np.zeros((len(held), 2), np.int64)
        counts.flat[2 * slot + ~matches] = group_size[in_bin]
        tallies = list(map(tuple, counts.tolist()))
        pairs = sorted(tallies)
        size_a, size_b = counts.sum(axis=0).tolist()
        crits: dict = {}  # label matches -> critical set
        alike = (id(q_vf), q.bin, q.label)  # plus (own tally, label matches): a value's key
        needed: dict = {}  # law input -> the (own tally, label matches) values it gives
        for own, m in ((t, m) for t in dict.fromkeys(pairs) for m in (True, False)):
            if own[not m] and alike + (own, m) not in value_cache:
                needed.setdefault(_law_input(q_vf, own), []).append((own, m))
        needed = dict(sorted(needed.items(), key=lambda item: (item[0] == (0, 0), item[0])))
        for wanted, law in zip(needed.values(), _preceder_laws(pairs, list(needed), q_vf, mode)):
            for own, m in wanted:
                if m not in crits:
                    crits[m] = critical_set(q_vf, size_a - m, size_b - (not m), m)
                value_cache[alike + (own, m)] = _value_from_distribution(
                    law, crits[m], own[0] - m, own[1] - (not m), mode)
        by_group = zip(slot.tolist(), matches.tolist())
        return in_bin, [value_cache[alike + (tallies[c], m)] for c, m in by_group]

    queries, totals, columns, wall = sum_queries(queries, len(keys), mode, per_query, values_of)
    return assemble_report(
        method=method, mode=mode, dataset=dataset, values=totals, query_count=len(queries),
        wall_time=wall, per_query=columns, value_codes=group,
    )
