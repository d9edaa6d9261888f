"""Binomial helpers and the precedence probability that everything else leans on.

Two numeric modes run through the whole package: "exact" works in
fractions.Fraction and is the ground truth; "float" evaluates the same
formulas in binary64: the exact integer sum rounded once where that costs
no more, else binomial ratios as exp() of summed log-binomials, so that
large populations neither overflow nor lose the leading digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import InputError

Money = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"
NUMERIC_MODES = (EXACT, FLOAT)

NEG_INF = float("-inf")


def check_mode(mode: str) -> str:
    if mode not in NUMERIC_MODES:
        raise InputError(f"unknown numeric mode {mode!r}; expected one of {NUMERIC_MODES}")
    return mode


def binom(a: int, b: int) -> int:
    """C(a, b) with the zero convention: 0 whenever b < 0 or b > a.

    The convention is what lets sums over count pairs run over a full
    rectangle without guarding every edge case.
    """
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


_SMALL_SIDE = 5000


# bounded, yet far above the few hundred entries a k-NN Owen query uses
@lru_cache(maxsize=2**16)
def log_binom(a: int, b: int) -> float:
    """ln C(a, b), or -inf where the zero convention makes C(a, b) = 0.

    When the short side of the coefficient is small the value comes from a
    compensated sum of term logs; the lgamma difference would cancel most
    of its digits there (lgamma(10**6) carries ~1e-9 of absolute error,
    which dwarfs a result like ln C(10**6, 17) ~ 201).  Either route keeps
    the relative error well under 1e-12 for populations up to a million.
    """
    if b < 0 or b > a:
        return NEG_INF
    b = min(b, a - b)
    if b == 0:
        return 0.0
    if b <= _SMALL_SIDE:
        return math.fsum(
            math.log(a - i) - math.log(i + 1) for i in range(b)
        )
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def precede_probability(
    set_sizes: Sequence[int],
    chosen: Sequence[int],
    mode: str = EXACT,
) -> Money:
    """Probability that exactly ``chosen[h]`` members of each disjoint set
    precede a fixed extra element in a uniformly random permutation.

    With t = 1 + sum(set_sizes) and u = sum(chosen) this is

        (1 / t) * C(t - 1, u)^{-1} * prod_h C(set_sizes[h], chosen[h]).

    Impossible selections (some chosen[h] outside 0..set_sizes[h]) have
    probability zero; the zero convention makes that fall out of the
    numerator, and the u > t - 1 denominator case can only occur alongside
    a zero numerator.
    """
    check_mode(mode)
    if len(set_sizes) != len(chosen):
        raise InputError("set_sizes and chosen must have equal length")
    if any(s < 0 for s in set_sizes):
        raise InputError(f"set sizes must be non-negative, got {tuple(set_sizes)}")
    t = 1 + sum(set_sizes)
    u = sum(chosen)
    if u < 0 or any(c < 0 or c > s for s, c in zip(set_sizes, chosen)):
        return Fraction(0) if mode == EXACT else 0.0
    if mode == EXACT:
        num = 1
        for s, c in zip(set_sizes, chosen):
            num *= math.comb(s, c)
        return Fraction(num, t * math.comb(t - 1, u))
    log_w = -log_binom(t - 1, u)
    for s, c in zip(set_sizes, chosen):
        log_w += log_binom(s, c)
    return math.exp(log_w) / t
