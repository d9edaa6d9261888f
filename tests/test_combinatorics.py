"""Binomial helpers and the precedence-probability kernel."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divvy import binom, log_binom, precede_probability
from divvy.errors import InputError

from conftest import relative_gap


def test_binom_matches_stdlib_on_the_box():
    for a in range(61):
        for b in range(a + 1):
            assert binom(a, b) == math.comb(a, b)


def test_binom_zero_convention():
    assert binom(3, -1) == 0
    assert binom(3, 4) == 0
    assert binom(0, 0) == 1
    assert binom(-2, 0) == 0, "negative population has no subsets at all"


def test_log_binom_small_cases_exact():
    for a in range(40):
        for b in range(-2, a + 3):
            got = log_binom(a, b)
            c = binom(a, b)
            if c == 0:
                assert got == float("-inf")
            else:
                assert relative_gap(got, math.log(c)) < 1e-13


def test_log_binom_cache_is_bounded():
    bound = log_binom.cache_info().maxsize
    assert bound == 2**16
    log_binom.cache_clear()
    for a in range(bound + 100):
        log_binom(a, 1)
    info = log_binom.cache_info()
    assert info.currsize == bound and info.misses == bound + 100
    log_binom.cache_clear()


def test_log_binom_large_arguments():
    gmpy2 = pytest.importorskip("gmpy2")
    rng = random.Random(11)
    cases = [(10**6, 5 * 10**5), (10**6, 17), (750_001, 250_000)]
    cases += [
        (rng.randint(10**3, 10**6), None) for _ in range(25)
    ]
    for a, b in cases:
        if b is None:
            b = rng.randint(0, a)
        want = math.log(int(gmpy2.comb(a, b)))
        assert relative_gap(log_binom(a, b), want) < 1e-12, (a, b)


def _enumerate_precedence(set_sizes, chosen):
    """Probability by brute force: lay out the target plus all set members
    in every order and count the orders whose prefix before the target
    holds exactly ``chosen`` members of each set."""
    items = [("target", 0)]
    for h, s in enumerate(set_sizes):
        items.extend(("set", h, j) for j in range(s))
    hits = 0
    total = 0
    for perm in itertools.permutations(items):
        cut = perm.index(("target", 0))
        counts = [0] * len(set_sizes)
        for item in perm[:cut]:
            counts[item[1]] += 1
        total += 1
        if tuple(counts) == tuple(chosen):
            hits += 1
    return Fraction(hits, total)


def test_precede_probability_matches_enumeration():
    rng = random.Random(5)
    shapes = [(2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2), (2, 2, 1)]
    for sizes in shapes:
        for chosen in itertools.product(*(range(s + 1) for s in sizes)):
            want = _enumerate_precedence(sizes, chosen)
            assert precede_probability(sizes, chosen) == want, (sizes, chosen)
    # a few larger random shapes, spot-checked
    for _ in range(10):
        sizes = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        if sum(sizes) > 6:
            continue
        chosen = tuple(rng.randint(0, s) for s in sizes)
        assert precede_probability(sizes, chosen) == _enumerate_precedence(sizes, chosen)


def test_precede_probability_known_value():
    # one target, sets of sizes (2, 1), prefix (1, 0):
    # (1/4) * C(3,1)^{-1} * C(2,1) * C(1,0) = 1/6
    assert precede_probability((2, 1), (1, 0)) == Fraction(1, 6)


def test_precede_probability_single_set_is_uniform():
    # with one set the count of predecessors is uniform on 0..s
    for s in range(7):
        for c in range(s + 1):
            assert precede_probability((s,), (c,)) == Fraction(1, s + 1)


def test_precede_probability_impossible_selection_is_zero():
    assert precede_probability((2, 1), (3, 0)) == 0
    assert precede_probability((2,), (-1,)) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4).filter(
        lambda s: sum(s) <= 8
    )
)
def test_precede_probability_normalizes(sizes):
    sizes = tuple(sizes)
    total = sum(
        precede_probability(sizes, chosen)
        for chosen in itertools.product(*(range(s + 1) for s in sizes))
    )
    assert total == 1


def test_precede_probability_float_tracks_exact():
    rng = random.Random(23)
    for _ in range(200):
        sizes = tuple(rng.randint(0, 20) for _ in range(rng.randint(1, 4)))
        chosen = tuple(rng.randint(0, s) for s in sizes)
        exact = precede_probability(sizes, chosen, mode="exact")
        approx = precede_probability(sizes, chosen, mode="float")
        assert relative_gap(float(exact), approx) < 1e-12, (sizes, chosen)


# a count is an integer other than a bool; a set size is also non-negative,
# while a chosen count may take any sign (it then selects nothing)
_NOT_INTEGERS = [True, np.True_, 2.0, 2.5, "1"]


@pytest.mark.parametrize("bad", _NOT_INTEGERS + [-1])
def test_precede_probability_refuses_what_is_not_a_set_size(bad):
    for mode in ("exact", "float"):
        with pytest.raises(InputError, match="^set_sizes must be non-negative integers"):
            precede_probability((3, bad), (1, 0), mode)


@pytest.mark.parametrize("bad", _NOT_INTEGERS)
def test_precede_probability_refuses_what_is_not_a_chosen_count(bad):
    for mode in ("exact", "float"):
        with pytest.raises(InputError, match="and chosen integers"):
            precede_probability((3, 2), (1, bad), mode)
    assert precede_probability((3, 2), (1, -1)) == 0
    assert precede_probability((np.int64(3),), (np.int8(1),)) == Fraction(1, 4)


def test_precede_probability_rejects_bad_input():
    with pytest.raises(InputError):
        precede_probability((2, 1), (1,))
    with pytest.raises(InputError):
        precede_probability((-1,), (0,))
    with pytest.raises(InputError):
        precede_probability((2,), (1,), mode="decimal")
