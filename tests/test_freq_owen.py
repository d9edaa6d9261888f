"""Owen values for frequency rules: the preceder law and full pipeline."""

import collections
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divvy.freq_owen as freq_owen
from divvy import (
    Dataset,
    Example,
    MajorityValueFunction,
    Query,
    TableValueFunction,
    exact_owen_all,
    frequency_game,
    owen_frequency_report,
    owen_frequency_single,
    owen_precede_distribution,
    precede_probability,
    shapley_frequency_report,
)
from divvy.errors import GuardError, InputError

from conftest import (
    insertion_dp,
    mixed_frequency_queries,
    random_frequency_instance,
    relative_gap,
)

PAYOUT = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))


def _enumerate_preceding_counts(pairs, pinned=None):
    """Ground truth for the preceder law: every ordering of the other
    coalitions and the target is equally likely, so list all of them and
    add up the count pairs landing before the target.  A ``pinned``
    coalition joins the ordering, and only orderings where it precedes the
    target count."""
    pairs = list(pairs) + ([pinned] if pinned is not None else [])
    m = len(pairs)
    out = {}
    total = 0
    for perm in itertools.permutations(range(m + 1)):
        cut = perm.index(m)  # index m plays the target coalition
        total += 1
        if pinned is not None and m - 1 not in perm[:cut]:
            continue
        a = sum(pairs[i][0] for i in perm[:cut])
        b = sum(pairs[i][1] for i in perm[:cut])
        out[(a, b)] = out.get((a, b), 0) + 1
    return {k: Fraction(v, total) for k, v in out.items()}


def _support(dist):
    """The law's non-zero entries as a dict keyed (a, b), counted from its origin."""
    oa, ob = dist.origin
    return {(int(a) + oa, int(b) + ob): dist.probs[a, b] for a, b in zip(*np.nonzero(dist.weights))}


def _assert_law(pairs, want, mode, **kw):
    """The law in ``mode`` has support ``want`` and, in float, matches it
    to within 1e-12 relative."""
    got = _support(owen_precede_distribution(pairs, mode, **kw))
    if mode == "exact":
        assert got == want, (pairs, kw)
        return
    assert got.keys() == want.keys(), (pairs, kw)
    for k, v in want.items():
        assert relative_gap(float(v), got[k]) < 1e-12, (pairs, kw, k)


def test_dp_two_other_coalitions():
    want = {
        (0, 0): Fraction(1, 3),
        (1, 0): Fraction(1, 6),
        (0, 1): Fraction(1, 6),
        (1, 1): Fraction(1, 3),
    }
    for mode in ("exact", "float"):
        _assert_law([(1, 0), (0, 1)], want, mode)


def test_dp_matches_enumeration():
    rng = random.Random(12)
    for _ in range(30):
        m = rng.randint(0, 5)
        pairs = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(m)]
        pinned = (rng.randint(0, 2), rng.randint(0, 2)) if m < 5 else None
        for mode in ("exact", "float"):
            _assert_law(pairs, _enumerate_preceding_counts(pairs), mode)
            if pinned is not None:
                want = _enumerate_preceding_counts(pairs, pinned)
                _assert_law(pairs, want, mode, pinned=pinned)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=0,
        max_size=6,
    )
)
def test_dp_mass_is_one(pairs):
    assert owen_precede_distribution(pairs).mass() == 1
    assert owen_precede_distribution(pairs, pinned=(1, 2)).mass() == Fraction(1, 2)
    assert abs(owen_precede_distribution(pairs, "float").mass() - 1) < 1e-12
    assert abs(owen_precede_distribution(pairs, "float", pinned=(0, 0)).mass() - 0.5) < 1e-12


def test_dp_caps_only_drop_overflow():
    pairs = [(2, 0), (1, 1), (0, 2)]
    for mode in ("exact", "float"):
        for pinned in (None, (1, 0)):
            full = owen_precede_distribution(pairs, mode, pinned)
            capped = owen_precede_distribution(pairs, mode, pinned, caps=(1, 1))
            assert capped.probs.shape == (2, 2)
            for (a, b), p in np.ndenumerate(capped.probs):
                if mode == "exact":
                    assert p == full.probs[a, b], "capping must not disturb in-range states"
                else:
                    assert relative_gap(p, full.probs[a, b]) < 1e-12, (pinned, a, b)


def test_dp_float_tracks_exact():
    # capped or pinned laws integrate over every node, uncapped unpinned
    # ones over the nodes t <= 1/2 and their mirror
    rng = random.Random(71)
    for _ in range(300):
        pairs = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 6))]
        pinned = rng.choice([None, (rng.randint(0, 3), rng.randint(0, 3))])
        caps = rng.choice([None, (rng.randint(0, 4), rng.randint(0, 4))])
        exact = _support(owen_precede_distribution(pairs, "exact", pinned, caps))
        _assert_law(pairs, exact, "float", pinned=pinned, caps=caps)


def test_exact_law_counts_past_int64():
    # C(m, m // 2) subsets of one size fit int64 up to m = 66; every one of
    # 0..m single-match coalitions ahead of the target is equally likely
    for m in (66, 67, 70):
        dist = owen_precede_distribution([(1, 0)] * m)
        assert dist.probs[:, 0].tolist() == [Fraction(1, m + 1)] * (m + 1), m
        assert dist.mass() == 1


def test_precede_distribution_mass():
    dist = owen_precede_distribution([(2, 1), (0, 3), (1, 1)])
    assert dist.mass() == 1
    assert dist.probs[(0, 0)] == Fraction(1, 4), "target first with prob 1/m"


def _float_tracks_exact_law(pairs):
    exact = insertion_dp(pairs)
    grid = owen_precede_distribution(pairs, mode="float").probs
    support = {(int(a), int(b)) for a, b in zip(*np.nonzero(grid))}
    assert support == {k for k, v in exact.items() if v}, pairs
    for (a, b), v in exact.items():
        assert relative_gap(float(v), grid[a, b]) < 1e-12, (pairs, a, b)


def test_float_law_matches_insertion_dp():
    # m // 2 + 1 Gauss-Legendre nodes for m other coalitions; (m + 1) // 2
    # nodes is off by 0.5 relative on this even-m case
    _float_tracks_exact_law([(3, 1), (0, 1)])
    rng = random.Random(23)
    for trial in range(300):
        m = trial % 10  # both parities, m = 0..9
        pairs = []
        for _ in range(m):
            kind = rng.randrange(4)
            k = rng.randint(1, 4)
            pairs.append([(0, 0), (k, 0), (0, k), (k, rng.randint(1, 4))][kind])
        _float_tracks_exact_law(pairs)


def test_laws_match_the_insertion_dp_at_larger_m():
    # laws of a - b (one axis, negative tallies) up to m = 40, and the
    # capped, pinned laws of k-NN Owen values up to m = 20: exact laws equal
    # the insertion DP, float ones agree to within 1e-12 relative
    rng = random.Random(59)
    for m in (5, 11, 18, 24, 32, 40, 40):
        pairs = [(rng.randint(-4, 4), 0) for _ in range(m)]
        want = {k: v for k, v in insertion_dp(pairs).items() if v}
        for mode in ("exact", "float"):
            _assert_law(pairs, want, mode)
    # a pinned row past the caps (h + 1 is the clamp) leaves an empty law
    for m, h in ((9, 1), (12, 1), (14, 2), (17, 2), (20, 3), (20, 3), (20, 5)):
        pairs = [(rng.randint(0, h + 1), rng.randint(0, h + 1)) for _ in range(m)]
        pinned = rng.randint(0, h + 1), rng.randint(0, h)
        want = {k: v for k, v in insertion_dp(pairs, (h, h), pinned).items() if v}
        for mode in ("exact", "float"):
            _assert_law(pairs, want, mode, pinned=pinned, caps=(h, h))


def test_float_law_refuses_an_oversized_grid():
    with pytest.raises(GuardError, match="budget"):
        owen_precede_distribution([(5800, 5800)], mode="float")
    with pytest.raises(GuardError, match="budget"):
        owen_precede_distribution([(5800, 5800)], mode="exact")


def _as_table(vf, size_a, size_b):
    """A table with the majority rule's payouts over the box, which takes
    the two-axis (a, b) route."""
    return TableValueFunction(
        {(a, b): vf.value(a, b) for a in range(size_a + 2) for b in range(size_b + 2)}
    )


def test_majority_law_of_a_minus_b_matches_the_two_axis_law():
    # the majority route reads one law of a - b; a table of the same payouts
    # reads the (a, b) grid.  Lone target coalitions, zero tallies, very
    # uneven sizes, both classes, and 69 coalitions past int64 counts
    rng = random.Random(31)
    cases = [([], 0, 0), ([], 3, 2), ([(40, 0), (0, 1)], 0, 25), ([(0, 30), (1, 0)], 12, 0)]
    for _ in range(40):
        others = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(0, 8))]
        cases.append((others + [(0, 0)] * rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 4)))
    cases.append(([(1, 0), (0, 1), (2, 1), (0, 0)] * 23, 1, 1))
    # the last payouts' deltas have a common denominator near 1e401, so
    # their numerators over it are past the largest float
    near = Fraction(1, 10**200 + 1), Fraction(1, 10**200 + 3)
    vfs = [PAYOUT, MajorityValueFunction(Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4)),
           MajorityValueFunction(Fraction(7, 3) + near[0], Fraction(-5, 2) + near[1], Fraction(1, 4))]
    for others, a_m, b_m in cases:
        size_a = sum(a for a, _ in others) + a_m
        size_b = sum(b for _, b in others) + b_m
        for vf, matches in itertools.product(vfs, (True, False)):
            table = _as_table(vf, size_a, size_b)
            args = (others, a_m, b_m)
            exact = owen_frequency_single(*args, vf, matches, mode="exact")
            assert exact == owen_frequency_single(*args, table, matches, mode="exact"), args
            one_axis = owen_frequency_single(*args, vf, matches, mode="float")
            two_axis = owen_frequency_single(*args, table, matches, mode="float")
            assert relative_gap(one_axis, two_axis) < 1e-12, (args, matches)
            assert relative_gap(one_axis, float(exact)) < 1e-12, (args, matches)


def _law_cells(monkeypatch, vf):
    """Cells of each preceder law one owen-freq query builds, by target
    tally, on one bin of ten pure coalitions: two to eleven matches each,
    or one to ten mismatches."""
    ds = Dataset(
        Example(i, "xy"[c % 2], bin="b0", coalition=f"g{c}")
        for i, c in enumerate(c for c in range(10) for _ in range(c + 1 + (c % 2 == 0)))
    )
    cells = []
    real = freq_owen.owen_precede_distribution

    def counting(others, *args):
        law = real(others, *args)
        cells.append(law.weights.size)
        return law

    with monkeypatch.context() as patch:
        patch.setattr(freq_owen, "owen_precede_distribution", counting)
        owen_frequency_report(
            ds, [Query(label="x", bin="b0")], vf, mode="float"
        )
    return cells


def test_majority_law_has_one_cell_per_count_difference(monkeypatch):
    # the others hold A matches and B mismatches; a majority law spans
    # A + B + 1 differences a - b (all coalitions here are pure), the
    # two-axis law of a table (A + 1)(B + 1) count pairs.  Majority laws
    # are built in order of a - b, table laws in order of the tally.
    sizes = [c + 1 + (c % 2 == 0) for c in range(10)]
    A, B = sum(sizes[0::2]), sum(sizes[1::2])
    own = sorted([(s, 0) for s in sizes[0::2]] + [(0, s) for s in sizes[1::2]])
    one_axis = _law_cells(monkeypatch, PAYOUT)
    by_diff = sorted(own, key=lambda t: t[0] - t[1])
    assert one_axis == [A - a + B - b + 1 for a, b in by_diff]
    two_axis = _law_cells(monkeypatch, _as_table(PAYOUT, A, B))
    assert two_axis == [(A - a + 1) * (B - b + 1) for a, b in own]
    assert sum(one_axis) * 10 < sum(two_axis)


def test_float_report_tracks_exact_on_repeated_queries():
    # within 1e-9 absolute below |value| 1, relative above: a value that is
    # exactly 0 by cancellation can come out at ~1e-16 in float
    rng = random.Random(15)
    for trial in range(60):
        dataset, query, vf = random_frequency_instance(
            rng, max_n=9, with_coalitions=True, max_groups=5
        )
        exact = owen_frequency_report(dataset, [query, query], vf, mode="exact")
        approx = owen_frequency_report(dataset, [query, query], vf, mode="float")
        for i, v in exact.values().items():
            gap = abs(float(v) - approx.value_of(i))
            assert gap <= 1e-9 * max(1.0, abs(float(v))), (trial, i)


def test_critical_set_built_once_per_label_class(monkeypatch):
    # the benchmark's shape: one 250-example bin in 20 coalitions
    rng = random.Random(25)
    ds = Dataset(
        Example(i, rng.choice("xy"), bin="b0", coalition=f"c{i % 20}") for i in range(250)
    )
    calls = []
    real = freq_owen.critical_set
    monkeypatch.setattr(
        freq_owen, "critical_set", lambda *a: calls.append(a) or real(*a)
    )
    queries = [Query(label="x", bin="b0"), Query(label="y", bin="b0")]
    owen_frequency_report(ds, queries, PAYOUT, mode="float")
    assert len(calls) <= 2 * len(queries), len(calls)


def test_exact_prefix_weights_match_the_formula():
    # the diagonal walk gives the same Python ints as two binomials per
    # cell, on full grids and on shuffled cell lists with gaps along each
    # diagonal (a cell whose cell below is missing seeds its own walk)
    rng = random.Random(14)
    boxes = [(0, 0), (0, 7), (9, 0), (1, 1), (30, 30)]
    boxes += [(rng.randrange(40), rng.randrange(40)) for _ in range(12)]
    for size_a, size_b in boxes:
        t = size_a + size_b + 1

        def formula(a, b):
            return math.comb(a + b, a) * math.comb(t - 1 - a - b, size_a - a)

        box = np.arange(size_a + 1)[:, None], np.arange(size_b + 1)
        grid, den = freq_owen._prefix_weights(size_a, size_b, *box, "exact")
        assert den == t * math.comb(t - 1, size_a)
        assert grid.shape == (size_a + 1, size_b + 1) and grid.dtype == object
        assert grid.tolist() == [[formula(a, b) for b in range(size_b + 1)]
                                 for a in range(size_a + 1)], (size_a, size_b)
        cells = [(a, b) for a in range(size_a + 1) for b in range(size_b + 1)
                 if rng.random() < 0.4]
        cells += [(c, c) for c in range(0, min(size_a, size_b) + 1, 3)]  # every third
        rng.shuffle(cells)
        a, b = np.array(cells, np.intp).reshape(-1, 2).T
        got, _ = freq_owen._prefix_weights(size_a, size_b, a, b, "exact")
        assert got.tolist() == [formula(x, y) for x, y in cells], (size_a, size_b)
        assert all(type(w) is int for w in got.tolist())


def test_row_prefix_sums_either_stretch_of_the_row():
    # up from 0 when j is under a quarter of the row, else down from its
    # middle: both give the plain sum of binomials, for odd and even rows
    rng = random.Random(21)
    cases = [(t, j) for t in range(1, 80) for j in range(t // 2 + 1)]
    cases += [(t, rng.randint(0, t // 2)) for t in (2_001, 3_000, 4_097) for _ in range(4)]
    for t, j in cases:
        want = sum(math.comb(t, i) for i in range(j + 1))
        assert freq_owen._row_prefix(t, j, math.comb(t, j)) == want, (t, j)


def test_diagonal_sums_equal_the_walk_on_every_diagonal():
    # the one-row identity, exhaustively: in every box up to 30 x 30, the
    # walk's ints summed along each diagonal a - b = d (empty ones too) are
    # S(min(A, B, A - d, B + d)), over the walk's denominator
    for size_a in range(31):
        for size_b in range(31):
            a, b = (g.ravel() for g in np.indices((size_a + 1, size_b + 1)))
            walked = collections.Counter()
            for i, w in freq_owen._diagonal_walk(size_a, size_b, a, b):
                walked[int(a[i] - b[i])] += w
            top = min(size_a, size_b)
            sums, den = freq_owen._diagonal_sums(size_a, size_b, 0, top, True)
            assert den == (size_a + size_b + 1) * math.comb(size_a + size_b, size_a)
            for d in range(-size_b - 2, size_a + 3):
                j = min(size_a, size_b, size_a - d, size_b + d)
                assert (sums[j + 1] if j >= 0 else 0) == walked[d], (size_a, size_b, d)
            # a sub-range holds the same entries over the same denominator
            for lo, hi in [(top // 2, top), (0, top // 2), (top // 3, 2 * top // 3)]:
                part = freq_owen._diagonal_sums(size_a, size_b, lo, hi, True)
                assert part[0].tolist() == [0, *sums[lo + 1 : hi + 2].tolist()], (size_a, size_b)
                assert part[1] == den, (size_a, size_b, lo, hi)


def test_float_diagonal_sums_are_the_exact_ones_rounded_once():
    # box-free float weights: each exact sum over its denominator, rounded
    # once, so within 1e-12 relative of exact wherever that is a normal
    # float (the first weights of a 400 x 1,000 box are ~1e-360, and 0.0)
    for size_a, size_b in [(0, 0), (3, 9), (30, 30), (400, 1_000), (2_500, 2_500), (5_000, 20)]:
        top = min(size_a, size_b)
        exact, den = freq_owen._diagonal_sums(size_a, size_b, 0, top, True)
        approx, one = freq_owen._diagonal_sums(size_a, size_b, 0, top, False)
        assert one == 1 and approx.dtype == float
        for e, f in zip(exact.tolist(), approx.tolist()):
            assert f == float(Fraction(e, den)), (size_a, size_b)
            if Fraction(e, den) >= sys.float_info.min:
                assert relative_gap(Fraction(e, den), Fraction(f)) <= 1e-12, (size_a, size_b)


def test_a_rule_may_list_its_diagonals_in_any_order():
    # critical_set sorts them: a rule listing d = 0 before d = -1 reads
    # the same values as one listing them in d order, with a one-cell law
    # and with a law of several cells, in both modes
    class Reversed(MajorityValueFunction):
        def critical_diagonals(self, size_a, size_b, label_matches):
            diagonals = super().critical_diagonals(size_a, size_b, label_matches)
            return dict(reversed(diagonals.items()))

    rule = Reversed(Fraction(100), Fraction(-500), Fraction(0))
    assert [*rule.critical_diagonals(4, 4, True)] == [0, -1]
    assert [*freq_owen.critical_set(rule, 4, 4, True).diagonals] == [-1, 0]
    for others, own, matches in [((), (3, 4), True), (((2, 1), (0, 3)), (4, 2), False),
                                 (((5, 5), (1, 4), (3, 0)), (2, 6), True)]:
        for mode in ("float", "exact"):
            want = owen_frequency_single(others, *own, PAYOUT, matches, mode)
            assert owen_frequency_single(others, *own, rule, matches, mode) == want


def test_exact_weights_cost_no_more_binomials_on_a_larger_bin(monkeypatch):
    # a majority value reads prefix sums of one binomial row: a math.comb
    # for its term, and one for the denominator where the sums stop short of
    # min(A, B), per label class and whatever the bin's size: 3 calls here
    # (11 walking the diagonals; two per cell made 1,603 and 6,403)
    calls = [0]
    real = math.comb

    def counting(n, k):
        calls[0] += 1
        return real(n, k)

    monkeypatch.setattr(math, "comb", counting)
    counts = []
    for n in (200, 800):
        ds = Dataset(Example(i, "xy"[i % 2], bin="b0") for i in range(2 * n))
        calls[0] = 0
        shapley_frequency_report(ds, [Query(label="x", bin="b0")], PAYOUT, mode="exact")
        counts.append(calls[0])
    assert counts[0] == counts[1] <= 12, counts


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_majority_law_built_once_per_count_difference(monkeypatch, mode):
    # tallies with equal a - b leave the same multiset of a - b to the other
    # coalitions, so they share one law
    rng = random.Random(26)
    ds = Dataset(
        Example(i, rng.choice("xy"), bin="b0", coalition=f"c{rng.randrange(20)}")
        for i in range(250)
    )
    members = [[ex.label for ex in ds if ex.coalition == c] for c in set(ds.coalition_column())]
    tallies = {(labels.count("x"), labels.count("y")) for labels in members}
    diffs = {a - b for a, b in tallies}
    assert len(diffs) < len(tallies)  # else one law per tally would pass too
    calls = []
    real = freq_owen.owen_precede_distribution
    monkeypatch.setattr(
        freq_owen, "owen_precede_distribution", lambda *a: calls.append(a) or real(*a)
    )
    query = Query(label="x", bin="b0")
    owen_frequency_report(ds, [query], PAYOUT, mode=mode)
    assert len(calls) == len(diffs), (len(calls), len(diffs), len(tallies))


def test_worked_example_three_examples_two_coalitions():
    # one coalition holds a matching and a mismatching example, the other a
    # single matching one; query label matches the majority
    a1 = owen_frequency_single([(1, 0)], 0, 1, PAYOUT, True, mode="exact")
    a2 = owen_frequency_single([(1, 1)], 0, 0, PAYOUT, True, mode="exact")
    b = owen_frequency_single([(1, 0)], 1, 0, PAYOUT, False, mode="exact")
    assert (a1, a2, b) == (Fraction(175), Fraction(100), Fraction(-175))
    assert a1 + a2 + b == PAYOUT.value(2, 1) - PAYOUT.value(0, 0)


def test_single_rejects_negative_counts():
    with pytest.raises(InputError):
        owen_frequency_single([(1, 0)], -1, 0, PAYOUT, True)


# every count is an integer other than a bool; only the preceder law's own
# tallies may be negative (a rule of a - b alone passes (a - b, 0))
_NOT_INTEGERS = [True, np.True_, 2.0, 2.5, "1"]
_NOT_PAIRS = [(1,), (1, 0, 0), 3, "10", None, {0, 1}]


@pytest.mark.parametrize("bad", _NOT_INTEGERS + [-1])
def test_critical_set_refuses_what_is_not_a_box_size(bad):
    for sizes in ((bad, 2), (2, bad)):
        with pytest.raises(InputError, match=r"^\(size_a, size_b\) = .* is not a pair of non-negative"):
            freq_owen.critical_set(PAYOUT, *sizes, True)


@pytest.mark.parametrize("bad", _NOT_INTEGERS + [-1])
def test_single_refuses_what_is_not_a_count(bad):
    for args in (([(1, 0)], bad, 0), ([(1, 0)], 0, bad), ([(bad, 0)], 0, 1), ([(1, 0), (0, bad)], 0, 1)):
        with pytest.raises(InputError, match="^target or other tally .* is not a pair of non-negative"):
            owen_frequency_single(*args, PAYOUT, True, mode="exact")


@pytest.mark.parametrize("tally", _NOT_PAIRS)
def test_single_refuses_a_tally_that_is_not_a_pair(tally):
    with pytest.raises(InputError, match="^target or other tally .* is not a pair"):
        owen_frequency_single([(1, 0), tally], 0, 1, PAYOUT, True)


@pytest.mark.parametrize("bad", _NOT_INTEGERS)
def test_law_refuses_a_tally_that_is_not_integers(bad):
    for mode in ("exact", "float"):
        with pytest.raises(InputError, match=r"^other tally .* is not a pair of integers$"):
            owen_precede_distribution([(1, 0), (bad, 1)], mode)
    assert owen_precede_distribution([(-2, 0), [1, np.int64(0)]]).mass() == 1


@pytest.mark.parametrize("bad", _NOT_INTEGERS + [-1])
def test_law_refuses_pinned_or_caps_that_are_not_counts(bad):
    for kw in ({"pinned": (bad, 0)}, {"pinned": (0, bad)}, {"caps": (bad, 1)}, {"caps": (1, bad)}):
        with pytest.raises(InputError, match="^pinned or caps .* is not a pair of non-negative"):
            owen_precede_distribution([(1, 0)], **kw)


@pytest.mark.parametrize("pair", [p for p in _NOT_PAIRS if p is not None])
def test_law_refuses_what_is_not_a_pair(pair):
    with pytest.raises(InputError, match="^other tally .* is not a pair"):
        owen_precede_distribution([(1, 0), pair])
    for kw in ({"pinned": pair}, {"caps": pair}):
        with pytest.raises(InputError, match="^pinned or caps .* is not a pair"):
            owen_precede_distribution([(1, 0)], **kw)


def test_one_shot_iterables_are_read_once():
    # the count checks read an iterator up before the kernel read it: the
    # law came out as [[1]], the value as 1/2, and precede_probability
    # raised a raw TypeError
    for mode in ("exact", "float"):
        law, want = (owen_precede_distribution(t, mode) for t in (iter([(1, 0), (0, 1)]), [(1, 0), (0, 1)]))
        assert law.weights.tolist() == want.weights.tolist() and law.scale == want.scale
    vf = MajorityValueFunction(1, -1, 0)
    assert owen_frequency_single(iter([(1, 0), (0, 2)]), 1, 0, vf, True, "exact") == Fraction(7, 12)
    assert precede_probability(iter([2, 3]), iter([1, 1])) == precede_probability([2, 3], [1, 1])


def _report_values(dataset, query, vf, mode="exact"):
    return owen_frequency_report(dataset, [query], vf, mode=mode)


def test_report_matches_oracle():
    rng = random.Random(90)
    for trial in range(100):
        dataset, query, vf = random_frequency_instance(
            rng, max_n=6, with_coalitions=True, max_groups=3
        )
        game = frequency_game(dataset, query, vf)
        want = exact_owen_all(game, dataset.partition_codes()[1])
        rep = owen_frequency_report(dataset, [query], vf, mode="exact")
        assert rep.values() == want, trial


def test_coalitions_spanning_bins_match_oracle():
    # coalition g0 straddles both bins; only its in-bin part may matter
    ds = Dataset([
        Example(0, "spam", bin="b0", coalition="g0"),
        Example(1, "ham", bin="b1", coalition="g0"),
        Example(2, "spam", bin="b0", coalition="g1"),
        Example(3, "ham", bin="b0", coalition="g1"),
        Example(4, "spam", bin="b1", coalition="g2"),
    ])
    q = Query(label="spam", bin="b0")
    want = exact_owen_all(frequency_game(ds, q, PAYOUT), ds.partition_codes()[1])
    rep = owen_frequency_report(ds, [q], PAYOUT, mode="exact")
    assert rep.values() == want
    assert rep.value_of(1) == 0 and rep.value_of(4) == 0


def test_singleton_coalitions_reduce_to_shapley():
    rng = random.Random(13)
    for _ in range(25):
        dataset, query, vf = random_frequency_instance(rng, max_n=7)
        singles = Dataset(
            Example(ex.id, ex.label, bin=ex.bin, coalition=f"s{ex.id}") for ex in dataset
        )
        shap = shapley_frequency_report(dataset, [query], vf, mode="exact")
        owen = _report_values(singles, query, vf)
        assert owen.values() == shap.values()


def test_grand_coalition_reduces_to_shapley():
    rng = random.Random(14)
    for _ in range(25):
        dataset, query, vf = random_frequency_instance(rng, max_n=7)
        grand = Dataset(
            Example(ex.id, ex.label, bin=ex.bin, coalition="all") for ex in dataset
        )
        shap = shapley_frequency_report(dataset, [query], vf, mode="exact")
        owen = _report_values(grand, query, vf)
        assert owen.values() == shap.values()


def test_float_tracks_exact_through_convolution():
    rng = random.Random(15)
    for _ in range(30):
        dataset, query, vf = random_frequency_instance(
            rng, max_n=7, with_coalitions=True
        )
        exact = owen_frequency_report(dataset, [query], vf, mode="exact")
        approx = owen_frequency_report(dataset, [query], vf, mode="float")
        for i, v in exact.values().items():
            assert relative_gap(float(v), approx.value_of(i)) < 1e-9, i


def test_cache_changes_nothing():
    # values are cached across the queries of one report; a wrongly keyed
    # cache hands one query another's value, so repeated and mixed queries
    # must add up to the one-query reports, each of which starts cold
    rng = random.Random(16)
    for _ in range(20):
        dataset, query, vf = random_frequency_instance(rng, max_n=7, with_coalitions=True)
        queries = mixed_frequency_queries(rng, dataset, query)
        batch = owen_frequency_report(dataset, queries, vf, mode="exact")
        singles = [owen_frequency_report(dataset, [q], vf, mode="exact") for q in queries]
        for i in dataset.ids:
            assert batch.value_of(i) == sum(r.value_of(i) for r in singles)


def test_efficiency_per_bin():
    rng = random.Random(18)
    for _ in range(25):
        dataset, query, vf = random_frequency_instance(
            rng, max_n=7, with_coalitions=True
        )
        rep = _report_values(dataset, query, vf)
        in_bin = [ex for ex in dataset if ex.bin == query.bin]
        a = sum(1 for ex in in_bin if ex.label == query.label)
        b = len(in_bin) - a
        total = sum(rep.value_of(ex.id) for ex in in_bin)
        assert total == Fraction(vf.value(a, b)) - Fraction(vf.value(0, 0))


def test_report_carries_coalition_totals():
    ds = Dataset([
        Example(0, "spam", bin="b0", coalition="g0"),
        Example(1, "ham", bin="b0", coalition="g0"),
        Example(2, "spam", bin="b0", coalition="g1"),
    ])
    rep = _report_values(ds, Query(label="spam", bin="b0"), PAYOUT)
    got = dict(rep.coalitions)
    assert got == {
        "g0": rep.value_of(0) + rep.value_of(1),
        "g1": rep.value_of(2),
    }
