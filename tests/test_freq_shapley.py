"""Frequency-rule Shapley values against enumeration and the game axioms."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divvy import (
    BinTally,
    Dataset,
    Example,
    MajorityValueFunction,
    Query,
    TableValueFunction,
    critical_set,
    delta_value,
    exact_shapley_all,
    frequency_game,
    owen_frequency_report,
    precede_probability,
    shapley_frequency_report,
    shapley_frequency_single,
    tally_bin,
)
from divvy.errors import InputError

from conftest import mixed_frequency_queries, random_frequency_instance, relative_gap

PAYOUT = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))


def test_worked_example_majority_bin():
    # bin holds two matching examples and one mismatching one
    tally = BinTally(2, 1)
    m = shapley_frequency_single(tally, PAYOUT, True, mode="exact")
    x = shapley_frequency_single(tally, PAYOUT, False, mode="exact")
    assert m == Fraction(150)
    assert x == Fraction(-200)
    # the bin's payouts account exactly for its value over the empty bin
    assert 2 * m + x == PAYOUT.value(2, 1) - PAYOUT.value(0, 0)


def test_worked_example_float_mode():
    tally = BinTally(2, 1)
    m = shapley_frequency_single(tally, PAYOUT, True, mode="float")
    x = shapley_frequency_single(tally, PAYOUT, False, mode="float")
    assert relative_gap(m, 150.0) < 1e-9
    assert relative_gap(x, -200.0) < 1e-9


def test_tally_must_contain_the_example():
    with pytest.raises(InputError):
        shapley_frequency_single(BinTally(0, 3), PAYOUT, True, mode="exact")


def test_critical_set_majority_diagonals():
    cs = critical_set(PAYOUT, 1, 1, True)
    assert cs.entries == (
        (0, 0, Fraction(100)),       # tie -> winning majority
        (0, 1, Fraction(500)),       # losing minority -> tie
        (1, 1, Fraction(100)),
    )
    cs = critical_set(PAYOUT, 1, 1, False)
    assert cs.entries == (
        (0, 0, Fraction(-500)),      # tie -> losing minority
        (1, 0, Fraction(-100)),      # winning majority -> tie
        (1, 1, Fraction(-500)),
    )


def _per_pair_single(size_a, size_b, vf, matches):
    """The exact value as one precedence probability per count pair of the
    whole box, each times its delta: the reference for the integer sum."""
    return sum(
        precede_probability((size_a, size_b), (a, b), "exact")
        * Fraction(delta_value(vf, a, b, matches))
        for a in range(size_a + 1)
        for b in range(size_b + 1)
    )


_money = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def _value_functions(draw, size_a, size_b):
    """A majority rule or a table over the box (plus its edge), either with
    fractional values."""
    if draw(st.booleans()):
        return MajorityValueFunction(draw(_money), draw(_money), draw(_money))
    cells = [(a, b) for a in range(size_a + 2) for b in range(size_b + 2)]
    entries = {cell: draw(_money) for cell in cells if draw(st.booleans())}
    return TableValueFunction(entries, default=draw(_money))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.booleans(), st.data())
def test_exact_single_equals_the_per_pair_sum(size_a, size_b, matches, data):
    # size_a or size_b of 0 leaves one class of the bin empty
    vf = data.draw(_value_functions(size_a, size_b))
    tally = BinTally(size_a + matches, size_b + (not matches))
    got = shapley_frequency_single(tally, vf, matches, mode="exact")
    assert isinstance(got, Fraction)
    assert got == _per_pair_single(size_a, size_b, vf, matches)


def test_critical_set_fast_path_equals_full_scan():
    # spell the same majority rule out as a table, which forces the
    # quadratic scan, and compare entry for entry
    rng = random.Random(2)
    for _ in range(20):
        vals = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        maj = MajorityValueFunction(*vals)
        size_a, size_b = rng.randint(0, 6), rng.randint(0, 6)
        table = TableValueFunction({
            (a, b): maj.value(a, b)
            for a in range(size_a + 2)
            for b in range(size_b + 2)
        })
        for matches in (True, False):
            assert (
                critical_set(maj, size_a, size_b, matches).entries
                == critical_set(table, size_a, size_b, matches).entries
            ), (vals, size_a, size_b, matches)


def test_critical_set_drops_zero_deltas():
    flat = TableValueFunction({}, default=Fraction(7))
    assert critical_set(flat, 5, 5, True).entries == ()


def test_single_values_match_oracle():
    rng = random.Random(33)
    for trial in range(200):
        dataset, query, vf = random_frequency_instance(rng, max_n=6)
        game = frequency_game(dataset, query, vf)
        want = exact_shapley_all(game)
        rep = shapley_frequency_report(dataset, [query], vf, mode="exact")
        assert rep.values() == want, trial


def test_float_tracks_exact():
    rng = random.Random(41)
    for _ in range(50):
        dataset, query, vf = random_frequency_instance(rng, max_n=7)
        exact = shapley_frequency_report(dataset, [query], vf, mode="exact")
        approx = shapley_frequency_report(dataset, [query], vf, mode="float")
        for i, v in exact.values().items():
            assert relative_gap(float(v), approx.value_of(i)) < 1e-9


def test_efficiency_null_and_symmetry():
    rng = random.Random(55)
    for _ in range(40):
        dataset, query, vf = random_frequency_instance(rng, max_n=7)
        rep = shapley_frequency_report(dataset, [query], vf, mode="exact")
        tally = tally_bin(dataset, query.bin, query.label)
        in_bin = [ex for ex in dataset if ex.bin == query.bin]
        # efficiency: the bin's members account for its value over emptiness
        total = sum(rep.value_of(ex.id) for ex in in_bin)
        assert total == Fraction(vf.value(tally.n_match, tally.n_mismatch)) - Fraction(vf.value(0, 0))
        # null: examples outside the bin never move the value
        for ex in dataset:
            if ex.bin != query.bin:
                assert rep.value_of(ex.id) == 0
        # symmetry: same bin and label class, same payout
        for ex in in_bin:
            for ey in in_bin:
                if (ex.label == query.label) == (ey.label == query.label):
                    assert rep.value_of(ex.id) == rep.value_of(ey.id)


def test_repeated_query_doubles_totals():
    ds = Dataset([
        Example(0, "spam", bin="b0"),
        Example(1, "spam", bin="b0"),
        Example(2, "ham", bin="b0"),
    ])
    q = Query(label="spam", bin="b0")
    once = shapley_frequency_report(ds, [q], PAYOUT, mode="exact")
    twice = shapley_frequency_report(ds, [q, q], PAYOUT, mode="exact")
    for i in ds.ids:
        assert twice.value_of(i) == 2 * once.value_of(i)
    assert twice.query_count == 2


def test_cache_changes_nothing():
    # values are cached across the queries of one report; a wrongly keyed
    # cache hands one query another's value, so repeated and mixed queries
    # must add up to the one-query reports, each of which starts cold
    rng = random.Random(6)
    for _ in range(20):
        dataset, query, vf = random_frequency_instance(rng, max_n=7)
        queries = mixed_frequency_queries(rng, dataset, query)
        batch = shapley_frequency_report(dataset, queries, vf, mode="exact")
        singles = [shapley_frequency_report(dataset, [q], vf, mode="exact") for q in queries]
        for i in dataset.ids:
            assert batch.value_of(i) == sum(r.value_of(i) for r in singles)


def test_per_query_rows_sum_to_totals():
    rng = random.Random(19)
    dataset, q1, vf = random_frequency_instance(rng, max_n=7)
    q2 = Query(label=q1.label, bin=sorted(dataset.bins())[0])
    rep = shapley_frequency_report(dataset, [q1, q2], vf, mode="exact", per_query=True)
    assert len(rep.per_query) == 2
    for i in dataset.ids:
        assert rep.value_of(i) == sum(row[i] for row in rep.per_query)


def test_per_query_value_function_override():
    ds = Dataset([Example(0, "spam", bin="b0"), Example(1, "ham", bin="b0")])
    generous = MajorityValueFunction(Fraction(1000), Fraction(0), Fraction(0))
    q_plain = Query(label="spam", bin="b0")
    q_override = Query(label="spam", bin="b0", value_function=generous)
    rep = shapley_frequency_report(ds, [q_plain], PAYOUT, mode="exact")
    rep_o = shapley_frequency_report(ds, [q_override], PAYOUT, mode="exact")
    assert rep_o.value_of(0) == shapley_frequency_single(BinTally(1, 1), generous, True, "exact")
    assert rep.value_of(0) != rep_o.value_of(0)


def test_unknown_query_bin_is_an_error():
    ds = Dataset([Example(0, "spam", bin="b0")])
    with pytest.raises(InputError, match="unknown"):
        shapley_frequency_report(ds, [Query(label="spam", bin="nope")], PAYOUT)


def test_missing_bin_is_reported_when_a_query_runs():
    ds = Dataset([Example(0, "spam", bin="b0"), Example(7, "ham")])
    empty = shapley_frequency_report(ds, [], PAYOUT, mode="exact")
    assert empty.values() == {0: 0, 7: 0} and empty.query_count == 0
    # the missing bin is named before a third label or an unknown bin
    for query in (Query(label="spam", bin="b0"), Query(label="eggs", bin="nope")):
        with pytest.raises(InputError, match=r"^examples \[7\] have no bin; frequency methods need one$"):
            shapley_frequency_report(ds, [query], PAYOUT, mode="exact")
    whole = Dataset([Example(0, "spam", bin="b0"), Example(7, "ham", bin="b0")])
    with pytest.raises(InputError, match="third symbol"):
        shapley_frequency_report(whole, [Query(label="eggs", bin="nope")], PAYOUT)


def test_parsed_frequency_dataset_builds_no_example_rows(tmp_path):
    # Both frequency reports read the bin codes and label masks of a parsed
    # dataset, so no Example row view is made for it.
    from divvy.io import parse_dataset

    rng = random.Random(71)
    path = tmp_path / "d.csv"
    path.write_text("id,bin,label,coalition\n" + "".join(
        f"{i},b{rng.randrange(4)},{rng.choice(['spam', 'ham'])},g{rng.randrange(5)}\n"
        for i in range(300)
    ))
    queries = [Query(label="spam", bin="b1"), Query(label="ham", bin="b3")]

    def example_count():
        gc.collect()
        return sum(isinstance(o, Example) for o in gc.get_objects())

    before = example_count()
    dataset = parse_dataset(path, "frequency")
    shapley = shapley_frequency_report(dataset, queries, PAYOUT, mode="exact")
    owen = owen_frequency_report(
        dataset, dataset.coalition_structure(), queries, PAYOUT, mode="float"
    )
    assert example_count() <= before
    assert len(shapley.values()) == len(owen.values()) == 300
