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
from divvy.errors import InputError, MissingValueError
from divvy.model import FrequencyValueFunction

from conftest import mixed_frequency_queries, random_frequency_instance, relative_gap

PAYOUT_ARGS = (Fraction(100), Fraction(-500), Fraction(0))
PAYOUT = MajorityValueFunction(*PAYOUT_ARGS)


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
                == tuple(maj.critical_cells(size_a, size_b, matches))
            ), (vals, size_a, size_b, matches)
    # a table with a default lists the cells at and one step below its
    # entries; here its entries lie inside, on the edge of and outside the
    # box, some equal to the default, and a box side may be 0
    rng = random.Random(5)
    for trial in range(300):
        size_a, size_b = rng.choice([0, rng.randint(0, 6)]), rng.choice([0, rng.randint(0, 6)])
        default = Fraction(rng.randint(-2, 2))
        cells = [(rng.randint(0, size_a + 3), rng.randint(0, size_b + 3))
                 for _ in range(rng.randint(0, 8))]
        entries = {cell: rng.choice([default, Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
                   for cell in cells}
        table = TableValueFunction(entries, default=default)
        for matches in (True, False):
            scan = FrequencyValueFunction.critical_cells(table, size_a, size_b, matches)
            assert critical_set(table, size_a, size_b, matches).entries == tuple(scan), trial


def test_table_without_default_stops_at_the_first_missing_cell():
    table = TableValueFunction({(a, b): Fraction(a - b) for a in range(3) for b in range(3)
                                if (a, b) not in ((1, 2), (2, 0))})
    with pytest.raises(MissingValueError, match=r"\(1, 2\)"):
        critical_set(table, 2, 2, True)
    with pytest.raises(MissingValueError, match=r"\(2, 0\)"):
        critical_set(table, 2, 1, True)


def _value_reads(vf_class, vf_args, half):
    """Value reads of a one-bin, one-query report on ``half`` matches and
    ``half`` mismatches, in each mode."""
    reads = [0]

    class Counting(vf_class):
        def value(self, a, b):
            reads[0] += 1
            return super().value(a, b)

    vf = Counting(*vf_args)
    dataset = Dataset(Example(i, "ab"[i % 2], bin="b") for i in range(2 * half))
    counts = []
    for mode in ("float", "exact"):
        reads[0] = 0
        shapley_frequency_report(dataset, [Query("a", bin="b")], vf, mode=mode)
        counts.append(reads[0])
    return counts


def test_critical_cells_cost_what_the_rule_holds():
    # each delta reads two values; a box scan makes 2 (A + 1)(B + 1) reads
    # per label class, here 40,400 in all at n = 200 and 4,004,000 at n = 2,000
    table = ({(1, 0): Fraction(1, 2), (2, 1): Fraction(5, 4), (1, 2): Fraction(-3, 4)},
             Fraction(0))
    for vf_class, args in ((TableValueFunction, table), (MajorityValueFunction, PAYOUT_ARGS)):
        small, large = _value_reads(vf_class, args, 100), _value_reads(vf_class, args, 1000)
        assert small == large and max(large) <= 24, (vf_class, small, large)
    # a majority rule lists its cells from its two diagonals, called directly too
    reads = [0]

    class Counting(MajorityValueFunction):
        def value(self, a, b):
            reads[0] += 1
            return super().value(a, b)

    cells = Counting(*PAYOUT_ARGS).critical_cells(1000, 1000, True)
    assert len(cells) == 2001 and reads[0] <= 4


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


def test_frequency_game_reads_the_columns(monkeypatch):
    # the game is built from the bin codes, label masks and ids alone
    cells = [("x", "b0"), ("y", "b0"), ("x", "b1"), ("x", "b0"), ("y", "b1")]
    ds = Dataset(Example(i, lab, bin=b) for i, (lab, b) in enumerate(cells))
    query = Query(label="x", bin="b0")
    want = shapley_frequency_report(ds, [query], PAYOUT, mode="exact").values()

    def no_rows(self):
        raise AssertionError("the game read Example rows")

    monkeypatch.setattr(Dataset, "examples", property(no_rows))
    game = frequency_game(ds, query, PAYOUT)
    assert game.value([0, 1, 2, 3]) == PAYOUT.value(2, 1)
    assert game.value([1, 4]) == PAYOUT.value(0, 1)
    assert exact_shapley_all(game) == want


def _one_bin(n_match, n_mismatch):
    labels = ["x"] * n_match + ["y"] * n_mismatch
    return Dataset(Example(i, s, bin="b0") for i, s in enumerate(labels))


def test_float_tracks_exact():
    # a one-query float value is the exact one rounded once, bit for bit
    rng = random.Random(41)
    cases = [random_frequency_instance(rng, max_n=7) for _ in range(50)]
    query = Query(label="x", bin="b0")
    cases.append((_one_bin(2000, 2000), query, PAYOUT))
    decimal = {(0, 0): Fraction("0.1"), (1, 0): Fraction("0.35"), (3, 2): Fraction("-1.7"),
               (7, 4): Fraction("2.05"), (12, 9): Fraction("0.3")}
    cases.append((_one_bin(15, 11), query, TableValueFunction(decimal, default=Fraction("0.2"))))
    for dataset, query, vf in cases:
        exact = shapley_frequency_report(dataset, [query], vf, mode="exact")
        approx = shapley_frequency_report(dataset, [query], vf, mode="float")
        for i, v in exact.values().items():
            assert approx.value_of(i) == float(v), (len(dataset), i)


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
    for r, i in enumerate(dataset.ids):
        assert rep.value_of(i) == sum(column[r] for column in rep.per_query)


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
        dataset, queries, PAYOUT, mode="float"
    )
    assert example_count() <= before
    assert len(shapley.values()) == len(owen.values()) == 300
