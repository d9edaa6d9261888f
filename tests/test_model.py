"""Dataset plumbing, value functions, rankings and subset votes."""

import dataclasses
import gc
import random
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from divvy import (
    BinTally,
    Dataset,
    Example,
    KnnConfig,
    MajorityValueFunction,
    OutcomeValues,
    Query,
    TableValueFunction,
    delta_value,
    knn_change_values_all,
    knn_creation_value,
    knn_owen_change,
    knn_owen_creation,
    knn_subset_value,
    rank_by_distance,
    tally_bin,
)
from divvy.errors import ConfigError, InputError, MissingValueError
from divvy.model import _squared_distances, to_money


def _freq_dataset():
    return Dataset([
        Example(0, "spam", bin="b0"),
        Example(1, "spam", bin="b0"),
        Example(2, "ham", bin="b0"),
        Example(3, "ham", bin="b1"),
    ])


def test_dataset_basics():
    ds = _freq_dataset()
    assert len(ds) == 4
    assert ds.ids == [0, 1, 2, 3]
    assert ds.bins() == {"b0", "b1"}
    assert [ex.id for ex in ds.by_bin("b0")] == [0, 1, 2]


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(InputError):
        Dataset([Example(1, "a", bin="x"), Example(1, "b", bin="x")])


def test_dataset_rejects_third_label():
    with pytest.raises(InputError, match="third symbol"):
        Dataset([
            Example(0, "a", bin="x"),
            Example(1, "b", bin="x"),
            Example(2, "c", bin="x"),
        ])


def test_a_third_label_is_refused_whatever_its_text():
    # labels were told apart by their text, so 1, "1" and 2 built a dataset
    # of three symbols, and the third one's code ran into the next bin's key
    with pytest.raises(InputError, match="^example 2: labels must be binary; found a third symbol 2$"):
        Dataset([Example(0, 1, bin="b"), Example(1, "1", bin="b"), Example(2, 2, bin="b")])


def test_query_label_must_not_be_a_third_symbol():
    ds = _freq_dataset()
    ds.check_query_label("spam")
    with pytest.raises(InputError, match="third symbol"):
        ds.check_query_label("eggs")
    # a one-label dataset still accepts any second symbol
    one = Dataset([Example(0, "a", bin="x")])
    one.check_query_label("b")


def test_example_rejects_negative_id():
    with pytest.raises(InputError):
        Example(-1, "a", bin="x")


def test_example_rejects_a_bool_id():
    # True is not id 1, as a coalition file may not name it either
    for flag in (True, False):
        with pytest.raises(InputError, match="example id must be an integer"):
            Example(flag, "a", bin="x")
    assert Example(np.int64(1), "a").id == 1


# a payout must be a finite real number: no NaN or infinity, no bool or text
_NOT_AMOUNTS = [float("nan"), float("inf"), -float("inf"), np.float64("nan"), True, "1", None]
_AMOUNTS = [Fraction(10**400, 3), 2.5, np.float64(-1.0), np.int64(3), 0]


@pytest.mark.parametrize("bad", _NOT_AMOUNTS)
def test_outcome_values_refuse_what_is_not_an_amount(bad):
    for pos in range(3):
        args = [1, -1, 0]
        args[pos] = bad
        with pytest.raises(InputError, match=r"^outcome value \w+ must be a finite number"):
            OutcomeValues(*args)
    assert OutcomeValues(*_AMOUNTS[:3]).as_fractions().correct == Fraction(10**400, 3)


@pytest.mark.parametrize("bad", _NOT_AMOUNTS)
def test_majority_value_function_refuses_what_is_not_an_amount(bad):
    for pos in range(3):
        args = [100, -500, 0]
        args[pos] = bad
        with pytest.raises(InputError, match=r"^majority value \w+ must be a finite number"):
            MajorityValueFunction(*args)
    assert MajorityValueFunction(*_AMOUNTS[2:]).value(1, 0) == -1


@pytest.mark.parametrize("bad", _NOT_AMOUNTS)
def test_table_value_function_refuses_what_is_not_an_amount(bad):
    with pytest.raises(InputError, match=r"^table value of \(1, 0\) must be a finite number"):
        TableValueFunction({(0, 0): 0, (1, 0): bad})
    if bad is not None:  # None is no default
        with pytest.raises(InputError, match="^table default must be a finite number"):
            TableValueFunction({(0, 0): 0}, default=bad)
    table = TableValueFunction({(a, 0): v for a, v in enumerate(_AMOUNTS)}, default=_AMOUNTS[0])
    assert table.value(4, 0) == 0 and table.value(0, 1) == _AMOUNTS[0]


def test_require_bins_and_features():
    ds = Dataset([Example(0, "a"), Example(1, "b")])
    with pytest.raises(InputError, match="bin"):
        ds.require_bins()
    with pytest.raises(InputError, match="features"):
        ds.feature_matrix()
    ragged = Dataset([
        Example(0, "a", features=(1.0,)),
        Example(1, "b", features=(1.0, 2.0)),
    ])
    with pytest.raises(InputError, match="ragged"):
        ragged.feature_matrix()


def test_partition_codes_from_dataset():
    ds = Dataset([
        Example(0, "a", bin="x", coalition="g0"),
        Example(1, "b", bin="x", coalition="g1"),
        Example(2, "a", bin="x", coalition="g0"),
    ])
    names, codes = ds.partition_codes()
    assert names == ("g0", "g1") and codes.tolist() == [0, 1, 0]
    assert ds.coalition_column() == ["g0", "g1", "g0"]
    # a coalition id is coded by hashing it, so a list is refused by its example
    with pytest.raises(InputError, match=r"example 0 has an unhashable coalition id \['a'\]"):
        Dataset([Example(0, "x", coalition=["a"])])


def test_partition_codes_need_full_cover():
    ds = Dataset([Example(0, "a", bin="x", coalition="g0"), Example(1, "b", bin="x")])
    assert ds.coalition_codes()[1].tolist() == [0, -1]
    with pytest.raises(InputError, match=r"examples \[1\] carry no coalition id"):
        ds.partition_codes()


def test_majority_value_function():
    vf = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))
    assert vf.value(2, 1) == 100
    assert vf.value(1, 2) == -500
    assert vf.value(0, 0) == 0
    assert vf.value(3, 3) == 0
    with pytest.raises(InputError):
        vf.value(-1, 0)


def test_table_value_function():
    vf = TableValueFunction({(0, 0): Fraction(0), (1, 0): Fraction(7)})
    assert vf.value(1, 0) == 7
    with pytest.raises(MissingValueError):
        vf.value(2, 2)
    with_default = TableValueFunction({(0, 0): Fraction(0)}, default=Fraction(-1))
    assert with_default.value(5, 5) == -1
    with pytest.raises(InputError, match=r"v\(0, 0\)"):
        TableValueFunction({(1, 0): Fraction(1)})


@pytest.mark.parametrize("key", [(-1, 0), (0, -2), (1.0, 0), (True, 0), ("1", 0), (1,), (0, 0, 0), 3])
def test_table_keys_must_be_count_pairs(key):
    # the critical cells of a table with a default are read off its keys, so
    # a key no count pair can reach is refused up front, default or not
    for default in (Fraction(0), None):
        with pytest.raises(InputError, match="not a pair of non-negative integers"):
            TableValueFunction({(0, 0): Fraction(0), key: Fraction(1)}, default=default)
    assert TableValueFunction({(np.int64(2), 1): Fraction(1)}, Fraction(0)).value(2, 1) == 1


def test_delta_value_is_a_difference():
    vf = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))
    assert delta_value(vf, 1, 1, True) == vf.value(2, 1) - vf.value(1, 1)
    assert delta_value(vf, 1, 1, False) == vf.value(1, 2) - vf.value(1, 1)


def test_tally_bin():
    ds = _freq_dataset()
    t = tally_bin(ds, "b0", "spam")
    assert (t.n_match, t.n_mismatch, t.n) == (2, 1, 3)
    t = tally_bin(ds, "b1", "spam")
    assert (t.n_match, t.n_mismatch) == (0, 1)
    assert tally_bin(ds, "nowhere", "spam").n == 0
    with pytest.raises(InputError):
        BinTally(-1, 0)


@pytest.mark.parametrize("bad", [True, np.True_, 2.0, 2.5, "1", -1])
def test_tallies_and_value_functions_refuse_what_is_not_a_count(bad):
    for pair in ((bad, 0), (0, bad)):
        with pytest.raises(InputError, match=r"^\(n_match, n_mismatch\) = .* is not a pair of non-neg"):
            BinTally(*pair)
        for vf in (MajorityValueFunction(1, -1, 0), TableValueFunction({(0, 0): 0}, default=1)):
            with pytest.raises(InputError, match=r"^\(a, b\) = .* is not a pair of non-negative"):
                vf.value(*pair)
    assert BinTally(np.int64(2), np.uint8(1)).n == 3


def test_unhashable_labels_and_bins_are_refused():
    # each is coded by hashing it, as a coalition id is, and refused by its owner
    with pytest.raises(InputError, match=r"^example 4 has an unhashable label \['a'\]$"):
        Dataset([Example(3, "a"), Example(4, ["a"])])
    with pytest.raises(InputError, match=r"^example 4 has an unhashable bin \['b'\]$"):
        Dataset([Example(3, "a", bin="b"), Example(4, "a", bin=["b"])])
    one_label = Dataset([Example(3, "a", bin="b", features=(0.0,))])
    for query, what in ((Query(["a"], bin="b"), r"label \['a'\]"), (Query("a", bin=["b"]), r"bin \['b'\]")):
        with pytest.raises(InputError, match=rf"^query has an unhashable {what}$"):
            one_label.query_bin_code(query)
    with pytest.raises(InputError, match=r"^query has an unhashable label \['a'\]$"):
        rank_by_distance(one_label, (0.0,), ["a"])


def test_tally_bin_matches_a_brute_force_count():
    rng = random.Random(29)
    for _ in range(100):
        labels = rng.choice([("a", "b"), ("a",), (0, 1)])
        bins = rng.sample(["x", "y", 3, (1, 2)], rng.randint(1, 4))
        ds = Dataset([
            Example(i, rng.choice(labels), bin=rng.choice(bins))
            for i in rng.sample(range(100), rng.randint(1, 30))
        ])
        assert ds.bins() == {ex.bin for ex in ds}
        for b in bins + ["unknown"]:  # an unknown bin tallies (0, 0)
            assert ds.by_bin(b) == [ex for ex in ds if ex.bin == b]
            for lab in ("a", "b", 0, 1):
                if lab not in labels and len(labels) == 2:
                    continue  # a third symbol
                t = tally_bin(ds, b, lab)
                in_bin = [ex.label for ex in ds if ex.bin == b]
                want = (in_bin.count(lab), len(in_bin) - in_bin.count(lab))
                assert (t.n_match, t.n_mismatch) == want


def test_knn_config_validation():
    ov = OutcomeValues(1, -1, 0)
    KnnConfig(5, ov)
    with pytest.raises(ConfigError, match="odd"):
        KnnConfig(4, ov)
    with pytest.raises(ConfigError):
        KnnConfig(0, ov)
    # distances are Euclidean: a configuration holds no metric to choose
    assert [f.name for f in dataclasses.fields(KnnConfig)] == ["k", "outcome_values"]


def test_knn_config_refuses_a_bool_k():
    for flag in (True, False):  # True is not k = 1
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            KnnConfig(flag, OutcomeValues(1, -1, 0))
    assert KnnConfig(np.int64(3), OutcomeValues(1, -1, 0)).k == 3


@pytest.mark.parametrize("k, message", [
    (True, "k must be a positive integer"), (3.0, "k must be a positive integer"),
    (0, "k must be a positive integer"), (2, "k must be odd")])
def test_every_k_entry_point_refuses_a_bad_k(k, message):
    # one rule for the config, the subset vote and the term API: True is not
    # k = 1, 3.0 is not 3, and 0 is not merely even
    ov = OutcomeValues(1, -1, 0)
    ranking = rank_by_distance(Dataset([Example(0, "a", features=(0.0,)),
                                        Example(1, "b", features=(1.0,))]), (0.2,), "a")
    for call in (lambda: KnnConfig(k, ov),
                 lambda: knn_subset_value([0], ranking, k, ov),
                 lambda: knn_creation_value(2, 0, True, k, ov),
                 lambda: knn_change_values_all(ranking, k, ov),
                 lambda: knn_owen_creation(ranking, [0, 1], 0, k, ov),
                 lambda: knn_owen_change(ranking, [0, 1], 0, k, ov)):
        with pytest.raises(ConfigError, match=message):
            call()


def test_rank_by_distance_orders_and_breaks_ties_by_id():
    ds = Dataset([
        Example(5, "a", features=(2.0, 0.0)),
        Example(1, "b", features=(1.0, 0.0)),
        Example(3, "a", features=(1.0, 0.0)),   # tied with id 1
        Example(0, "b", features=(9.0, 0.0)),
    ])
    r = rank_by_distance(ds, (0.0, 0.0), "a")
    assert list(r.ordering) == [1, 3, 5, 0]
    assert list(r.matches) == [False, True, True, False]
    assert list(r.prefix_match) == [0, 0, 1, 2]
    assert list(r.prefix_mismatch) == [0, 1, 1, 1]
    assert r.position_of(5) == 2
    with pytest.raises(InputError):
        r.position_of(42)


def test_rank_by_distance_matches_distance_then_id_order():
    # ties must come out ordered by ascending id, whatever the dataset
    # order; a non-finite feature, the dataset's or the query's, is refused
    rng = random.Random(11)
    for grid in (2, 3, 1000):
        feats = {
            i: (float(rng.randrange(grid)), float(rng.randrange(grid)))
            for i in rng.sample(range(500), 60)
        }
        ds = Dataset([Example(i, "a", features=f) for i, f in feats.items()])
        r = rank_by_distance(ds, (0.5, 0.0), "a")
        dist = {i: (x - 0.5) ** 2 + y ** 2 for i, (x, y) in feats.items()}
        assert r.ordering.tolist() == sorted(feats, key=lambda i: (dist[i], i))
    ds = Dataset([
        Example(2, "a", features=(1.0,)),
        Example(4, "a", features=(float("nan"),)),
        Example(0, "a", features=(float("-inf"),)),
    ])
    with pytest.raises(InputError, match=r"^example 4 has a non-finite feature \(nan,\)$"):
        rank_by_distance(ds, (0.0,), "a")
    finite = Dataset([Example(2, "a", features=(1.0,)), Example(0, "a", features=(3.0,))])
    for q in ((float("nan"),), (float("inf"),)):
        with pytest.raises(InputError, match="query features must be finite"):
            rank_by_distance(finite, q, "a")


@pytest.mark.parametrize("feature", ["x", 1j, [1], None, True, np.True_, " 2 ", Decimal("1")])
def test_a_feature_that_is_not_a_real_number_is_refused(feature):
    # text, a complex number, a nested list (it built a (1, 1, 1) matrix),
    # None (it was called non-finite), a bool and numeric text (each was
    # read as a float) and a Decimal (as amounts refuse it) are refused by
    # the example or the query
    ds = Dataset([Example(3, "a", features=(1.0,)), Example(7, "b", features=(feature,))])
    message = f"^example 7 has a feature that is not a real number: {re.escape(repr(feature))}$"
    with pytest.raises(InputError, match=message):
        ds.feature_matrix()
    with pytest.raises(InputError, match=message):
        rank_by_distance(ds, (0.0,), "a")
    finite = Dataset([Example(3, "a", features=(1.0, 2.0))])
    with pytest.raises(InputError, match="^query has a feature that is not a real number"):
        rank_by_distance(finite, (0.0, feature), "a")


@pytest.mark.parametrize("feature", [10**400, Fraction(10**400, 3), -10**5000],
                         ids=["int", "fraction", "int-of-5001-digits"])
def test_a_feature_beyond_float_range_is_refused(feature):
    # each raised a raw OverflowError from the float conversion; an int of
    # 5,001 digits has no text under the default limit, so none is shown
    ds = Dataset([Example(3, "a", features=(1.0,)), Example(7, "b", features=(feature,))])
    with pytest.raises(InputError, match="^example 7 has a feature beyond float range$"):
        ds.feature_matrix()
    finite = Dataset([Example(3, "a", features=(1.0, 2.0))])
    with pytest.raises(InputError, match="^query has a feature beyond float range$"):
        rank_by_distance(finite, (0.0, feature), "a")


def test_features_that_are_not_a_sequence_are_refused():
    with pytest.raises(InputError, match=r"^example 7 has features 5, not a sequence$"):
        Dataset([Example(7, "a", features=5)]).feature_matrix()


@pytest.mark.parametrize("query, message", [
    (None, "no features; k-NN methods need them"),
    (5, "features 5, not a sequence"),
    ("1", "a feature that is not a real number: '1'"),
    ((True,), "a feature that is not a real number: True"),
])
def test_query_features_must_be_a_sequence_of_real_numbers(query, message):
    # None and 5 raised a raw TypeError; "1" and (True,) ran as (1.0,)
    ds = Dataset([Example(3, "a", features=(1.0,))])
    with pytest.raises(InputError, match=f"^query has {re.escape(message)}$"):
        rank_by_distance(ds, query, "a")


def test_rank_by_distance_survives_overflowing_squares():
    # squares of finite features beyond ~1e154 overflow binary64; the
    # ranking must still follow the true distances, and warn of nothing
    one_d = Dataset([
        Example(0, "a", features=(2e200,)),
        Example(1, "a", features=(1e200,)),
        Example(2, "a", features=(-3.0,)),
    ])
    two_d = Dataset([
        Example(0, "a", features=(1e200, 1e200)),
        Example(1, "a", features=(1e200, 0.0)),
        Example(2, "a", features=(0.0, 5.0)),
        Example(3, "a", features=(-1e300, 0.0)),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_by_distance(one_d, (0.0,), "a").ordering.tolist() == [2, 1, 0]
        assert rank_by_distance(two_d, (0.0, 0.0), "a").ordering.tolist() == [2, 1, 0, 3]


def _squared_row_sums(rows, q):
    """numpy's row sum of the squared differences as a Fortran-ordered
    matrix, the layout of ``feature_matrix()``: added in column order."""
    return np.asfortranarray((np.asfortranarray(rows) - q) ** 2).sum(axis=1)


def _row_sum_distances(rows, q):
    """Euclidean distances from ``_squared_row_sums``, with the
    power-of-two rescale of rows whose squares overflow."""
    with np.errstate(over="ignore"):
        dist = np.sqrt(_squared_row_sums(rows, q))
        far = ~np.isfinite(dist)
        if far.any():
            _, e = np.frexp(max(np.abs(rows[far]).max(), np.abs(q).max()))
            dist[far] = np.ldexp(np.sqrt(_squared_row_sums(np.ldexp(rows[far], -e), np.ldexp(q, -e))), e)
    return dist


def _rank_spying(monkeypatch, ds, q):
    """``rank_by_distance(ds, q, "a")``, the distances it sorted, and
    whether ties sent it to the lexsort fallback."""
    ds.feature_matrix()  # built before numpy is watched
    seen = {}

    def spy(name):
        real = getattr(np, name)

        def call(keys, *args, **kwargs):
            seen[name] = keys[-1] if name == "lexsort" else keys
            return real(keys, *args, **kwargs)
        return call

    with monkeypatch.context() as m:
        m.setattr(np, "argsort", spy("argsort"))
        m.setattr(np, "lexsort", spy("lexsort"))
        ranking = rank_by_distance(ds, q, "a")
    return ranking, seen["argsort"], "lexsort" in seen


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300])
def test_column_kernel_keeps_the_row_sum_bits(monkeypatch, d):
    # columns of scales 1e-6 .. 1e6, so the order of the adds shows in the bits
    rng = np.random.default_rng(d)
    rows = rng.normal(size=(40, d)) * 10.0 ** rng.integers(-6, 7, size=d)
    q = rng.normal(size=d) * 10.0 ** rng.integers(-6, 7, size=d)
    want = _squared_row_sums(rows, q)
    got = _squared_distances(np.asfortranarray(rows), q)
    assert got.tobytes() == want.tobytes()
    if d < 8:  # a C-ordered row sum adds in sequence too, so the parent's bits stay
        assert got.tobytes() == ((rows - q) ** 2).sum(axis=1).tobytes()
    ids = rng.permutation(1000)[:40]
    ds = Dataset([Example(int(i), "a", features=tuple(r)) for i, r in zip(ids, rows.tolist())])
    ranking, dist, tied = _rank_spying(monkeypatch, ds, tuple(q))
    assert dist.tobytes() == np.sqrt(want).tobytes() and not tied
    assert ranking.ordering.tolist() == ids[np.lexsort((ids, want))].tolist()


@pytest.mark.parametrize("d", [16, 300])
def test_squared_distances_hold_one_distance_vector_and_one_scratch_column(d):
    # partial sums per lane held 9 n-vectors at 16 features and 11 at 300.
    # The kernel reads only columns, so a window view over n + d - 1 numbers
    # stands in for an n x d matrix of distinct contiguous columns
    n = 100_000
    feats = np.lib.stride_tricks.sliding_window_view(np.random.default_rng(d).normal(size=n + d - 1), d)
    assert feats.shape == (n, d) and feats[:, d - 1].flags.c_contiguous
    q = np.random.default_rng(d + 1).normal(size=d)
    tracemalloc.start()
    try:
        _squared_distances(feats, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * n


def test_ranking_leaves_no_reference_cycle():
    # a cycle would hold the query's n-sized scratch arrays until the cyclic
    # collector ran, so a loop of queries would grow the heap by one per query
    rng = np.random.default_rng(3)
    for d in (4, 300):
        rows = rng.normal(size=(50, d)).tolist()
        ds = Dataset([Example(i, "a", features=tuple(r)) for i, r in enumerate(rows)])
        rank_by_distance(ds, tuple(rng.normal(size=d)), "a")
        gc.collect()
        gc.disable()
        try:
            rank_by_distance(ds, tuple(rng.normal(size=d)), "a")
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_overflow_rescale_gives_the_row_sum_distances(monkeypatch):
    rng = np.random.default_rng(5)
    for d in (1, 2, 9):
        rows = rng.normal(size=(30, d)) * np.where(rng.random((30, 1)) < 0.5, 1e200, 1.0)
        q = rng.normal(size=d) * 1e199
        ds = Dataset([Example(i, "a", features=tuple(r)) for i, r in enumerate(rows.tolist())])
        _, dist, _ = _rank_spying(monkeypatch, ds, tuple(q))
        want = _row_sum_distances(rows, q)
        assert np.isfinite(want).all() and dist.tobytes() == want.tobytes()


def test_tied_distances_take_the_lexsort_fallback(monkeypatch):
    ds = Dataset([Example(i, "a", features=(float(i % 3), 1.0)) for i in (5, 2, 8, 0, 4)])
    ranking, dist, tied = _rank_spying(monkeypatch, ds, (0.0, 1.0))
    assert tied and ranking.ordering.tolist() == [0, 4, 2, 5, 8]
    apart = Dataset([Example(i, "a", features=(float(i), 1.0)) for i in (5, 2, 8)])
    assert not _rank_spying(monkeypatch, apart, (0.0, 1.0))[2]


def test_feature_matrix_is_column_major_and_built_once():
    ds = Dataset([Example(i, "a", features=(float(i), -1.0, 2.0)) for i in range(5)])
    feats = ds.feature_matrix()
    assert feats.flags.f_contiguous and not feats.flags.c_contiguous
    assert feats.tolist() == [[float(i), -1.0, 2.0] for i in range(5)]
    assert ds.feature_matrix() is feats
    assert ds.with_coalition_codes(("g",), np.zeros(5, np.intp)).feature_matrix() is feats


def test_rank_by_distance_prefix_counts_sum_to_position():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 30)
        ds = Dataset([
            Example(i, rng.choice("xy"), features=(rng.random(), rng.random()))
            for i in range(n)
        ])
        r = rank_by_distance(ds, (rng.random(), rng.random()), "x")
        total = r.prefix_match + r.prefix_mismatch
        assert np.array_equal(total, np.arange(n))


def test_rank_by_distance_dimension_mismatch():
    ds = Dataset([Example(0, "a", features=(0.0, 1.0))])
    with pytest.raises(InputError, match="features"):
        rank_by_distance(ds, (0.0,), "a")


def test_knn_subset_value_votes():
    ds = Dataset([
        Example(0, "a", features=(0.0,)),
        Example(1, "b", features=(1.0,)),
        Example(2, "a", features=(2.0,)),
    ])
    r = rank_by_distance(ds, (0.0,), "a")
    ov = OutcomeValues(Fraction(10), Fraction(-10), Fraction(1))
    assert knn_subset_value([], r, 1, ov) == 1
    assert knn_subset_value([1], r, 1, ov) == -10
    assert knn_subset_value([0, 1], r, 1, ov) == 10
    assert knn_subset_value([0, 1, 2], r, 3, ov) == 10
    assert knn_subset_value([0, 1], r, 3, ov) == 1, "two voters cannot fill k=3"
    with pytest.raises(ConfigError):
        knn_subset_value([0], r, 2, ov)


def test_outcome_values_as_fractions():
    ov = OutcomeValues(0.5, -1, 2).as_fractions()
    assert ov.correct == Fraction(1, 2)
    assert isinstance(ov.wrong, Fraction)


def test_to_money_modes():
    assert to_money(0.5, "exact") == Fraction(1, 2)
    assert isinstance(to_money(Fraction(1, 3), "float"), float)
    assert to_money(Fraction(1, 2), "exact") == Fraction(1, 2)


def test_id_array_and_label_masks_are_cached_and_read_only():
    ds = Dataset([
        Example(5, "a", features=(0.0,)),
        Example(2, "b", features=(1.0,)),
        Example(9, "a", features=(2.0,)),
    ])
    assert ds.id_array().tolist() == [5, 2, 9]
    assert ds.id_array() is ds.id_array()
    assert ds.label_mask("a").tolist() == [True, False, True]
    assert ds.label_mask("a") is ds.label_mask("a")
    assert ds.label_mask("zzz").tolist() == [False, False, False]
    with pytest.raises(ValueError):
        ds.label_mask("a")[0] = False
    r = rank_by_distance(ds, (1.9,), "a")
    assert r.ordering.tolist() == [9, 2, 5]
    assert r.rows.tolist() == [2, 1, 0]


def test_ids_outside_int64_are_refused_up_front():
    top = 2**63 - 1
    ds = Dataset([Example(top, "a", features=(0.0,)), Example(np.uint64(7), "a", features=(1.0,))])
    assert ds.id_array().tolist() == [top, 7]
    for bad in (2**63, np.uint64(2**63), np.uint64(2**64 - 1), 2**64, -1, np.int64(-1)):
        with pytest.raises(InputError, match=r"2\*\*63"):
            Example(bad, "a", features=(0.0,))
