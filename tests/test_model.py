"""Dataset plumbing, value functions, rankings and subset votes."""

import dataclasses
import gc
import random
import warnings
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
    TableValueFunction,
    delta_value,
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
    # ties and NaN distances must still come out ordered by ascending id,
    # whatever the dataset order
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
        Example(4, "a", features=(float("nan"),)),
        Example(2, "a", features=(1.0,)),
        Example(0, "a", features=(float("nan"),)),
    ])
    assert rank_by_distance(ds, (0.0,), "a").ordering.tolist() == [2, 0, 4]


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


def _row_sum_distances(rows, q):
    """Euclidean distances as a C-ordered matrix's row sum gives them,
    with the power-of-two rescale of rows whose squares overflow."""
    with np.errstate(over="ignore"):
        dist = np.sqrt(((rows - q) ** 2).sum(axis=1))
        far = ~np.isfinite(dist)
        if far.any():
            _, e = np.frexp(max(np.abs(rows[far]).max(), np.abs(q).max()))
            d = np.ldexp(rows[far], -e) - np.ldexp(q, -e)
            dist[far] = np.ldexp(np.sqrt((d**2).sum(axis=1)), e)
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
    want = ((rows - q) ** 2).sum(axis=1)
    got = _squared_distances(np.asfortranarray(rows), q)
    assert got.tobytes() == want.tobytes()
    ids = rng.permutation(1000)[:40]
    ds = Dataset([Example(int(i), "a", features=tuple(r)) for i, r in zip(ids, rows.tolist())])
    ranking, dist, tied = _rank_spying(monkeypatch, ds, tuple(q))
    assert dist.tobytes() == np.sqrt(want).tobytes() and not tied
    assert ranking.ordering.tolist() == ids[np.lexsort((ids, want))].tolist()


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
