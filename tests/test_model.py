"""Dataset plumbing, value functions, rankings and subset votes."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from divvy import (
    BinTally,
    CoalitionStructure,
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
from divvy.model import to_money


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


def test_coalition_structure_from_dataset():
    ds = Dataset([
        Example(0, "a", bin="x", coalition="g0"),
        Example(1, "b", bin="x", coalition="g1"),
        Example(2, "a", bin="x", coalition="g0"),
    ])
    cs = ds.coalition_structure()
    assert cs.coalition_of(2) == "g0"
    assert cs.coalition_ids() == ["g0", "g1"]
    cs.validate_partition([0, 1, 2])
    with pytest.raises(InputError):
        cs.validate_partition([0, 1])
    with pytest.raises(InputError):
        cs.coalition_of(99)


def test_coalition_structure_needs_full_cover():
    ds = Dataset([Example(0, "a", bin="x", coalition="g0"), Example(1, "b", bin="x")])
    with pytest.raises(InputError, match="coalition"):
        ds.coalition_structure()
    with pytest.raises(InputError, match="appears in"):
        CoalitionStructure({"g0": frozenset([0, 1]), "g1": frozenset([1])})


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
    with pytest.raises(ConfigError):
        KnnConfig(3, ov, metric="manhattan") and rank_by_distance(
            Dataset([Example(0, "a", features=(0.0,))]), (0.0,), "a", "manhattan"
        )


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


def test_rank_by_distance_custom_metric():
    ds = Dataset([
        Example(0, "a", features=(0.0,)),
        Example(1, "b", features=(3.0,)),
    ])

    def backwards(u, v):
        return -abs(u[0] - v[0])

    r = rank_by_distance(ds, (0.0,), "a", metric=backwards)
    assert list(r.ordering) == [1, 0]


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
    assert ds.row_index()[top] == 0 and ds.row_index()[7] == 1
    for bad in (2**63, np.uint64(2**63), np.uint64(2**64 - 1), 2**64, -1, np.int64(-1)):
        with pytest.raises(InputError, match=r"2\*\*63"):
            Example(bad, "a", features=(0.0,))
