"""Owen values for k-NN votes: the pinned, capped law and the full report path."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import divvy.knn_owen as knn_owen
from divvy import (
    Dataset,
    Example,
    KnnConfig,
    OutcomeValues,
    Query,
    exact_owen_all,
    knn_game,
    knn_owen_change,
    knn_owen_creation,
    knn_owen_report,
    knn_shapley_report,
    knn_shapley_values,
    knn_subset_value,
    owen_precede_distribution,
    precede_probability,
    rank_by_distance,
)
from divvy.errors import InputError

from conftest import LABELS, insertion_dp, random_knn_instance, relative_gap

UNIT = OutcomeValues(Fraction(1), Fraction(-1), Fraction(0))


def test_distribution_mass_by_base():
    others = [(1, 0), (0, 2), (1, 1)]
    assert owen_precede_distribution(others).mass() == 1
    assert owen_precede_distribution(others, pinned=(1, 0)).mass() == Fraction(1, 2), (
        "pinning the pivot's coalition ahead leaves only the orderings "
        "where it precedes the target"
    )
    assert abs(owen_precede_distribution(others, "float", pinned=(1, 0)).mass() - 0.5) < 1e-12


def test_distribution_empty_cases():
    for mode in ("exact", "float"):
        assert owen_precede_distribution([], mode).probs.tolist() == [[1]]
        q = owen_precede_distribution([], mode, pinned=(2, 1)).probs
        assert q.tolist() == [[0, 0], [0, 0], [0, Fraction(1, 2)]], mode


def test_distribution_caps_keep_in_range_states():
    others = [(2, 0), (0, 2), (1, 1)]
    for mode, tol in (("exact", 0), ("float", 1e-12)):
        for pinned in (None, (1, 1)):
            full = owen_precede_distribution(others, mode, pinned).probs
            capped = owen_precede_distribution(others, mode, pinned, caps=(1, 1)).probs
            assert capped.shape == (2, 2)
            for (a, b), p in np.ndenumerate(capped):
                assert relative_gap(p, full[a, b]) <= tol, (mode, pinned, a, b)


def test_distribution_caps_drop_oversized_first():
    for mode in ("exact", "float"):
        q = owen_precede_distribution([(1, 0)], mode, pinned=(3, 0), caps=(1, 1))
        assert q.mass() == 0, mode


def test_creation_plus_change_decomposition():
    rng = random.Random(61)
    dataset, query, config = random_knn_instance(
        rng, max_n=6, ks=(1, 3), with_coalitions=True
    )
    codes = dataset.partition_codes()[1]
    ranking = rank_by_distance(dataset, query.features, query.label)
    rep = knn_owen_report(dataset, [query], config, mode="exact")
    for ex in dataset:
        f = knn_owen_creation(ranking, codes, ex.id, config.k, config.outcome_values, "exact")
        g = knn_owen_change(ranking, codes, ex.id, config.k, config.outcome_values, "exact")
        assert rep.value_of(ex.id) == f + g


def test_term_codes_are_checked():
    rng = random.Random(61)
    dataset, query, config = random_knn_instance(
        rng, max_n=6, ks=(1, 3), with_coalitions=True
    )
    codes = dataset.partition_codes()[1]
    ranking = rank_by_distance(dataset, query.features, query.label)
    args = (config.k, config.outcome_values, "exact")
    i = dataset.ids[0]
    # any non-negative integers name the coalitions; only the grouping counts
    for term in (knn_owen_creation, knn_owen_change):
        assert term(ranking, 3 * codes + 5, i, *args) == term(ranking, codes, i, *args)
        for bad in (codes[1:], np.append(codes, 0), codes - 1, codes + 0.0):
            with pytest.raises(InputError, match="coalition code"):
                term(ranking, bad, i, *args)


def test_report_matches_oracle():
    rng = random.Random(62)
    for trial in range(50):
        dataset, query, config = random_knn_instance(
            rng, max_n=6, ks=(1, 3), with_coalitions=True, max_groups=3
        )
        game = knn_game(dataset, query, config)
        want = exact_owen_all(game, dataset.partition_codes()[1])
        rep = knn_owen_report(dataset, [query], config, mode="exact")
        assert rep.values() == want, trial


def test_singleton_coalitions_reduce_to_shapley():
    rng = random.Random(63)
    for _ in range(20):
        dataset, query, config = random_knn_instance(rng, max_n=7, ks=(1, 3, 5))
        singles = Dataset(
            Example(ex.id, ex.label, features=ex.features, coalition=f"s{ex.id}")
            for ex in dataset
        )
        shap = knn_shapley_values(dataset, query, config, mode="exact")
        rep = knn_owen_report(singles, [query], config, mode="exact")
        assert rep.values() == shap


def test_grand_coalition_reduces_to_shapley():
    rng = random.Random(64)
    for _ in range(20):
        dataset, query, config = random_knn_instance(rng, max_n=7, ks=(1, 3, 5))
        grand = Dataset(
            Example(ex.id, ex.label, features=ex.features, coalition="all")
            for ex in dataset
        )
        shap = knn_shapley_values(dataset, query, config, mode="exact")
        rep = knn_owen_report(grand, [query], config, mode="exact")
        assert rep.values() == shap


def test_efficiency():
    rng = random.Random(65)
    for _ in range(25):
        dataset, query, config = random_knn_instance(
            rng, max_n=7, ks=(1, 3), with_coalitions=True
        )
        rep = knn_owen_report(dataset, [query], config, mode="exact")
        r = rank_by_distance(dataset, query.features, query.label)
        v_full = knn_subset_value(dataset.ids, r, config.k, config.outcome_values)
        v_empty = knn_subset_value([], r, config.k, config.outcome_values)
        assert sum(rep.values().values()) == Fraction(v_full) - Fraction(v_empty)


def test_float_tracks_exact():
    rng = random.Random(66)
    for _ in range(25):
        dataset, query, config = random_knn_instance(
            rng, max_n=7, ks=(1, 3), with_coalitions=True
        )
        exact = knn_owen_report(dataset, [query], config, mode="exact")
        approx = knn_owen_report(dataset, [query], config, mode="float")
        for i, v in exact.values().items():
            assert relative_gap(float(v), approx.value_of(i)) < 1e-9, i


def test_report_equals_sum_of_one_query_reports():
    # repeated and mixed queries: each query's laws and values must stay its own
    rng = random.Random(67)
    for _ in range(10):
        dataset, query, config = random_knn_instance(
            rng, max_n=7, ks=(3,), with_coalitions=True
        )
        other = Query(label=query.label, features=tuple(-x for x in query.features))
        flipped = Query(label=LABELS[1 - LABELS.index(query.label)], features=query.features)
        queries = [query, query, other, flipped]
        batch = knn_owen_report(dataset, queries, config, mode="exact")
        singles = [knn_owen_report(dataset, [q], config, mode="exact") for q in queries]
        for i in dataset.ids:
            assert batch.value_of(i) == sum(r.value_of(i) for r in singles)


def test_worked_example_two_points():
    ds = Dataset([
        Example(0, "pos", features=(0.0,), coalition="c0"),
        Example(1, "neg", features=(2.0,), coalition="c1"),
    ])
    q = Query(label="pos", features=(0.5,))
    rep = knn_owen_report(ds, [q], KnnConfig(1, UNIT), mode="exact")
    assert rep.values() == {0: Fraction(3, 2), 1: Fraction(-1, 2)}


def _quadratic_change_terms(ranking, codes, k, ov):
    """Change term of every rank position by the double loop that the suffix
    sweep replaced: for each position i, every farther opposite-class j.
    ``codes`` holds each dataset row's coalition, 0 .. m - 1."""
    ov = ov.as_fractions()
    h = (k - 1) // 2
    caps = (h, h)
    coal = codes[ranking.rows].tolist()
    matches = [bool(x) for x in ranking.matches]
    n, m = len(coal), int(codes.max(initial=-1)) + 1

    def nearer(c, j, u):  # members of coalition c in class u nearer than j
        return sum(1 for p in range(j) if coal[p] == c and matches[p] == u)

    def clamped(c, j):
        return (min(nearer(c, j, True), h + 1), min(nearer(c, j, False), h + 1))

    out = []
    for i in range(n):
        c, u = coal[i], matches[i]
        delta = ov.correct - ov.wrong if u else ov.wrong - ov.correct
        total = Fraction(0)
        for j in range(i + 1, n):
            if matches[j] == u:
                continue
            cj = coal[j]
            a_m = nearer(c, j, True) - u
            b_m = nearer(c, j, False) - (not u)
            others = sorted(clamped(o, j) for o in range(m) if o not in (c, cj))
            q = insertion_dp(others, caps, None if cj == c else clamped(cj, j))
            inner = Fraction(0)
            for a in range(min(a_m, h) + 1):
                for b in range(min(b_m, h) + 1):
                    mass = q.get((h - a, h - b))
                    if not mass:
                        continue
                    if cj == c:
                        w = precede_probability((a_m, b_m, 1), (a, b, 1))
                    else:
                        w = precede_probability((a_m, b_m), (a, b))
                    inner += mass * w
            total += inner * delta
        out.append(total)
    return out


def test_change_sweep_matches_quadratic_loop():
    rng = random.Random(68)
    for trial in range(150):
        dataset, query, config = random_knn_instance(
            rng, max_n=12, ks=(1, 3, 5), with_coalitions=True, max_groups=4
        )
        names, codes = dataset.partition_codes()
        ranking = rank_by_distance(dataset, query.features, query.label)
        ov = config.outcome_values
        want = _quadratic_change_terms(ranking, codes, config.k, ov)
        engine = knn_owen._QueryEngine(ranking, codes[ranking.rows], len(names), config.k, ov,
                                       "exact")
        got = engine.change_terms().tolist()
        assert all(isinstance(v, Fraction) for v in got)
        assert got == want, trial
        i = int(ranking.ordering[-1])
        assert knn_owen_change(ranking, codes, i, config.k, ov, "exact") == want[-1]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_engine_returns_arrays(mode):
    # the report adds a query's values into its totals as one array
    rng = random.Random(72)
    dataset, query, config = random_knn_instance(
        rng, max_n=12, ks=(1, 3, 5), with_coalitions=True, max_groups=4
    )
    ranking = rank_by_distance(dataset, query.features, query.label)
    names, codes = dataset.partition_codes()
    ov = config.outcome_values
    engine = knn_owen._QueryEngine(ranking, codes[ranking.rows], len(names), config.k, ov, mode)
    for got in (engine.values(), engine.change_terms()):
        assert isinstance(got, np.ndarray) and got.shape == (len(dataset),)
        assert got.dtype == (object if mode == "exact" else np.float64)


def _ranked_groups(rng, n, m, k):
    """n examples in m coalitions with a query; redrawn until every
    coalition has more than (k - 1) / 2 members of each class nearer than
    the last rank, so each clamped count saturates before the end."""
    h = (k - 1) // 2
    while True:
        dataset = Dataset(
            Example(i, rng.choice(LABELS), features=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    coalition=f"g{rng.randrange(m)}")
            for i in range(n)
        )
        query = Query(label=rng.choice(LABELS), features=(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        ranking = rank_by_distance(dataset, query.features, query.label)
        codes = dataset.partition_codes()[1]
        nearer = list(zip(codes[ranking.rows[:-1]].tolist(), ranking.matches[:-1].tolist()))
        if all(nearer.count((c, u)) > h for c in range(m) for u in (True, False)):
            return dataset, query, ranking, codes


def test_change_sweep_matches_quadratic_loop_on_saturated_tails():
    # past the last clamped-count change every coalition's law is fixed, so
    # the sweep's last runs are long; the instances above seldom reach them
    rng = random.Random(70)
    for trial in range(12):
        k = (1, 3, 5)[trial % 3]
        n, m = rng.randint(30, 60), rng.randint(1, 4)
        dataset, query, ranking, codes = _ranked_groups(rng, n, m, k)
        ov = OutcomeValues(Fraction(rng.randint(1, 6)), Fraction(rng.randint(-6, 0)),
                           Fraction(rng.randint(-2, 2)))
        want = _quadratic_change_terms(ranking, codes, k, ov)
        engine = knn_owen._QueryEngine(ranking, codes[ranking.rows], m, k, ov, "exact")
        got = engine.change_terms().tolist()
        assert got == want, (trial, n, m, k)


def test_float_tracks_exact_at_hundreds_of_examples():
    # the README's float rule: 1e-9, absolute below |v| = 1, relative above;
    # at k = 51 a weight reads log-binomial rows up to r = 51 (worst gaps
    # seen: ~2e-15 Owen, ~2e-14 Shapley)
    for report in (knn_owen_report, knn_shapley_report):
        for k in (5, 21, 51):
            rng = random.Random(71)
            config = KnnConfig(k, OutcomeValues(Fraction(3), Fraction(-2), Fraction(1, 3)))
            for _ in range(2):
                dataset, query, _, _ = _ranked_groups(rng, 500, 5, k)
                exact = report(dataset, [query], config, mode="exact")
                approx = report(dataset, [query], config, mode="float")
                for i, v in exact.values().items():
                    assert abs(float(v) - approx.value_of(i)) <= 1e-9 * max(1.0, abs(v)), (i, k)


def _calls(monkeypatch, n, owner, name, groups=5):
    """Calls made to ``owner.name`` by one float report of n examples, one
    query, k = 3: the k-NN Owen report over ``groups`` coalitions, or for
    one group the k-NN Shapley report."""
    rng = random.Random(69)
    dataset = Dataset(
        Example(i, rng.choice("ab"), features=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                coalition=f"g{rng.randrange(groups)}")
        for i in range(n)
    )
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    query, config = Query(label="a", features=(0.1, -0.2)), KnnConfig(3, UNIT)
    if groups == 1:
        knn_shapley_report(dataset, [query], config, mode="float")
    else:
        knn_owen_report(dataset, [query], config, mode="float")
    return calls[0]


def test_work_grows_linearly_in_n(monkeypatch):
    # the quadratic loop made 9,260 and 34,218 calls here (3.7x), the
    # per-rank sweep 443 and 829; the segment sweep makes 47 and 44
    small = _calls(monkeypatch, 400, knn_owen, "precede_probability")
    large = _calls(monkeypatch, 800, knn_owen, "precede_probability")
    assert large <= 2.5 * small, (small, large)


def test_law_lookups_do_not_grow_with_n(monkeypatch):
    # A law's inputs change only at the first k members of each coalition, so
    # there are at most m * k + 1 segments, each with one lookup per
    # coalition; m - 1 more at each of those ranks, and one per (coalition,
    # class) for the creation terms.  The per-rank sweep made 428 and 4,027
    # here, growing with n; the segment sweep makes 57 and 58.
    m, k = 5, 3
    bound = m * (m * k + 1) + m * k * (m - 1) + 2 * m
    for n in (400, 4000):
        assert _calls(monkeypatch, n, knn_owen._QueryEngine, "_dp") <= bound < n * m, n
    # With every example in one coalition (the Shapley report) at most k ranks
    # are live: one lookup per segment, at most k + 1, and one per class.
    for n in (400, 4000):
        assert 1 <= _calls(monkeypatch, n, knn_owen._QueryEngine, "_dp", groups=1) <= k + 3, n


def test_each_log_binom_row_is_built_once_per_report():
    # A query reads rows of its dataset's size n: 0 .. k, or with one
    # coalition (a point-mass law) only h and k.  An 8-entry cache of (n, r)
    # rows thrashed once k >= 9, rebuilding rows within one query; a report
    # now builds its rows in one pass, once, whatever k is.
    rng = random.Random(73)
    n, k = 300, 9
    dataset = Dataset(
        Example(i, rng.choice("ab"), features=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                coalition=f"g{rng.randrange(5)}")
        for i in range(n)
    )
    queries = [Query(label="a", features=(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(3)]
    config = KnnConfig(k, UNIT)
    for report, kept in ((knn_owen_report, set(range(k + 1))), (knn_shapley_report, {4, k})):
        knn_owen._log_binom_rows.cache_clear()
        report(dataset, queries, config)
        info = knn_owen._log_binom_rows.cache_info()
        assert (info.misses, info.hits) == (1, len(queries) - 1), info
        rows = knn_owen._log_binom_rows(n, tuple(sorted(kept)))
        assert knn_owen._log_binom_rows.cache_info().misses == 1  # the report's own rows
        assert {r for r, row in enumerate(rows) if row is not None} == kept
        assert all(row.shape == (n + 2,) for row in rows if row is not None)


def _log_binom_row_by_sum(n, r):
    """The row ``_log_binom_rows`` gives at r, by a sum of r logs for r alone."""
    table = np.full(n + 2, -np.inf)
    if r <= n:
        log_fall, m = table[r + 1:], np.arange(r, n + 1.0)
        log_fall[:] = 0.0
        for _ in range(r):
            log_fall += np.log(m)
            m -= 1.0
        log_fall -= math.lgamma(r + 1)
    return table


def test_log_binom_rows_equal_per_row_sums_bit_for_bit():
    # one running sum up r adds each row's logs in the order a sum for that
    # row alone adds them, so no float value moves
    for n in (0, 1, 2, 5, 51, 52, 1000, 100_000):
        for rows in ((0,), (4, 9), tuple(range(52)), (3, 60)):
            got = knn_owen._log_binom_rows(n, rows)
            assert len(got) == max(rows) + 1
            for r, row in enumerate(got):
                if r not in rows:
                    assert row is None, (n, r)
                    continue
                assert not row.flags.writeable
                assert row.tobytes() == _log_binom_row_by_sum(n, r).tobytes(), (n, r)


def test_empty_dataset_gives_an_empty_report():
    config = KnnConfig(3, UNIT)
    queries = [Query(label="pos", features=(0.0, 1.0))]
    for mode in ("float", "exact"):
        rep = knn_owen_report(
            Dataset([]), queries, config, mode=mode, per_query=True
        )
        assert rep.values() == {} and rep.query_count == 1, mode


def test_iterated_queries_give_the_report_of_a_list():
    # the queries are read once: an iterator gave a raw TypeError from len()
    ds = Dataset(Example(i, "xy"[i % 3 == 0], features=(i * 0.5,), coalition=f"g{i % 3}")
                 for i in range(9))
    queries = [Query(label="x", features=(1.5,)), Query(label="y", features=(2.5,))]
    config = KnnConfig(3, OutcomeValues(1, -1, 0))
    for mode in ("float", "exact"):
        want = knn_owen_report(ds, queries, config, mode=mode, per_query=True)
        got = knn_owen_report(ds, iter(queries), config, mode=mode, per_query=True)
        assert got.query_count == 2 and got.values() == want.values()
        assert [c.tolist() for c in got.per_query] == [c.tolist() for c in want.per_query]


def _bits(column):
    return [v if isinstance(v, Fraction) else float(v).hex() for v in column]


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("report", [knn_shapley_report, knn_owen_report])
def test_per_query_columns_sum_to_the_totals_in_query_order(report, mode):
    # a float total is its per-query column summed in query order, bit for
    # bit, and asking for the columns moves no total
    rng = random.Random(72)
    for _ in range(25):
        dataset, query, config = random_knn_instance(rng, max_n=9, ks=(1, 3, 5),
                                                     with_coalitions=True)
        queries = [query, Query(label=query.label, features=tuple(-x for x in query.features)),
                   Query(label=LABELS[1 - LABELS.index(query.label)], features=query.features)]
        rep = report(dataset, queries, config, mode=mode, per_query=True)
        assert len(rep.per_query) == len(queries)
        assert _bits(rep.value_column) == _bits(sum(rep.per_query))
        plain = report(dataset, queries, config, mode=mode)
        assert plain.per_query is None and _bits(plain.value_column) == _bits(rep.value_column)
