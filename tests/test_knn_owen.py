"""Owen values for k-NN votes: the pinned, capped law and the full report path."""

import random
from fractions import Fraction

import numpy as np

import divvy.knn_owen as knn_owen
from divvy import (
    CoalitionStructure,
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
    knn_shapley_values,
    knn_subset_value,
    owen_precede_distribution,
    precede_probability,
    rank_by_distance,
)

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
    cs = dataset.coalition_structure()
    ranking = rank_by_distance(dataset, query.features, query.label)
    rep = knn_owen_report(dataset, cs, [query], config, mode="exact")
    for ex in dataset:
        f = knn_owen_creation(ranking, cs, ex.id, config.k, config.outcome_values, "exact")
        g = knn_owen_change(ranking, cs, ex.id, config.k, config.outcome_values, "exact")
        assert rep.value_of(ex.id) == f + g


def test_report_matches_oracle():
    rng = random.Random(62)
    for trial in range(50):
        dataset, query, config = random_knn_instance(
            rng, max_n=6, ks=(1, 3), with_coalitions=True, max_groups=3
        )
        cs = dataset.coalition_structure()
        game = knn_game(dataset, query, config)
        want = exact_owen_all(game, cs)
        rep = knn_owen_report(dataset, cs, [query], config, mode="exact")
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
        rep = knn_owen_report(singles, singles.coalition_structure(), [query], config, mode="exact")
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
        rep = knn_owen_report(grand, grand.coalition_structure(), [query], config, mode="exact")
        assert rep.values() == shap


def test_efficiency():
    rng = random.Random(65)
    for _ in range(25):
        dataset, query, config = random_knn_instance(
            rng, max_n=7, ks=(1, 3), with_coalitions=True
        )
        cs = dataset.coalition_structure()
        rep = knn_owen_report(dataset, cs, [query], config, mode="exact")
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
        cs = dataset.coalition_structure()
        exact = knn_owen_report(dataset, cs, [query], config, mode="exact")
        approx = knn_owen_report(dataset, cs, [query], config, mode="float")
        for i, v in exact.values().items():
            assert relative_gap(float(v), approx.value_of(i)) < 1e-9, i


def test_report_equals_sum_of_one_query_reports():
    # repeated and mixed queries: each query's laws and values must stay its own
    rng = random.Random(67)
    for _ in range(10):
        dataset, query, config = random_knn_instance(
            rng, max_n=7, ks=(3,), with_coalitions=True
        )
        cs = dataset.coalition_structure()
        other = Query(label=query.label, features=tuple(-x for x in query.features))
        flipped = Query(label=LABELS[1 - LABELS.index(query.label)], features=query.features)
        queries = [query, query, other, flipped]
        batch = knn_owen_report(dataset, cs, queries, config, mode="exact")
        singles = [knn_owen_report(dataset, cs, [q], config, mode="exact") for q in queries]
        for i in dataset.ids:
            assert batch.value_of(i) == sum(r.value_of(i) for r in singles)


def test_worked_example_two_points():
    ds = Dataset([
        Example(0, "pos", features=(0.0,), coalition="c0"),
        Example(1, "neg", features=(2.0,), coalition="c1"),
    ])
    q = Query(label="pos", features=(0.5,))
    rep = knn_owen_report(ds, ds.coalition_structure(), [q], KnnConfig(1, UNIT), mode="exact")
    assert rep.values() == {0: Fraction(3, 2), 1: Fraction(-1, 2)}


def _quadratic_change_terms(ranking, coalitions, k, ov):
    """Change term of every rank position by the double loop that the suffix
    sweep replaced: for each position i, every farther opposite-class j."""
    ov = ov.as_fractions()
    h = (k - 1) // 2
    caps = (h, h)
    cids = coalitions.coalition_ids()
    coal = [cids.index(coalitions.coalition_of(int(i))) for i in ranking.ordering]
    matches = [bool(x) for x in ranking.matches]
    n, m = len(coal), len(cids)

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
        cs = dataset.coalition_structure()
        ranking = rank_by_distance(dataset, query.features, query.label)
        ov = config.outcome_values
        want = _quadratic_change_terms(ranking, cs, config.k, ov)
        got = knn_owen._QueryEngine(ranking, cs, config.k, ov, "exact").change_terms()
        assert all(isinstance(v, Fraction) for v in got)
        assert got == want, trial
        i = int(ranking.ordering[-1])
        assert knn_owen_change(ranking, cs, i, config.k, ov, "exact") == want[-1]


def _precede_calls(monkeypatch, n):
    rng = random.Random(69)
    dataset = Dataset(
        Example(i, rng.choice("ab"), features=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                coalition=f"g{rng.randrange(5)}")
        for i in range(n)
    )
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return precede_probability(*args, **kwargs)

    monkeypatch.setattr(knn_owen, "precede_probability", counting)
    query = Query(label="a", features=(0.1, -0.2))
    knn_owen_report(dataset, dataset.coalition_structure(), [query],
                    KnnConfig(3, UNIT), mode="float")
    return calls[0]


def test_work_grows_linearly_in_n(monkeypatch):
    # the quadratic loop made 9,260 and 34,218 calls here (3.7x), the sweep
    # makes 443 and 829
    small, large = _precede_calls(monkeypatch, 400), _precede_calls(monkeypatch, 800)
    assert large <= 2.5 * small, (small, large)


def test_empty_dataset_gives_an_empty_report():
    config = KnnConfig(3, UNIT)
    queries = [Query(label="pos", features=(0.0, 1.0))]
    for mode in ("float", "exact"):
        rep = knn_owen_report(
            Dataset([]), CoalitionStructure({}), queries, config, mode=mode, per_query=True
        )
        assert rep.values() == {} and rep.query_count == 1, mode
