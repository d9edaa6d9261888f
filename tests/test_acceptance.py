"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test writes ``[PASS]``/``[FAIL] criterion N: ...`` to the real stdout
(capture suspended for the one line), then asserts as usual.
"""

import itertools
import json
import math
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from conftest import (
    LABELS,
    random_frequency_instance,
    random_knn_instance,
    random_value_function,
    relative_gap,
)
from divvy import (
    Dataset,
    Example,
    KnnConfig,
    MajorityValueFunction,
    OutcomeValues,
    Query,
    exact_owen_all,
    exact_shapley_all,
    frequency_game,
    knn_change_values_all,
    knn_game,
    knn_owen_report,
    knn_shapley_report,
    knn_shapley_values,
    knn_subset_value,
    owen_frequency_report,
    precede_probability,
    rank_by_distance,
    sample_permutations,
    shapley_frequency_report,
    tally_bin,
)
from divvy.cli import run_command


@contextmanager
def criterion(capsys, num, label):
    def emit(verdict):
        with capsys.disabled():
            sys.stdout.write(f"[{verdict}] criterion {num}: {label}\n")
            sys.stdout.flush()

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    else:
        emit("PASS")


def test_criterion_1_frequency_shapley_equals_enumeration(capsys):
    rng = random.Random(101)
    started = time.perf_counter()
    with criterion(capsys, 1, "frequency Shapley matches permutation enumeration on "
                      "200 single-bin instances (n <= 7, exact) within 60 s"):
        for trial in range(200):
            n = rng.randint(1, 7)
            dataset = Dataset(
                Example(i, rng.choice(LABELS), bin="b0") for i in range(n)
            )
            query = Query(label=rng.choice(LABELS), bin="b0")
            vf = random_value_function(rng, n)
            got = shapley_frequency_report(dataset, [query], vf, mode="exact")
            want = exact_shapley_all(frequency_game(dataset, query, vf))
            assert got.values() == want, trial
        assert time.perf_counter() - started <= 60.0


def test_criterion_2_frequency_owen_equals_enumeration(capsys):
    rng = random.Random(202)
    with criterion(capsys, 2, "frequency Owen matches nested enumeration on 100 "
                      "instances (m <= 3, n <= 6, exact) incl. the frozen "
                      "(175, 100, -175) split"):
        for trial in range(100):
            dataset, query, vf = random_frequency_instance(
                rng, max_n=6, with_coalitions=True, max_groups=3
            )
            got = owen_frequency_report(dataset, [query], vf, mode="exact")
            game = frequency_game(dataset, query, vf)
            # override: a draw may put all six members in one block, which is
            # past the enumeration guard but still tiny
            want = exact_owen_all(game, dataset.partition_codes()[1], override=True)
            assert got.values() == want, trial
        ds = Dataset([
            Example(0, "x", bin="b0", coalition="gA"),
            Example(1, "y", bin="b0", coalition="gA"),
            Example(2, "x", bin="b0", coalition="gB"),
        ])
        vf = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))
        rep = owen_frequency_report(
            ds, [Query(label="x", bin="b0")], vf,
            mode="exact",
        )
        assert rep.values() == {0: 175, 1: -175, 2: 100}


def test_criterion_3_knn_shapley_equals_enumeration(capsys):
    rng = random.Random(303)
    with criterion(capsys, 3, "k-NN Shapley matches permutation enumeration on 100 "
                      "instances (n <= 7, k in {1,3,5}, exact) incl. the "
                      "frozen (1.5, -0.5) pair"):
        for trial in range(100):
            dataset, query, config = random_knn_instance(rng, max_n=7, ks=(1, 3, 5))
            got = knn_shapley_values(dataset, query, config, mode="exact")
            want = exact_shapley_all(knn_game(dataset, query, config))
            assert got == want, trial
        ds = Dataset([
            Example(0, "pos", features=(0.0,)),
            Example(1, "neg", features=(2.0,)),
        ])
        config = KnnConfig(1, OutcomeValues(Fraction(1), Fraction(-1), Fraction(0)))
        vals = knn_shapley_values(
            ds, Query(label="pos", features=(0.5,)), config, mode="exact"
        )
        assert vals == {0: Fraction(3, 2), 1: Fraction(-1, 2)}


def test_criterion_4_knn_owen_equals_enumeration(capsys):
    rng = random.Random(404)
    with criterion(capsys, 4, "k-NN Owen matches nested enumeration on 50 instances "
                      "(m <= 3, n <= 6, k in {1,3}, exact)"):
        for trial in range(50):
            dataset, query, config = random_knn_instance(
                rng, max_n=6, ks=(1, 3), with_coalitions=True, max_groups=3
            )
            got = knn_owen_report(dataset, [query], config, mode="exact")
            game = knn_game(dataset, query, config)
            want = exact_owen_all(game, dataset.partition_codes()[1], override=True)
            assert got.values() == want, trial


def _planted_frequency_dataset(rng, n, bins):
    return Dataset(
        Example(i, rng.choice(LABELS), bin=rng.choice(bins)) for i in range(n)
    )


def test_criterion_5_axioms_at_scale(capsys):
    with criterion(capsys, 5, "efficiency, symmetry, null player, linearity and query "
                      "additivity hold at n=500 (frequency) and n=1000 (k-NN), "
                      "float, rel 1e-9"):
        rng = random.Random(505)

        # --- frequency model, 500 examples over 8 bins
        bins = [f"b{j}" for j in range(8)]
        dataset = _planted_frequency_dataset(rng, 500, bins)
        q1 = Query(label=LABELS[0], bin="b0")
        q2 = Query(label=LABELS[1], bin="b3")
        vf1 = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))
        vf2 = MajorityValueFunction(Fraction(7), Fraction(3), Fraction(-2))
        rep1 = shapley_frequency_report(dataset, [q1], vf1, mode="float")

        tally = tally_bin(dataset, "b0", q1.label)
        grand = float(vf1.value(tally.n_match, tally.n_mismatch) - vf1.value(0, 0))
        assert relative_gap(sum(rep1.values().values()), grand) < 1e-9

        by_cell = {}
        for ex in dataset:
            by_cell.setdefault((ex.bin, ex.label), []).append(rep1.value_of(ex.id))
        for cell, vals in by_cell.items():
            spread = max(vals) - min(vals)
            scale = max(1.0, max(abs(v) for v in vals))
            assert spread / scale < 1e-9, cell

        for ex in dataset:
            if ex.bin != "b0":
                assert rep1.value_of(ex.id) == 0.0, ex.id

        rep2 = shapley_frequency_report(dataset, [q1], vf2, mode="float")
        combo = MajorityValueFunction(
            2 * vf1.correct - 3 * vf2.correct,
            2 * vf1.wrong - 3 * vf2.wrong,
            2 * vf1.none - 3 * vf2.none,
        )
        rep3 = shapley_frequency_report(dataset, [q1], combo, mode="float")
        for i in dataset.ids:
            lhs = rep3.value_of(i)
            rhs = 2 * rep1.value_of(i) - 3 * rep2.value_of(i)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs)), i

        both = shapley_frequency_report(dataset, [q1, q2], vf1, mode="float")
        only2 = shapley_frequency_report(dataset, [q2], vf1, mode="float")
        for i in dataset.ids:
            lhs = both.value_of(i)
            rhs = rep1.value_of(i) + only2.value_of(i)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs)), i

        # --- k-NN model, 1000 points, k = 3; label follows sign(f0)
        pts = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(998)]
        pts = [(0.9, 0.1), (0.9, 0.1)] + pts  # ids 0 and 1 are exact twins
        dataset = Dataset(
            Example(i, "pos" if x > 0 else "neg", features=(x, y))
            for i, (x, y) in enumerate(pts)
        )
        q1 = Query(label="pos", features=(1.5, 0.0))
        q2 = Query(label="neg", features=(-1.5, 0.5))
        ov_a = OutcomeValues(Fraction(2), Fraction(-1), Fraction(0))
        ov_b = OutcomeValues(Fraction(0), Fraction(1), Fraction(2))
        rep_a = knn_shapley_report(dataset, [q1], KnnConfig(3, ov_a), mode="float")

        ranking = rank_by_distance(dataset, q1.features, q1.label)
        grand = float(
            knn_subset_value(dataset.ids, ranking, 3, ov_a)
            - knn_subset_value([], ranking, 3, ov_a)
        )
        assert relative_gap(sum(rep_a.values().values()), grand) < 1e-9

        assert relative_gap(rep_a.value_of(0), rep_a.value_of(1)) < 1e-9

        flat = OutcomeValues(Fraction(3), Fraction(3), Fraction(3))
        rep_flat = knn_shapley_report(dataset, [q1], KnnConfig(3, flat), mode="float")
        for i in dataset.ids:
            assert abs(rep_flat.value_of(i)) <= 3e-9, i

        rep_b = knn_shapley_report(dataset, [q1], KnnConfig(3, ov_b), mode="float")
        ov_c = OutcomeValues(
            2 * ov_a.correct - 3 * ov_b.correct,
            2 * ov_a.wrong - 3 * ov_b.wrong,
            2 * ov_a.none - 3 * ov_b.none,
        )
        rep_c = knn_shapley_report(dataset, [q1], KnnConfig(3, ov_c), mode="float")
        for i in dataset.ids:
            lhs = rep_c.value_of(i)
            rhs = 2 * rep_a.value_of(i) - 3 * rep_b.value_of(i)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs)), i

        both = knn_shapley_report(dataset, [q1, q2], KnnConfig(3, ov_a), mode="float")
        only2 = knn_shapley_report(dataset, [q2], KnnConfig(3, ov_a), mode="float")
        for i in dataset.ids:
            lhs = both.value_of(i)
            rhs = rep_a.value_of(i) + only2.value_of(i)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs)), i


def _with_coalitions(dataset, assign):
    return Dataset(
        Example(ex.id, ex.label, bin=ex.bin, features=ex.features,
                coalition=assign(ex.id))
        for ex in dataset
    )


def test_criterion_6_degenerate_structures_reduce_to_shapley(capsys):
    rng = random.Random(606)
    with criterion(capsys, 6, "singleton and grand coalition structures reproduce "
                      "Shapley (exact to n=12; float to n=100, rel 1e-9)"):
        # exact, both families, n up to 12
        for _ in range(8):
            dataset, query, vf = random_frequency_instance(rng, max_n=12)
            shap = shapley_frequency_report(dataset, [query], vf, mode="exact")
            for assign in (lambda i: f"s{i}", lambda i: "all"):
                owen_ds = _with_coalitions(dataset, assign)
                owen = owen_frequency_report(
                    owen_ds, [query], vf,
                    mode="exact",
                )
                assert owen.values() == shap.values()
        for _ in range(8):
            dataset, query, config = random_knn_instance(rng, max_n=12, ks=(1, 3, 5))
            shap = knn_shapley_values(dataset, query, config, mode="exact")
            for assign in (lambda i: f"s{i}", lambda i: "all"):
                owen_ds = _with_coalitions(dataset, assign)
                owen = knn_owen_report(
                    owen_ds, [query], config,
                    mode="exact",
                )
                assert owen.values() == shap

        # float, both families, n = 100
        dataset = _planted_frequency_dataset(rng, 100, ["b0", "b1"])
        query = Query(label=LABELS[0], bin="b0")
        vf = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))
        shap = shapley_frequency_report(dataset, [query], vf, mode="float")
        for assign in (lambda i: f"s{i}", lambda i: "all"):
            owen_ds = _with_coalitions(dataset, assign)
            owen = owen_frequency_report(
                owen_ds, [query], vf, mode="float"
            )
            for i in dataset.ids:
                assert relative_gap(owen.value_of(i), shap.value_of(i)) < 1e-9, i

        dataset = Dataset(
            Example(i, rng.choice(("pos", "neg")),
                    features=(rng.gauss(0, 1), rng.gauss(0, 1)))
            for i in range(100)
        )
        query = Query(label="pos", features=(0.2, -0.1))
        config = KnnConfig(5, OutcomeValues(Fraction(2), Fraction(-1), Fraction(0)))
        shap = knn_shapley_report(dataset, [query], config, mode="float")
        for assign in (lambda i: f"s{i}", lambda i: "all"):
            owen_ds = _with_coalitions(dataset, assign)
            owen = knn_owen_report(
                owen_ds, [query], config,
                mode="float",
            )
            for i in dataset.ids:
                assert relative_gap(owen.value_of(i), shap.value_of(i)) < 1e-9, i


def test_criterion_7_knn_shapley_near_linear_scaling(capsys):
    rng = np.random.default_rng(707)
    config = KnnConfig(5, OutcomeValues(Fraction(1), Fraction(-1), Fraction(0)))
    query = Query(label="pos", features=(0.0, 0.0, 0.0))

    def build(n):
        pts = rng.standard_normal((n, 3))
        labels = rng.integers(0, 2, n)
        return Dataset(
            Example(i, "pos" if labels[i] else "neg", features=tuple(pts[i]))
            for i in range(n)
        )

    def best_of_five(dataset):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            knn_shapley_report(dataset, [query], config, mode="float")
            times.append(time.perf_counter() - t0)
        return min(times)

    t_half = best_of_five(build(50_000))
    t_full = best_of_five(build(100_000))
    ratio = t_full / t_half
    with criterion(capsys, 7, f"k-NN Shapley at n=100k, k=5, one query: "
                      f"{t_full * 1000:.0f} ms (<= 1 s) and 50k->100k wall "
                      f"ratio {ratio:.2f} (<= 2.5)"):
        assert t_full <= 1.0
        assert ratio <= 2.5


def _change_values_direct(ranking, k, ov):
    # quadratic reference: every farther opposite-label position, one by one
    ovx = ov.as_fractions()
    half = (k - 1) // 2
    out = []
    for i in range(len(ranking)):
        i_match = bool(ranking.matches[i])
        delta = (ovx.correct - ovx.wrong) if i_match else (ovx.wrong - ovx.correct)
        acc = Fraction(0)
        for j in range(i + 1, len(ranking)):
            if bool(ranking.matches[j]) == i_match:
                continue
            a_j = int(ranking.prefix_match[j]) - (1 if i_match else 0)
            b_j = int(ranking.prefix_mismatch[j]) - (0 if i_match else 1)
            acc += precede_probability((a_j, b_j, 1), (half, half, 1)) * delta
        out.append(acc)
    return out


def test_criterion_8_displacement_sweep_equals_direct_sum(capsys):
    rng = random.Random(808)
    with criterion(capsys, 8, "displacement-term linear sweep equals the direct "
                      "quadratic sum on 100 instances (n <= 200, exact)"):
        for trial in range(100):
            n = rng.randint(1, 200)
            dataset = Dataset(
                Example(i, rng.choice(("pos", "neg")), features=(rng.random(),))
                for i in range(n)
            )
            ranking = rank_by_distance(dataset, (rng.random(),), "pos")
            k = rng.choice([1, 3, 5])
            ov = OutcomeValues(
                Fraction(rng.randint(1, 6)), Fraction(rng.randint(-6, 0)),
                Fraction(rng.randint(-2, 2)),
            )
            got = knn_change_values_all(ranking, k, ov, mode="exact")
            assert got == _change_values_direct(ranking, k, ov), trial


def _enumerate_precedence(sizes):
    """Distribution of per-set predecessor counts of a pivot, by brute force
    over every arrangement of the pivot plus all set members."""
    items = [h for h, s in enumerate(sizes) for _ in range(s)]
    pivot = -1
    counts = Counter()
    total = 0
    for perm in itertools.permutations(items + [pivot]):
        cut = perm.index(pivot)
        seen = [0] * len(sizes)
        for h in perm[:cut]:
            seen[h] += 1
        counts[tuple(seen)] += 1
        total += 1
    return {c: Fraction(k, total) for c, k in counts.items()}


def test_criterion_9_precedence_distribution_and_sampler(capsys):
    rng = random.Random(909)
    with criterion(capsys, 9, "precedence probabilities match brute-force enumeration "
                      "and normalize (t <= 7); insertion sampler is uniform at "
                      "n=5 over 1e5 draws (5 sigma)"):
        shapes = [(6,), (3, 3), (2, 2, 2), (1, 2, 3), (0, 4)]
        for _ in range(25):
            parts = rng.randint(1, 3)
            sizes = tuple(rng.randint(0, 6 // parts) for _ in range(parts))
            shapes.append(sizes)
        for sizes in shapes:
            dist = _enumerate_precedence(sizes)
            assert sum(dist.values()) == 1
            for c, want in dist.items():
                assert precede_probability(sizes, c, mode="exact") == want
            # and the formula puts nothing outside the support
            for c in itertools.product(*(range(s + 1) for s in sizes)):
                if c not in dist:
                    assert precede_probability(sizes, c, mode="exact") == 0

        draws = 100_000
        counts = Counter(tuple(p) for p in sample_permutations(5, draws, seed=909))
        assert len(counts) == math.factorial(5)
        p = 1.0 / math.factorial(5)
        sigma = math.sqrt(draws * p * (1 - p))
        for perm, c in counts.items():
            assert abs(c - draws * p) <= 5 * sigma, perm


def test_criterion_10_worked_majority_example(capsys, tmp_path):
    with criterion(capsys, 10, "majority rule paying 100/-500 on a 3-example bin "
                       "yields (150, 150, -200), via library and CLI alike"):
        dataset = Dataset([
            Example(0, "x", bin="b0"),
            Example(1, "x", bin="b0"),
            Example(2, "y", bin="b0"),
        ])
        vf = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))
        rep = shapley_frequency_report(
            dataset, [Query(label="x", bin="b0")], vf, mode="exact"
        )
        assert rep.values() == {0: 150, 1: 150, 2: -200}

        data = tmp_path / "d.csv"
        data.write_text("id,bin,label\n0,b0,x\n1,b0,x\n2,b0,y\n")
        q = tmp_path / "q.csv"
        q.write_text("bin,label\nb0,x\n")
        v = tmp_path / "v.json"
        v.write_text('{"family": "majority", "correct": 100, "wrong": -500, "none": 0}')
        out = tmp_path / "r.json"
        rc = run_command([
            "shapley-freq", "--data", str(data), "--queries", str(q),
            "--value", str(v), "--numeric", "exact", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [row["value"] for row in doc["examples"]] == ["150", "150", "-200"]
