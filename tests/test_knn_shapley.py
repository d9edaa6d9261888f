"""k-NN Shapley values: creation and change terms, sweep, and oracle checks."""

import gc
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from divvy import (
    Dataset,
    Example,
    KnnConfig,
    OutcomeValues,
    Query,
    exact_shapley_all,
    knn_change_values_all,
    knn_creation_value,
    knn_game,
    knn_owen_report,
    knn_shapley_report,
    knn_shapley_values,
    knn_subset_value,
    log_binom,
    precede_probability,
    rank_by_distance,
)
from divvy.errors import InputError
from divvy.knn_owen import _log_binom_rows

from conftest import random_knn_instance, relative_gap

UNIT = OutcomeValues(Fraction(1), Fraction(-1), Fraction(0))


def _two_point_instance():
    ds = Dataset([
        Example(0, "pos", features=(0.0,)),
        Example(1, "neg", features=(2.0,)),
    ])
    q = Query(label="pos", features=(0.5,))
    return ds, q


def test_worked_example_two_points_k1():
    ds, q = _two_point_instance()
    vals = knn_shapley_values(ds, q, KnnConfig(1, UNIT), mode="exact")
    assert vals == {0: Fraction(3, 2), 1: Fraction(-1, 2)}


def test_worked_example_terms_split():
    ds, q = _two_point_instance()
    r = rank_by_distance(ds, q.features, q.label)
    assert knn_change_values_all(r, 1, UNIT, mode="exact") == [Fraction(1), Fraction(0)]
    assert knn_creation_value(2, 0, True, 1, UNIT, mode="exact") == Fraction(1, 2)
    assert knn_creation_value(2, 1, False, 1, UNIT, mode="exact") == Fraction(-1, 2)


def test_creation_value_below_k_is_zero():
    for n in (1, 2):
        assert knn_creation_value(n, 0, True, 3, UNIT, mode="exact") == 0
    assert knn_creation_value(3, 1, True, 3, UNIT, mode="exact") != 0


def test_creation_value_validates_counts():
    with pytest.raises(InputError):
        knn_creation_value(2, 2, True, 1, UNIT)
    with pytest.raises(InputError):
        knn_creation_value(0, 0, True, 1, UNIT)
    # counts are integers other than bools (True and 3.0 ran as 1 and 3)
    for bad in (True, np.True_, 3.0, 2.5, "1"):
        for counts in ((bad, 0), (3, bad)):
            with pytest.raises(InputError, match="inconsistent creation-term counts"):
                knn_creation_value(*counts, True, 1, UNIT)


def _change_values_direct(ranking, k, ov):
    """Quadratic reference for the change term: for each position, loop
    explicitly over every farther opposite-class position."""
    ovx = ov.as_fractions()
    half = (k - 1) // 2
    n = len(ranking)
    out = []
    for i in range(n):
        i_match = bool(ranking.matches[i])
        delta = (ovx.correct - ovx.wrong) if i_match else (ovx.wrong - ovx.correct)
        acc = Fraction(0)
        for j in range(i + 1, n):
            if bool(ranking.matches[j]) == i_match:
                continue
            a_j = int(ranking.prefix_match[j]) - (1 if i_match else 0)
            b_j = int(ranking.prefix_mismatch[j]) - (0 if i_match else 1)
            acc += precede_probability((a_j, b_j, 1), (half, half, 1)) * delta
        out.append(acc)
    return out


def test_sweep_equals_direct_double_loop():
    rng = random.Random(44)
    for trial in range(60):
        n = rng.randint(1, 120)
        ds = Dataset([
            Example(i, rng.choice("pn"), features=(rng.random(),))
            for i in range(n)
        ])
        q = Query(label="p", features=(rng.random(),))
        r = rank_by_distance(ds, q.features, q.label)
        k = rng.choice([1, 3, 5, 7])
        ov = OutcomeValues(
            Fraction(rng.randint(1, 5)), Fraction(rng.randint(-5, 0)), Fraction(0)
        )
        assert knn_change_values_all(r, k, ov, mode="exact") == _change_values_direct(r, k, ov), trial


def test_change_values_zero_when_labels_agree():
    ds = Dataset([Example(i, "same", features=(float(i),)) for i in range(6)])
    r = rank_by_distance(ds, (0.0,), "same")
    assert knn_change_values_all(r, 3, UNIT, mode="exact") == [Fraction(0)] * 6


def test_values_match_oracle():
    rng = random.Random(50)
    for trial in range(100):
        dataset, query, config = random_knn_instance(rng, max_n=6, ks=(1, 3, 5))
        game = knn_game(dataset, query, config)
        want = exact_shapley_all(game)
        got = knn_shapley_values(dataset, query, config, mode="exact")
        assert got == want, trial


def test_efficiency():
    rng = random.Random(51)
    for _ in range(40):
        dataset, query, config = random_knn_instance(rng, max_n=8, ks=(1, 3, 5))
        vals = knn_shapley_values(dataset, query, config, mode="exact")
        r = rank_by_distance(dataset, query.features, query.label)
        v_full = knn_subset_value(dataset.ids, r, config.k, config.outcome_values)
        v_empty = knn_subset_value([], r, config.k, config.outcome_values)
        assert sum(vals.values()) == Fraction(v_full) - Fraction(v_empty)


def test_float_tracks_exact():
    rng = random.Random(52)
    for _ in range(40):
        dataset, query, config = random_knn_instance(rng, max_n=9, ks=(1, 3, 5))
        exact = knn_shapley_values(dataset, query, config, mode="exact")
        rep = knn_shapley_report(dataset, [query], config, mode="float")
        for i, v in exact.items():
            assert relative_gap(float(v), rep.value_of(i)) < 1e-9, i


def test_log_binom_rows_match_log_binom():
    # entry m + 1 of row (n, r) is ln C(m, r), -inf below m = r; log sums keep
    # the few-ulp accuracy of log_binom even at n = 100,000
    for n in (0, 3, 40, 100_000):
        for r, row in enumerate(_log_binom_rows(n, tuple(range(8)))):
            assert row.shape == (n + 2,) and not row.flags.writeable
            for m in sorted({-1, 0, r - 1, r, r + 1, n // 2, n - 1, n} & set(range(-1, n + 1))):
                want = log_binom(m, r) if m >= 0 else float("-inf")
                if want == float("-inf"):
                    assert row[m + 1] == want, (n, r, m)
                else:
                    assert abs(row[m + 1] - want) <= 1e-14 * max(1.0, abs(want)), (n, r, m)


def test_report_is_id_layout_invariant():
    # the float path scatters values by dataset row; renaming ids must not
    # move anyone's value
    rng = random.Random(53)
    for _ in range(10):
        dataset, query, config = random_knn_instance(rng, max_n=8, ks=(1, 3))
        renamed = Dataset(
            Example(10 * ex.id + 7, ex.label, features=ex.features) for ex in dataset
        )
        plain = knn_shapley_report(dataset, [query], config, mode="float")
        moved = knn_shapley_report(renamed, [query], config, mode="float")
        for ex in dataset:
            assert plain.value_of(ex.id) == moved.value_of(10 * ex.id + 7)


def test_report_totals_and_metadata():
    rng = random.Random(54)
    dataset, q1, config = random_knn_instance(rng, max_n=7, ks=(3,))
    q2 = Query(label=q1.label, features=tuple(-x for x in q1.features))
    rep = knn_shapley_report(dataset, [q1, q2], config, mode="exact", per_query=True)
    assert rep.k == config.k
    assert rep.query_count == 2
    for r, i in enumerate(dataset.ids):
        assert rep.value_of(i) == sum(column[r] for column in rep.per_query)
    v1 = knn_shapley_values(dataset, q1, config, mode="exact")
    v2 = knn_shapley_values(dataset, q2, config, mode="exact")
    for i in dataset.ids:
        assert rep.value_of(i) == v1[i] + v2[i]


def _kernel_cases(rng):
    """Random instances with several queries each, including n < k, a single
    label class, and tied distances on a coarse grid."""
    for trial in range(60):
        dataset, query, config = random_knn_instance(rng, max_n=9, ks=(1, 3, 5, 7))
        if trial % 3 == 1:  # one label class
            dataset = Dataset(Example(ex.id, query.label, features=ex.features) for ex in dataset)
        if trial % 3 == 2:  # ties: many equal distances
            dataset = Dataset(
                Example(ex.id, ex.label, features=tuple(float(round(x)) for x in ex.features))
                for ex in dataset
            )
        other = Query(label=query.label, features=tuple(-x for x in query.features))
        yield dataset, [query, other, query], config


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_report_rows_equal_single_query_values_bit_for_bit(mode):
    # the report and knn_shapley_values read one kernel, so a per-query row
    # carries exactly the values one query gives, down to the sign of zero
    seen_small = False
    for dataset, queries, config in _kernel_cases(random.Random(55)):
        seen_small |= len(dataset) < config.k
        rep = knn_shapley_report(dataset, queries, config, mode=mode, per_query=True)
        for column, q in zip(rep.per_query, queries):
            want = knn_shapley_values(dataset, q, config, mode=mode)
            assert [_bits(v) for v in column] == [_bits(want[i]) for i in dataset.ids]
        # each column its own array, and the totals their sum in query order
        assert len({id(column) for column in rep.per_query}) == len(queries)
        assert [_bits(v) for v in rep.value_column] == [_bits(v) for v in sum(rep.per_query)]
    assert seen_small


def _bits(v):
    return v if isinstance(v, Fraction) else float(v).hex()


@pytest.mark.parametrize("report", [
    knn_shapley_report,
    knn_owen_report,
], ids=["shapley-knn", "owen-knn"])
def test_held_float_report_costs_no_object_per_example(report):
    # One Python object per example in a held report makes each full pass of
    # the cyclic collector rescan n more objects, which breaks the near-linear
    # scaling of acceptance criterion 7; this pins the cause without a clock.
    rng = np.random.default_rng(61)
    config = KnnConfig(5, OutcomeValues(1, -1, 0))
    query = Query(label="pos", features=(0.0, 0.0))

    def objects_held_by_report(n):
        pts = rng.standard_normal((n, 2))
        dataset = Dataset(
            Example(i, "pos" if i % 3 else "neg", features=tuple(pts[i]), coalition=f"g{i % 4}")
            for i in range(n)
        )
        report(dataset, [query], config)  # fill caches
        gc.collect()
        before = len(gc.get_objects())
        held_report = report(dataset, [query], config)
        gc.collect()
        held = len(gc.get_objects()) - before
        assert len(held_report.values()) == n
        # the coalition column is int codes into the four names, not n ids
        assert held_report.coalition_codes.dtype.kind == "i"
        assert held_report.coalition_names == ("g0", "g1", "g2", "g3")
        return held

    # A few interpreter objects (numpy's errstate context nodes) come and go
    # between calls; one object per example would add 10,000 here.
    small, large = objects_held_by_report(10_000), objects_held_by_report(20_000)
    assert large - small < 100, (small, large)


def test_parsed_knn_dataset_costs_no_object_per_example(tmp_path):
    # Parsing keeps columns (an id array, label codes, a feature matrix),
    # and a float report reads only those, so neither the dataset nor the
    # report holds a Python object per example.
    from divvy.io import parse_dataset

    rng = np.random.default_rng(62)
    config = KnnConfig(5, OutcomeValues(1, -1, 0))
    query = Query(label="pos", features=(0.0, 0.0))

    def objects_held(n):
        pts = rng.standard_normal((n, 2))
        path = tmp_path / f"d{n}.csv"
        path.write_text("id,label,f0,f1\n" + "".join(
            f"{3 * i + 1},{'pos' if i % 3 else 'neg'},{x!r},{y!r}\n"
            for i, (x, y) in enumerate(pts.tolist())
        ))
        gc.collect()
        before = len(gc.get_objects())
        dataset = parse_dataset(path, "knn")
        report = knn_shapley_report(dataset, [query], config, mode="float")
        gc.collect()
        held = len(gc.get_objects()) - before
        assert len(dataset) == n and len(report.values()) == n
        return held

    objects_held(1_000)  # fill module-level caches
    small, large = objects_held(10_000), objects_held(20_000)
    assert large - small < 100, (small, large)


def test_empty_dataset_gives_an_empty_report():
    # Dataset([]) has no feature width, so ranking must not assume one
    config = KnnConfig(3, UNIT)
    queries = [Query(label="pos", features=(0.0, 1.0))]
    for mode in ("float", "exact"):
        rep = knn_shapley_report(Dataset([]), queries, config, mode=mode, per_query=True)
        assert rep.values() == {} and rep.query_count == 1, mode


def test_float_report_leaves_numpy_polynomial_unimported():
    # a one-coalition law integrates on the one Gauss-Legendre node t = 1/2,
    # so a float shapley-knn report needs no numpy.polynomial import
    script = (
        "import sys\n"
        "from divvy import Dataset, Example, KnnConfig, OutcomeValues, Query, knn_shapley_report\n"
        "ds = Dataset(Example(i, 'pos' if i % 3 else 'neg', features=(i * 0.5, 1.0 - i))"
        " for i in range(50))\n"
        "rep = knn_shapley_report(ds, [Query('pos', features=(3.0, 0.0))],"
        " KnnConfig(5, OutcomeValues(1, -1, 0)))\n"
        "assert any(rep.value_column)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"


def test_iterated_queries_give_the_report_of_a_list():
    # the queries are read once: an iterator gave a raw TypeError from len()
    ds = Dataset(Example(i, "xy"[i % 3 == 0], features=(i * 0.5,), coalition=f"g{i % 3}")
                 for i in range(9))
    queries = [Query(label="x", features=(1.5,)), Query(label="y", features=(2.5,))]
    config = KnnConfig(3, OutcomeValues(1, -1, 0))
    for mode in ("float", "exact"):
        want = knn_shapley_report(ds, queries, config, mode=mode, per_query=True)
        got = knn_shapley_report(ds, iter(queries), config, mode=mode, per_query=True)
        assert got.query_count == 2 and got.values() == want.values()
        assert [c.tolist() for c in got.per_query] == [c.tolist() for c in want.per_query]
