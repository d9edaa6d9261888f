"""The enumeration oracle itself, checked against first-principles sweeps."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import divvy.oracle
from divvy import (
    CharacteristicGame,
    exact_owen,
    exact_owen_all,
    exact_shapley,
    exact_shapley_all,
    mc_shapley,
    sample_permutations,
    table_game,
)
from divvy.errors import GuardError, InputError


def _random_table(rng, players):
    table = {}
    for r in range(len(players) + 1):
        for subset in itertools.combinations(players, r):
            table[frozenset(subset)] = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3]))
    return table


def _naive_shapley(players, table):
    """Average marginal contribution over explicitly listed permutations —
    deliberately the slow textbook formula, independent of the oracle's
    predecessor-counting sweep."""
    n = len(players)
    acc = {p: Fraction(0) for p in players}
    count = 0
    for perm in itertools.permutations(players):
        seen = set()
        for p in perm:
            before = table[frozenset(seen)]
            seen.add(p)
            acc[p] += table[frozenset(seen)] - before
        count += 1
    return {p: v / count for p, v in acc.items()}


def _naive_owen(players, table, blocks):
    """Nested permutation average: orderings of coalitions, then of members
    inside the target's coalition, all expanded explicitly."""
    acc = {p: Fraction(0) for p in players}
    count = 0
    for block_order in itertools.permutations(range(len(blocks))):
        member_orders = [itertools.permutations(blocks[i]) for i in block_order]
        for arrangement in itertools.product(*member_orders):
            seen = set()
            for group in arrangement:
                for p in group:
                    before = table[frozenset(seen)]
                    seen.add(p)
                    acc[p] += table[frozenset(seen)] - before
            count += 1
    return {p: v / count for p, v in acc.items()}


def test_unanimity_game_splits_evenly():
    players = [0, 1, 2, 3]
    table = {frozenset(s): Fraction(0) for r in range(5) for s in itertools.combinations(players, r)}
    table[frozenset(players)] = Fraction(1)
    game = table_game(players, table)
    vals = exact_shapley_all(game)
    assert all(v == Fraction(1, 4) for v in vals.values())


def test_additive_game_recovers_weights():
    rng = random.Random(1)
    players = [3, 5, 8, 13]
    w = {p: Fraction(rng.randint(-9, 9)) for p in players}
    table = {
        frozenset(s): sum((w[p] for p in s), Fraction(0))
        for r in range(5)
        for s in itertools.combinations(players, r)
    }
    game = table_game(players, table)
    assert exact_shapley_all(game) == w
    # coalition structure does not change an additive game's payouts
    assert exact_owen_all(game, [0, 0, 1, 1]) == w


def test_sweep_matches_naive_enumeration():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        players = list(range(n))
        table = _random_table(rng, players)
        game = table_game(players, table)
        assert exact_shapley_all(game) == _naive_shapley(players, table)


def test_owen_matches_naive_enumeration():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 5)
        players = list(range(n))
        table = _random_table(rng, players)
        # random partition into up to 3 blocks
        blocks = [[] for _ in range(min(3, n))]
        for p in players:
            blocks[rng.randrange(len(blocks))].append(p)
        blocks = [b for b in blocks if b]
        codes = [h for p in players for h, b in enumerate(blocks) if p in b]
        game = table_game(players, table)
        assert exact_owen_all(game, codes) == _naive_owen(players, table, blocks)


def test_owen_efficiency_and_single_player_helper():
    rng = random.Random(4)
    players = [0, 1, 2, 3, 4]
    table = _random_table(rng, players)
    game = table_game(players, table)
    codes = [0, 0, 1, 1, 0]
    vals = exact_owen_all(game, codes)
    assert sum(vals.values()) == table[frozenset(players)] - table[frozenset()]
    assert exact_owen(game, codes, 2) == vals[2]
    assert exact_shapley(game, 0) == exact_shapley_all(game)[0]


def test_owen_codes_are_checked():
    rng = random.Random(5)
    players = [0, 1, 2, 3]
    game = table_game(players, _random_table(rng, players))
    # any non-negative integers name the coalitions; only the grouping counts
    assert exact_owen_all(game, [7, 2, 7, 40]) == exact_owen_all(game, [1, 0, 1, 2])
    for bad in ([0, 1, 0], [0, 1, 0, 1, 1], [0, -1, 0, 1], [0.0, 1.0, 0.0, 1.0]):
        with pytest.raises(InputError, match="coalition code"):
            exact_owen_all(game, bad)


def test_shapley_guard_and_override(monkeypatch):
    monkeypatch.setattr(divvy.oracle, "SHAPLEY_GUARD", 5)
    players = list(range(6))
    table = {
        frozenset(s): Fraction(len(s))
        for r in range(7)
        for s in itertools.combinations(players, r)
    }
    game = table_game(players, table)
    with pytest.raises(GuardError, match="yes-i-know"):
        exact_shapley_all(game)
    vals = exact_shapley_all(game, override=True)
    assert all(v == 1 for v in vals.values())


def test_owen_guard_and_override():
    players = list(range(7))
    table = {
        frozenset(s): Fraction(len(s))
        for r in range(8)
        for s in itertools.combinations(players, r)
    }
    game = table_game(players, table)
    too_many = players  # each player a coalition of its own
    with pytest.raises(GuardError):
        exact_owen_all(game, too_many)
    vals = exact_owen_all(game, too_many, override=True)
    assert all(v == 1 for v in vals.values())
    too_big = [0, 0, 0, 0, 0, 0, 1]
    with pytest.raises(GuardError):
        exact_owen_all(game, too_big)


def test_game_validates_players():
    with pytest.raises(InputError):
        CharacteristicGame([0, 0, 1], lambda s: Fraction(0))
    game = CharacteristicGame([0, 1], lambda s: Fraction(len(s)))
    with pytest.raises(InputError):
        game.mask_of([7])
    with pytest.raises(InputError):
        mc_shapley(game, 7, samples=10, seed=0)


def test_sampler_counts_must_be_integers():
    # each raised a raw TypeError, or ran a float or bool as an integer
    game = CharacteristicGame([0, 1], lambda s: Fraction(len(s)))
    for bad in (True, 3.0, 2.5, "1"):
        for args in ((bad, 2, 0), (3, bad, 0), (3, 2, bad)):
            with pytest.raises(InputError, match="^need n >= 1, samples >= 1 and seed >= 0"):
                sample_permutations(*args)
        for kw in ({"samples": bad, "seed": 0}, {"samples": 2, "seed": bad}):
            with pytest.raises(InputError, match="^need samples >= 1 and seed >= 0"):
                divvy.oracle.mc_shapley_all(game, **kw)


def test_game_memoizes_subset_calls():
    calls = Counter()

    def value_of(subset):
        calls[subset] += 1
        return Fraction(len(subset))

    game = CharacteristicGame([0, 1, 2], value_of)
    exact_shapley_all(game)
    exact_shapley_all(game)
    assert calls and max(calls.values()) == 1, "subset values should be computed once"


def test_mc_shapley_deterministic_and_seed_sensitive():
    rng = random.Random(8)
    players = list(range(5))
    table = _random_table(rng, players)
    game = table_game(players, table)
    a = mc_shapley(game, 2, samples=400, seed=123)
    b = mc_shapley(game, 2, samples=400, seed=123)
    c = mc_shapley(game, 2, samples=400, seed=124)
    assert a == b
    assert (a.estimate, a.samples, a.seed) == (b.estimate, 400, 123)
    assert a.estimate != c.estimate or a.standard_error != c.standard_error


def test_mc_shapley_additive_game_has_zero_variance():
    players = [0, 1, 2]
    w = {0: Fraction(2), 1: Fraction(-1), 2: Fraction(5)}
    table = {
        frozenset(s): sum((w[p] for p in s), Fraction(0))
        for r in range(4)
        for s in itertools.combinations(players, r)
    }
    game = table_game(players, table)
    est = mc_shapley(game, 2, samples=50, seed=0)
    assert est.estimate == 5.0
    assert est.standard_error == 0.0


def test_mc_shapley_converges_to_exact():
    rng = random.Random(77)
    players = list(range(5))
    table = _random_table(rng, players)
    game = table_game(players, table)
    want = exact_shapley_all(game)
    for p in players:
        est = mc_shapley(game, p, samples=4000, seed=9)
        gap = abs(est.estimate - float(want[p]))
        assert gap <= 6 * max(est.standard_error, 1e-12), (p, gap, est)


def test_sample_permutations_uniform_and_reproducible():
    n = 4
    draws = sample_permutations(n, 3000, seed=5)
    again = sample_permutations(n, 3000, seed=5)
    assert [list(p) for p in draws] == [list(p) for p in again]
    counts = Counter(tuple(p) for p in draws)
    assert len(counts) == 24
    expect = 3000 / 24
    sigma = (3000 * (1 / 24) * (23 / 24)) ** 0.5
    for perm, c in counts.items():
        assert abs(c - expect) < 5 * sigma, (perm, c)
