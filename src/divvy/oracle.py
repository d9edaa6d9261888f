"""Brute-force ground truth: permutation-sweep Shapley and Owen values for
small games, plus a Monte Carlo estimator for mid-sized ones.

The closed-form modules are tested against these sweeps, never against
themselves.  Subset values are memoized lazily (keyed by bitmask): the Owen
guard admits up to 25 players, where precomputing all 2^n subsets would be
infeasible but a sweep only touches a small family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Sequence

import numpy as np

from .errors import GuardError, InputError
from .model import (
    CoalitionStructure,
    Dataset,
    FrequencyValueFunction,
    KnnConfig,
    Query,
    knn_subset_value,
    rank_by_distance,
)

SHAPLEY_GUARD = 10
OWEN_GUARD_COALITIONS = 5
OWEN_GUARD_SIZE = 5


class CharacteristicGame:
    """A cooperative game over explicit player ids with lazily memoized,
    exact (Fraction) subset values."""

    def __init__(self, players: Sequence[int], value_of: Callable[[frozenset], object]):
        self.players = tuple(players)
        if len(set(self.players)) != len(self.players):
            raise InputError("duplicate player ids")
        self._index = {p: i for i, p in enumerate(self.players)}
        self._fn = value_of
        self._memo: Dict[int, Fraction] = {}

    @property
    def n(self) -> int:
        return len(self.players)

    def mask_of(self, subset: Iterable[int]) -> int:
        mask = 0
        for p in subset:
            try:
                mask |= 1 << self._index[p]
            except KeyError:
                raise InputError(f"unknown player {p!r}") from None
        return mask

    def value_mask(self, mask: int) -> Fraction:
        v = self._memo.get(mask)
        if v is None:
            subset = frozenset(
                p for i, p in enumerate(self.players) if mask >> i & 1
            )
            v = Fraction(self._fn(subset))
            self._memo[mask] = v
        return v

    def value(self, subset: Iterable[int]) -> Fraction:
        return self.value_mask(self.mask_of(subset))


def _sweep_shapley(game: CharacteristicGame) -> Dict[int, Fraction]:
    """Average marginal contribution over every permutation, by counting
    how often each predecessor set occurs and combining at the end."""
    n = game.n
    counts: list = [dict() for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        mask = 0
        for p in perm:
            c = counts[p]
            c[mask] = c.get(mask, 0) + 1
            mask |= 1 << p
    fact = math.factorial(n)
    out = {}
    for p, pid in enumerate(game.players):
        bit = 1 << p
        total = Fraction(0)
        for mask, c in counts[p].items():
            total += c * (game.value_mask(mask | bit) - game.value_mask(mask))
        out[pid] = total / fact
    return out


def _check_shapley_guard(n: int, max_n: int, override: bool) -> None:
    if n > max_n and not override:
        raise GuardError(
            f"exact Shapley enumerates {n}! permutations; refusing n > {max_n} "
            "(pass override=True / --yes-i-know to force)"
        )


def exact_shapley_all(
    game: CharacteristicGame, max_n: int = SHAPLEY_GUARD, override: bool = False
) -> Dict[int, Fraction]:
    _check_shapley_guard(game.n, max_n, override)
    return _sweep_shapley(game)


def exact_shapley(
    game: CharacteristicGame,
    player: int,
    max_n: int = SHAPLEY_GUARD,
    override: bool = False,
) -> Fraction:
    """Shapley value of one player by full permutation enumeration."""
    return exact_shapley_all(game, max_n, override)[player]


def _check_owen_guard(blocks, override: bool) -> None:
    if override:
        return
    if len(blocks) > OWEN_GUARD_COALITIONS or any(
        len(b) > OWEN_GUARD_SIZE for b in blocks
    ):
        raise GuardError(
            f"exact Owen enumerates m! x prod |C_h|! orderings; refusing more than "
            f"{OWEN_GUARD_COALITIONS} coalitions or members per coalition beyond "
            f"{OWEN_GUARD_SIZE} (pass override=True / --yes-i-know to force)"
        )


def exact_owen_all(
    game: CharacteristicGame,
    coalitions: CoalitionStructure,
    override: bool = False,
) -> Dict[int, Fraction]:
    """Owen values by enumerating coalition orderings times within-coalition
    orderings of each target coalition."""
    coalitions.validate_partition(game.players)
    cids = coalitions.coalition_ids()
    blocks = [sorted(coalitions.members[cid]) for cid in cids]
    _check_owen_guard(blocks, override)
    m = len(blocks)
    block_masks = [game.mask_of(b) for b in blocks]
    counts: Dict[int, Dict[int, int]] = {p: {} for p in game.players}
    for perm_c in itertools.permutations(range(m)):
        before = 0
        union = {}
        for h in perm_c:
            union[h] = before
            before |= block_masks[h]
        for h in range(m):
            base = union[h]
            for perm_h in itertools.permutations(blocks[h]):
                mask = base
                for pid in perm_h:
                    c = counts[pid]
                    c[mask] = c.get(mask, 0) + 1
                    mask |= 1 << game._index[pid]
    out = {}
    denom = math.factorial(m)
    for h, block in enumerate(blocks):
        scale = denom * math.factorial(len(block))
        for pid in block:
            bit = 1 << game._index[pid]
            total = Fraction(0)
            for mask, c in counts[pid].items():
                total += c * (game.value_mask(mask | bit) - game.value_mask(mask))
            out[pid] = total / scale
    return out


def exact_owen(
    game: CharacteristicGame,
    coalitions: CoalitionStructure,
    player: int,
    override: bool = False,
) -> Fraction:
    return exact_owen_all(game, coalitions, override)[player]


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    standard_error: float
    samples: int
    seed: int


def sample_permutations(n: int, samples: int, seed: int) -> list:
    """Uniform random permutations of range(n), built by inserting each next
    element at a uniform position of the partial ordering (PCG64 stream)."""
    if n < 1 or samples < 1:
        raise InputError("need n >= 1 and samples >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = [rng.integers(0, j + 1, size=samples) for j in range(1, n)]
    perms = []
    for s in range(samples):
        perm = [0]
        for j in range(1, n):
            perm.insert(int(cols[j - 1][s]), j)
        perms.append(tuple(perm))
    return perms


def _estimate(marginals: np.ndarray, samples: int, seed: int) -> McEstimate:
    se = float(marginals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(float(marginals.mean()), se, samples, seed)


def mc_shapley_all(game: CharacteristicGame, samples: int, seed: int) -> Dict[int, McEstimate]:
    """``mc_shapley`` for every player from one walk of the permutation
    stream: each sampled ordering gives every player's marginal
    contribution at once (Castro, Gomez & Tejada 2009)."""
    if not game.n:
        return {}
    marginals = np.empty((game.n, samples))
    for s, perm in enumerate(sample_permutations(game.n, samples, seed)):
        mask, before = 0, game.value_mask(0)
        for q in perm:
            mask |= 1 << q
            after = game.value_mask(mask)
            marginals[q, s] = float(after - before)
            before = after
    return {p: _estimate(row, samples, seed) for p, row in zip(game.players, marginals)}


def mc_shapley(game: CharacteristicGame, player: int, samples: int, seed: int) -> McEstimate:
    """Unbiased Monte Carlo Shapley estimate for one player: two subset
    values per sampled ordering, the prefix ahead of it with and without it.

    The same seed gives the same permutation stream for every player, so
    per-player calls with a shared seed see common random orderings.
    """
    if player not in game._index:
        raise InputError(f"unknown player {player!r}")
    p = game._index[player]
    marginals = np.empty(samples)
    for s, perm in enumerate(sample_permutations(game.n, samples, seed)):
        mask = sum(1 << q for q in perm[: perm.index(p)])
        marginals[s] = float(game.value_mask(mask | 1 << p) - game.value_mask(mask))
    return _estimate(marginals, samples, seed)


# ---------------------------------------------------------------------------
# game builders


def frequency_game(dataset: Dataset, query: Query, vf: FrequencyValueFunction) -> CharacteristicGame:
    """Characteristic game whose subsets are scored by the query bin's
    (match, mismatch) tally under the value function."""
    dataset.query_bin_code(query)
    label_of = {ex.id: ex.label for ex in dataset}
    bin_of = {ex.id: ex.bin for ex in dataset}

    def value_of(subset: frozenset):
        a = sum(1 for i in subset if bin_of[i] == query.bin and label_of[i] == query.label)
        b = sum(1 for i in subset if bin_of[i] == query.bin and label_of[i] != query.label)
        return vf.value(a, b)

    return CharacteristicGame(dataset.ids, value_of)


def knn_game(dataset: Dataset, query: Query, config: KnnConfig) -> CharacteristicGame:
    """Characteristic game whose subsets vote with their k nearest members."""
    ranking = rank_by_distance(dataset, query.features, query.label, config.metric)

    def value_of(subset: frozenset):
        return knn_subset_value(subset, ranking, config.k, config.outcome_values)

    return CharacteristicGame(dataset.ids, value_of)


def table_game(players: Sequence[int], table: Mapping[frozenset, object]) -> CharacteristicGame:
    """Game given by an explicit subset table (tests use random ones)."""

    def value_of(subset: frozenset):
        try:
            return table[frozenset(subset)]
        except KeyError:
            raise InputError(f"table game is missing v({sorted(subset)})") from None

    return CharacteristicGame(players, value_of)
