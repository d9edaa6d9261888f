"""Shared random-instance generators for the test suite.

Instances are small enough for the enumeration oracle and are drawn from
seeded ``random.Random`` streams so every run sees the same cases.  The
Hypothesis tests draw theirs deterministically too, and keep no example
database.
"""

import random
import tempfile
from fractions import Fraction

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from divvy import (
    Dataset,
    Example,
    KnnConfig,
    MajorityValueFunction,
    OutcomeValues,
    Query,
    TableValueFunction,
)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Hypothesis caches what it reads from the code under test (its "constants")
# in its home directory, ./.hypothesis by default, even with no database;
# a temporary home, removed when the session ends, keeps it out of the tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

LABELS = ["relevant", "other"]
BINS = ["b0", "b1", "b2"]


def random_value_function(rng, max_count):
    """Either a majority rule or a dense random table covering the box."""
    if rng.random() < 0.5:
        vals = [Fraction(rng.randint(-8, 8)) for _ in range(3)]
        return MajorityValueFunction(*vals)
    entries = {
        (a, b): Fraction(rng.randint(-8, 8), rng.choice([1, 1, 2, 4]))
        for a in range(max_count + 1)
        for b in range(max_count + 1)
    }
    return TableValueFunction(entries)


def random_frequency_instance(rng, max_n=7, with_coalitions=False, max_groups=3):
    """A binned dataset, one query into a populated bin, and a value
    function defined on every reachable tally."""
    n = rng.randint(1, max_n)
    examples = []
    for i in range(n):
        cid = f"g{rng.randrange(max_groups)}" if with_coalitions else None
        examples.append(
            Example(i, rng.choice(LABELS), bin=rng.choice(BINS), coalition=cid)
        )
    dataset = Dataset(examples)
    query = Query(label=rng.choice(LABELS), bin=rng.choice(sorted(dataset.bins())))
    vf = random_value_function(rng, n)
    return dataset, query, vf


def mixed_frequency_queries(rng, dataset, query):
    """``query`` twice, then queries that differ from it in one way each:
    the other label, another populated bin, an own value function."""
    other_label = LABELS[1 - LABELS.index(query.label)]
    other_bin = rng.choice(sorted(dataset.bins()))
    own_vf = random_value_function(rng, len(dataset))
    return [
        query,
        query,
        Query(label=other_label, bin=query.bin),
        Query(label=query.label, bin=other_bin),
        Query(label=query.label, bin=query.bin, value_function=own_vf),
    ]


def random_knn_instance(rng, max_n=7, ks=(1, 3, 5), with_coalitions=False,
                        max_groups=3, dims=2):
    """A small feature dataset, one query point, and an odd-k vote config."""
    n = rng.randint(1, max_n)
    examples = []
    for i in range(n):
        cid = f"g{rng.randrange(max_groups)}" if with_coalitions else None
        feats = tuple(round(rng.uniform(-1, 1), 3) for _ in range(dims))
        examples.append(
            Example(i, rng.choice(LABELS), features=feats, coalition=cid)
        )
    dataset = Dataset(examples)
    query = Query(
        label=rng.choice(LABELS),
        features=tuple(round(rng.uniform(-1, 1), 3) for _ in range(dims)),
    )
    outcomes = OutcomeValues(
        Fraction(rng.randint(1, 6)),
        Fraction(rng.randint(-6, 0)),
        Fraction(rng.randint(-2, 2)),
    )
    config = KnnConfig(rng.choice(list(ks)), outcomes)
    return dataset, query, config


def relative_gap(x, y):
    """|x - y| scaled by the larger magnitude; 0 when both vanish."""
    scale = max(abs(x), abs(y))
    if scale == 0:
        return 0.0
    return abs(x - y) / scale


def insertion_dp(pairs, caps=None, first=None):
    """The layered insertion DP that the preceder law replaced, kept as an
    independent exact reference.  Coalitions join a random ordering one at
    a time against a fixed target, tracking (s, a, b): how many joined
    coalitions precede the target and what counts they contribute.  At
    layer j a state with s preceders advances with probability
    (s + 1) / (j + 1).  ``first`` pins one coalition ahead of the target
    with mass 1/2, the chance it precedes at all; states over ``caps`` are
    dropped.  Returns the (a, b) marginal."""
    if first is None:
        states, j = {(0, 0, 0): Fraction(1)}, 1
    elif caps is not None and (first[0] > caps[0] or first[1] > caps[1]):
        return {}
    else:
        states, j = {(1, first[0], first[1]): Fraction(1, 2)}, 2
    for a_j, b_j in pairs:
        nxt = {}
        for (s, a, b), mass in states.items():
            p_adv = Fraction(s + 1, j + 1)
            key = (s + 1, a + a_j, b + b_j)
            if caps is None or (key[1] <= caps[0] and key[2] <= caps[1]):
                nxt[key] = nxt.get(key, 0) + mass * p_adv
            nxt[s, a, b] = nxt.get((s, a, b), 0) + mass * (1 - p_adv)
        states = nxt
        j += 1
    out = {}
    for (s, a, b), mass in states.items():
        out[a, b] = out.get((a, b), 0) + mass
    return out
