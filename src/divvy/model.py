"""Dataset containers, value functions, and the small pieces of game
mechanics (bin tallies, distance rankings, subset votes) that the payout
formulas are written against.

Labels are opaque symbols; at most two distinct ones may appear across a
dataset plus the query being scored.  Bins are opaque too.  Example ids are
unique integers in 0 .. 2**63 - 1, so a dataset's ids fit one int64 array.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, InputError, MissingValueError

Label = Hashable
Numeric = Union[int, float, Fraction]


@dataclass(frozen=True)
class Example:
    """One in-sample example.  ``bin`` is used by the frequency model,
    ``features`` by the k-NN model; either may be absent."""

    id: int
    label: Label
    bin: Optional[Hashable] = None
    features: Optional[tuple] = None
    coalition: Optional[Hashable] = None

    def __post_init__(self):
        if not isinstance(self.id, (int, np.integer)) or not 0 <= int(self.id) < 2**63:
            raise InputError(
                f"example id must be an integer in 0 .. 2**63 - 1, got {self.id!r}"
            )


@dataclass(frozen=True)
class Query:
    """An out-of-sample observation with its realized label.

    ``value_function`` optionally overrides the run-wide frequency value
    function for this query alone.
    """

    label: Label
    bin: Optional[Hashable] = None
    features: Optional[tuple] = None
    value_function: Optional["FrequencyValueFunction"] = None


class Dataset:
    """A validated set of examples, held as columns in dataset order.

    Columns: an int64 id array, codes into at most two label symbols, into
    the distinct bins in order of first appearance (a missing bin is None)
    and into the distinct coalition ids (-1 for none), and a feature column.
    ``examples`` (and iteration) give ``Example`` row views, built once on
    first use; the frequency reports and the k-NN float path read only the
    columns, so a parsed dataset keeps no Python object per example.
    Missing bins or features are reported when a method asks for them, not
    when the dataset is built.
    """

    def __init__(self, examples: Iterable[Example]):
        rows = list(examples)
        ids = [int(ex.id) for ex in rows]
        if len(set(ids)) < len(ids):  # a set of the ints in hand; the row only to name it
            raise InputError(f"duplicate example id {ids[duplicate_row(ids)]}")
        labels = [ex.label for ex in rows]
        strs = sorted(set(map(str, labels)))
        if len(strs) > 2:
            raise InputError(f"labels must be binary; found a third symbol {strs[2]!r}")
        symbols, codes = first_codes(labels)
        self._set_columns(
            np.array(ids, dtype=np.int64),
            tuple(symbols),
            codes.astype(np.int8),
            first_codes([ex.bin for ex in rows]),
            code_coalitions(ids, [ex.coalition for ex in rows]),
            [ex.features for ex in rows],
        )
        self._rows = rows

    @classmethod
    def _from_columns(
        cls,
        ids: np.ndarray,
        symbols: tuple,
        codes: np.ndarray,
        bins: Optional[Tuple[Mapping, np.ndarray]],
        coalitions: Tuple[tuple, np.ndarray],
        features: Optional[np.ndarray] = None,
    ) -> "Dataset":
        """A dataset over validated columns: unique int64 ids, ``codes``
        indexing ``symbols``, bins as ``first_codes`` gives them (None: no
        example has one), coalitions as ``code_cells`` gives them, and an
        optional float feature matrix with one row per example."""
        if bins is None:
            bins = {None: 0} if len(ids) else {}, np.zeros(len(ids), np.intp)
        dataset = cls.__new__(cls)
        dataset._set_columns(ids, symbols, codes, bins, coalitions, features)
        return dataset

    def _set_columns(self, ids, symbols, codes, bins, coalitions, features):
        ids.flags.writeable = False
        self._ids = ids
        self._symbols = symbols
        self._codes = codes
        bins[1].flags.writeable = False
        self._bin_codes = (MappingProxyType(bins[0]), bins[1])
        coalitions[1].flags.writeable = False
        self._coalitions = coalitions
        # a float matrix, or per-example tuples (None where absent) or None
        # (none has features) until feature_matrix() checks them and builds one
        self._features = features
        self._rows = None
        self._label_masks = None

    def with_coalition_codes(self, names: tuple, codes: np.ndarray) -> "Dataset":
        """The same examples with their coalitions replaced by ``names`` and
        per-row ``codes``, as ``code_cells`` gives them, in dataset order;
        every other column, and its caches, is shared."""
        if len(codes) != len(self):
            raise InputError(f"{len(codes)} coalition ids given for {len(self)} examples")
        other = copy.copy(self)
        codes.flags.writeable = False
        other._coalitions = (names, codes)
        other._rows = None
        return other

    def __len__(self):
        return len(self._ids)

    def __iter__(self):
        return iter(self.examples)

    @property
    def examples(self) -> list:
        """``Example`` row views in dataset order, built once."""
        if self._rows is None:
            feats = self._features
            if isinstance(feats, np.ndarray):
                feats = list(map(tuple, feats.tolist()))
            labels = [self._symbols[c] for c in self._codes.tolist()]
            bins = code_names(tuple(self._bin_codes[0]), self._bin_codes[1])
            rows = zip(self._ids.tolist(), labels, bins, feats or [None] * len(self),
                       self.coalition_column())
            self._rows = [Example(*row) for row in rows]
        return self._rows

    @property
    def ids(self) -> list:
        return self._ids.tolist()

    def id_array(self) -> np.ndarray:
        """Example ids in dataset order as a read-only int64 array."""
        return self._ids

    def label_mask(self, label: Label) -> np.ndarray:
        """Read-only boolean array, True where an example's label equals
        ``label``; one mask per dataset label, built once."""
        if self._label_masks is None:
            masks = {lab: self._codes == c for c, lab in enumerate(self._symbols)}
            for mask in masks.values():
                mask.flags.writeable = False
            self._label_masks = masks
        if label not in self._label_masks:
            return np.zeros(len(self), dtype=bool)
        return self._label_masks[label]

    @property
    def labels(self) -> set:
        return set(self._symbols)

    def label_column(self) -> Tuple[tuple, np.ndarray]:
        """The label symbols in code order and each example's label code."""
        return self._symbols, self._codes

    def check_query_label(self, label: Label) -> None:
        if label not in self._symbols and len(self._symbols) >= 2:
            raise InputError(
                f"query label {label!r} is a third symbol; dataset labels are {sorted(map(str, self._symbols))}"
            )

    def bin_codes(self) -> Tuple[Mapping[Hashable, int], np.ndarray]:
        """Read-only map from bin (None if missing) to code, in order of first
        appearance, and each example's code as a read-only array."""
        return self._bin_codes

    def bin_mask(self, bin_id: Hashable) -> np.ndarray:
        """Boolean array, True where an example sits in ``bin_id``."""
        code, codes = self.bin_codes()
        return codes == code.get(bin_id, -1)

    def bins(self) -> set:
        return set(self.bin_codes()[0])

    def require_bins(self) -> None:
        code, codes = self.bin_codes()
        if None in code:
            missing = self._ids[codes == code[None]][:5].tolist()
            raise InputError(f"examples {missing} have no bin; frequency methods need one")

    def query_bin_code(self, query: Query) -> int:
        """The code of a frequency query's bin, once every example has a bin,
        the query label is not a third symbol and the bin is known."""
        self.require_bins()
        self.check_query_label(query.label)
        code = self.bin_codes()[0].get(query.bin)
        if code is None:
            raise InputError(f"query bin {query.bin!r} is unknown to the dataset")
        return code

    def by_bin(self, bin_id: Hashable) -> list:
        rows = self.examples
        return [rows[r] for r in np.flatnonzero(self.bin_mask(bin_id)).tolist()]

    def coalition_column(self) -> list:
        """Each example's coalition id (or None), in dataset order."""
        return code_names(*self._coalitions)

    def coalition_codes(self) -> Tuple[tuple, np.ndarray]:
        """The distinct coalition ids, sorted by ``str``, and each example's
        index among them (-1 for none) as a read-only array."""
        return self._coalitions

    def partition_codes(self) -> Tuple[tuple, np.ndarray]:
        """``coalition_codes()``, once every example has a coalition."""
        names, codes = self._coalitions
        if (codes < 0).any():
            raise InputError(
                f"examples {self._ids[codes < 0][:5].tolist()} carry no coalition id; "
                "Owen methods need a full partition"
            )
        return names, codes

    def feature_matrix(self) -> np.ndarray:
        """All feature rows as a column-major float array; validates presence and shape."""
        if not isinstance(self._features, np.ndarray):
            dims = set()
            for i, feats in zip(self.ids, self._features or [None] * len(self)):
                if feats is None:
                    raise InputError(f"example {i} has no features; k-NN methods need them")
                dims.add(len(feats))
            if len(dims) > 1:
                raise InputError(f"feature dimensions are ragged: {sorted(dims)}")
            self._features = np.array(self._features or [], dtype=float, order="F")
        return self._features


def duplicate_row(ids: Sequence[int]) -> Optional[int]:
    """Position of the first id that repeats an earlier one, or None."""
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")  # equal ids in row order
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    return int(repeats.min()) if len(repeats) else None


def code_cells(cells: Sequence[Optional[Hashable]]) -> Tuple[tuple, np.ndarray]:
    """The distinct cells other than None, sorted by ``str`` (equal strings
    in order of first appearance), and each cell's index among them, -1 for
    None, as an intp array.  An unhashable cell raises TypeError."""
    names = tuple(sorted((c for c in dict.fromkeys(cells) if c is not None), key=str))
    code = {c: i for i, c in enumerate(names)}
    code[None] = -1
    return names, np.fromiter(map(code.__getitem__, cells), dtype=np.intp, count=len(cells))


def code_coalitions(ids: Sequence[int], cells: Sequence) -> Tuple[tuple, np.ndarray]:
    """``code_cells(cells)`` for the coalition ids of the examples ``ids``;
    an unhashable one is refused by its example's id."""
    try:
        return code_cells(cells)
    except TypeError:
        for i, cell in zip(ids, cells):
            try:
                hash(cell)
            except TypeError:
                raise InputError(f"example {i} has an unhashable coalition id {cell!r}") from None
        raise


def dense_codes(codes: Sequence[int], n: int) -> Tuple[int, np.ndarray]:
    """The number m of distinct coalitions among n players given one
    coalition code each, any non-negative integers, and each player's code
    renumbered to 0 .. m - 1 in code order; refuses a code count other
    than n and a negative or non-integer code."""
    codes = np.asarray(codes)
    if codes.shape != (n,):
        raise InputError(f"need one coalition code for each of {n} players, got {codes.shape}")
    bad = codes[codes < 0] if codes.dtype.kind in "iu" else codes
    if len(bad):
        raise InputError(f"coalition codes must be non-negative integers, got {bad[:5].tolist()}")
    present, dense = np.unique(codes, return_inverse=True)
    return len(present), dense


def code_names(names: Sequence, codes: np.ndarray, missing=None) -> list:
    """Each code's name, ``missing`` for -1: ``code_cells`` undone."""
    return np.fromiter((*names, missing), dtype=object, count=len(names) + 1)[codes].tolist()


def first_codes(cells: Sequence[Hashable]) -> Tuple[dict, np.ndarray]:
    """Each distinct cell's code, in order of first appearance, and each
    cell's code as an intp array."""
    code: dict = {}
    return code, np.fromiter((code.setdefault(c, len(code)) for c in cells), np.intp, len(cells))


# ---------------------------------------------------------------------------
# frequency model: value functions over (match, mismatch) count pairs


def _require_count(name: str, v: int) -> None:
    if not isinstance(v, (int, np.integer)) or v < 0:
        raise InputError(f"{name} must be a non-negative integer, got {v!r}")


class FrequencyValueFunction:
    """Maps a count pair (a matches, b mismatches) to money.

    A subclass implements ``value``; it may override ``critical_cells`` with
    a faster listing of the same cells, and sets ``by_difference`` only when
    the value depends on a - b alone (its critical cells are then read as
    ``critical_diagonals``)."""

    by_difference = False

    def value(self, a: int, b: int) -> Numeric:  # pragma: no cover - interface
        raise NotImplementedError

    def critical_cells(self, size_a: int, size_b: int, label_matches: bool) -> list:
        """Each (a, b, delta) with 0 <= a <= size_a, 0 <= b <= size_b where
        one more example of the given label class moves the value by the
        non-zero Fraction delta, in (a, b) order.  This scans the box."""
        cells = ((a, b, Fraction(delta_value(self, a, b, label_matches)))
                 for a in range(size_a + 1) for b in range(size_b + 1))
        return [cell for cell in cells if cell[2]]

    def critical_diagonals(self, size_a: int, size_b: int, label_matches: bool) -> dict:
        """For a rule of a - b alone: each diagonal a - b = d that crosses the
        box and holds critical cells, with its one delta, in any order."""
        return {a - b: x for a, b, x in self.critical_cells(size_a, size_b, label_matches)}


@dataclass(frozen=True)
class MajorityValueFunction(FrequencyValueFunction):
    """Pays ``correct`` when matches outnumber mismatches, ``wrong`` when they
    trail, ``none`` on a tie (including the empty bin)."""

    correct: Numeric
    wrong: Numeric
    none: Numeric

    by_difference = True

    def value(self, a: int, b: int) -> Numeric:
        _require_count("a", a)
        _require_count("b", b)
        if a > b:
            return self.correct
        if a < b:
            return self.wrong
        return self.none

    def critical_diagonals(self, size_a: int, size_b: int, label_matches: bool) -> dict:
        # adding a match moves the value only on a - b = 0 and -1, a mismatch
        # only on a - b = 0 and 1; a diagonal crosses the box if -size_b <= d <= size_a
        da, db = (0, 1) if label_matches else (1, 0)
        deltas = {da - db: delta_value(self, da, db, label_matches),
                  0: delta_value(self, 0, 0, label_matches)}
        return {d: Fraction(x) for d, x in deltas.items()  # a zero delta lists none
                if x and -size_b <= d <= size_a}

    def critical_cells(self, size_a: int, size_b: int, label_matches: bool) -> list:
        diagonals = self.critical_diagonals(size_a, size_b, label_matches)
        return diagonal_cells(diagonals, size_a, size_b)


@dataclass(frozen=True)
class TableValueFunction(FrequencyValueFunction):
    """Explicit (a, b) -> money table with an optional default."""

    entries: Mapping[tuple, Numeric]
    default: Optional[Numeric] = None

    def __post_init__(self):
        for key in self.entries:
            if not (isinstance(key, tuple) and len(key) == 2 and all(
                    isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0
                    for c in key)):
                raise InputError(f"table entry {key!r} is not a pair of non-negative integers")
        if (0, 0) not in self.entries and self.default is None:
            raise InputError("table value function must define v(0, 0) or a default")

    def value(self, a: int, b: int) -> Numeric:
        _require_count("a", a)
        _require_count("b", b)
        v = self.entries.get((a, b), self.default)
        if v is None:
            raise MissingValueError(f"value table has no entry for ({a}, {b}) and no default")
        return v

    def critical_cells(self, size_a: int, size_b: int, label_matches: bool) -> list:
        # with a default, a delta is non-zero only at an entry or one step
        # below one along the added class; without one the table must cover
        # the box, so the scan reads no more cells than the table holds
        if self.default is None:
            return super().critical_cells(size_a, size_b, label_matches)
        da, db = (1, 0) if label_matches else (0, 1)
        near = {(a - s * da, b - s * db) for a, b in self.entries for s in (0, 1)}
        cells = ((a, b, Fraction(delta_value(self, a, b, label_matches))) for a, b in sorted(near)
                 if 0 <= a <= size_a and 0 <= b <= size_b)
        return [cell for cell in cells if cell[2]]


def diagonal_cells(diagonals: Mapping[int, Fraction], size_a: int, size_b: int) -> list:
    """Each cell (a, b, delta) of the box [0, size_a] x [0, size_b] on a
    diagonal a - b = d that ``diagonals`` maps to its delta, in (a, b) order."""
    return sorted((b + d, b, x) for d, x in diagonals.items()
                  for b in range(max(-d, 0), min(size_b, size_a - d) + 1))


def delta_value(vf: FrequencyValueFunction, a: int, b: int, label_matches: bool) -> Numeric:
    """Marginal change from adding one example of the given label class to a
    bin already holding (a, b)."""
    if label_matches:
        return vf.value(a + 1, b) - vf.value(a, b)
    return vf.value(a, b + 1) - vf.value(a, b)


@dataclass(frozen=True)
class BinTally:
    """Counts of matching / mismatching examples inside one bin, relative to
    a particular query label."""

    n_match: int
    n_mismatch: int

    def __post_init__(self):
        _require_count("n_match", self.n_match)
        _require_count("n_mismatch", self.n_mismatch)

    @property
    def n(self) -> int:
        return self.n_match + self.n_mismatch


def tally_bin(dataset: Dataset, bin_id: Hashable, query_label: Label) -> BinTally:
    """Tally the examples of one bin against the query label."""
    dataset.check_query_label(query_label)
    in_bin = dataset.bin_mask(bin_id)
    a = int(np.count_nonzero(in_bin & dataset.label_mask(query_label)))
    return BinTally(a, int(np.count_nonzero(in_bin)) - a)


# ---------------------------------------------------------------------------
# k-NN model: rankings and subset votes


@dataclass(frozen=True)
class OutcomeValues:
    """Money attached to a k-NN vote on one query: correct majority, wrong
    majority, or fewer than k voters present."""

    correct: Numeric
    wrong: Numeric
    none: Numeric

    def as_fractions(self) -> "OutcomeValues":
        return OutcomeValues(Fraction(self.correct), Fraction(self.wrong), Fraction(self.none))


@dataclass(frozen=True)
class KnnConfig:
    k: int
    outcome_values: OutcomeValues

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ConfigError(f"k must be a positive integer, got {self.k!r}")
        if self.k % 2 == 0:
            raise ConfigError("k must be odd")


@dataclass(frozen=True)
class RankedNeighborhood:
    """Examples sorted by ascending distance to one query (ties broken by
    ascending id), with prefix label counts relative to the query label.

    ``prefix_match[j]`` / ``prefix_mismatch[j]`` count examples strictly
    before rank position j (0-based), so position 0 has counts (0, 0) and
    the two arrays always sum to the position index; they are counted when
    first read.  ``rows[j]`` is the dataset row (position in
    ``Dataset.examples``) of the example at rank j.
    """

    ordering: np.ndarray        # example ids, nearest first
    matches: np.ndarray         # bool, label == query label, by position
    rows: np.ndarray            # dataset row, by position

    @cached_property
    def prefix_match(self) -> np.ndarray:
        return np.cumsum(self.matches) - self.matches

    @cached_property
    def prefix_mismatch(self) -> np.ndarray:
        return np.arange(len(self.matches)) - self.prefix_match

    def __len__(self):
        return len(self.ordering)

    def position_of(self, example_id: int) -> int:
        hits = np.nonzero(self.ordering == example_id)[0]
        if len(hits) == 0:
            raise InputError(f"example {example_id} is not in this ranking")
        return int(hits[0])


def _squared_distances(feats: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each row's sum of (feats[:, j] - q[j])**2, added a column at a time as numpy 2.4's
    row sum of a C-ordered matrix adds (from 0, a no-op on squares): distances keep their bits."""
    tmp = np.empty(len(feats))  # the scratch column of every term but each sum's first
    return _column_sums(feats, q, 0, len(q), tmp) if len(q) else np.zeros(len(feats))


def _column_sums(feats, q, lo: int, hi: int, tmp: np.ndarray) -> np.ndarray:
    """``_squared_distances`` over the columns lo .. hi - 1 (hi > lo)."""
    count, lanes = hi - lo, 8 if hi - lo >= 8 else 1  # in sequence below 8 terms
    if count > 128:  # halves, the first a multiple of 8
        out = _column_sums(feats, q, lo, lo + count // 16 * 8, tmp)
        return np.add(out, _column_sums(feats, q, lo + count // 16 * 8, hi, tmp), out=out)
    r = [np.square(x, out=x) for x in (feats[:, j] - q[j] for j in range(lo, lo + lanes))]
    for j in range(lo + lanes, hi - count % lanes):
        r[(j - lo) % lanes] += np.square(np.subtract(feats[:, j], q[j], out=tmp), out=tmp)
    while len(r) > 1:  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r = [np.add(x, y, out=x) for x, y in zip(r[::2], r[1::2])]
    for j in range(hi - count % lanes, hi):
        r[0] += np.square(np.subtract(feats[:, j], q[j], out=tmp), out=tmp)
    return r[0]


def rank_by_distance(dataset: Dataset, query_features: Sequence[float],
                     query_label: Label) -> RankedNeighborhood:
    """Rank the whole dataset by Euclidean distance to the query point,
    summed a column at a time.  Equal distances fall back to ascending id,
    which keeps every downstream computation deterministic."""
    dataset.check_query_label(query_label)
    feats = dataset.feature_matrix()
    q = np.asarray(tuple(query_features), dtype=float)
    if not feats.shape[0]:
        feats = feats.reshape(0, q.shape[0])  # Dataset([]) has no feature width
    elif q.shape[0] != feats.shape[1]:
        raise InputError(
            f"query has {q.shape[0]} features but the dataset has {feats.shape[1]}"
        )
    with np.errstate(over="ignore"):
        dist = np.sqrt(_squared_distances(feats, q))
        if not np.isfinite(dist).all() and np.isfinite(q).all():
            # finite features beyond ~1e154 overflow the squares; one exact
            # power-of-two rescale of those rows brings them into range
            far = ~np.isfinite(dist) & np.isfinite(feats).all(axis=1)
            if far.any():
                _, e = np.frexp(max(np.abs(feats[far]).max(), np.abs(q).max()))
                d = np.ldexp(feats[far], -e) - np.ldexp(q, -e)
                dist[far] = np.ldexp(np.sqrt((d**2).sum(axis=1)), e)
    ids = dataset.id_array()
    order = np.argsort(dist)
    ranked = dist[order]
    if not (ranked[1:] > ranked[:-1]).all():
        # equal (or NaN) distances: only a sort keyed on id as well fixes
        # their order; without them the plain sort is already that order
        order = np.lexsort((ids, dist))
    return RankedNeighborhood(ids[order], dataset.label_mask(query_label)[order], order)


def knn_subset_value(
    subset: Iterable[int],
    ranking: RankedNeighborhood,
    k: int,
    ov: OutcomeValues,
) -> Numeric:
    """Value of a coalition subset: majority vote of its k nearest members,
    ``none`` when it musters fewer than k."""
    if k < 1 or k % 2 == 0:
        raise ConfigError("k must be odd")
    subset = set(subset)
    votes = 0
    seen = 0
    for pos in range(len(ranking)):
        if int(ranking.ordering[pos]) in subset:
            votes += bool(ranking.matches[pos])
            seen += 1
            if seen == k:
                break
    if seen < k:
        return ov.none
    return ov.correct if 2 * votes > k else ov.wrong


def to_money(x: Numeric, mode: str):
    """Normalize a raw value to the numeric mode's representation.

    Floats convert to Fraction exactly (their binary expansion); the exact
    pipeline never invents rounding on its own.
    """
    return Fraction(x) if mode == "exact" else float(x)
