"""Core data model: datasets, the decision spec, and confidence ranking.

A binary decision here is a signed confidence t: it predicts 1 iff t > 0,
its confidence is |t|, and the local exchange of its class is -t, exact for
every finite t (t = 0 is its own exchange).  Scores judged against another
threshold a are centred once, t = s - a, where they are read: IEEE
subtraction with gradual underflow gives s - a = 0 only when s = a, and it
rounds monotonically, so each row keeps its class and its confidence is
|s - a| bit for bit.  A :class:`DecisionSpec` therefore holds only the
threshold 0.  Ranking a dataset by descending confidence is the substrate
for every decision-rate metric in :mod:`lxcim.metrics`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError

__all__ = [
    "Dataset",
    "DecisionSpec",
    "RankedView",
    "predict",
    "make_abs_spec",
    "rank_by_confidence",
]


def _as_float_array(values, name: str) -> np.ndarray:
    """A new 1-d float64 array holding ``values`` (always a copy)."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be numeric: {exc}") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _whole_number(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is integral and not a boolean."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be integral, got {value!r}")
    return whole


# The largest deviation the invariance checkers and identity verifiers let pass
_CHECK_TOLERANCE = 1e-9


class Dataset:
    """Immutable, ordered collection of weighted scored samples.

    Scores must be finite, labels 0/1, weights finite and strictly positive.
    An empty dataset can be constructed but every metric rejects it.

    The constructor copies and checks all three arrays.  Exchanges and
    duplications build their results with :meth:`_from_valid` instead, which
    skips both: those arrays are valid by construction (scores negated or
    centred and checked finite, labels flipped from 0/1, weights shared
    read-only).  Only :meth:`_from_valid` attaches a ``_WeightOrder`` of the
    weights, which the exchanged datasets of one invariance check share for
    their rankings.
    """

    __slots__ = ("scores", "labels", "weights", "_weight_order")

    def __init__(self, scores, labels, weights=None):
        score_arr = _as_float_array(scores, "scores")
        raw_labels = np.asarray(labels)
        if raw_labels.ndim != 1:
            raise ValueError(f"labels must be one-dimensional, got shape {raw_labels.shape}")
        if len(raw_labels) != len(score_arr):
            raise ValueError(
                f"length mismatch: {len(score_arr)} scores vs {len(raw_labels)} labels"
            )
        ok = (raw_labels == 0) | (raw_labels == 1)
        if not ok.all():
            bad = raw_labels[~ok][:1]
            raise ValueError(f"labels must be 0 or 1, got {bad[0]!r}")
        label_arr = np.array(raw_labels, dtype=np.int64)

        if weights is None:
            weight_arr = np.ones(len(score_arr), dtype=float)
        else:
            weight_arr = _as_float_array(weights, "weights")
            if len(weight_arr) != len(score_arr):
                raise ValueError(
                    f"length mismatch: {len(score_arr)} scores vs {len(weight_arr)} weights"
                )
        if not np.isfinite(score_arr).all():
            raise ValueError("scores must all be finite")
        if not np.isfinite(weight_arr).all():
            raise ValueError("weights must all be finite")
        if not (weight_arr > 0.0).all():
            raise ValueError("weights must all be > 0")
        self._init_arrays(score_arr, label_arr, weight_arr)

    @classmethod
    def _from_valid(
        cls, scores: np.ndarray, labels: np.ndarray, weights: np.ndarray, weight_order: _WeightOrder | None = None
    ) -> "Dataset":
        """A dataset over arrays that are valid by construction, neither copied nor checked.

        The caller guarantees equal lengths, finite float64 scores, int64 0/1
        labels and finite positive float64 weights, and that ``weight_order``,
        if given, was made from this very ``weights`` array.  The arrays
        become read-only, so each must be new or already read-only.
        """
        self = object.__new__(cls)
        self._init_arrays(scores, labels, weights, weight_order)
        return self

    def _init_arrays(
        self, scores: np.ndarray, labels: np.ndarray, weights: np.ndarray, weight_order: _WeightOrder | None = None
    ) -> None:
        # spelled out, not looped: it runs once per exchanged or duplicated dataset
        scores.setflags(write=False)
        labels.setflags(write=False)
        weights.setflags(write=False)
        setter = object.__setattr__
        setter(self, "scores", scores)
        setter(self, "labels", labels)
        setter(self, "weights", weights)
        setter(self, "_weight_order", weight_order)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the checked constructor, with no _WeightOrder
        return type(self), (self.scores, self.labels, self.weights)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return len(self.scores)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.scores, other.scores)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.weights, other.weights)
        )

    __hash__ = None  # value semantics, mutable-equality style

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, total_weight={self.total_weight:g})"


def _threshold(value) -> float:
    """``value`` as a finite float; ValueError for a boolean, which ``float`` reads as 0 or 1,
    and for text, which it parses."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"s_star must be a finite number, not a boolean, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DecisionSpec:
    """The decision rule "predict 1 iff score > 0", the library's one threshold.

    A score is a signed confidence: its confidence is ``abs(score)`` and its
    exchange is ``-score``, both exact.  ``s_star`` must be 0, or ValueError
    is raised: scores judged against another threshold ``a`` are centred
    once instead, with ``ingest(..., s_star=a)`` or ``Dataset(scores - a,
    ...)``.
    """

    s_star: float

    def __post_init__(self) -> None:
        if _threshold(self.s_star) != 0.0:
            raise ValueError(
                f"s_star must be 0, got {self.s_star!r}: centre the scores once instead, with "
                f"ingest(..., s_star={self.s_star!r}) or Dataset(scores - {self.s_star!r}, ...)"
            )
        object.__setattr__(self, "s_star", 0.0)


def predict(score, spec: DecisionSpec):
    """Binary prediction: 1 iff the score is strictly above the threshold 0.

    A score exactly at the threshold predicts the negative class.  Returns
    int64 of the input's shape (0-d for a scalar); raises ValueError if any
    score is NaN or infinite.
    """
    scores = np.asarray(score, dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError("scores must all be finite")
    return (scores > 0.0).astype(np.int64)


def make_abs_spec(s_star: float = 0.0) -> DecisionSpec:
    """The spec at zero: confidence ``abs(s)``, exchange ``-s``.

    ``s_star`` must be 0, a finite number and not a boolean, as for
    :class:`DecisionSpec`; centre scores judged against another threshold
    before they reach the library.
    """
    return DecisionSpec(s_star)


@dataclass(frozen=True, eq=False)
class RankedView:
    """A dataset ordered by strictly descending decision confidence.

    ``order`` maps ranked positions to original dataset positions.  Runs of
    equal confidence are tie groups; within a group samples sit in a canonical
    suborder keyed on correctness (wrong first), then weight (light first), the
    two attributes an exchange preserves per sample, so every cumulative array
    here is identical before and after exchanging any subset and independent
    of input order.  Side of the threshold (below first), then dataset
    position, break the remaining ties, between samples whose relative order
    cannot affect the prefix sums.  A tie group holds at most one score per
    side, t and -t, and correctness plus side fix the label, so this is the
    order of (score, label) as well.

    ``cum_weight`` and ``cum_correct_weight`` are per-sample prefix sums of
    weight and of weight restricted to correctly predicted samples.
    ``group_ends`` holds the exclusive end position of each tie group.
    """

    order: np.ndarray
    correct: np.ndarray
    weight: np.ndarray
    cum_weight: np.ndarray
    cum_correct_weight: np.ndarray
    group_ends: np.ndarray


# From this many samples on, sorting by weight first beats one lexsort.  Over
# 200 different 2-decimal datasets a size (2-core x86 VM, numpy 2.4), lexsort
# against weight first took, with distinct weights, 7.7 / 7.6 us at 128 rows,
# 13.3 / 9.4 at 256 and 25.1 / 13.7 at 512; with equal weights, which weight
# first sorts in vain before its lexsort, 4.8 / 7.3 at 128 and 6.1 / 8.6 at 256
_WEIGHT_FIRST_MIN_N = 256


class _WeightOrder:
    """The ascending order of one weights array when its weights are distinct, sorted on first use.

    With distinct weights every sort by weight is the canonical one, so this
    order is a function of the weights alone.  An exchange keeps each
    sample's weight and shares the weights array itself, so the rankings of
    one check's exchanged datasets can all take their order from one object.
    It holds nothing derived from scores or labels.
    """

    __slots__ = ("weights", "_sorted", "_order")

    def __init__(self, weights: np.ndarray):
        self.weights, self._sorted, self._order = weights, False, None

    def distinct(self) -> np.ndarray | None:
        """``weights.argsort()``, or None when a weight repeats."""
        if not self._sorted:
            self._order, self._sorted = _distinct_weight_order(self.weights), True
        return self._order


def _distinct_weight_order(weights: np.ndarray) -> np.ndarray | None:
    by_weight = weights.argsort()
    sorted_weights = weights[by_weight]
    if (sorted_weights[1:] != sorted_weights[:-1]).all():
        by_weight.setflags(write=False)
        return by_weight
    return None


def _sharing_weight_order(dataset: Dataset) -> Dataset:
    """An uncopied twin of ``dataset`` with a fresh ``_WeightOrder``, for rankings that share its weights.

    Below ``_WEIGHT_FIRST_MIN_N`` samples a ranking sorts no weights apart,
    so there ``dataset`` itself is returned.
    """
    if len(dataset) < _WEIGHT_FIRST_MIN_N:
        return dataset
    return Dataset._from_valid(dataset.scores, dataset.labels, dataset.weights, _WeightOrder(dataset.weights))


def _canonical_ties(order, new_group, groups, correct, predicted, weights, weight_order) -> np.ndarray:
    """Put tied samples in the canonical suborder of :class:`RankedView`.

    ``order`` sorts by descending confidence with ties in any order,
    ``new_group`` marks where its confidence changes and ``groups`` counts the
    tie groups.  The result sorts by (group, correctness, weight, side,
    position).  Numpy's stable sort radix-sorts 8- and 16-bit integers, so with
    distinct weights one key, ``2·group + correct`` in the narrowest unsigned
    type that holds ``2·groups - 1``, orders the weight-sorted samples in one
    pass.  Past 32768 groups correctness and the group ids' 16-bit pieces take
    a pass each instead.  Few samples or repeated weights take one lexsort.
    The weight order is the dataset's ``_WeightOrder``, shared by one check's
    exchanged datasets, or a fresh one when it carries none.
    """
    n = len(order)
    combine = n >= _WEIGHT_FIRST_MIN_N and groups <= 32768
    top = 2 * groups - 1 if combine else groups - 1  # the largest key
    dtype = np.uint8 if top < 256 else np.uint16 if top < 65536 else np.min_scalar_type(top)
    key = np.zeros(n, dtype)
    key[order[1:]] = np.cumsum(new_group, dtype=dtype)
    if n < _WEIGHT_FIRST_MIN_N:
        return np.lexsort((predicted, weights, correct, key))
    if combine:
        key += key
        key += correct
        keys = (key,)
    else:
        keys = (correct, *((key >> s).astype(np.uint16, copy=False) for s in range(0, 8 * key.itemsize, 16)))
    if weight_order is None:
        weight_order = _WeightOrder(weights)
    by_weight = weight_order.distinct()
    if by_weight is not None:
        return by_weight[np.lexsort([k[by_weight] for k in keys])]
    return np.lexsort((predicted, weights, *keys))


def rank_by_confidence(dataset: Dataset, spec: DecisionSpec) -> RankedView:
    """Order a dataset by descending confidence ``abs(score)`` and mark tie groups.

    When the confidences are all distinct, one argsort gives the order.
    Otherwise the tied samples are reordered into the canonical suborder;
    the result equals one lexsort on (confidence, correctness, weight, score,
    label, position).  Raises EmptyDatasetError for an empty dataset.
    """
    scores = dataset.scores
    n = len(scores)
    if n == 0:
        raise EmptyDatasetError("cannot rank an empty dataset")
    conf = np.abs(scores)
    order = (-conf).argsort()
    conf_r = conf[order]

    predicted = scores > 0.0
    correct_all = predicted == dataset.labels.astype(bool)
    new_group = conf_r[1:] != conf_r[:-1]
    groups = np.count_nonzero(new_group) + 1
    if groups == n:  # no two confidences tie
        group_ends = np.arange(1, n + 1)
    else:
        # wrong before right and light before heavy: exchanges preserve both
        # keys, so tied samples land on the same boundaries after any exchange
        order = _canonical_ties(
            order, new_group, groups, correct_all, predicted, dataset.weights, dataset._weight_order
        )
        last = np.empty(n, dtype=bool)  # the last sample of each tie group
        last[:-1], last[-1] = new_group, True
        group_ends = last.nonzero()[0] + 1
    weight_r = dataset.weights[order]
    correct = correct_all[order]
    view = RankedView(order, correct, weight_r, weight_r.cumsum(), (weight_r * correct).cumsum(), group_ends)
    for arr in vars(view).values():
        arr.setflags(write=False)
    return view
