"""Core data model: datasets, decision specs, and confidence ranking.

A binary decision rule here is "predict 1 iff score > s_star".  A
:class:`DecisionSpec` bundles that threshold with a confidence map (how far a
score sits from the threshold, in whatever units the caller likes) and a
reflection map that sends a score to the equally-confident score on the other
side of the threshold.  Ranking a dataset by descending confidence is the
substrate for every decision-rate metric in :mod:`lxcim.metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyDatasetError, NonFiniteMapError

__all__ = [
    "Dataset",
    "DecisionSpec",
    "RankedView",
    "SpecViolation",
    "SpecValidationReport",
    "predict",
    "make_abs_spec",
    "validate_decision_spec",
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
    skips both: those arrays are valid by construction (labels ``1 - labels``
    from 0/1, weights shared read-only), and only the reflected scores, which
    a user's reflection map can overflow, are checked for finiteness there.
    """

    __slots__ = ("scores", "labels", "weights")

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
    def _from_valid(cls, scores: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> "Dataset":
        """A dataset over arrays that are valid by construction, neither copied nor checked.

        The caller guarantees equal lengths, finite float64 scores, int64 0/1
        labels and finite positive float64 weights.  The arrays become
        read-only, so each must be new or already read-only.
        """
        self = object.__new__(cls)
        self._init_arrays(scores, labels, weights)
        return self

    def _init_arrays(self, scores: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> None:
        for name, arr in (("scores", scores), ("labels", labels), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

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


def _apply_map(fn: Callable, values: np.ndarray) -> np.ndarray:
    """Apply a vectorized map over a float array."""
    out = np.asarray(fn(values), dtype=float)
    if out.shape != values.shape:
        raise ValueError(
            f"confidence and reflection maps must be vectorized: input shape "
            f"{values.shape} gave output shape {out.shape}"
        )
    return out


@dataclass(frozen=True)
class DecisionSpec:
    """Decision threshold plus confidence and reflection maps.

    ``confidence`` must be zero at ``s_star``, positive elsewhere, strictly
    decreasing below the threshold and strictly increasing above it.
    ``reflect`` must map each score to the opposite-side score with the same
    confidence (an involution that fixes ``s_star``).  Both maps must be
    vectorized: called on a float array, they return an array of its shape.
    ``confidence_at`` and ``reflect_at`` apply them to ``np.asarray(scores)``
    and return float64 of its shape, 0-d for a scalar.
    """

    s_star: float
    confidence: Callable
    reflect: Callable

    def __post_init__(self) -> None:
        if not math.isfinite(float(self.s_star)):
            raise ValueError(f"s_star must be finite, got {self.s_star!r}")
        object.__setattr__(self, "s_star", float(self.s_star))

    def confidence_at(self, scores) -> np.ndarray:
        return _apply_map(self.confidence, np.asarray(scores, dtype=float))

    def reflect_at(self, scores) -> np.ndarray:
        return _apply_map(self.reflect, np.asarray(scores, dtype=float))


def predict(score, spec: DecisionSpec):
    """Binary prediction: 1 iff the score is strictly above the threshold.

    A score exactly at the threshold predicts the negative class.  Returns
    int64 of the input's shape (0-d for a scalar); raises ValueError if any
    score is NaN or infinite.
    """
    scores = np.asarray(score, dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError("scores must all be finite")
    return (scores > spec.s_star).astype(np.int64)


def make_abs_spec(s_star: float = 0.0) -> DecisionSpec:
    """Canonical spec: confidence |s - s_star|, mirror reflection about s_star.

    The reflection is computed as ``s_star - (s - s_star)``, which keeps
    confidence symmetry and the involution bit-exact at s_star = 0 and for the
    usual probability setup (scores in [0, 1] with s_star = 0.5).
    """
    a = float(s_star)
    return DecisionSpec(s_star=a, confidence=lambda s: abs(s - a), reflect=lambda s: a - (s - a))


@dataclass(frozen=True)
class SpecViolation:
    """One violated DecisionSpec contract, located at a grid score."""

    check: str
    s: float
    detail: str


@dataclass(frozen=True)
class SpecValidationReport:
    violations: tuple[SpecViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def checks_failed(self) -> tuple[str, ...]:
        return tuple(sorted({v.check for v in self.violations}))


_SPEC_TOLERANCE = 1e-12


def validate_decision_spec(spec: DecisionSpec, grid) -> SpecValidationReport:
    """Probe every DecisionSpec contract on a finite score grid.

    Violations are reported, not raised, so a caller can inspect all of them
    at once.  The grid must be sorted ascending and contain ``s_star``.

    Checks: zero minimum exactly at the threshold, positivity elsewhere,
    strict decrease below / increase above the threshold, confidence symmetry
    under reflection, reflection being a sign-flipping involution that fixes
    the threshold, the last two up to ``math.isclose`` with relative and
    absolute tolerance 1e-12.  Violations come in three blocks:
    ``minimum-at-threshold``, then ``bi-monotonic`` (each in grid order), then
    per grid point ``reflect-finite``, ``fixed-point``,
    ``confidence-symmetry``, ``involution`` and ``sign-flip``.
    """
    grid_arr = _as_float_array(grid, "grid")
    if len(grid_arr) == 0:
        raise ValueError("grid must be nonempty")
    if not np.isfinite(grid_arr).all():
        raise ValueError("grid must be finite")
    if (grid_arr[1:] < grid_arr[:-1]).any():
        raise ValueError("grid must be sorted ascending")
    s_star = spec.s_star
    at = grid_arr == s_star
    if not at.any():
        raise ValueError("grid must contain s_star")

    def close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = np.abs(a - b)
        near = (diff <= _SPEC_TOLERANCE * np.maximum(np.abs(a), np.abs(b))) | (diff <= _SPEC_TOLERANCE)
        return (a == b) | (np.isfinite(a) & np.isfinite(b) & near)

    # overflow and NaN in the maps are reported as violations, not warned about
    with np.errstate(all="ignore"):
        conf = spec.confidence_at(grid_arr)
        refl = spec.reflect_at(grid_arr)
        conf_refl = spec.confidence_at(refl)
        refl_refl = spec.reflect_at(refl)
        asymmetric, not_involutive = ~close(conf_refl, conf), ~close(refl_refl, grid_arr)
    finite = np.isfinite(refl)
    live = finite & ~at
    below, above = grid_arr < s_star, grid_arr > s_star
    # the grid starts at or below s_star and ends at or above it, so the
    # wrapped-around pair (last, first) is never on one side
    conf_prev = np.roll(conf, 1)
    not_falling = below & np.roll(below, 1) & ~(conf < conf_prev)
    not_rising = above & np.roll(above, 1) & ~(conf > conf_prev)
    flipped = (refl != s_star) & ((refl > s_star) != above)
    pair = "f({p!r})={cp!r}, f({s!r})={c!r}"
    blocks = (
        (
            ("minimum-at-threshold", at & (conf != 0.0), "confidence(s_star) = {c!r}, expected 0"),
            ("minimum-at-threshold", ~at & ~(conf > 0.0), "confidence = {c!r}, expected > 0 away from s_star"),
        ),
        (
            ("bi-monotonic", not_falling, "confidence must strictly decrease below s_star: " + pair),
            ("bi-monotonic", not_rising, "confidence must strictly increase above s_star: " + pair),
        ),
        (
            ("reflect-finite", ~finite, "reflect = {r!r}"),
            ("fixed-point", finite & at & (refl != s_star), "reflect(s_star) = {r!r}, expected s_star"),
            ("confidence-symmetry", live & asymmetric, "confidence(reflect(s))={cr!r} != confidence(s)={c!r}"),
            ("involution", live & not_involutive, "reflect(reflect(s))={rr!r} != s={s!r}"),
            ("sign-flip", live & ~flipped, "reflect(s)={r!r} is not on the opposite side of s_star"),
        ),
    )

    violations = []
    for block in blocks:
        checks, masks, texts = zip(*block)
        # row-major: grid order, then the order of the checks within a block
        for i, k in zip(*np.column_stack(masks).nonzero()):
            s = grid_arr[i]
            detail = texts[k].format(
                s=s, c=conf[i], p=grid_arr[i - 1], cp=conf[i - 1], r=refl[i], cr=conf_refl[i], rr=refl_refl[i]
            )
            violations.append(SpecViolation(checks[k], float(s), detail))
    return SpecValidationReport(tuple(violations))


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
    cannot affect the prefix sums.  Under the DecisionSpec contract a tie group
    holds at most one score per side, and correctness plus side fix the label,
    so this is the order of (score, label) as well.

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


# From this many samples on, sorting by weight first and then radix-sorting the
# narrow keys beats one lexsort over a float key (crossover near 200 on a
# 2-core x86 VM with numpy 2.4)
_WEIGHT_FIRST_MIN_N = 256


def _canonical_ties(order, new_group, correct, predicted, weights) -> np.ndarray:
    """Put tied samples in the canonical suborder of :class:`RankedView`.

    ``order`` sorts by descending confidence with ties in any order, and
    ``new_group`` marks where its confidence changes.  The result sorts by
    (group, correctness, weight, side, position).
    """
    group_id = new_group.cumsum()
    group = np.zeros(len(order), dtype=np.min_scalar_type(group_id[-1]))
    group[order[1:]] = group_id
    if len(order) >= _WEIGHT_FIRST_MIN_N:
        # with all weights distinct, any sort by weight is the canonical one,
        # and boolean and narrow integer keys get numpy's stable radix sort
        by_weight = weights.argsort()
        sorted_weights = weights[by_weight]
        if (sorted_weights[1:] != sorted_weights[:-1]).all():
            return by_weight[np.lexsort((correct[by_weight], group[by_weight]))]
    return np.lexsort((predicted, weights, correct, group))


def rank_by_confidence(dataset: Dataset, spec: DecisionSpec) -> RankedView:
    """Order a dataset by descending confidence and mark tie groups.

    When the confidences are all distinct, one argsort gives the order.
    Otherwise the tied samples are reordered into the canonical suborder;
    the result equals one lexsort on (confidence, correctness, weight, score,
    label, position) for any spec that meets the DecisionSpec contract.

    Raises EmptyDatasetError for an empty dataset and NonFiniteMapError if
    the confidence map produces non-finite values.
    """
    scores = dataset.scores
    n = len(scores)
    if n == 0:
        raise EmptyDatasetError("cannot rank an empty dataset")
    conf = spec.confidence_at(scores)
    order = (-conf).argsort()
    conf_r = conf[order]
    # the sort puts +inf first and -inf, then NaN, last
    if not (math.isfinite(conf_r[0]) and math.isfinite(conf_r[-1])):
        raise NonFiniteMapError("confidence map produced non-finite values")

    predicted = scores > spec.s_star
    correct_all = predicted == dataset.labels.astype(bool)
    new_group = conf_r[1:] != conf_r[:-1]
    if np.count_nonzero(new_group) == n - 1:  # no two confidences tie
        group_ends = np.arange(1, n + 1)
    else:
        # wrong before right and light before heavy: exchanges preserve both
        # keys, so tied samples land on the same boundaries after any exchange
        order = _canonical_ties(order, new_group, correct_all, predicted, dataset.weights)
        last = np.empty(n, dtype=bool)  # the last sample of each tie group
        last[:-1], last[-1] = new_group, True
        group_ends = last.nonzero()[0] + 1
    weight_r = dataset.weights[order]
    correct = correct_all[order]

    cum_weight = weight_r.cumsum()
    cum_correct = (weight_r * correct).cumsum()

    for arr in (order, correct, weight_r, cum_weight, cum_correct, group_ends):
        arr.setflags(write=False)
    return RankedView(
        order=order,
        correct=correct,
        weight=weight_r,
        cum_weight=cum_weight,
        cum_correct_weight=cum_correct,
        group_ends=group_ends,
    )
