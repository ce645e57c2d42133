"""Weighted evaluation metrics over decision-confidence rankings.

Two families live here.  Threshold metrics (confusion matrix, accuracy) look
only at the fixed decision rule.  Ranking metrics integrate over how the rule
behaves as coverage grows: AUROC sweeps score thresholds, while LxCIM and
AUDRC sweep decision rates, admitting samples in order of descending decision
confidence.

LxCIM is twice the area under the cumulative accuracy curve G: admit the i
most confident weight fraction, plot the correctly-decided weight fraction
G(i), integrate, double.  Perfect rules score 1, coin flips 0.5, perfectly
inverted rules 0.  AUDRC averages the running accuracy G(i)/i over the same
sweep, which weights early (high-confidence) decisions hardest.

Tie policy: samples with equal confidence are admitted as one block, so G
rises linearly across the block.  That equals averaging over every possible
order within the block, so no ordering information is invented.

Accuracy, LxCIM, AUDRC and the two decision-rate curves are private functions
of one :class:`RankedView`; the public functions rank, then call them.
``report`` ranks once for all three metrics.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, LxcimError, SingleClassError
from .model import Dataset, DecisionSpec, RankedView, rank_by_confidence

__all__ = [
    "ConfusionMatrix",
    "CurveKind",
    "Curve",
    "MetricsReport",
    "confusion_matrix",
    "accuracy",
    "roc_curve",
    "auroc",
    "cumulative_accuracy_curve",
    "lxcim",
    "accuracy_rate_curve",
    "audrc",
    "report",
]

_ZERO = np.zeros(1)  # the 0 that leads every cumulative array
_ZERO.setflags(write=False)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Weighted 2x2 confusion matrix; entries are weight totals, not counts."""

    tp: float
    fp: float
    fn: float
    tn: float

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def correct(self) -> float:
        return self.tp + self.tn

    @property
    def incorrect(self) -> float:
        return self.fp + self.fn

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tp, self.fp, self.fn, self.tn)


class CurveKind(enum.Enum):
    ROC = "roc"
    CUM_ACC = "cumulative_accuracy"
    ACC_RATE = "accuracy_rate"


@dataclass(frozen=True, eq=False)
class Curve:
    """Piecewise-linear curve, stored as exact breakpoints in sweep order."""

    kind: CurveKind
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or len(x) == 0:
            raise ValueError("x and y must be equal-length nonempty 1-d arrays")
        # the same verdict as np.diff(x) < 0, even for inf and overflow, without the differences
        if (x[1:] < x[:-1]).any():
            raise ValueError("x must be non-decreasing")
        if self.kind in (CurveKind.ROC, CurveKind.CUM_ACC):
            if (x < 0).any() or (x > 1).any() or (y < 0).any() or (y > 1).any():
                raise ValueError(f"{self.kind.value} breakpoints must lie in the unit square")
        for arr in (x, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class MetricsReport:
    """All four headline metrics; auroc is None when only one class is present."""

    accuracy: float
    lxcim: float
    audrc: float
    auroc: float | None

    def as_dict(self) -> dict:
        return {
            "lxcim": self.lxcim,
            "accuracy": self.accuracy,
            "auroc": self.auroc,
            "audrc": self.audrc,
        }


def _require_nonempty(dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise EmptyDatasetError("metric requested on an empty dataset")


def confusion_matrix(dataset: Dataset, spec: DecisionSpec) -> ConfusionMatrix:
    """Weighted confusion matrix of the fixed rule "predict 1 iff s > s_star"."""
    _require_nonempty(dataset)
    predicted = dataset.scores > spec.s_star
    actual = dataset.labels.astype(bool)
    w = dataset.weights
    return ConfusionMatrix(
        tp=float(np.sum(w[predicted & actual])),
        fp=float(np.sum(w[predicted & ~actual])),
        fn=float(np.sum(w[~predicted & actual])),
        tn=float(np.sum(w[~predicted & ~actual])),
    )


def accuracy(dataset: Dataset, spec: DecisionSpec) -> float:
    """Weight fraction of correct decisions, in [0, 1].

    Computed from the same cumulative sums as the decision-rate curves, so it
    coincides bit-for-bit with the cumulative accuracy curve's endpoint G(1).
    """
    return _accuracy(rank_by_confidence(dataset, spec))


def _accuracy(view: RankedView) -> float:
    return float(view.cum_correct_weight[-1] / view.cum_weight[-1])


def _score_sweep(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Cumulative true/false positive weights per distinct score, descending, 0-led."""
    _require_nonempty(dataset)
    key = np.negative(dataset.scores)
    return _sweep(key, dataset.labels == 0, dataset.weights, np.empty_like(key))


def _sweep(
    key: np.ndarray, negative: np.ndarray, weights: np.ndarray, workspace: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The score sweep over rows with negated scores ``key``, class flags ``negative`` and weights.

    ``key`` and ``workspace`` are new contiguous float64 arrays, one element
    per row, and are overwritten: ``key`` ends up holding each row's (score
    group, class) bin.  Each bin sums its weights in input order.
    """
    order = key.argsort()
    # mode="clip" gathers straight into ``out``; the default mode buffers a copy
    ranked = np.take(key, order, out=workspace, mode="clip")
    starts = np.empty(len(key), dtype=bool)
    starts[0] = False
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    bins = np.cumsum(starts, out=workspace.view(np.int64))  # group ids in key order
    groups = int(bins[-1]) + 1
    bins *= 2
    bins += np.take(negative, order, out=starts, mode="clip")
    in_input_order = key.view(np.int64)
    in_input_order[order] = bins
    del order
    per_bin = np.bincount(in_input_order, weights=weights, minlength=2 * groups)
    cumulative = np.empty((2, groups + 1))
    cumulative[:, 0] = 0.0
    np.cumsum(per_bin.reshape(groups, 2).T, axis=1, out=cumulative[:, 1:])
    tp, fp = cumulative
    pos_total = float(tp[-1])
    neg_total = float(fp[-1])
    if pos_total == 0.0 or neg_total == 0.0:
        raise SingleClassError("ROC requires positive weight in both classes")
    return tp, fp, pos_total, neg_total


def roc_curve(dataset: Dataset) -> Curve:
    """ROC breakpoints from the descending score sweep, starting at (0, 0).

    All samples sharing a score enter together, producing one diagonal segment
    for the whole block.
    """
    return _roc_curve(_score_sweep(dataset))


def _roc_curve(sweep) -> Curve:
    tp, fp, pos_total, neg_total = sweep
    return Curve(kind=CurveKind.ROC, x=fp / neg_total, y=tp / pos_total)


def auroc(dataset: Dataset) -> float:
    """Area under the ROC curve (trapezoid rule on exact breakpoints).

    Equal to the weighted probability that a random positive outscores a
    random negative, counting score ties as one half.
    """
    return _auroc(_score_sweep(dataset))


def _auroc(sweep) -> float:
    tp, fp, pos_total, neg_total = sweep
    raw_area = float(((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1])).sum()) / 2.0
    return raw_area / _normal_product(pos_total, neg_total)


def _normal_product(a: float, b: float) -> float:
    """``a * b`` for two weight totals, or LxcimError if it is below the normal floats.

    There the area, a sum of such products, loses its precision, or the division fails.
    """
    product = float(a * b)
    if product < sys.float_info.min:
        raise LxcimError("the weights underflow float arithmetic")
    return product


def _group_boundaries(view: RankedView) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (cum weight, cum correct weight) at tie-group ends, 0-led."""
    cw, cc = view.cum_weight, view.cum_correct_weight
    if len(view.group_ends) < len(cw):  # some group holds a tie
        last = view.group_ends - 1
        cw, cc = cw[last], cc[last]
    return np.concatenate((_ZERO, cw)), np.concatenate((_ZERO, cc))


def cumulative_accuracy_curve(dataset: Dataset, spec: DecisionSpec) -> Curve:
    """Correct weight fraction G(i) against admitted weight fraction i.

    One breakpoint per tie group plus the origin.  Segments have slope 1
    across correct samples, 0 across incorrect ones, and the group's correct
    fraction across ties.  G(1) equals accuracy exactly.
    """
    return _cumulative_accuracy_curve(rank_by_confidence(dataset, spec))


def _cumulative_accuracy_curve(view: RankedView) -> Curve:
    cw, cc = _group_boundaries(view)
    total = view.cum_weight[-1]
    return Curve(kind=CurveKind.CUM_ACC, x=cw / total, y=cc / total)


def lxcim(dataset: Dataset, spec: DecisionSpec) -> float:
    """Twice the area under the cumulative accuracy curve, in [0, 1].

    1 means every decision is correct, 0.5 is chance level, 0 means every
    decision is wrong.  Computed segment-exactly: with group boundaries c_k
    (weight) and g_k (correct weight), the doubled area is
    sum_k (c_k - c_{k-1}) * (g_{k-1} + g_k) / C^2.
    """
    return _lxcim(rank_by_confidence(dataset, spec))


def _lxcim(view: RankedView) -> float:
    cw, cc = _group_boundaries(view)
    total = view.cum_weight[-1]
    doubled_area = float(((cw[1:] - cw[:-1]) * (cc[1:] + cc[:-1])).sum())
    # rounding can land one ulp above a perfect score
    return min(doubled_area / _normal_product(total, total), 1.0)


def accuracy_rate_curve(dataset: Dataset, spec: DecisionSpec) -> Curve:
    """Running accuracy G(i)/i at each tie-group boundary.

    The curve starts at the first group's boundary, not at i = 0 where the
    ratio is undefined.  For a tie-free top sample the first value is exactly
    0 or 1; the final value is the overall accuracy.
    """
    return _accuracy_rate_curve(rank_by_confidence(dataset, spec))


def _accuracy_rate_curve(view: RankedView) -> Curve:
    cw, cc = _group_boundaries(view)
    total = view.cum_weight[-1]
    return Curve(kind=CurveKind.ACC_RATE, x=cw[1:] / total, y=cc[1:] / cw[1:])


def audrc(dataset: Dataset, spec: DecisionSpec) -> float:
    """Weighted mean of running accuracy across the decision-rate sweep.

    Riemann sum sum_j (w_j / W) * G(c_j) / c_j over per-sample boundaries c_j
    of the tie-averaged cumulative curve.  Compared with LxCIM the 1/c_j
    factor concentrates mass on the most confident decisions.  (A segment
    closed form with log terms exists; the discrete sum is the contract.)
    """
    return _audrc(rank_by_confidence(dataset, spec))


def _audrc(view: RankedView) -> float:
    ends, cum_weight = view.group_ends, view.cum_weight
    # the rule of _lxcim: past it the interpolation rounds to the subnormal grid
    _normal_product(cum_weight[-1], cum_weight[-1])
    if len(ends) == len(cum_weight):
        # every sample ends its own group, where G takes the cumulative value
        g_at = view.cum_correct_weight
    else:
        cw, cc = _group_boundaries(view)
        sizes = ends.copy()
        sizes[1:] -= ends[:-1]
        gid = np.arange(len(ends)).repeat(sizes)
        step = cw[1:] - cw[:-1]
        # a group whose weight rounding lost has no step; its samples take its left boundary
        slope = np.divide(cc[1:] - cc[:-1], step, out=np.zeros(len(step)), where=step != 0)
        g_at = cc[gid] + slope[gid] * (cum_weight - cw[gid])
        # group-final boundaries take the exact cumulative value, no interpolation
        g_at[ends - 1] = cc[1:]
    acc_at = g_at / cum_weight
    return min(float((view.weight * acc_at).sum()) / float(cum_weight[-1]), 1.0)


def report(dataset: Dataset, spec: DecisionSpec) -> MetricsReport:
    """All four metrics at once, from one ranking; auroc is None for one-class data."""
    return _report(rank_by_confidence(dataset, spec), _two_class_sweep(dataset))


def _two_class_sweep(dataset: Dataset):
    """The score sweep, or None when one class carries all the weight."""
    try:
        return _score_sweep(dataset)
    except SingleClassError:
        return None


def _report(view: RankedView, sweep) -> MetricsReport:
    return MetricsReport(
        accuracy=_accuracy(view),
        lxcim=_lxcim(view),
        audrc=_audrc(view),
        auroc=None if sweep is None else _auroc(sweep),
    )
