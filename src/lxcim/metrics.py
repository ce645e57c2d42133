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
``report`` ranks once for all three metrics, and on large data sweeps the
scores on a second CPU meanwhile.
"""

from __future__ import annotations

import enum
import math
import os
import sys
import threading
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
    """Piecewise-linear curve, stored as exact, finite breakpoints in sweep order."""

    kind: CurveKind
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)  # a copy: the caller's arrays stay writable
        y = np.array(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or len(x) == 0:
            raise ValueError("x and y must be equal-length nonempty 1-d arrays")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("breakpoints must be finite")
        # the same verdict as np.diff(x) < 0, even where a difference overflows, without the differences
        if (x[1:] < x[:-1]).any():
            raise ValueError("x must be non-decreasing")
        if self.kind in (CurveKind.ROC, CurveKind.CUM_ACC):
            if (x < 0).any() or (x > 1).any() or (y < 0).any() or (y > 1).any():
                raise ValueError(f"{self.kind.value} breakpoints must lie in the unit square")
        for arr in (x, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _from_valid(cls, kind: CurveKind, x: np.ndarray, y: np.ndarray) -> "Curve":
        """A curve over breakpoints that are valid by construction, neither copied nor checked.

        The caller guarantees new equal-length nonempty 1-d float64 arrays
        that pass every check of the constructor.  They become read-only.
        """
        self = object.__new__(cls)
        x.setflags(write=False)
        y.setflags(write=False)
        self.__dict__.update(kind=kind, x=x, y=y)
        return self

    def __reduce__(self):
        # rebuilt through the constructor, which makes the new arrays read-only
        return type(self), (self.kind, self.x, self.y)

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
    """Weighted confusion matrix of the fixed rule "predict 1 iff s > 0"."""
    _require_nonempty(dataset)
    predicted = dataset.scores > 0.0
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
    return float(view.cum_correct_weight[-1] / _finite(float(view.cum_weight[-1])))


def _score_sweep(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Cumulative true/false positive weights per distinct score, descending, 0-led."""
    _require_nonempty(dataset)
    return _sweep(*_sweep_inputs(dataset))


def _sweep_inputs(dataset: Dataset):
    """The arguments of ``_sweep`` for the dataset's own scores, built new."""
    key = np.negative(dataset.scores)
    return key, dataset.labels == 0, dataset.weights, np.empty_like(key)


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
    ranked = key.take(order, out=workspace, mode="clip")
    starts = np.empty(len(key), dtype=bool)
    starts[0] = False
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    bins = np.cumsum(starts, out=workspace.view(np.int64))  # group ids in key order
    groups = int(bins[-1]) + 1
    bins *= 2
    bins += negative.take(order, out=starts, mode="clip")
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
    # cumsums of positive weights over their own finite last value: non-decreasing, in [0, 1]
    return Curve._from_valid(CurveKind.ROC, fp / _finite(neg_total), tp / _finite(pos_total))


def auroc(dataset: Dataset) -> float:
    """Area under the ROC curve (trapezoid rule on exact breakpoints).

    Equal to the weighted probability that a random positive outscores a
    random negative, counting score ties as one half.
    """
    return _auroc(_score_sweep(dataset))


def _auroc(sweep) -> float:
    tp, fp, pos_total, neg_total = sweep
    product = _not_subnormal(_finite(pos_total * neg_total))
    # a class total above half the largest float overflows the sums of adjacent tp
    raw_area = _finite(float(((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1])).sum()) / 2.0)
    return raw_area / product


def _finite(value: float) -> float:
    """A weight total, or a sum or product of them, or LxcimError if it overflowed."""
    if not math.isfinite(value):
        raise LxcimError("the weights overflow float arithmetic")
    return value


def _not_subnormal(product: float) -> float:
    """A product of weight totals, or LxcimError if it is below the normal floats.

    There the area, a sum of such products, loses its precision, or the division fails.
    """
    if product < sys.float_info.min:
        raise LxcimError("the weights underflow float arithmetic")
    return product


def _group_boundaries(view: RankedView) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (cum weight, cum correct weight) at tie-group ends, 0-led."""
    cw, cc = view.cum_weight, view.cum_correct_weight
    boundaries = np.empty((2, len(view.group_ends) + 1))
    boundaries[:, 0] = 0.0
    if len(view.group_ends) < len(cw):  # some group holds a tie
        last = view.group_ends - 1
        cw.take(last, out=boundaries[0, 1:], mode="clip")  # "clip" gathers straight into out
        cc.take(last, out=boundaries[1, 1:], mode="clip")
    else:
        boundaries[0, 1:], boundaries[1, 1:] = cw, cc
    return boundaries[0], boundaries[1]


def cumulative_accuracy_curve(dataset: Dataset, spec: DecisionSpec) -> Curve:
    """Correct weight fraction G(i) against admitted weight fraction i.

    One breakpoint per tie group plus the origin.  Segments have slope 1
    across correct samples, 0 across incorrect ones, and the group's correct
    fraction across ties.  G(1) equals accuracy exactly.
    """
    return _cumulative_accuracy_curve(rank_by_confidence(dataset, spec))


def _cumulative_accuracy_curve(view: RankedView) -> Curve:
    cw, cc = _group_boundaries(view)
    total = _finite(float(view.cum_weight[-1]))
    # cw ends at total and cc <= cw, by induction over the cumsums: the unit square holds
    return Curve._from_valid(CurveKind.CUM_ACC, cw / total, cc / total)


def lxcim(dataset: Dataset, spec: DecisionSpec) -> float:
    """Twice the area under the cumulative accuracy curve, in [0, 1].

    1 means every decision is correct, 0.5 is chance level, 0 means every
    decision is wrong.  Computed segment-exactly: with group boundaries c_k
    (weight) and g_k (correct weight), the doubled area is
    sum_k (c_k - c_{k-1}) * (g_{k-1} + g_k) / C^2.
    """
    return _lxcim(rank_by_confidence(dataset, spec))


def _lxcim(view: RankedView) -> float:
    total = float(view.cum_weight[-1])
    product = _not_subnormal(_finite(total * total))
    cw, cc = _group_boundaries(view)
    doubled_area = float(((cw[1:] - cw[:-1]) * (cc[1:] + cc[:-1])).sum())
    # rounding can land one ulp above a perfect score
    return min(doubled_area / product, 1.0)


def accuracy_rate_curve(dataset: Dataset, spec: DecisionSpec) -> Curve:
    """Running accuracy G(i)/i at each tie-group boundary.

    The curve starts at the first group's boundary, not at i = 0 where the
    ratio is undefined.  For a tie-free top sample the first value is exactly
    0 or 1; the final value is the overall accuracy.
    """
    return _accuracy_rate_curve(rank_by_confidence(dataset, spec))


def _accuracy_rate_curve(view: RankedView) -> Curve:
    cw, cc = _group_boundaries(view)
    total = _finite(float(view.cum_weight[-1]))
    return Curve._from_valid(CurveKind.ACC_RATE, cw[1:] / total, cc[1:] / cw[1:])


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
    total = _finite(float(cum_weight[-1]))
    # the underflow rule of _lxcim: past it the interpolation rounds to the subnormal grid
    _not_subnormal(total * total)
    if len(ends) == len(cum_weight):
        # every sample ends its own group, where G takes the cumulative value
        acc_at = np.divide(view.cum_correct_weight, cum_weight)
    else:
        cw, cc = _group_boundaries(view)
        sizes = ends.copy()
        sizes[1:] -= ends[:-1]
        gid = np.arange(len(ends)).repeat(sizes)
        step = cw[1:] - cw[:-1]
        # a group whose weight rounding lost has no step; its samples take its left boundary
        slope = np.divide(cc[1:] - cc[:-1], step, out=np.zeros(len(step)), where=step != 0)
        # G = cc[gid] + slope[gid] * (cum_weight - cw[gid]), in two n-sized buffers
        acc_at = cw.take(gid, mode="clip")
        np.subtract(cum_weight, acc_at, out=acc_at)
        term = slope.take(gid, mode="clip")
        acc_at *= term
        acc_at += cc.take(gid, out=term, mode="clip")
        # group-final boundaries take the exact cumulative value, no interpolation
        acc_at[ends - 1] = cc[1:]
        acc_at /= cum_weight
    acc_at *= view.weight
    return min(float(acc_at.sum()) / total, 1.0)


def report(dataset: Dataset, spec: DecisionSpec) -> MetricsReport:
    """All four metrics at once, from one ranking; auroc is None for one-class data."""
    return _report(*_rank_and_score_sweep(dataset, spec, dataset))


def _rank_and_score_sweep(dataset: Dataset, spec: DecisionSpec, swept: Dataset):
    """The dataset's ranking, and the score sweep of ``swept`` or None when the labels hold one class.

    ``swept`` is the dataset itself, or the same rows with the scores as
    read before centring.  Data of one class, empty data included, is only
    ranked.
    """
    positives = np.count_nonzero(dataset.labels)
    if positives == 0 or positives == len(dataset):
        return rank_by_confidence(dataset, spec), None
    return _rank_and_sweep(dataset, spec, _sweep_inputs(swept))


# Rows from which the ranking and a sweep run on two threads.  On a 2-core x86
# VM, tied and continuous data alike, a threaded verify_doubling_identity took
# 1.1-1.3x the sequential time at 2^12 rows (the helper costs about 0.3 ms),
# 0.85-0.9x at 2^13, 0.75-0.9x at 2^14 and 0.6-0.75x from 2^17 rows up; a
# threaded report, which sweeps n rows and not 2n, took 1.4x at 2^12, 1.1x at
# 2^13, 0.9-1.0x at 2^14 and 0.7-0.85x from 2^17 rows up.
_HELPER_MIN_N = 2**14


def _two_cpus() -> bool:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may use, on Linux
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _rank_and_sweep(dataset: Dataset, spec: DecisionSpec, inputs):
    """``rank_by_confidence(dataset, spec)`` and ``_sweep(*inputs)``, on two CPUs when that pays.

    From ``_HELPER_MIN_N`` rows, with two CPUs, a helper thread sweeps under
    the caller's ``np.errstate`` while this thread ranks; otherwise the
    sweep runs first.  Either way, when both raise, the sweep's error is
    raised.
    """
    if len(dataset) < _HELPER_MIN_N or not _two_cpus():
        swept = _sweep(*inputs)
        return rank_by_confidence(dataset, spec), swept

    outcome = []
    errors = np.geterr()  # numpy keeps its error state per thread

    def sweep_on_helper():
        try:
            with np.errstate(**errors):
                outcome.append(_sweep(*inputs))
        except BaseException as exc:  # re-raised on the calling thread
            outcome.append(exc)

    helper = threading.Thread(target=sweep_on_helper)
    helper.start()
    try:
        view = rank_by_confidence(dataset, spec)
    finally:
        helper.join()
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
    return view, outcome[0]


def _report(view: RankedView, sweep) -> MetricsReport:
    return MetricsReport(
        accuracy=_accuracy(view),
        lxcim=_lxcim(view),
        audrc=_audrc(view),
        auroc=None if sweep is None else _auroc(sweep),
    )
