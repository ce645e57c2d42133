"""An independent AUROC oracle, identity verifiers, and synthetic data generators.

``brute_auroc`` deliberately avoids the production code path: it enumerates
weighted sample pairs instead of sweeping thresholds.  The identity verifiers
exercise the duplication construction: duplicating a dataset with its full
class exchange yields a weight-balanced set whose ROC crosses the
anti-diagonal at (1 - ACC, ACC) and whose AUROC equals both the original
LxCIM and ACC^2 + 2H, H being the ROC area left of the crossing.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, SingleClassError
from .exchange import _full_exchange
from .metrics import (
    Curve,
    _accuracy,
    _accuracy_rate_curve,
    _auroc,
    _cumulative_accuracy_curve,
    _lxcim,
    _rank_and_sweep,
    _roc_curve,
)
from .model import Dataset, DecisionSpec, make_abs_spec, rank_by_confidence
from .model import _CHECK_TOLERANCE, _whole_number

__all__ = [
    "GeneratorKind",
    "WeightMode",
    "GeneratorConfig",
    "DoublingReport",
    "CrossingReport",
    "StudySizeResult",
    "StudyResult",
    "brute_auroc",
    "verify_doubling_identity",
    "verify_crossing_point",
    "generate",
    "convergence_study",
]


def brute_auroc(dataset: Dataset) -> float:
    """AUROC by exhaustive O(N^2) pair enumeration with half credit for ties."""
    if len(dataset) == 0:
        raise EmptyDatasetError("metric requested on an empty dataset")
    pos = dataset.labels == 1
    neg = ~pos
    pos_scores = dataset.scores[pos]
    neg_scores = dataset.scores[neg]
    pos_w = dataset.weights[pos]
    neg_w = dataset.weights[neg]
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        raise SingleClassError("AUROC requires both classes")
    diff = pos_scores[:, None] - neg_scores[None, :]
    credit = np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))
    pair_weight = pos_w[:, None] * neg_w[None, :]
    return float(np.sum(credit * pair_weight) / (np.sum(pos_w) * np.sum(neg_w)))


def _area_left_of(curve: Curve, x_stop: float) -> float:
    """Trapezoid area under a piecewise-linear curve from x = 0 to x_stop."""
    xs, ys = curve.x, curve.y
    # x is non-decreasing, so the segments wholly left of x_stop are a prefix;
    # cumsum adds them in sweep order, as a running total would
    j = max(int(np.searchsorted(xs, x_stop, side="right")), 1)
    whole = np.cumsum((xs[1:j] - xs[: j - 1]) * (ys[: j - 1] + ys[1:j]) / 2.0)
    area = float(whole[-1]) if len(whole) else 0.0
    if j < len(xs) and xs[j - 1] < x_stop:
        x0, x1 = float(xs[j - 1]), float(xs[j])
        y0, y1 = float(ys[j - 1]), float(ys[j])
        t = (x_stop - x0) / (x1 - x0)
        y_cut = y0 + t * (y1 - y0)
        area += (x_stop - x0) * (y0 + y_cut) / 2.0
    return area


def _rank_and_sweep_doubled(dataset: Dataset, spec: DecisionSpec):
    """The dataset's ranking, and the score sweep of its duplicate taken from the duplicate itself.

    The duplicate's second half comes from ``_full_exchange``, as in
    ``duplicate_dataset``, and its sweep inputs are built here;
    ``_rank_and_sweep`` may sweep them on a helper thread.
    """
    mirror, fixed = _full_exchange(dataset)
    # negated scores of the original rows, then of their full exchange
    key = np.concatenate((dataset.scores, mirror))
    del mirror  # n scores that would otherwise stay alive through the ranking and the sweep
    np.negative(key, out=key)
    # a row at the threshold keeps its class under the exchange; every other row flips it
    negative = dataset.labels == 0
    negative = np.concatenate((negative, negative == fixed))
    # all four buffers come from this thread's malloc arena, which keeps the
    # pages it frees for reuse; a helper's own arena would add its pages to those
    weights = np.concatenate((dataset.weights, dataset.weights))
    inputs = (key, negative, weights, np.empty(2 * len(dataset)))
    return _rank_and_sweep(dataset, spec, inputs)


@dataclass(frozen=True)
class DoublingReport:
    """Outcome of the duplication identities on one dataset."""

    lxcim_original: float
    auroc_duplicated: float
    accuracy_original: float
    h_area: float
    doubling_deviation: float
    area_identity_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.doubling_deviation <= self.tolerance
            and self.area_identity_deviation <= self.tolerance
        )


def verify_doubling_identity(dataset: Dataset, spec: DecisionSpec) -> DoublingReport:
    """Check AUROC(duplicated) = LxCIM(original) = ACC^2 + 2H.

    H is the area under ROC(duplicated) left of FPR = 1 - ACC.  Exact only
    when no sample sits at the threshold (such samples keep their class under
    duplication and unbalance the two sides).  The report passes when both
    deviations are at most its ``tolerance``, 1e-9.
    """
    view, sweep = _rank_and_sweep_doubled(dataset, spec)  # one sweep for the AUROC and the ROC
    lx = _lxcim(view)
    au = _auroc(sweep)
    acc = _accuracy(view)
    h = _area_left_of(_roc_curve(sweep), 1.0 - acc)
    return DoublingReport(
        lxcim_original=lx, auroc_duplicated=au, accuracy_original=acc, h_area=h,
        doubling_deviation=abs(au - lx), area_identity_deviation=abs(au - (acc * acc + 2.0 * h)),
        tolerance=_CHECK_TOLERANCE,
    )


@dataclass(frozen=True)
class CrossingReport:
    """Where ROC(duplicated) meets TPR = 1 - FPR, against the predicted point."""

    expected: tuple[float, float]
    found: tuple[float, float]
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def verify_crossing_point(dataset: Dataset, spec: DecisionSpec) -> CrossingReport:
    """Locate the anti-diagonal crossing of the duplicated ROC curve.

    Along the curve x + y - 1 is strictly increasing (both coordinates are
    non-decreasing and never simultaneously constant), so the crossing is
    unique; it must land at (1 - ACC, ACC), within the report's
    ``tolerance`` of 1e-9.
    """
    view, sweep = _rank_and_sweep_doubled(dataset, spec)
    curve = _roc_curve(sweep)
    acc = _accuracy(view)
    xs, ys = curve.x, curve.y
    gap = xs + ys - 1.0
    k = int(np.argmax(gap >= 0.0))  # first point on or past the crossing
    if gap[k] < 0.0:
        found = (float(xs[-1]), float(ys[-1]))
    elif gap[k] == 0.0 or k == 0:
        found = (float(xs[k]), float(ys[k]))
    else:
        t = -gap[k - 1] / (gap[k] - gap[k - 1])
        found = (
            float(xs[k - 1] + t * (xs[k] - xs[k - 1])),
            float(ys[k - 1] + t * (ys[k] - ys[k - 1])),
        )
    expected = (1.0 - acc, acc)
    deviation = max(abs(found[0] - expected[0]), abs(found[1] - expected[1]))
    return CrossingReport(expected=expected, found=found, deviation=deviation, tolerance=_CHECK_TOLERANCE)


class GeneratorKind(enum.Enum):
    RANDOM = "random"
    IDEAL = "ideal"
    ADVERSARIAL = "adversarial"
    BIASED = "biased"


class WeightMode(enum.Enum):
    UNIFORM = "uniform"
    RANDOM_POSITIVE = "random_positive"


@dataclass(frozen=True)
class GeneratorConfig:
    """Recipe for a synthetic dataset; identical configs generate identical data.

    Scores are uniform on [-1, 1] with exact zeros redrawn, so the canonical
    threshold spec at s_star = 0 applies.  IDEAL labels agree with the
    decision rule on every sample, ADVERSARIAL labels disagree on every
    sample, BIASED labels agree independently with probability p, RANDOM
    labels are fair coin flips.  RANDOM_POSITIVE weights are uniform on
    (0, 2].
    """

    kind: GeneratorKind
    n: int
    seed: int
    p: float | None = None
    weight_mode: WeightMode = WeightMode.UNIFORM

    def __post_init__(self) -> None:
        if not isinstance(self.kind, GeneratorKind):
            raise ValueError(f"kind must be a GeneratorKind, got {self.kind!r}")
        if not isinstance(self.weight_mode, WeightMode):
            raise ValueError(f"weight_mode must be a WeightMode, got {self.weight_mode!r}")
        n = _whole_number(self.n, "n")
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))
        if self.kind is GeneratorKind.BIASED:
            # a boolean or a text is no probability, though float() reads both
            if (
                isinstance(self.p, (bool, np.bool_))
                or not isinstance(self.p, numbers.Real)
                or not (0.0 <= self.p <= 1.0)
            ):
                raise ValueError(f"BIASED requires p in [0, 1], got {self.p!r}")
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise ValueError(f"p is only meaningful for BIASED, got p={self.p!r} for {self.kind.value}")


def _draw(config: GeneratorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The new scores, labels and weights arrays that ``config`` fixes."""
    rng = np.random.default_rng(config.seed)
    scores = rng.uniform(-1.0, 1.0, config.n)
    while (scores == 0.0).any():
        zeros = scores == 0.0
        scores[zeros] = rng.uniform(-1.0, 1.0, int(np.sum(zeros)))

    predicted = (scores > 0.0).astype(np.int64)
    if config.kind is GeneratorKind.RANDOM:
        labels = rng.integers(0, 2, config.n)
    elif config.kind is GeneratorKind.IDEAL:
        labels = predicted
    elif config.kind is GeneratorKind.ADVERSARIAL:
        labels = 1 - predicted
    else:
        agree = rng.random(config.n) < config.p
        labels = np.where(agree, predicted, 1 - predicted)

    if config.weight_mode is WeightMode.UNIFORM:
        weights = np.ones(config.n)
    else:
        weights = 2.0 * (1.0 - rng.random(config.n))
    return scores, labels, weights


def generate(config: GeneratorConfig) -> Dataset:
    """Draw a synthetic dataset for the canonical threshold at zero."""
    return Dataset(*_draw(config))


@dataclass(frozen=True)
class StudySizeResult:
    """Convergence measurements at one dataset size, averaged over seeds."""

    size: int
    mean_sup_cum_deviation: float
    mean_sup_rate_deviation: float
    cumulative_curve: Curve
    rate_curve: Curve


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudySizeResult, ...]
    seeds: int

    def sizes(self) -> tuple[int, ...]:
        return tuple(row.size for row in self.rows)


def _study_seed(base_seed: int, size_index: int, draw: int) -> int:
    return int(np.random.SeedSequence((base_seed, size_index, draw)).generate_state(1)[0])


# Elements per block of the study's (seeds, size) matrices: the study's memory
# stays bounded at any seed count, and a size above this runs one row a block.
# Its 32 KB temporaries stay under glibc's mmap threshold: no page faults
_STUDY_BLOCK = 2**12


def _study_deviations(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sup deviations of each row's dataset under the threshold spec at zero.

    Row r of the boolean ``labels`` labels row r of ``scores``, with uniform
    weights.  The sups are taken as the per-dataset curves of
    :func:`convergence_study` give them: |G(i) - i/2| over the cumulative
    curve's breakpoints, and |acc(i) - 1/2| over the rate curve's points at
    i <= 0.1 and its first point.  With uniform weights every prefix sum is an
    exact integer, so the order inside a tie group, which the canonical
    suborder of :class:`RankedView` fixes, cannot change a bit.
    """
    rows, size = scores.shape
    conf = np.abs(scores)
    order = (-conf).argsort(axis=1)
    conf = np.take_along_axis(conf, order, axis=1)
    correct = np.take_along_axis((scores > 0.0) == labels, order, axis=1)
    ends = np.empty((rows, size), dtype=bool)  # the last sample of each tie group
    ends[:, :-1] = conf[:, 1:] != conf[:, :-1]
    ends[:, -1] = True

    cw = np.arange(1.0, size + 1.0)
    cc = correct.cumsum(axis=1, dtype=float)
    total = float(size)
    x = cw / total
    # the origin's deviation is 0, which the zeros off the breakpoints stand for
    cum = np.where(ends, np.abs(cc / total - x / 2.0), 0.0).max(axis=1)
    head = ends & (x <= 0.1)
    head[np.arange(rows), ends.argmax(axis=1)] = True  # the first decision always counts as "early"
    rate = np.where(head, np.abs(cc / cw - 0.5), 0.0).max(axis=1)
    return cum, rate


def convergence_study(
    sizes,
    seeds: int,
    base_seed: int = 0,
) -> StudyResult:
    """Measure how chance-level data approaches its limiting curves.

    For each size, over ``seeds`` independent RANDOM datasets, records the
    mean of sup |G(i) - i/2| over the cumulative curve's breakpoints (this
    shrinks as size grows) and the mean sup |acc(i) - 1/2| over the first 10%
    of decision rates (this stays large: the first decision is always fully
    right or fully wrong).  The curves of each size's first draw are kept for
    plotting.  The draws are measured a block of seeds at a time, each block
    holding about ``_STUDY_BLOCK`` scores.
    """
    size_list = [_whole_number(s, "sizes") for s in sizes]
    seeds = _whole_number(seeds, "seeds")
    if not size_list:
        raise ValueError("sizes must be nonempty")
    if any(b <= a for a, b in zip(size_list, size_list[1:])):
        raise ValueError("sizes must be strictly ascending")
    if any(s < 1 for s in size_list):
        raise ValueError("sizes must be positive")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")

    spec = make_abs_spec(0.0)
    rows = []
    for size_index, size in enumerate(size_list):
        cum_devs = np.empty(seeds)
        rate_devs = np.empty(seeds)
        block = min(seeds, max(1, _STUDY_BLOCK // size))
        scores = np.empty((block, size))
        labels = np.empty((block, size), dtype=bool)
        for start in range(0, seeds, block):
            stop = min(start + block, seeds)
            for row, draw in enumerate(range(start, stop)):
                config = GeneratorConfig(
                    kind=GeneratorKind.RANDOM, n=size, seed=_study_seed(base_seed, size_index, draw)
                )
                drawn = _draw(config)
                scores[row], labels[row], _ = drawn
                if draw == 0:
                    view = rank_by_confidence(Dataset(*drawn), spec)
                    first_curves = (_cumulative_accuracy_curve(view), _accuracy_rate_curve(view))
            cum_devs[start:stop], rate_devs[start:stop] = _study_deviations(
                scores[: stop - start], labels[: stop - start]
            )
        rows.append(
            StudySizeResult(
                size=size,
                mean_sup_cum_deviation=float(np.mean(cum_devs)),
                mean_sup_rate_deviation=float(np.mean(rate_devs)),
                cumulative_curve=first_curves[0],
                rate_curve=first_curves[1],
            )
        )
    return StudyResult(rows=tuple(rows), seeds=seeds)
