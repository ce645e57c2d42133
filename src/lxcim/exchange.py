"""Local exchange of classes: the transform, duplication, and checkers.

Exchanging a sample negates its score, which moves it to the other side of
the decision threshold 0 at equal confidence, and flips its label, so the
decision's correctness is untouched.  Negation is exact, so an exchange
never merges or splits a tie group.  Metrics that only depend on how well
decisions are made, never on which class they favour, must be invariant when
any subset of samples is exchanged.  Accuracy, LxCIM and AUDRC are; AUROC and most
categorical scores are not, and the checkers here hunt for witness
counterexamples.

The categorical analogue moves confusion-matrix weight between (tp, tn) and
between (fp, fn): correct stays correct, wrong stays wrong, only the class
bookkeeping changes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import EmptyDatasetError, InfeasiblePerturbationError, InvalidMaskError, LxcimError
from .metrics import ConfusionMatrix
from .model import _CHECK_TOLERANCE, Dataset, DecisionSpec, _sharing_weight_order, _WeightOrder, _whole_number

__all__ = [
    "ExchangeMask",
    "ExchangeWitness",
    "InvarianceReport",
    "PerturbationWitness",
    "exchange_subset",
    "duplicate_dataset",
    "check_rank_lxc_invariance",
    "perturb_confusion",
    "check_categorical_lxc_invariance",
    "f1_score",
    "matthews_corrcoef",
]


@dataclass(frozen=True, eq=False)
class ExchangeMask:
    """0-based dataset positions selected for exchange.

    Accepts any iterable of non-negative integral numbers (lists, ranges,
    generators, integer arrays), but not booleans: ``np.flatnonzero`` turns
    a boolean mask into positions.  ``indices`` holds them sorted, without
    duplicates, as a read-only int64 array.
    """

    indices: np.ndarray

    def __init__(self, indices: Iterable[int] = ()):
        is_array = isinstance(indices, np.ndarray)
        try:
            items = indices if is_array else list(indices)
            raw = np.asarray(items)
        except (TypeError, ValueError) as exc:
            raise InvalidMaskError(f"mask indices must be integers >= 0: {exc}") from None
        if raw.size == 0:
            raw = np.empty(0, dtype=np.int64)
        # booleans among integers make an integer array, reading True as position 1
        if raw.dtype.kind == "b" or (not is_array and any(isinstance(i, (bool, np.bool_)) for i in items)):
            raise InvalidMaskError("mask indices must be integers >= 0, not booleans: pass np.flatnonzero(mask)")
        if raw.ndim != 1 or raw.dtype.kind not in "iuf":
            raise InvalidMaskError(f"mask indices must be integers >= 0, got {raw!r}")
        if raw.dtype.kind == "f":
            ok = (raw >= 0.0) & (raw < 2.0**63) & (raw == np.trunc(raw))
        else:
            ok = raw.astype(np.int64) >= 0  # uint64 beyond int64 wraps negative
        if not np.all(ok):
            first = raw[~ok][0].item()
            raise InvalidMaskError(f"mask indices must be integers >= 0, got {first!r}")
        idx = raw.astype(np.int64)
        if np.any(idx[1:] <= idx[:-1]):
            idx = np.unique(idx)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices.tolist())

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, item) -> bool:
        # only a 0-d number is a position: not a boolean, as in the constructor, though numpy
        # compares True equal to 1, and not a sequence, which numpy would broadcast
        item = np.asarray(item)
        return item.ndim == 0 and item.dtype != bool and item in self.indices

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMask):
            return NotImplemented
        return np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash(self.indices.tobytes())

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.indices.tolist())


def exchange_subset(dataset: Dataset, mask, spec: DecisionSpec) -> Dataset:
    """Exchange the samples at the masked positions, leaving the rest alone.

    Exchanging a sample negates its score and flips its label; a sample
    sitting exactly at the threshold is its own exchange.
    """
    idx = (mask if isinstance(mask, ExchangeMask) else ExchangeMask(mask)).indices
    if len(idx) and idx[-1] >= len(dataset):
        raise InvalidMaskError(
            f"mask index {int(idx[-1])} out of range for dataset of size {len(dataset)}"
        )
    take = np.zeros(len(dataset), dtype=bool)
    take[idx] = True
    mirror, fixed = _mirror(dataset)
    return _exchange(dataset, take, mirror, ~fixed)


def _mirror(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the full exchange, and the samples at the threshold, which keep their class.

    A sample at 0 is its own exchange and keeps its bits, so a -0.0 stays
    -0.0; every other score is negated.
    """
    scores = dataset.scores
    fixed = scores == 0.0
    return np.where(fixed, scores, -scores), fixed


def _exchange(
    dataset: Dataset, take: np.ndarray, mirror: np.ndarray, flip: np.ndarray,
    weight_order: _WeightOrder | None = None,
) -> Dataset:
    """Exchange the samples where the bool array ``take`` is set, from the ``_mirror`` scores.

    ``flip`` marks the samples off the threshold, whose labels an exchange
    flips.  The result shares the weights, and ``weight_order`` when given,
    and is built without re-validation, since negated finite scores stay
    finite and 0/1 labels XOR a bool stay 0/1.
    """
    scores = np.where(take, mirror, dataset.scores)
    labels = dataset.labels ^ (take & flip)
    return Dataset._from_valid(scores, labels, dataset.weights, weight_order)


def _full_exchange(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_mirror` of a dataset that is not empty.

    Shared by :func:`duplicate_dataset` and the identity verifiers.
    """
    if len(dataset) == 0:
        raise EmptyDatasetError("cannot duplicate an empty dataset")
    return _mirror(dataset)


def duplicate_dataset(dataset: Dataset, spec: DecisionSpec) -> Dataset:
    """Union of a dataset with its full exchange, in original-then-mirror order.

    When no sample sits at the threshold the result carries equal positive and
    negative weight, and its AUROC equals the original dataset's LxCIM.
    """
    scores, fixed = _full_exchange(dataset)
    labels = dataset.labels
    return Dataset._from_valid(
        np.concatenate((dataset.scores, scores)),
        np.concatenate((labels, np.where(fixed, labels, 1 - labels))),
        np.concatenate((dataset.weights, dataset.weights)),
    )


@dataclass(frozen=True)
class ExchangeWitness:
    """First observed invariance break: the mask plus what the metric did."""

    trial: int
    mask: ExchangeMask
    value: float | None
    error: str | None

    def describe(self) -> str:
        what = f"metric raised {self.error}" if self.error is not None else f"value {self.value!r}"
        return f"trial {self.trial}, mask {list(self.mask.as_tuple())}: {what}"


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of an invariance check; the witness is the first break found, if any."""

    baseline: float
    trials: int
    tolerance: float
    max_deviation: float
    witness: ExchangeWitness | PerturbationWitness | None

    @property
    def passed(self) -> bool:
        return self.witness is None


def _baseline(metric: Callable, data, trials, seed) -> tuple[float, int, int]:
    """The metric's value on the unchanged data; NaN or inf raises ``LxcimError``.

    ``trials`` (at least 1) and ``seed`` must be integral, not booleans, or
    ValueError is raised before the metric runs.
    """
    trials, seed = _whole_number(trials, "trials"), _whole_number(seed, "seed")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    baseline = float(metric(data))
    if not math.isfinite(baseline):
        raise LxcimError(f"the metric is {baseline} on the dataset")
    return baseline, trials, seed


def _deviation(value: float, baseline: float) -> float:
    """How far a probe moved the metric; a NaN or infinite value moved it by inf."""
    return abs(value - baseline) if math.isfinite(value) else math.inf


def check_rank_lxc_invariance(
    metric: Callable[[Dataset], float],
    dataset: Dataset,
    spec: DecisionSpec,
    trials: int = 100,
    seed: int = 0,
) -> InvarianceReport:
    """Probe a dataset metric with random exchange masks.

    Masks are drawn uniformly over all 2^N subsets (independent fair bit per
    position).  A deviation beyond the report's ``tolerance`` of 1e-9, or the
    metric failing on an exchanged dataset it accepted originally (e.g. AUROC
    turning single-class), is recorded as a witness.  A NaN or infinite
    value deviates by inf, and on the dataset itself raises ``LxcimError``.
    Trials run sequentially from one seeded generator, so a witness is
    reproducible from (seed, trial).

    A trial costs one O(N) exchange plus one metric call.  The full
    exchange is negated once per check; a trial draws its fair bits and
    takes each sample from the original or from that mirror, without
    re-checking the arrays (see ``Dataset._from_valid``).  An
    ``ExchangeMask`` is built only for the witness.

    The exchanged datasets, and an uncopied twin of ``dataset`` for the
    baseline, share one lazily sorted weight order for their tied rankings,
    so a check sorts the weights at most once.  That is not circular: an
    exchange keeps the weights array itself, and nothing derived from scores
    or labels is shared.  ``dataset`` is left untouched.
    """
    n = len(dataset)
    data = _sharing_weight_order(dataset)
    baseline, trials, seed = _baseline(metric, data, trials, seed)
    rng = np.random.default_rng(seed)
    mirror, fixed = _mirror(dataset)
    flip = ~fixed
    max_deviation = 0.0
    witness: ExchangeWitness | None = None
    for trial in range(trials):
        take = rng.random(n) < 0.5
        exchanged = _exchange(dataset, take, mirror, flip, data._weight_order)
        try:
            value, error = float(metric(exchanged)), None
        except LxcimError as exc:
            value, error = None, type(exc).__name__
        deviation = _deviation(value, baseline) if error is None else math.inf
        max_deviation = max(max_deviation, deviation)
        if deviation > _CHECK_TOLERANCE and witness is None:
            witness = ExchangeWitness(
                trial=trial, mask=ExchangeMask(take.nonzero()[0]), value=value, error=error
            )
    return InvarianceReport(
        baseline=baseline,
        trials=trials,
        tolerance=_CHECK_TOLERANCE,
        max_deviation=max_deviation,
        witness=witness,
    )


def perturb_confusion(cm: ConfusionMatrix, delta1: float, delta2: float) -> ConfusionMatrix:
    """Move weight delta1 from tn to tp and delta2 from fp to fn.

    This is the categorical exchange: total correct and total incorrect weight
    are preserved.  Raises InfeasiblePerturbationError if any entry would go
    negative (zero is allowed).
    """
    moved = (
        cm.tp + delta1,
        cm.fp - delta2,
        cm.fn + delta2,
        cm.tn - delta1,
    )
    for name, value in zip(("tp", "fp", "fn", "tn"), moved):
        if value < 0.0:
            raise InfeasiblePerturbationError(
                f"perturbation (delta1={delta1!r}, delta2={delta2!r}) drives {name} to {value!r}"
            )
    return ConfusionMatrix(*moved)


@dataclass(frozen=True)
class PerturbationWitness:
    delta1: float
    delta2: float
    value: float

    def describe(self) -> str:
        return f"delta1={self.delta1!r}, delta2={self.delta2!r}: value {self.value!r}"


# the integer grid's half-width: its probe count grows with its square, and
# the random perturbations cover the rest of the feasible box
_GRID_REACH = 16


def check_categorical_lxc_invariance(
    metric: Callable[[ConfusionMatrix], float],
    cm: ConfusionMatrix,
    trials: int = 100,
    seed: int = 0,
) -> InvarianceReport:
    """Probe a confusion-matrix metric under correctness-preserving moves.

    Sweeps the exhaustive integer grid |delta| <= min(floor(min entry),
    ``_GRID_REACH``) first (where witnesses live for the classic scores), at
    most 33^2 - 1 = 1088 probes, then ``trials`` random real perturbations
    drawn uniformly over the feasible box.  Moves that ``perturb_confusion``
    refuses as infeasible are skipped.  A deviation beyond the report's
    ``tolerance`` of 1e-9 is a witness.  A NaN or infinite value deviates by
    inf, and on ``cm`` itself raises ``LxcimError``.
    """
    baseline, trials, seed = _baseline(metric, cm, trials, seed)
    max_deviation = 0.0
    witness: PerturbationWitness | None = None

    def probe(delta1: float, delta2: float) -> None:
        nonlocal max_deviation, witness
        try:
            moved = perturb_confusion(cm, delta1, delta2)
        except InfeasiblePerturbationError:
            return
        value = float(metric(moved))
        deviation = _deviation(value, baseline)
        max_deviation = max(max_deviation, deviation)
        if deviation > _CHECK_TOLERANCE and witness is None:
            witness = PerturbationWitness(delta1=delta1, delta2=delta2, value=value)

    reach = min(int(math.floor(min(cm.as_tuple()))), _GRID_REACH)
    for d1, d2 in itertools.product(range(-reach, reach + 1), repeat=2):
        if (d1, d2) != (0, 0):
            probe(float(d1), float(d2))

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        delta1 = rng.uniform(-cm.tp, cm.tn)
        delta2 = rng.uniform(-cm.fn, cm.fp)
        probe(delta1, delta2)

    return InvarianceReport(
        baseline=baseline,
        trials=trials,
        tolerance=_CHECK_TOLERANCE,
        max_deviation=max_deviation,
        witness=witness,
    )


def f1_score(cm: ConfusionMatrix) -> float:
    """Positive-class F1; a classic non-invariant witness metric."""
    denom = 2.0 * cm.tp + cm.fp + cm.fn
    return 0.0 if denom == 0.0 else 2.0 * cm.tp / denom


def matthews_corrcoef(cm: ConfusionMatrix) -> float:
    """Matthews correlation coefficient; 0 when a marginal vanishes."""
    denom = math.sqrt(
        (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    )
    if denom == 0.0:
        return 0.0
    return (cm.tp * cm.tn - cm.fp * cm.fn) / denom
