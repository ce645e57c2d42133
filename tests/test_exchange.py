import math
import time
from functools import partial

import numpy as np
import pytest

from lxcim import (
    ConfusionMatrix,
    Dataset,
    DecisionSpec,
    EmptyDatasetError,
    ExchangeMask,
    ExchangeWitness,
    InfeasiblePerturbationError,
    InvalidMaskError,
    InvarianceReport,
    LxcimError,
    NonFiniteMapError,
    PerturbationWitness,
    accuracy,
    audrc,
    auroc,
    check_categorical_lxc_invariance,
    check_rank_lxc_invariance,
    duplicate_dataset,
    exchange_subset,
    f1_score,
    lxcim,
    make_abs_spec,
    matthews_corrcoef,
    perturb_confusion,
)

from conftest import random_dataset


class TestExchangeSample:
    """The exchange acting on one row, or on every row of a dataset at once."""

    def test_positive_side(self, spec0):
        assert exchange_subset(Dataset([1.0], [0]), [0], spec0) == Dataset([-1.0], [1])

    def test_negative_side_keeps_weight(self, spec0):
        out = exchange_subset(Dataset([-4.0], [0], [2.5]), [0], spec0)
        assert out == Dataset([4.0], [1], [2.5])

    def test_threshold_sample_is_fixed_point(self):
        spec = make_abs_spec(0.5)
        assert exchange_subset(Dataset([0.5], [1]), [0], spec) == Dataset([0.5], [1])

    def test_involution_is_exact(self, spec0):
        rng = np.random.default_rng(0)
        scores = rng.uniform(-50, 50, 200)
        d = Dataset(np.where(scores == 0.0, 1.0, scores), rng.integers(0, 2, 200))
        everything = range(len(d))
        assert exchange_subset(exchange_subset(d, everything, spec0), everything, spec0) == d

    def test_preserves_confidence_and_correctness(self, spec0):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-9, 9, 100)
        d = Dataset(np.where(scores == 0.0, 1.0, scores), rng.integers(0, 2, 100))
        out = exchange_subset(d, range(len(d)), spec0)
        assert np.array_equal(spec0.confidence_at(out.scores), spec0.confidence_at(d.scores))
        assert np.array_equal(
            (out.scores > 0) == (out.labels == 1), (d.scores > 0) == (d.labels == 1)
        )


class TestExchangeSubset:
    def test_worked_example(self, d0, spec0):
        # third sample (position 2) swaps class: (1, 0) -> (-1, 1)
        out = exchange_subset(d0, ExchangeMask([2]), spec0)
        assert out == Dataset([-4, -3, -1, 2], [0, 1, 1, 1])
        assert lxcim(out, spec0) == 0.625
        assert auroc(out) == 1.0

    def test_empty_mask_is_identity(self, d0, spec0):
        assert exchange_subset(d0, ExchangeMask(), spec0) == d0

    def test_full_mask_exchanges_everything(self, d0, spec0):
        out = exchange_subset(d0, range(4), spec0)
        assert out == Dataset([4, 3, -1, -2], [1, 0, 1, 0])

    def test_threshold_samples_pass_through(self):
        spec = make_abs_spec(0.0)
        d = Dataset([0.0, 1.0], [1, 1])
        out = exchange_subset(d, [0, 1], spec)
        assert out == Dataset([0.0, -1.0], [1, 0])

    def test_out_of_range_mask_rejected(self, d0, spec0):
        with pytest.raises(InvalidMaskError):
            exchange_subset(d0, [4], spec0)
        with pytest.raises(InvalidMaskError):
            ExchangeMask([-1])
        with pytest.raises(InvalidMaskError):
            ExchangeMask([1.5])
        for bad in ([float("nan")], ["1"], [None], np.array([[1]])):
            with pytest.raises(InvalidMaskError):
                ExchangeMask(bad)

    @pytest.mark.parametrize("mask", [[True, False, True], np.array([True, False, True])], ids=["list", "array"])
    def test_boolean_mask_rejected(self, d0, spec0, mask):
        # read as integers, it would name the positions 0 and 1
        with pytest.raises(InvalidMaskError, match="flatnonzero"):
            ExchangeMask(mask)
        with pytest.raises(InvalidMaskError, match="flatnonzero"):
            exchange_subset(d0, mask, spec0)
        assert exchange_subset(d0, np.flatnonzero(mask), spec0) == exchange_subset(d0, [0, 2], spec0)

    @pytest.mark.parametrize(
        "make",
        [lambda: [True, 2], lambda: [np.True_, 3], lambda: (i for i in (False, 5))],
        ids=["bool", "np_bool", "generator"],
    )
    def test_boolean_among_integers_rejected(self, d0, spec0, make):
        # numpy makes these integer arrays, where True would be position 1
        with pytest.raises(InvalidMaskError, match="flatnonzero"):
            ExchangeMask(make())
        with pytest.raises(InvalidMaskError, match="flatnonzero"):
            exchange_subset(d0, make(), spec0)

    def test_integer_lists_and_arrays_unchanged_by_boolean_check(self):
        for given in ([1, 2], [np.int64(1), 2], np.array([2, 1]), np.array([1, 2], dtype=np.uint8), (1, 2.0)):
            mask = ExchangeMask(given)
            assert mask.as_tuple() == (1, 2) and mask.indices.dtype == np.int64

    def test_mask_is_a_sorted_unique_index_array(self):
        for given in ([2, 0, 2], range(0, 3, 2), (i for i in (2, 0)), np.array([2, 0]), [2.0, 0]):
            mask = ExchangeMask(given)
            assert mask.as_tuple() == (0, 2) and list(mask) == [0, 2]
            assert mask == ExchangeMask([0, 2]) and hash(mask) == hash(ExchangeMask([0, 2]))
        assert all(type(i) is int for i in mask.as_tuple())
        assert 2 in mask and 1 not in mask and len(mask) == 2
        assert mask.indices.dtype == np.int64 and not mask.indices.flags.writeable
        witness = ExchangeWitness(trial=0, mask=mask, value=1.0, error=None)
        assert witness.describe() == "trial 0, mask [0, 2]: value 1.0"

    def test_preserves_size_weight_and_confidence_multiset(self, spec0):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(1, 50)))
            mask = ExchangeMask(np.nonzero(rng.random(len(d)) < 0.5)[0])
            out = exchange_subset(d, mask, spec0)
            assert len(out) == len(d)
            assert np.array_equal(out.weights, d.weights)
            assert np.array_equal(
                np.sort(spec0.confidence_at(out.scores)), np.sort(spec0.confidence_at(d.scores))
            )

    def test_metric_invariance_on_random_masks(self, spec0):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(1, 60)))
            mask = ExchangeMask(np.nonzero(rng.random(len(d)) < 0.5)[0])
            out = exchange_subset(d, mask, spec0)
            assert lxcim(out, spec0) == pytest.approx(lxcim(d, spec0), abs=1e-12)
            assert audrc(out, spec0) == pytest.approx(audrc(d, spec0), abs=1e-12)
            assert accuracy(out, spec0) == pytest.approx(accuracy(d, spec0), abs=1e-12)


class TestDuplicateDataset:
    def test_worked_example(self, d0, spec0):
        doubled = duplicate_dataset(d0, spec0)
        assert doubled == Dataset(
            [-4, -3, 1, 2, 4, 3, -1, -2], [0, 1, 0, 1, 1, 0, 1, 0]
        )
        assert auroc(doubled) == 0.625

    def test_balances_classes_by_weight(self, spec0):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = random_dataset(rng, int(rng.integers(1, 40)))
            doubled = duplicate_dataset(d, spec0)
            pos = float(np.sum(doubled.weights[doubled.labels == 1]))
            neg = float(np.sum(doubled.weights[doubled.labels == 0]))
            assert pos == pytest.approx(neg, rel=1e-12)

    def test_auroc_of_double_equals_lxcim(self, spec0):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(1, 60)))
            assert auroc(duplicate_dataset(d, spec0)) == pytest.approx(
                lxcim(d, spec0), abs=1e-12
            )

    def test_empty_rejected(self, spec0):
        with pytest.raises(EmptyDatasetError):
            duplicate_dataset(Dataset([], []), spec0)

    @pytest.mark.parametrize("s_star", [0.0, 0.5])
    def test_second_half_is_the_full_exchange(self, s_star):
        # rows exactly at the threshold are their own exchange
        spec = make_abs_spec(s_star)
        rng = np.random.default_rng(6)
        for n in (1, 2, 9, 400):
            d = Dataset(
                np.round(rng.uniform(s_star - 1.0, s_star + 1.0, n), 1),
                rng.integers(0, 2, n),
                rng.uniform(0.05, 2.0, n),
            )
            mirrored = exchange_subset(d, range(n), spec)
            doubled = duplicate_dataset(d, spec)
            for name in ("scores", "labels", "weights"):
                got = getattr(doubled, name)
                expected = np.concatenate((getattr(d, name), getattr(mirrored, name)))
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), name
        assert np.any(d.scores == s_star)  # the 400-row set has rows at the threshold


class TestRankInvarianceChecker:
    def test_lxcim_and_audrc_hold_on_worked_example(self, d0, spec0):
        for metric in (lambda d: lxcim(d, spec0), lambda d: audrc(d, spec0)):
            rep = check_rank_lxc_invariance(metric, d0, spec0, trials=64, seed=11)
            assert rep.passed
            assert rep.max_deviation <= 1e-9

    def test_auroc_violation_found_with_witness(self, d0, spec0):
        rep = check_rank_lxc_invariance(auroc, d0, spec0, trials=64, seed=11)
        assert not rep.passed
        assert rep.witness is not None
        assert rep.max_deviation > 1e-9
        # the witness replays: exchanging that mask really moves AUROC
        replayed = auroc(exchange_subset(d0, rep.witness.mask, spec0))
        assert replayed == rep.witness.value
        assert abs(replayed - rep.baseline) > 1e-9

    def test_same_seed_reproduces_witness(self, d0, spec0):
        a = check_rank_lxc_invariance(auroc, d0, spec0, trials=32, seed=5)
        b = check_rank_lxc_invariance(auroc, d0, spec0, trials=32, seed=5)
        assert a.witness == b.witness
        assert a.max_deviation == b.max_deviation

    def test_single_class_exchange_recorded_as_violation(self, spec0):
        # exchanging the negative sample leaves only positives, so AUROC
        # stops existing; that counts as a violation, not a crash
        d = Dataset([1.0, -1.5], [1, 0])
        rep = check_rank_lxc_invariance(auroc, d, spec0, trials=50, seed=0)
        assert not rep.passed
        assert rep.max_deviation == np.inf
        assert rep.witness.error == "SingleClassError"

    def test_rejects_zero_trials(self, d0, spec0):
        with pytest.raises(ValueError):
            check_rank_lxc_invariance(auroc, d0, spec0, trials=0)

    def test_non_finite_baseline_raises(self, d0, spec0):
        for value in (math.nan, math.inf):
            with pytest.raises(LxcimError, match=f"^the metric is {value} on the dataset$"):
                check_rank_lxc_invariance(lambda d: value, d0, spec0, trials=5)

    def test_overflowing_weights_raise_in_the_metric(self, spec0):
        # weights of 1e308 sum to inf: every metric raises before the checker sees a value
        d = Dataset([0.5, -0.5, 0.2], [1, 0, 0], [1e308] * 3)
        for metric in (partial(lxcim, spec=spec0), partial(audrc, spec=spec0), partial(accuracy, spec=spec0), auroc):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(LxcimError, match="^the weights overflow float arithmetic$"):
                    check_rank_lxc_invariance(metric, d, spec0, trials=5)

    def test_non_finite_trial_value_deviates_by_inf(self, d0, spec0):
        # NaN compares false with the tolerance, so it must not read as no deviation
        def metric(d):
            return 0.5 if np.array_equal(d.labels, d0.labels) else math.nan

        rep = check_rank_lxc_invariance(metric, d0, spec0, trials=8, seed=3)
        assert rep.baseline == 0.5
        assert rep.max_deviation == math.inf
        assert not rep.passed
        assert rep.witness.error is None and math.isnan(rep.witness.value)


# unchecked, each of these was stored in the report or failed only after the metric ran
NOT_INTEGRAL = [{"trials": True}, {"trials": 2.5}, {"seed": True}, {"seed": 2.5}, {"seed": np.True_}, {"seed": None}]


def refusing_metric(_):
    raise AssertionError("the metric ran before trials and seed were checked")


class TestCheckerArguments:
    @pytest.mark.parametrize("bad", NOT_INTEGRAL, ids=repr)
    def test_rank_checker_rejects_before_the_metric_runs(self, bad, d0, spec0):
        with pytest.raises(ValueError, match="must be integral"):
            check_rank_lxc_invariance(refusing_metric, d0, spec0, **bad)

    @pytest.mark.parametrize("bad", NOT_INTEGRAL, ids=repr)
    def test_categorical_checker_rejects_before_the_metric_runs(self, bad):
        with pytest.raises(ValueError, match="must be integral"):
            check_categorical_lxc_invariance(refusing_metric, ConfusionMatrix(3, 1, 2, 4), **bad)

    def test_integral_numbers_are_stored_as_int(self, d0, spec0):
        rank = check_rank_lxc_invariance(partial(lxcim, spec=spec0), d0, spec0, trials=np.int64(4), seed=7.0)
        categorical = check_categorical_lxc_invariance(f1_score, ConfusionMatrix(3, 1, 2, 4), trials=4.0, seed=np.uint8(7))
        assert type(rank.trials) is int and type(categorical.trials) is int
        assert rank == check_rank_lxc_invariance(partial(lxcim, spec=spec0), d0, spec0, trials=4, seed=7)
        assert categorical == check_categorical_lxc_invariance(f1_score, ConfusionMatrix(3, 1, 2, 4), trials=4, seed=7)


def reference_exchange(dataset, mask, spec):
    """Exchange by copying the arrays and building a fully validated Dataset."""
    idx = ExchangeMask(mask).indices
    if len(idx) == 0:
        return dataset
    scores = dataset.scores.copy()
    labels = dataset.labels.copy()
    movable = idx[scores[idx] != spec.s_star]
    scores[movable] = spec.reflect_at(dataset.scores[movable])
    labels[movable] = 1 - dataset.labels[movable]
    return Dataset(scores, labels, dataset.weights)


def reference_check(metric, dataset, spec, trials, seed, tolerance=1e-9):
    """The check loop with a validated ExchangeMask and Dataset on every trial."""
    baseline = float(metric(dataset))
    rng = np.random.default_rng(seed)
    max_deviation = 0.0
    witness = None
    for trial in range(trials):
        mask = ExchangeMask(np.nonzero(rng.random(len(dataset)) < 0.5)[0])
        exchanged = reference_exchange(dataset, mask, spec)
        try:
            value = float(metric(exchanged))
        except LxcimError as exc:
            max_deviation = math.inf
            if witness is None:
                witness = ExchangeWitness(
                    trial=trial, mask=mask, value=None, error=type(exc).__name__
                )
            continue
        deviation = abs(value - baseline)
        max_deviation = max(max_deviation, deviation)
        if deviation > tolerance and witness is None:
            witness = ExchangeWitness(trial=trial, mask=mask, value=value, error=None)
    return baseline, trials, tolerance, max_deviation, witness


def report_bits(baseline, trials, tolerance, max_deviation, witness):
    """Every report field, floats as their exact hex form."""
    fields = (baseline.hex(), trials, tolerance.hex(), max_deviation.hex())
    if witness is None:
        return fields + (None,)
    value = None if witness.value is None else witness.value.hex()
    return fields + (
        (witness.trial, witness.mask.as_tuple(), value, witness.error, witness.describe()),
    )


def oracle_data(kind: str, n: int, seed: int):
    """A dataset of one of the shapes the oracle covers, and its spec."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    weights = rng.uniform(0.05, 2.0, n) if seed % 2 else None
    if kind == "prob":  # probabilities in tenths, some exactly at s_star = 0.5
        return Dataset(np.round(rng.random(n), 1), labels, weights), make_abs_spec(0.5)
    scores = rng.normal(size=n)
    if kind == "tied":
        scores = np.round(scores, 2)
    elif kind == "at-threshold":
        scores = np.round(scores)
    return Dataset(scores, labels, weights), make_abs_spec(0.0)


ORACLE_METRICS = {
    "lxcim": lambda spec: partial(lxcim, spec=spec),
    "audrc": lambda spec: partial(audrc, spec=spec),
    "accuracy": lambda spec: partial(accuracy, spec=spec),
    "auroc": lambda spec: auroc,
}


class TestCheckOracle:
    """The check gives the report of the loop that validates every trial, bit for bit."""

    def assert_same(self, metric, dataset, spec, trials, seed):
        try:
            expected = report_bits(*reference_check(metric, dataset, spec, trials, seed))
        except LxcimError as exc:  # the baseline itself is undefined
            with pytest.raises(type(exc)):
                check_rank_lxc_invariance(metric, dataset, spec, trials=trials, seed=seed)
            return
        rep = check_rank_lxc_invariance(metric, dataset, spec, trials=trials, seed=seed)
        got = report_bits(rep.baseline, rep.trials, rep.tolerance, rep.max_deviation, rep.witness)
        assert got == expected

    @pytest.mark.parametrize("metric", list(ORACLE_METRICS))
    @pytest.mark.parametrize("kind", ["continuous", "tied", "at-threshold", "prob"])
    def test_matches_reference(self, kind, metric):
        for seed, n in enumerate((1, 2, 3, 8, 31, 64, 257, 2000)):
            dataset, spec = oracle_data(kind, n, seed)
            self.assert_same(ORACLE_METRICS[metric](spec), dataset, spec, trials=12, seed=seed)

    def test_data_covers_threshold_rows_and_weights(self):
        for kind in ("at-threshold", "prob"):
            dataset, spec = oracle_data(kind, 2000, 7)
            assert np.any(dataset.scores == spec.s_star)
        assert np.all(oracle_data("tied", 50, 0)[0].weights == 1.0)
        assert len(np.unique(oracle_data("tied", 50, 1)[0].weights)) == 50

    def test_single_class_witness(self, spec0):
        # exchanging the negative row leaves one class, where AUROC is undefined
        d = Dataset([1.0, -1.5], [1, 0])
        self.assert_same(auroc, d, spec0, trials=50, seed=0)
        rep = check_rank_lxc_invariance(auroc, d, spec0, trials=50, seed=0)
        assert rep.witness.error == "SingleClassError"


class TestCheckTrialCost:
    """A passing trial is one exchange plus one metric call: no mask, no validated Dataset."""

    def test_passing_trials_build_no_mask_and_no_dataset(self, count_calls, spec0):
        rng = np.random.default_rng(8)
        data = [random_dataset(rng, n) for n in (1, 9, 64, 300)]
        masks = count_calls(ExchangeMask, "__init__")
        datasets = count_calls(Dataset, "__init__")
        metric = partial(lxcim, spec=spec0)
        for d in data:
            assert check_rank_lxc_invariance(metric, d, spec0, trials=25, seed=2).passed
        assert masks == [] and datasets == []

    @pytest.mark.parametrize("data", ["deviation", "single-class"])
    def test_witness_builds_one_mask(self, count_calls, d0, spec0, data):
        d = d0 if data == "deviation" else Dataset([1.0, -1.5], [1, 0])
        masks = count_calls(ExchangeMask, "__init__")
        datasets = count_calls(Dataset, "__init__")
        rep = check_rank_lxc_invariance(auroc, d, spec0, trials=64, seed=11)
        assert not rep.passed
        assert len(masks) == 1 and datasets == []

    def test_exchange_and_duplicate_skip_revalidation(self, count_calls, d0, spec0):
        datasets = count_calls(Dataset, "__init__")
        exchange_subset(d0, [0, 2], spec0)
        duplicate_dataset(d0, spec0)
        assert datasets == []


def overflowing_spec():
    """abs/mirror at 0, except that the reflection of a score above 5, or of
    s_star itself, overflows to inf."""
    return DecisionSpec(
        s_star=0.0,
        confidence=np.abs,
        reflect=lambda s: np.where((s > 5.0) | (s == 0.0), np.inf, -s),
    )


class TestExchangeResults:
    """Exchanged datasets skip re-validation but keep their guarantees."""

    def test_overflowing_reflection_rejected(self):
        spec = overflowing_spec()
        d = Dataset([1.0, 6.0, -2.0, 0.0], [1, 0, 1, 1])
        with pytest.raises(ValueError, match="^scores must all be finite$"):
            exchange_subset(d, [1], spec)
        with pytest.raises(ValueError, match="^scores must all be finite$"):
            duplicate_dataset(d, spec)
        with pytest.raises(ValueError, match="^scores must all be finite$"):
            check_rank_lxc_invariance(partial(lxcim, spec=spec), d, spec, trials=50, seed=0)
        # rows at the threshold are not reflected, and the other rows are fine
        assert exchange_subset(d, [0, 2, 3], spec) == Dataset([-1.0, 6.0, 2.0, 0.0], [0, 0, 0, 1])
        assert duplicate_dataset(Dataset([0.0, 1.0], [1, 0]), spec) == Dataset(
            [0.0, 1.0, 0.0, -1.0], [1, 0, 1, 1]
        )

    def test_overflowing_reflection_is_typed(self):
        spec = overflowing_spec()
        d = Dataset([1.0, 6.0, -2.0, 0.0], [1, 0, 1, 1])
        for call in (
            lambda: exchange_subset(d, [1], spec),
            lambda: duplicate_dataset(d, spec),
            lambda: check_rank_lxc_invariance(partial(lxcim, spec=spec), d, spec, trials=50),
        ):
            with pytest.raises(NonFiniteMapError) as err:
                call()
            assert isinstance(err.value, LxcimError) and isinstance(err.value, ValueError)

    def test_confidence_failing_on_exchanged_scores_is_raised_not_a_witness(self):
        # finite on the original scores, NaN on their reflections
        spec = DecisionSpec(
            s_star=0.0,
            confidence=lambda s: np.where(s < -5.0, np.nan, np.abs(s)),
            reflect=lambda s: -s,
        )
        d = Dataset([6.0, 1.0, -2.0], [1, 0, 1])
        with pytest.raises(NonFiniteMapError, match="non-finite"):
            check_rank_lxc_invariance(partial(lxcim, spec=spec), d, spec, trials=20, seed=0)

    def assert_sealed(self, d):
        for name, dtype in (("scores", np.float64), ("labels", np.int64), ("weights", np.float64)):
            arr = getattr(d, name)
            assert arr.dtype == dtype and arr.ndim == 1 and len(arr) == len(d), name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[:1] = 0

    def test_results_are_read_only_with_fixed_dtypes(self, spec0):
        rng = np.random.default_rng(9)
        for n in (1, 5, 200):
            d = random_dataset(rng, n)
            self.assert_sealed(exchange_subset(d, range(0, n, 2), spec0))
            self.assert_sealed(exchange_subset(d, [], spec0))
            self.assert_sealed(duplicate_dataset(d, spec0))
            seen = []
            check_rank_lxc_invariance(lambda x: seen.append(x) or 0.0, d, spec0, trials=5, seed=n)
            for exchanged in seen:
                self.assert_sealed(exchanged)
        self.assert_sealed(d)  # the original keeps its own read-only arrays


class TestPerturbConfusion:
    def test_worked_example(self):
        out = perturb_confusion(ConfusionMatrix(3, 1, 2, 4), 2, 1)
        assert out.as_tuple() == (5.0, 0.0, 3.0, 2.0)

    def test_preserves_correct_and_incorrect_totals(self):
        cm = ConfusionMatrix(3, 1, 2, 4)
        out = perturb_confusion(cm, -1.5, 0.25)
        assert out.correct == cm.correct
        assert out.incorrect == cm.incorrect

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasiblePerturbationError):
            perturb_confusion(ConfusionMatrix(1, 1, 1, 1), 2, 0)
        with pytest.raises(InfeasiblePerturbationError):
            perturb_confusion(ConfusionMatrix(1, 1, 1, 1), 0, -2)

    def test_zero_entry_allowed(self):
        assert perturb_confusion(ConfusionMatrix(1, 1, 1, 1), 1, 1).as_tuple() == (
            2.0,
            0.0,
            2.0,
            0.0,
        )


def _categorical_accuracy(cm: ConfusionMatrix) -> float:
    return cm.correct / cm.total


class TestCategoricalChecker:
    def test_accuracy_is_invariant(self):
        rep = check_categorical_lxc_invariance(
            _categorical_accuracy, ConfusionMatrix(3, 1, 2, 4), trials=200, seed=1
        )
        assert rep.passed
        assert rep.max_deviation <= 1e-9

    def test_f1_witness_within_grid(self):
        cm = ConfusionMatrix(3, 1, 2, 4)
        rep = check_categorical_lxc_invariance(f1_score, cm, trials=10, seed=1)
        assert not rep.passed
        w = rep.witness
        reach = min(cm.as_tuple())
        assert abs(w.delta1) <= reach and abs(w.delta2) <= reach
        assert float(w.delta1).is_integer() and float(w.delta2).is_integer()

    def test_mcc_witness_within_grid(self):
        cm = ConfusionMatrix(3, 1, 2, 4)
        rep = check_categorical_lxc_invariance(matthews_corrcoef, cm, trials=10, seed=1)
        assert not rep.passed
        assert abs(rep.witness.delta1) <= 1.0 and abs(rep.witness.delta2) <= 1.0

    def test_witness_replays(self):
        cm = ConfusionMatrix(3, 1, 2, 4)
        rep = check_categorical_lxc_invariance(f1_score, cm, trials=10, seed=1)
        w = rep.witness
        assert f1_score(perturb_confusion(cm, w.delta1, w.delta2)) == w.value

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            check_categorical_lxc_invariance(f1_score, ConfusionMatrix(1, 1, 1, 1), trials=0)

    def test_non_finite_baseline_raises(self):
        # the products of the marginals overflow, so MCC is inf / inf
        cm = ConfusionMatrix(1e200, 3e200, 2e200, 1e200)
        assert math.isnan(matthews_corrcoef(cm))
        with pytest.raises(LxcimError, match="^the metric is nan on the dataset$"):
            check_categorical_lxc_invariance(matthews_corrcoef, cm, trials=5)

    def test_non_finite_probe_value_deviates_by_inf(self):
        cm = ConfusionMatrix(3, 1, 2, 4)

        def metric(moved):
            return 0.5 if moved == cm else math.nan

        rep = check_categorical_lxc_invariance(metric, cm, trials=5, seed=1)
        assert (rep.baseline, rep.max_deviation) == (0.5, math.inf)
        assert not rep.passed
        assert (rep.witness.delta1, rep.witness.delta2) == (-1.0, -1.0) and math.isnan(rep.witness.value)

    def test_grid_reach_is_capped(self):
        # all four cells >= 16, so every move of the 33 x 33 grid is feasible
        calls = []

        def counted_accuracy(cm):
            calls.append(cm)
            return _categorical_accuracy(cm)

        rep = check_categorical_lxc_invariance(
            counted_accuracy, ConfusionMatrix(30, 16, 17, 500), trials=1, seed=0
        )
        assert rep.passed
        assert len(calls) == 1 + (33 * 33 - 1) + 1  # baseline, grid, one random move

    def test_large_matrix_is_quick_and_finds_a_grid_witness(self):
        cm = ConfusionMatrix(900, 300, 600, 1200)
        start = time.perf_counter()
        rep = check_categorical_lxc_invariance(f1_score, cm)
        assert time.perf_counter() - start < 1.0
        w = rep.witness
        assert w is not None and abs(w.delta1) <= 16 and abs(w.delta2) <= 16
        assert float(w.delta1).is_integer() and float(w.delta2).is_integer()
        assert f1_score(perturb_confusion(cm, w.delta1, w.delta2)) == w.value


def reference_categorical_check(metric, cm, trials, seed, tolerance=1e-9):
    """The categorical checker's loop with its own feasibility test before each move.

    Returns (baseline, max deviation, witness); the checker skips the moves
    that ``perturb_confusion`` refuses instead.
    """

    def feasible(delta1, delta2):
        return (
            cm.tp + delta1 >= 0.0
            and cm.tn - delta1 >= 0.0
            and cm.fn + delta2 >= 0.0
            and cm.fp - delta2 >= 0.0
        )

    baseline = float(metric(cm))
    max_deviation, witness = 0.0, None

    def probe(delta1, delta2):
        nonlocal max_deviation, witness
        value = float(metric(perturb_confusion(cm, delta1, delta2)))
        deviation = abs(value - baseline)
        max_deviation = max(max_deviation, deviation)
        if deviation > tolerance and witness is None:
            witness = PerturbationWitness(delta1=delta1, delta2=delta2, value=value)

    reach = int(math.floor(min(cm.as_tuple())))
    for d1 in range(-reach, reach + 1):
        for d2 in range(-reach, reach + 1):
            if (d1, d2) != (0, 0) and feasible(d1, d2):
                probe(float(d1), float(d2))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        delta1 = rng.uniform(-cm.tp, cm.tn)
        delta2 = rng.uniform(-cm.fn, cm.fp)
        if feasible(delta1, delta2):
            probe(delta1, delta2)
    return baseline, max_deviation, witness


def _bits(witness):
    if witness is None:
        return None
    return tuple(float(v).hex() for v in (witness.delta1, witness.delta2, witness.value))


class TestCategoricalOracle:
    @staticmethod
    def matrices():
        """24 seeded matrices: integer, fractional and zero entries, never all zero."""
        rng = np.random.default_rng(2024)
        out = [ConfusionMatrix(3, 1, 2, 4), ConfusionMatrix(0, 2, 0, 3.5), ConfusionMatrix(2.5, 0, 0, 0)]
        while len(out) < 24:
            cells = np.where(rng.random(4) < 0.5, rng.integers(0, 7, 4), rng.uniform(0.0, 6.0, 4))
            cells[rng.random(4) < 0.2] = 0.0
            if cells.sum() > 0.0:
                out.append(ConfusionMatrix(*cells))
        return out

    @pytest.mark.parametrize(
        "metric", [f1_score, matthews_corrcoef, _categorical_accuracy], ids=["f1", "mcc", "accuracy"]
    )
    def test_matches_feasibility_gated_loop(self, metric):
        witnesses = 0
        for index, cm in enumerate(self.matrices()):
            rep = check_categorical_lxc_invariance(metric, cm, trials=40, seed=index)
            baseline, max_deviation, witness = reference_categorical_check(metric, cm, 40, index)
            assert type(rep) is InvarianceReport
            assert (rep.trials, rep.tolerance) == (40, 1e-9)
            assert float(rep.baseline).hex() == float(baseline).hex()
            assert float(rep.max_deviation).hex() == float(max_deviation).hex()
            assert _bits(rep.witness) == _bits(witness)
            assert rep.passed == (witness is None)
            witnesses += witness is not None
        if metric is _categorical_accuracy:
            assert witnesses == 0
        else:
            assert witnesses >= 10

    def test_infeasible_draws_are_skipped(self, monkeypatch):
        # every random move lands one past the feasible box, so only the grid counts
        class PastTheBox:
            def uniform(self, low, high):
                return high + 1.0

        monkeypatch.setattr(np.random, "default_rng", lambda seed: PastTheBox())
        cm = ConfusionMatrix(3, 1, 2, 4)
        rep = check_categorical_lxc_invariance(f1_score, cm, trials=5)
        baseline, max_deviation, witness = reference_categorical_check(f1_score, cm, 5, 0)
        assert float(rep.max_deviation).hex() == float(max_deviation).hex()
        assert rep.witness is not None and _bits(rep.witness) == _bits(witness)
        with pytest.raises(InfeasiblePerturbationError):  # what each draw would have raised
            perturb_confusion(cm, cm.tn + 1.0, cm.fp + 1.0)
