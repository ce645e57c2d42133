import math
import time
from functools import partial

import numpy as np
import pytest

from lxcim import (
    ConfusionMatrix,
    Dataset,
    EmptyDatasetError,
    ExchangeMask,
    ExchangeWitness,
    InfeasiblePerturbationError,
    InvalidMaskError,
    InvarianceReport,
    LxcimError,
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
    rank_by_confidence,
    report,
)

from lxcim import model
from lxcim.model import _WeightOrder

from conftest import random_dataset


class TestExchangeSample:
    """The exchange acting on one row, or on every row of a dataset at once."""

    def test_positive_side(self, spec0):
        assert exchange_subset(Dataset([1.0], [0]), [0], spec0) == Dataset([-1.0], [1])

    def test_negative_side_keeps_weight(self, spec0):
        out = exchange_subset(Dataset([-4.0], [0], [2.5]), [0], spec0)
        assert out == Dataset([4.0], [1], [2.5])

    def test_threshold_sample_is_fixed_point(self, spec0):
        out = exchange_subset(Dataset([0.0, -0.0], [1, 0]), [0, 1], spec0)
        assert out == Dataset([0.0, -0.0], [1, 0])
        assert out.scores.tobytes() == np.array([0.0, -0.0]).tobytes()  # a -0.0 keeps its bits

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
        assert np.array_equal(np.abs(out.scores), np.abs(d.scores))
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

    def test_membership_takes_numbers_not_booleans(self):
        # booleans are refused as positions, so none is a member, though True == 1 in numpy
        mask = ExchangeMask([1, 2])
        assert 1 in mask and 1.0 in mask and np.int64(2) in mask and np.float64(1.0) in mask
        for flag in (True, False, np.True_, np.False_, np.array(True), np.array(False)):
            assert flag not in mask
        assert False not in ExchangeMask([0]) and 0 in ExchangeMask([0])
        # nor is a sequence a position, though numpy broadcasts it against the indices
        assert np.array(2) in mask
        for items in ((1, 2), [1, 2], (1,), [2], np.array([1, 2]), np.array([[1]]), (), []):
            assert items not in mask

    def test_preserves_size_weight_and_confidence_multiset(self, spec0):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(1, 50)))
            mask = ExchangeMask(np.nonzero(rng.random(len(d)) < 0.5)[0])
            out = exchange_subset(d, mask, spec0)
            assert len(out) == len(d)
            assert np.array_equal(out.weights, d.weights)
            assert np.array_equal(
                np.sort(np.abs(out.scores)), np.sort(np.abs(d.scores))
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
    def test_second_half_is_the_full_exchange(self, s_star, spec0):
        # scores centred at s_star; rows exactly at the threshold are their own exchange
        rng = np.random.default_rng(6)
        for n in (1, 2, 9, 400):
            d = Dataset(
                np.round(rng.uniform(s_star - 1.0, s_star + 1.0, n), 1) - s_star,
                rng.integers(0, 2, n),
                rng.uniform(0.05, 2.0, n),
            )
            mirrored = exchange_subset(d, range(n), spec0)
            doubled = duplicate_dataset(d, spec0)
            for name in ("scores", "labels", "weights"):
                got = getattr(doubled, name)
                expected = np.concatenate((getattr(d, name), getattr(mirrored, name)))
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), name
        assert np.any(d.scores == 0.0)  # the 400-row set has rows at the threshold


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


def reference_exchange(dataset, mask):
    """Exchange by copying the arrays and building a fully validated Dataset."""
    idx = ExchangeMask(mask).indices
    if len(idx) == 0:
        return dataset
    scores = dataset.scores.copy()
    labels = dataset.labels.copy()
    movable = idx[scores[idx] != 0.0]
    scores[movable] = -dataset.scores[movable]
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
        exchanged = reference_exchange(dataset, mask)
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
    if kind == "prob":  # probabilities in tenths centred at s_star = 0.5, some exactly at it
        return Dataset(np.round(rng.random(n), 1) - 0.5, labels, weights), make_abs_spec(0.0)
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
            with pytest.raises(type(exc)) as raised:
                check_rank_lxc_invariance(metric, dataset, spec, trials=trials, seed=seed)
            assert str(raised.value) == str(exc)
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

    @pytest.mark.parametrize("metric", list(ORACLE_METRICS))
    @pytest.mark.parametrize("weights", ["distinct", "three-values", "equal"])
    @pytest.mark.parametrize("kind", ["tied", "at-threshold", "prob"])
    def test_matches_reference_sharing_the_weight_order(self, kind, weights, metric):
        # from 256 rows every trial's ranking takes the check's one weight order
        for seed, n in enumerate((256, 257, 600, 3000)):
            dataset, spec = oracle_data(kind, n, seed)
            rng = np.random.default_rng(seed)
            w = {
                "distinct": lambda: rng.uniform(0.05, 2.0, n),
                "three-values": lambda: rng.choice([0.5, 1.0, 1.5], n),
                "equal": lambda: np.full(n, 0.25),
            }[weights]()
            dataset = Dataset(dataset.scores, dataset.labels, w)
            self.assert_same(ORACLE_METRICS[metric](spec), dataset, spec, trials=4, seed=seed)

    def test_matches_reference_past_32768_tie_groups(self, spec0):
        # the ranking keys correctness and the group ids' 16-bit pieces apart there
        rng = np.random.default_rng(32769)
        n = 80_000
        scores = rng.choice([-1.0, 1.0], n) * rng.integers(1, 40_000, n) / 64.0
        dataset = Dataset(scores, rng.integers(0, 2, n), rng.uniform(0.05, 2.0, n))
        assert len(rank_by_confidence(dataset, spec0).group_ends) > 32768
        self.assert_same(partial(lxcim, spec=spec0), dataset, spec0, trials=3, seed=5)

    def test_single_class_witness(self, spec0):
        # exchanging the negative row leaves one class, where AUROC is undefined
        d = Dataset([1.0, -1.5], [1, 0])
        self.assert_same(auroc, d, spec0, trials=50, seed=0)
        rep = check_rank_lxc_invariance(auroc, d, spec0, trials=50, seed=0)
        assert rep.witness.error == "SingleClassError"


TWO_ROWS = Dataset([0.04 - 0.5, 0.96 - 0.5], [1, 1])  # two probabilities centred at 0.5


class TestCentredExchange:
    """Probabilities centred once are exchanged exactly: a check reaches its verdict with no deviation."""

    @pytest.mark.parametrize("metric", ["lxcim", "audrc", "accuracy"])
    def test_two_rows_at_one_half(self, metric, spec0):
        # the mirror 0.5 - (0.04 - 0.5) rounds to 0.96; the negation of -0.46 does not round
        rep = check_rank_lxc_invariance(ORACLE_METRICS[metric](spec0), TWO_ROWS, spec0, trials=20)
        assert rep.passed and rep.max_deviation == 0.0

    def test_exchange_keeps_the_confidences_apart(self, spec0):
        assert TWO_ROWS.scores.tolist() == [-0.46, 0.45999999999999996]
        assert exchange_subset(TWO_ROWS, [0], spec0) == Dataset([0.46, 0.45999999999999996], [0, 1])
        assert lxcim(TWO_ROWS, spec0) == lxcim(exchange_subset(TWO_ROWS, [0], spec0), spec0) == 0.25


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


def tied_rows(n, seed=0):
    """``n`` rows of 2-decimal scores with distinct weights: tied, and weight-sorted from 256 rows."""
    rng = np.random.default_rng(seed)
    return Dataset(np.round(rng.normal(size=n), 2), rng.integers(0, 2, n), rng.uniform(0.05, 2.0, n))


class TestSharedWeightOrder:
    """A check sorts the weights once for all its trials, and shares nothing else or beyond the call."""

    @pytest.mark.parametrize("metric", ["lxcim", "audrc", "accuracy"])
    def test_check_sorts_the_weights_once(self, count_calls, spec0, metric):
        d = tied_rows(300)
        sorts = count_calls(model, "_distinct_weight_order")
        rep = check_rank_lxc_invariance(ORACLE_METRICS[metric](spec0), d, spec0, trials=10, seed=3)
        assert rep.passed and len(sorts) == 1 and sorts[0][0] is d.weights

    def test_metric_that_never_ranks_sorts_nothing(self, count_calls, spec0):
        sorts = count_calls(model, "_distinct_weight_order")
        check_rank_lxc_invariance(auroc, tied_rows(300), spec0, trials=10, seed=3)
        assert sorts == []

    def test_below_256_rows_the_weights_are_not_sorted_apart(self, count_calls, spec0):
        sorts = count_calls(model, "_distinct_weight_order")
        check_rank_lxc_invariance(partial(lxcim, spec=spec0), tied_rows(255), spec0, trials=10, seed=3)
        assert sorts == []

    def test_order_does_not_outlive_the_check(self, count_calls, spec0):
        d = tied_rows(300)
        before = rank_bits(d, spec0)
        check_rank_lxc_invariance(partial(lxcim, spec=spec0), d, spec0, trials=10, seed=3)
        assert d._weight_order is None  # the caller's dataset is left as it was
        sorts = count_calls(model, "_distinct_weight_order")
        assert rank_bits(d, spec0) == before and len(sorts) == 1
        report(d, spec0)
        assert len(sorts) == 2

    def test_exchange_and_duplicate_carry_no_order(self, count_calls, spec0):
        d = tied_rows(300)
        exchanged = exchange_subset(d, range(0, 300, 3), spec0)
        doubled = duplicate_dataset(d, spec0)
        assert exchanged._weight_order is None and doubled._weight_order is None
        sorts = count_calls(model, "_distinct_weight_order")
        lxcim(exchanged, spec0), lxcim(exchanged, spec0), lxcim(doubled, spec0)
        assert len(sorts) == 3

    def test_metric_gets_plain_datasets_equal_to_the_reference(self, spec0):
        for d in (tied_rows(300), Dataset(np.round(np.linspace(-1, 1, 400), 1), np.arange(400) % 2)):
            seen = []
            check_rank_lxc_invariance(lambda x: seen.append(x) or 0.0, d, spec0, trials=6, seed=4)
            assert len(seen) == 7 and all(type(x) is Dataset for x in seen)
            rng = np.random.default_rng(4)
            masks = [np.flatnonzero(rng.random(len(d)) < 0.5) for _ in range(6)]
            for got, want in zip(seen, [d] + [reference_exchange(d, mask) for mask in masks]):
                assert got == want and got.labels.dtype == np.int64 and got.weights is d.weights
            # one order for the whole check, over the caller's own weights array
            (shared,) = {x._weight_order for x in seen}
            assert type(shared) is _WeightOrder and shared.weights is d.weights

    def test_twin_is_read_only_and_the_original_untouched(self, spec0):
        d = tied_rows(300)
        arrays = (d.scores, d.labels, d.weights)
        seen = []
        check_rank_lxc_invariance(lambda x: seen.append(x) or 0.0, d, spec0, trials=1, seed=0)
        baseline = seen[0]
        assert baseline is not d
        assert all(a is b for a, b in zip((baseline.scores, baseline.labels, baseline.weights), arrays))
        assert all(a is b for a, b in zip((d.scores, d.labels, d.weights), arrays)) and d._weight_order is None
        with pytest.raises(AttributeError):
            baseline.scores = d.scores


def rank_bits(dataset, spec):
    view = rank_by_confidence(dataset, spec)
    return tuple(arr.tobytes() for arr in vars(view).values())


class TestExchangeResults:
    """Exchanged datasets skip re-validation but keep their guarantees."""

    @pytest.mark.filterwarnings("error")
    def test_largest_scores_exchange_exactly(self, spec0):
        # negation cannot overflow: the largest floats and the subnormals exchange with no warning
        big, tiny = np.finfo(float).max, 5e-324
        d = Dataset([big, -big, tiny, -tiny, 0.0], [1, 0, 0, 1, 1])
        assert exchange_subset(d, range(5), spec0) == Dataset([-big, big, -tiny, tiny, 0.0], [0, 1, 1, 0, 1])
        assert duplicate_dataset(d, spec0).scores.tolist() == [big, -big, tiny, -tiny, 0.0, -big, big, -tiny, tiny, 0.0]
        assert check_rank_lxc_invariance(partial(accuracy, spec=spec0), d, spec0, trials=20).max_deviation == 0.0

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
