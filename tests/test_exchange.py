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
