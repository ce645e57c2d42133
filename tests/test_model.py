import copy
import pickle

import numpy as np
import pytest

from lxcim import (
    Dataset,
    EmptyDatasetError,
    make_abs_spec,
    predict,
    rank_by_confidence,
)
from lxcim import model
from lxcim.model import DecisionSpec, _sharing_weight_order, _WeightOrder

from conftest import random_dataset


class TestSample:
    """Validation of a single row, which Dataset does once for all rows."""

    def test_defaults_weight_to_one(self):
        assert Dataset([1.5], [1]).weights.tolist() == [1.0]

    # kwargs3, a bool label, is gone: Dataset reads True/False as 1/0.
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(dict(score=float("nan"), label=0), id="kwargs0"),
            pytest.param(dict(score=float("inf"), label=0), id="kwargs1"),
            pytest.param(dict(score=0.0, label=2), id="kwargs2"),
            pytest.param(dict(score=0.0, label=0, weight=0.0), id="kwargs4"),
            pytest.param(dict(score=0.0, label=0, weight=-1.0), id="kwargs5"),
            pytest.param(dict(score=0.0, label=0, weight=float("nan")), id="kwargs6"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            Dataset([kwargs["score"]], [kwargs["label"]], [kwargs.get("weight", 1.0)])


class TestDataset:
    def test_round_trips_samples(self):
        rows = [(1.0, 1, 2.0), (-2.0, 0, 1.0), (-3.0, 1, 0.5)]
        d = Dataset(*zip(*rows))
        assert len(d) == 3
        assert d.total_weight == pytest.approx(3.5)
        assert list(zip(d.scores.tolist(), d.labels.tolist(), d.weights.tolist())) == rows

    def test_equality_is_by_value(self):
        a = Dataset([1, -1], [1, 0], [1, 2])
        b = Dataset([1.0, -1.0], [1, 0], [1.0, 2.0])
        c = Dataset([1, -1], [1, 0], [1, 3])
        assert a == b and a != c

    def test_arrays_are_read_only(self):
        d = Dataset([1], [1])
        with pytest.raises(ValueError):
            d.scores[0] = 2.0
        with pytest.raises(AttributeError):
            d.scores = np.array([2.0])

    def test_empty_is_constructible(self):
        assert len(Dataset([], [])) == 0

    @pytest.mark.parametrize("round_trip", [lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_pickles_and_copies(self, round_trip):
        d = Dataset([1.0, -0.5, 0.3, -0.2], [1, 1, 0, 0], [2.0, 1.0, 0.5, 1.0])
        # the check's twin carries a _WeightOrder; a round trip leaves it behind
        twin = _sharing_weight_order(Dataset(np.arange(300.0) - 150.0, np.arange(300) % 2, np.arange(1.0, 301.0)))
        for original in (d, twin, Dataset([], [])):
            again = round_trip(original)
            assert again == original and type(again) is Dataset
            assert again._weight_order is None
            for arr, dtype in ((again.scores, np.float64), (again.labels, np.int64), (again.weights, np.float64)):
                assert arr.dtype == dtype and not arr.flags.writeable

    @pytest.mark.parametrize(
        "scores,labels,weights",
        [
            ([1, float("nan")], [0, 1], None),
            ([1, 2], [0, 5], None),
            ([1, 2], [0, 0.5], None),
            ([1, 2], [0, 1], [1, 0]),
            ([1, 2], [0, 1], [1, float("inf")]),
            ([1, 2], [0], None),
            ([1, 2], [0, 1], [1]),
        ],
    )
    def test_rejects_invalid_inputs(self, scores, labels, weights):
        with pytest.raises(ValueError):
            Dataset(scores, labels, weights)


class TestPredict:
    def test_above_threshold_is_positive(self, spec0):
        assert predict(0.2, spec0) == 1

    def test_below_threshold_is_negative(self, spec0):
        assert predict(-7.0, spec0) == 0

    def test_at_threshold_is_negative(self, spec0):
        assert predict(0.0, spec0) == 0 and predict(-0.0, spec0) == 0

    def test_vectorized(self, spec0):
        assert predict(np.array([-1.0, 0.0, 3.0]), spec0).tolist() == [0, 0, 1]

    def test_reflection_flips_prediction(self, spec0):
        for s in (-3.0, -0.25, 0.125, 9.0):
            assert predict(-s, spec0) == 1 - predict(s, spec0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, spec0, bad):
        with pytest.raises(ValueError, match="finite"):
            predict(bad, spec0)
        with pytest.raises(ValueError, match="finite"):
            predict(np.array([bad, 1.0]), spec0)
        with pytest.raises(ValueError, match="finite"):
            predict([[1.0], [bad]], spec0)

    @pytest.mark.parametrize(
        "scores", [0.2, 0.0, -3, np.float32(1.5), [], [0.5, -0.5], [[1.0, 0.0], [-2.0, 7.0]]]
    )
    def test_int64_of_the_input_shape(self, spec0, scores):
        out = predict(scores, spec0)
        assert out.dtype == np.int64 and out.shape == np.shape(scores)
        assert np.array_equal(out, np.asarray(scores, dtype=float) > 0.0)


class TestAbsSpec:
    def test_rejects_non_finite_threshold(self):
        with pytest.raises(ValueError):
            make_abs_spec(float("nan"))

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=repr)
    def test_rejects_boolean_threshold(self, flag):
        # float() reads a boolean as 1.0 or 0.0, which would pass for a threshold
        with pytest.raises(ValueError, match="not a boolean"):
            make_abs_spec(flag)
        with pytest.raises(ValueError, match="not a boolean"):
            DecisionSpec(s_star=flag)

    @pytest.mark.parametrize("text", ["0.5", "1e0", b"1", np.str_("0")], ids=repr)
    def test_rejects_text_threshold(self, text):
        # float() parses text, which is not a number
        with pytest.raises(ValueError, match="must be a finite number"):
            make_abs_spec(text)
        with pytest.raises(ValueError, match="must be a finite number"):
            DecisionSpec(text)

    @pytest.mark.parametrize("given", [0, np.float32(0.0), np.int64(0), -0.0], ids=repr)
    def test_zero_thresholds_become_float(self, given):
        for spec in (make_abs_spec(given), DecisionSpec(given)):
            assert type(spec.s_star) is float and repr(spec.s_star) == "0.0"
        assert make_abs_spec(given) == make_abs_spec() == DecisionSpec(0.0)

    @pytest.mark.parametrize("given", [1, np.float32(0.5), np.int64(-2), 5e-324], ids=repr)
    def test_other_thresholds_name_both_ways_to_centre(self, given):
        # the library decides at 0 only; scores are centred once, where they are read
        for make in (make_abs_spec, DecisionSpec):
            with pytest.raises(ValueError, match=r"^s_star must be 0, got .*: centre the scores once instead, "
                               r"with ingest\(\.\.\., s_star=.*\) or Dataset\(scores - .*, \.\.\.\)$"):
                make(given)


class TestRankByConfidence:
    def test_worked_example_order(self, d0, spec0):
        view = rank_by_confidence(d0, spec0)
        assert d0.scores[view.order].tolist() == [-4.0, -3.0, 2.0, 1.0]
        assert view.correct.astype(int).tolist() == [1, 0, 1, 0]
        assert view.cum_weight.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert view.group_ends.tolist() == [1, 2, 3, 4]

    def test_tied_confidences_form_one_group(self, tie_pair, spec0):
        view = rank_by_confidence(tie_pair, spec0)
        assert view.group_ends.tolist() == [2]

    def test_singleton(self, spec0):
        view = rank_by_confidence(Dataset([3.0], [1]), spec0)
        assert view.order.tolist() == [0]
        assert view.correct.tolist() == [True]

    def test_empty_dataset_rejected(self, spec0):
        with pytest.raises(EmptyDatasetError):
            rank_by_confidence(Dataset([], []), spec0)

    def test_canonical_under_input_permutation(self, spec0):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(2, 30)))
            perm = rng.permutation(len(d))
            shuffled = Dataset(d.scores[perm], d.labels[perm], d.weights[perm])
            a = rank_by_confidence(d, spec0)
            b = rank_by_confidence(shuffled, spec0)
            assert np.array_equal(d.scores[a.order], shuffled.scores[b.order])
            assert np.array_equal(a.correct, b.correct)
            assert np.array_equal(a.cum_weight, b.cum_weight)
            assert np.array_equal(a.group_ends, b.group_ends)

    def test_cum_weight_strictly_increasing(self, spec0):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 64)
        view = rank_by_confidence(d, spec0)
        assert np.all(np.diff(view.cum_weight) > 0)


VIEW_FIELDS = (
    "order",
    "correct",
    "weight",
    "cum_weight",
    "cum_correct_weight",
    "group_ends",
)


def lexsort_view(dataset):
    """Reference ranking: one 5-key lexsort over every sample.

    Descending confidence, then wrong before right, light before heavy, low
    score before high, label 0 before 1, and dataset position last.
    """
    conf = np.abs(dataset.scores)
    correct = (dataset.scores > 0.0) == dataset.labels.astype(bool)
    order = np.lexsort((dataset.labels, dataset.scores, dataset.weights, correct, -conf))
    conf_r = conf[order]
    weight = dataset.weights[order]
    correct_r = correct[order]
    breaks = np.nonzero(conf_r[1:] != conf_r[:-1])[0] + 1
    return {
        "order": order,
        "correct": correct_r,
        "weight": weight,
        "cum_weight": np.cumsum(weight),
        "cum_correct_weight": np.cumsum(weight * correct_r),
        "group_ends": np.concatenate((breaks, [len(conf_r)])),
    }


def _oracle_dataset(kind, n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-1.0, 1.0, n)
    labels = rng.integers(0, 2, n)
    if kind == "continuous":
        return Dataset(scores, labels, rng.uniform(0.05, 2.0, n))
    if kind == "tied":
        # two decimals: about 100 tie groups, and rows at the threshold
        return Dataset(np.round(scores, 2), labels, rng.uniform(0.05, 2.0, n))
    if kind == "duplicate-rows":
        pool = np.round(rng.uniform(-1.0, 1.0, 12), 1)
        rows = rng.integers(0, len(pool), n)
        return Dataset(pool[rows], rows % 2)
    if kind == "random-weights":
        # few distinct weights, so equal-weight ties span both sides
        return Dataset(np.round(scores, 1), labels, rng.choice([0.5, 1.0, 1.5, 2.0], n))
    raise AssertionError(kind)


def _grouped_dataset(n, groups, distinct_weights, seed=0):
    """``n`` rows in exactly ``groups`` tie groups, the first at the threshold 0."""
    rng = np.random.default_rng(seed)
    level = rng.permutation(np.concatenate((np.arange(groups), rng.integers(0, groups, n - groups))))
    scores = rng.choice([-1.0, 1.0], n) * level / 64.0
    weights = rng.uniform(0.05, 2.0, n) if distinct_weights else rng.choice([0.5, 1.0, 1.5], n)
    return Dataset(scores, rng.integers(0, 2, n), weights)


class TestRankingOracle:
    """The ranking is the 5-key lexsort's, array for array and bit for bit."""

    def assert_matches(self, dataset, spec):
        view = rank_by_confidence(dataset, spec)
        expected = lexsort_view(dataset)
        for field in VIEW_FIELDS:
            got = getattr(view, field)
            assert got.dtype == expected[field].dtype, field
            assert got.tobytes() == expected[field].tobytes(), field

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 300, 5000])
    @pytest.mark.parametrize("kind", ["continuous", "tied", "duplicate-rows", "random-weights"])
    def test_matches_lexsort(self, kind, n, spec0):
        for seed in range(3):
            self.assert_matches(_oracle_dataset(kind, n, seed), spec0)

    def test_matches_lexsort_with_signed_zero_scores(self, spec0):
        # -0.0 and 0.0 sit at the threshold, in one tie group, and keep their bits
        for perm in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 3, 1]):
            scores = np.array([-3.0, -0.0, 0.0, -0.0, 2.0])[perm]
            self.assert_matches(Dataset(scores, np.arange(5) % 2), spec0)

    def test_matches_lexsort_at_probability_threshold(self, spec0):
        # probabilities centred at 0.5, as ingest(..., s_star=0.5) reads them
        rng = np.random.default_rng(11)
        p = np.round(rng.uniform(0.0, 1.0, 2000), 2)
        d = Dataset(p - 0.5, rng.integers(0, 2, 2000), rng.choice([0.25, 1.0, 4.0], 2000))
        self.assert_matches(d, spec0)

    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    @pytest.mark.parametrize("decimals,n", [(4, 20_000), (6, 150_000)], ids=["256+groups", "65536+groups"])
    def test_matches_lexsort_with_many_tie_groups(self, decimals, n, weighted, spec0):
        # group indices past 255 and past 65535 need wider integer keys
        rng = np.random.default_rng(12)
        scores = np.round(rng.uniform(-1.0, 1.0, n), decimals)
        weights = rng.uniform(0.05, 2.0, n) if weighted else None
        d = Dataset(scores, rng.integers(0, 2, n), weights)
        view = rank_by_confidence(d, spec0)
        assert len(view.group_ends) > (256 if decimals == 4 else 65536)
        assert np.any(np.diff(view.group_ends) > 1)
        self.assert_matches(d, spec0)

    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct-weights", "repeated-weights"])
    @pytest.mark.parametrize(
        "groups,n",
        [(128, 1000), (129, 1000), (32768, 40_000), (32769, 40_000), (65536, 80_000), (65537, 80_000)],
        ids=["128-groups", "129-groups", "32768-groups", "32769-groups", "65536-groups", "65537-groups"],
    )
    def test_matches_lexsort_at_key_widths(self, groups, n, distinct, spec0):
        # 2·group + correct fits 8 bits up to 128 groups and 16 bits up to
        # 32768; past that, correctness and the group ids are sorted apart,
        # the ids in one 16-bit piece up to 65536 groups and in two past it
        d = _grouped_dataset(n, groups, distinct)
        assert (len(np.unique(d.weights)) == n) == distinct
        assert len(rank_by_confidence(d, spec0).group_ends) == groups
        self.assert_matches(d, spec0)

    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct-weights", "repeated-weights"])
    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("full", [False, True], ids=["100-groups", "n-1-groups"])
    def test_matches_lexsort_around_weight_first_size(self, n, full, distinct, spec0):
        # below 256 rows one lexsort orders the ties; from 256 the weights are sorted first
        groups = n - 1 if full else 100
        for seed in range(3):
            d = _grouped_dataset(n, groups, distinct, seed)
            assert len(rank_by_confidence(d, spec0).group_ends) == groups
            self.assert_matches(d, spec0)


class TestWeightOrder:
    """The weight order a ranking takes for tied confidences: sorted once, used as if sorted afresh."""

    def test_sorted_on_first_use_only(self, count_calls):
        weights = np.array([2.0, 0.5, 1.5, 1.0])
        sorts = count_calls(model, "_distinct_weight_order")
        shared = _WeightOrder(weights)
        assert sorts == []
        first = shared.distinct()
        assert first.tolist() == [1, 3, 2, 0] and not first.flags.writeable
        assert shared.distinct() is first and len(sorts) == 1

    def test_repeated_weights_give_none(self):
        assert _WeightOrder(np.array([1.0, 2.0, 1.0])).distinct() is None
        assert _WeightOrder(np.ones(300)).distinct() is None

    def test_only_from_valid_attaches_one(self):
        d = Dataset([1.0, -1.0], [1, 0], [1.0, 2.0])
        assert d._weight_order is None
        shared = _WeightOrder(d.weights)
        assert Dataset._from_valid(d.scores, d.labels, d.weights)._weight_order is None
        twin = Dataset._from_valid(d.scores, d.labels, d.weights, shared)
        assert twin._weight_order is shared and twin == d
        with pytest.raises(AttributeError):
            twin._weight_order = None

    def test_twin_only_where_the_ranking_sorts_weights_apart(self):
        small = Dataset(np.zeros(255), np.zeros(255, dtype=int))
        assert _sharing_weight_order(small) is small
        d = Dataset(np.zeros(256), np.zeros(256, dtype=int))
        twin = _sharing_weight_order(d)
        assert twin is not d and twin == d and d._weight_order is None
        assert twin.weights is d.weights and twin._weight_order.weights is d.weights

    @pytest.mark.parametrize("n", [256, 300, 5000])
    @pytest.mark.parametrize("kind", ["tied", "duplicate-rows", "random-weights"])
    def test_shared_order_ranks_as_the_lexsort(self, count_calls, kind, n, spec0):
        sorts = count_calls(model, "_distinct_weight_order")
        for seed in range(3):
            d = _oracle_dataset(kind, n, seed)
            twin = Dataset._from_valid(d.scores, d.labels, d.weights, _WeightOrder(d.weights))
            for _ in range(2):
                TestRankingOracle().assert_matches(twin, spec0)
            assert len(sorts) == seed + 1
