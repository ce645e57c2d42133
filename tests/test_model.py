import math

import numpy as np
import pytest

from lxcim import (
    Dataset,
    EmptyDatasetError,
    make_abs_spec,
    predict,
    rank_by_confidence,
    validate_decision_spec,
)
from lxcim.model import DecisionSpec

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

    def test_at_threshold_is_negative(self):
        assert predict(0.5, make_abs_spec(0.5)) == 0

    def test_vectorized(self, spec0):
        assert predict(np.array([-1.0, 0.0, 3.0]), spec0).tolist() == [0, 0, 1]

    def test_reflection_flips_prediction(self, spec0):
        for s in (-3.0, -0.25, 0.125, 9.0):
            assert predict(spec0.reflect_at(s), spec0) == 1 - predict(s, spec0)


class TestAbsSpec:
    def test_confidence_is_distance(self):
        assert make_abs_spec(0.0).confidence_at(-4.0) == 4.0

    def test_reflect_mirrors_about_threshold(self):
        assert make_abs_spec(0.0).reflect_at(1.0) == -1.0
        assert make_abs_spec(0.5).reflect_at(0.9) == pytest.approx(0.1)

    def test_exact_symmetry_at_zero_threshold(self):
        spec = make_abs_spec(0.0)
        rng = np.random.default_rng(1)
        scores = np.concatenate([rng.uniform(-1e6, 1e6, 500), rng.uniform(-1e-6, 1e-6, 500)])
        reflected = spec.reflect_at(scores)
        assert np.array_equal(spec.confidence_at(reflected), spec.confidence_at(scores))
        assert np.array_equal(spec.reflect_at(reflected), scores)

    def test_exact_symmetry_for_probability_scores(self):
        spec = make_abs_spec(0.5)
        scores = np.random.default_rng(2).uniform(0.0, 1.0, 1000)
        reflected = spec.reflect_at(scores)
        assert np.array_equal(spec.confidence_at(reflected), spec.confidence_at(scores))

    def test_rejects_non_finite_threshold(self):
        with pytest.raises(ValueError):
            make_abs_spec(float("nan"))


class TestValidateDecisionSpec:
    GRID = [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_abs_spec_is_clean(self):
        assert validate_decision_spec(make_abs_spec(0.0), self.GRID).ok

    def test_monotone_confidence_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: s, reflect=lambda s: -s)
        rep = validate_decision_spec(spec, self.GRID)
        assert "bi-monotonic" in rep.checks_failed()

    def test_identity_reflection_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: abs(s), reflect=lambda s: s)
        rep = validate_decision_spec(spec, [-1.0, 0.0, 1.0])
        assert "sign-flip" in rep.checks_failed()
        assert any(v.check == "sign-flip" and v.s == 1.0 for v in rep.violations)

    def test_nonzero_minimum_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: abs(s) + 1.0, reflect=lambda s: -s)
        rep = validate_decision_spec(spec, self.GRID)
        assert "minimum-at-threshold" in rep.checks_failed()

    def test_grid_preconditions(self):
        spec = make_abs_spec(0.0)
        with pytest.raises(ValueError):
            validate_decision_spec(spec, [1.0, -1.0, 0.0])
        with pytest.raises(ValueError):
            validate_decision_spec(spec, [-1.0, 1.0])


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

    def test_non_finite_confidence_rejected(self, d0):
        spec = DecisionSpec(
            s_star=0.0, confidence=lambda s: np.full_like(s, np.nan), reflect=lambda s: -s
        )
        with pytest.raises(ValueError, match="non-finite"):
            rank_by_confidence(d0, spec)

    def test_scalar_only_map_rejected(self, d0):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: math.fabs(s), reflect=lambda s: -s)
        with pytest.raises(TypeError):
            rank_by_confidence(d0, spec)
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: math.nan, reflect=lambda s: -s)
        with pytest.raises(ValueError, match="vectorized"):
            rank_by_confidence(d0, spec)

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
        assert view.total_weight == view.cum_weight[-1]
