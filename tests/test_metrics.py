import copy
import pickle

import numpy as np
import pytest

import lxcim.metrics as metrics_module
import lxcim.model as model_module
from lxcim import (
    ConfusionMatrix,
    Curve,
    CurveKind,
    Dataset,
    EmptyDatasetError,
    LxcimError,
    SingleClassError,
    accuracy,
    accuracy_rate_curve,
    audrc,
    auroc,
    confusion_matrix,
    cumulative_accuracy_curve,
    lxcim,
    make_abs_spec,
    rank_by_confidence,
    report,
    roc_curve,
    verify_crossing_point,
    verify_doubling_identity,
)
from lxcim.cli import main

from conftest import random_dataset, subnormal_weight_datasets, underflowing_datasets, unique_score_sweep

UNDERFLOWING = {**underflowing_datasets(), **subnormal_weight_datasets()}


class TestConfusionMatrix:
    def test_worked_example(self, d0, spec0):
        assert confusion_matrix(d0, spec0).as_tuple() == (1.0, 1.0, 1.0, 1.0)

    def test_perfect_pair(self, perfect_pair, spec0):
        cm = confusion_matrix(perfect_pair, spec0)
        assert cm.as_tuple() == (1.0, 0.0, 0.0, 1.0)
        assert cm.incorrect == 0.0

    def test_weighted_entries_sum_to_total_weight(self, spec0):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 40)
        cm = confusion_matrix(d, spec0)
        assert cm.total == pytest.approx(d.total_weight, rel=1e-12)

    def test_threshold_sample_counts_as_negative_prediction(self):
        spec = make_abs_spec(0.0)
        cm = confusion_matrix(Dataset([0.0, 0.0], [0, 1]), spec)
        assert cm.as_tuple() == (0.0, 0.0, 1.0, 1.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(1.0, -0.5, 0.0, 0.0)

    def test_empty_dataset(self, spec0):
        with pytest.raises(EmptyDatasetError):
            confusion_matrix(Dataset([], []), spec0)


class TestAccuracy:
    def test_worked_example(self, d0, spec0):
        assert accuracy(d0, spec0) == 0.5

    def test_weighted(self, spec0):
        assert accuracy(Dataset([2, -2], [1, 1], [3, 1]), spec0) == 0.75

    def test_extremes(self, perfect_pair, wrong_pair, spec0):
        assert accuracy(perfect_pair, spec0) == 1.0
        assert accuracy(wrong_pair, spec0) == 0.0

    def test_matches_confusion_matrix_ratio(self, spec0):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = random_dataset(rng, int(rng.integers(1, 50)))
            cm = confusion_matrix(d, spec0)
            assert accuracy(d, spec0) == pytest.approx(cm.correct / cm.total, rel=1e-12)


class TestRocAuroc:
    def test_worked_example_breakpoints(self, d0):
        curve = roc_curve(d0)
        assert curve.x.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0]
        assert curve.y.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]

    def test_worked_example_area(self, d0):
        assert auroc(d0) == 0.75

    def test_perfect_and_inverted(self, perfect_pair, wrong_pair):
        assert auroc(perfect_pair) == 1.0
        assert auroc(wrong_pair) == 0.0

    def test_score_tie_gives_diagonal_segment(self):
        curve = roc_curve(Dataset([1.0, 1.0], [1, 0]))
        assert curve.x.tolist() == [0.0, 1.0] and curve.y.tolist() == [0.0, 1.0]
        assert auroc(Dataset([1.0, 1.0], [1, 0])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            roc_curve(Dataset([1, 2], [1, 1]))
        with pytest.raises(SingleClassError):
            auroc(Dataset([1, 2], [0, 0]))

    def test_kind_and_monotone_axes(self, d0):
        curve = roc_curve(d0)
        assert curve.kind is CurveKind.ROC
        assert np.all(np.diff(curve.x) >= 0) and np.all(np.diff(curve.y) >= 0)

    def test_invariant_under_monotone_score_transform(self, spec0):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 60)
        transformed = Dataset(np.expm1(d.scores) * 3.0, d.labels, d.weights)
        assert auroc(transformed) == auroc(d)


class TestCumulativeAccuracyCurve:
    def test_worked_example_breakpoints(self, d0, spec0):
        curve = cumulative_accuracy_curve(d0, spec0)
        assert curve.x.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert curve.y.tolist() == [0.0, 0.25, 0.25, 0.5, 0.5]

    def test_tie_group_is_one_linear_segment(self, tie_pair, spec0):
        curve = cumulative_accuracy_curve(tie_pair, spec0)
        assert curve.x.tolist() == [0.0, 1.0] and curve.y.tolist() == [0.0, 0.5]

    def test_endpoint_equals_accuracy_exactly(self, spec0):
        rng = np.random.default_rng(6)
        for _ in range(25):
            d = random_dataset(rng, int(rng.integers(1, 80)))
            curve = cumulative_accuracy_curve(d, spec0)
            assert curve.x[-1] == 1.0
            assert curve.y[-1] == accuracy(d, spec0)

    def test_slopes_within_unit_interval(self, spec0):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = random_dataset(rng, int(rng.integers(1, 80)))
            curve = cumulative_accuracy_curve(d, spec0)
            dx = np.diff(curve.x)
            dy = np.diff(curve.y)
            assert np.all(dy >= -1e-15)
            assert np.all(dy <= dx * (1 + 1e-12) + 1e-15)


class TestLxcim:
    def test_worked_example(self, d0, spec0):
        assert lxcim(d0, spec0) == 0.625

    def test_scale_anchors(self, perfect_pair, wrong_pair, tie_pair, spec0):
        assert lxcim(perfect_pair, spec0) == 1.0
        assert lxcim(wrong_pair, spec0) == 0.0
        assert lxcim(tie_pair, spec0) == 0.5

    def test_equals_doubled_curve_area(self, spec0):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(1, 60)))
            curve = cumulative_accuracy_curve(d, spec0)
            area = np.trapezoid(curve.y, curve.x)
            assert lxcim(d, spec0) == pytest.approx(2.0 * area, abs=1e-13)

    def test_rank_weight_identity_uniform_distinct(self, spec0):
        # for uniform weights and distinct confidences the doubled area is a
        # rank-weighted vote: (2/N^2) * sum_i (N - i + 1/2) * correct(i)
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 40))
            d = random_dataset(rng, n, weighted=False)
            from lxcim import rank_by_confidence

            view = rank_by_confidence(d, spec0)
            ranks = np.arange(1, n + 1)
            expected = 2.0 / n**2 * np.sum((n - ranks + 0.5) * view.correct)
            assert lxcim(d, spec0) == pytest.approx(expected, abs=1e-12)

    def test_result_in_unit_interval(self, spec0):
        rng = np.random.default_rng(10)
        for _ in range(30):
            value = lxcim(random_dataset(rng, int(rng.integers(1, 100))), spec0)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("name", sorted(UNDERFLOWING))
    def test_underflowing_weights_raise(self, name, spec0):
        # lxcim and audrc square the total weight and auroc multiplies the class totals
        d = UNDERFLOWING[name]
        calls = (lambda: lxcim(d, spec0), lambda: audrc(d, spec0), lambda: auroc(d), lambda: report(d, spec0))
        for call in calls:
            with pytest.raises(LxcimError, match="^the weights underflow float arithmetic$"):
                call()


class TestWeightOverflow:
    """Weights whose sums or products overflow raise, where they once gave 0.0, nan or inf."""

    @staticmethod
    def three_rows(weight):
        return Dataset([1.0, -0.5, 0.3], [1, 1, 0], [weight] * 3)

    # the prefix sums warn of their overflow; any other warning, such as inf / inf, is an error
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_infinite_total_raises_everywhere(self, spec0):
        # accuracy and AUDRC read 0.0 here, LxCIM and AUROC nan, and the curves had nan breakpoints;
        # one class total overflows in the first dataset, both in the second
        for d in (self.three_rows(1e308), Dataset([1.0, -0.5, 0.3, -0.2], [1, 1, 0, 0], [1e308] * 4)):
            calls = (lambda: accuracy(d, spec0), lambda: audrc(d, spec0), lambda: lxcim(d, spec0),
                     lambda: auroc(d), lambda: report(d, spec0), lambda: roc_curve(d),
                     lambda: cumulative_accuracy_curve(d, spec0), lambda: accuracy_rate_curve(d, spec0),
                     lambda: verify_crossing_point(d, spec0))
            for call in calls:
                with pytest.raises(LxcimError, match="^the weights overflow float arithmetic$"):
                    call()

    def test_overflowing_products_raise(self, spec0):
        # the total 3e200 is finite and its square is not
        d = self.three_rows(1e200)
        for call in (lambda: lxcim(d, spec0), lambda: auroc(d), lambda: report(d, spec0)):
            with pytest.raises(LxcimError, match="^the weights overflow float arithmetic$"):
                call()
        assert accuracy(d, spec0) == accuracy(self.three_rows(1.0), spec0)
        # AUDRC takes no product of totals: it keeps its value
        assert audrc(d, spec0) == pytest.approx(11 / 18, rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_auroc_area_raises(self):
        # 1.2e308 * 1 is finite, but the trapezoid's sum of adjacent tp is not: AUROC read inf
        with pytest.raises(LxcimError, match="^the weights overflow float arithmetic$"):
            auroc(Dataset([1.0, -1.0], [1, 0], [1.2e308, 1.0]))


class TestAccuracyRateCurve:
    def test_worked_example(self, d0, spec0):
        curve = accuracy_rate_curve(d0, spec0)
        assert curve.kind is CurveKind.ACC_RATE
        assert curve.x.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert curve.y.tolist() == [1.0, 0.5, 2.0 / 3.0, 0.5]

    def test_starts_after_zero(self, spec0):
        rng = np.random.default_rng(11)
        for _ in range(10):
            curve = accuracy_rate_curve(random_dataset(rng, int(rng.integers(1, 40))), spec0)
            assert curve.x[0] > 0.0

    def test_first_point_is_all_or_nothing(self, spec0):
        rng = np.random.default_rng(12)
        for _ in range(25):
            curve = accuracy_rate_curve(random_dataset(rng, int(rng.integers(1, 40))), spec0)
            assert curve.y[0] in (0.0, 1.0)

    def test_tied_top_group_averages(self, tie_pair, spec0):
        curve = accuracy_rate_curve(tie_pair, spec0)
        assert curve.x.tolist() == [1.0] and curve.y.tolist() == [0.5]

    def test_final_value_is_accuracy(self, spec0, d0):
        assert accuracy_rate_curve(d0, spec0).y[-1] == accuracy(d0, spec0)


class TestAudrc:
    def test_worked_example(self, d0, spec0):
        assert audrc(d0, spec0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_scale_anchors(self, perfect_pair, wrong_pair, spec0):
        assert audrc(perfect_pair, spec0) == 1.0
        assert audrc(wrong_pair, spec0) == 0.0

    def test_matches_plain_running_mean_for_uniform_distinct(self, spec0):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(1, 50))
            d = random_dataset(rng, n, weighted=False)
            from lxcim import rank_by_confidence

            view = rank_by_confidence(d, spec0)
            running = np.cumsum(view.correct) / np.arange(1, n + 1)
            assert audrc(d, spec0) == pytest.approx(float(np.mean(running)), abs=1e-13)

    def test_head_flip_moves_more_than_median_flip(self, spec0):
        # the most confident decision dominates the running-accuracy average
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(4, 60))
            d = random_dataset(rng, n, weighted=False)
            from lxcim import rank_by_confidence

            view = rank_by_confidence(d, spec0)
            base = audrc(d, spec0)

            def flipped(rank_pos: int) -> float:
                idx = int(view.order[rank_pos])
                labels = d.labels.copy()
                labels[idx] = 1 - labels[idx]
                return audrc(Dataset(d.scores, labels, d.weights), spec0)

            head = abs(flipped(0) - base)
            median = abs(flipped(n // 2) - base)
            assert head > median

    def test_tie_group_lost_to_rounding(self, spec0):
        # after the 1e20 sample the tied pair adds no weight to the running
        # total, so the group has a zero step; its inner sample takes its left
        # boundary instead of 0/0 (all correct) or 2/0 (the heavy one wrong)
        rep = report(Dataset([5.0, 1.0, -1.0], [1, 1, 1], [1e20, 1.0, 1.0]), spec0)
        assert (rep.accuracy, rep.lxcim, rep.audrc) == (1.0, 1.0, 1.0)
        rep = report(Dataset([5.0, 1.0, -1.0], [0, 1, 0], [1e20, 1.0, 1.0]), spec0)
        assert rep.audrc == (2.0 / 1e20) / 1e20


class TestReport:
    def test_worked_example(self, d0, spec0):
        rep = report(d0, spec0)
        assert rep.accuracy == 0.5
        assert rep.lxcim == 0.625
        assert rep.auroc == 0.75
        assert rep.audrc == pytest.approx(2.0 / 3.0)

    def test_single_class_degrades_auroc_only(self, spec0):
        rep = report(Dataset([1.0, -2.0], [1, 1]), spec0)
        assert rep.auroc is None
        assert rep.accuracy == 0.5
        assert rep.as_dict()["auroc"] is None

    def test_empty_dataset(self, spec0):
        with pytest.raises(EmptyDatasetError):
            report(Dataset([], []), spec0)


class TestCurveType:
    def test_rejects_decreasing_x(self):
        with pytest.raises(ValueError):
            Curve(CurveKind.ROC, np.array([0.0, 0.5, 0.2]), np.array([0.0, 0.5, 1.0]))

    def test_rejects_out_of_square_roc(self):
        with pytest.raises(ValueError):
            Curve(CurveKind.ROC, np.array([0.0, 1.5]), np.array([0.0, 1.0]))

    @staticmethod
    def reference_checks(kind, x, y):
        """The checks ``Curve`` made through ``np.diff`` and ``np.any`` before."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 - -1e308
            if np.any(np.diff(x) < 0):
                raise ValueError("x must be non-decreasing")
        if kind in (CurveKind.ROC, CurveKind.CUM_ACC):
            if np.any(x < 0) or np.any(x > 1) or np.any(y < 0) or np.any(y > 1):
                raise ValueError(f"{kind.value} breakpoints must lie in the unit square")

    @staticmethod
    def outcome(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)
        return "accepted"

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_checks_match_reference(self, kind):
        specials = [
            np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1e-300, -5e-324, 1.0 + 2**-52, 1.5,
            1e308, -1e308, 0.75, 0.1,
        ]
        base = [0.0, 0.25, 0.5, 1.0]
        outcomes = set()
        for axis in ("x", "y"):
            for at in range(len(base)):
                for value in specials:
                    x, y = list(base), list(base)
                    (x if axis == "x" else y)[at] = value
                    expected = self.outcome(lambda: self.reference_checks(kind, x, y))
                    assert self.outcome(lambda: Curve(kind, np.array(x), np.array(y))) == expected
                    outcomes.add(expected)
        # a decreasing run, and the reversed axes
        for x in ([1.0, 0.5, 0.5, 0.0], [0.0, 0.0, -0.0, -0.0], [-0.0, 0.0, -0.0, 1.0]):
            expected = self.outcome(lambda: self.reference_checks(kind, x, base))
            assert self.outcome(lambda: Curve(kind, np.array(x), np.array(base))) == expected
            outcomes.add(expected)
        assert "accepted" in outcomes and "x must be non-decreasing" in outcomes
        if kind is not CurveKind.ACC_RATE:
            assert f"{kind.value} breakpoints must lie in the unit square" in outcomes

    def test_points_round_trip(self):
        curve = Curve(CurveKind.ACC_RATE, np.array([0.5, 1.0]), np.array([1.0, 0.75]))
        assert curve.x.tolist() == [0.5, 1.0] and curve.y.tolist() == [1.0, 0.75]
        assert len(curve) == 2

    @pytest.mark.parametrize("round_trip", [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_unchecked_curve_pickles_and_copies(self, round_trip, d0):
        curve = roc_curve(d0)  # built by Curve._from_valid
        again = round_trip(curve)
        assert type(again) is Curve and again.kind is CurveKind.ROC
        assert again.x.tobytes() == curve.x.tobytes() and again.y.tobytes() == curve.y.tobytes()
        assert not again.x.flags.writeable and not again.y.flags.writeable

    def test_unchecked_curve_skips_the_checks(self):
        # only for arrays valid by construction: a decreasing x goes through unchecked
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        curve = Curve._from_valid(CurveKind.ROC, x, y)
        assert curve.x is x and curve.y is y and not x.flags.writeable and not y.flags.writeable
        with pytest.raises(ValueError, match="^x must be non-decreasing$"):
            Curve(CurveKind.ROC, x, y)

    def test_constructor_copies_the_caller_arrays(self):
        # the curve's arrays are read-only copies; the caller's stay its own and writable
        x, y = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0])
        curve = Curve(CurveKind.ROC, x, y)
        assert not np.shares_memory(curve.x, x) and not np.shares_memory(curve.y, y)
        assert not curve.x.flags.writeable and not curve.y.flags.writeable
        x[0], y[1] = 0.5, 0.5
        assert curve.x.tolist() == [0.0, 0.5, 1.0] and curve.y.tolist() == [0.0, 0.25, 1.0]


class TestRankOnce:
    """Each evaluation ranks its dataset once and reads every metric off that view."""

    @pytest.fixture()
    def rank_calls(self, count_calls):
        return count_calls(model_module, "rank_by_confidence")

    @pytest.fixture()
    def sweep_calls(self, count_calls):
        return count_calls(metrics_module, "_sweep")

    @staticmethod
    def sizes(calls):
        return [len(args[0]) for args in calls]

    def test_report(self, d0, spec0, rank_calls, sweep_calls):
        report(d0, spec0)
        assert self.sizes(rank_calls) == [4]
        assert self.sizes(sweep_calls) == [4]

    def test_eval_with_curves(self, tmp_path, rank_calls, sweep_calls, capsys):
        path = tmp_path / "d0.csv"
        path.write_text("score,label\n-4,0\n-3,1\n1,0\n2,1\n", encoding="utf-8")
        assert main(["eval", "--input", str(path), "--curves-dir", str(tmp_path / "curves")]) == 0
        assert self.sizes(rank_calls) == [4]
        assert self.sizes(sweep_calls) == [4]
        assert len(list((tmp_path / "curves").iterdir())) == 6

    def test_verify(self, d0, spec0, rank_calls):
        verify_doubling_identity(d0, spec0)
        assert self.sizes(rank_calls) == [4]
        verify_crossing_point(d0, spec0)
        assert self.sizes(rank_calls) == [4, 4]


class TestSweepReference:
    """``_sweep`` against the ``np.unique`` sweep it replaced, bit for bit."""

    @staticmethod
    def assert_same_sweep(dataset):
        got = metrics_module._score_sweep(dataset)
        want = unique_score_sweep(dataset)
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert [float(v).hex() for v in got[2:]] == [float(v).hex() for v in want[2:]]

    def test_one_score_group(self):
        self.assert_same_sweep(Dataset([0.5] * 5, [1, 0, 1, 0, 1], [0.3, 1.7, 0.1, 2.0, 0.9]))

    def test_all_distinct_scores(self):
        rng = np.random.default_rng(61)
        for n in (2, 3, 50, 1000):
            self.assert_same_sweep(random_dataset(rng, n))

    def test_signed_zeros_share_a_group(self):
        d = Dataset([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], [1, 0, 0, 1, 1, 0], [0.5, 1.5, 2.5, 0.25, 1.0, 3.0])
        self.assert_same_sweep(d)
        assert len(metrics_module._score_sweep(d)[0]) == 4  # the origin and three score groups

    def test_tied_weighted_data(self):
        rng = np.random.default_rng(62)
        for k in range(60):
            n = int(rng.integers(2, 400))
            scores = np.round(rng.uniform(-1.0, 1.0, n), int(rng.integers(0, 3)))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            weights = rng.uniform(0.05, 8.0, n) if k % 2 else np.round(rng.uniform(1, 8, n))
            self.assert_same_sweep(Dataset(scores, labels, weights))

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_raises(self, label):
        d = Dataset([0.5, -0.5, 0.5, 2.0], [label] * 4, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SingleClassError) as want:
            unique_score_sweep(d)
        with pytest.raises(SingleClassError) as got:
            metrics_module._score_sweep(d)
        assert str(got.value) == str(want.value)
