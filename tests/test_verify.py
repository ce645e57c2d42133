import dataclasses
import re
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from lxcim import (
    Dataset,
    DecisionSpec,
    EmptyDatasetError,
    InexactExchangeError,
    LxcimError,
    NonFiniteMapError,
    GeneratorConfig,
    GeneratorKind,
    SingleClassError,
    WeightMode,
    accuracy_rate_curve,
    audrc,
    auroc,
    brute_auroc,
    check_rank_lxc_invariance,
    convergence_study,
    cumulative_accuracy_curve,
    duplicate_dataset,
    generate,
    lxcim,
    report,
    roc_curve,
    verify_crossing_point,
    verify_doubling_identity,
)

from lxcim.cli import main
from lxcim.exchange import _full_exchange, _require_exact
from lxcim.io import write_prediction_file
import lxcim.metrics as metrics
from lxcim.metrics import _accuracy_rate_curve, _cumulative_accuracy_curve
from lxcim.model import make_abs_spec, rank_by_confidence
import lxcim.verify as verify
from lxcim.verify import CrossingReport, StudyResult, StudySizeResult, _area_left_of, _draw, _study_deviations, _study_seed

from conftest import random_dataset, underflowing_datasets, unique_score_sweep
import exact


class TestBruteAuroc:
    def test_worked_example(self, d0):
        assert brute_auroc(d0) == 0.75

    def test_tie_credit(self):
        assert brute_auroc(Dataset([1.0, 1.0], [1, 0])) == 0.5

    def test_matches_sweep_on_random_weighted_data(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            d = random_dataset(rng, int(rng.integers(2, 80)))
            if len(np.unique(d.labels)) < 2:
                continue
            assert brute_auroc(d) == pytest.approx(auroc(d), abs=1e-12)

    def test_single_class(self):
        with pytest.raises(SingleClassError):
            brute_auroc(Dataset([1, 2], [1, 1]))


class TestBruteLxcim:
    """Production LxCIM against the exact rational oracle."""

    def test_worked_example(self, d0, spec0):
        assert lxcim(d0, spec0) == exact.lxcim(exact.samples(d0)) == 0.625

    def test_perfect_and_tie(self, perfect_pair, tie_pair, spec0):
        assert lxcim(perfect_pair, spec0) == exact.lxcim(exact.samples(perfect_pair)) == 1
        assert lxcim(tie_pair, spec0) == exact.lxcim(exact.samples(tie_pair)) == 0.5

    def test_matches_closed_form(self, spec0):
        # whole weights and scores k/8: every sum is exact and only the final division rounds
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(1, 120))
            d = Dataset(rng.choice([-1.0, 1.0], n) * rng.integers(1, 17, n) / 8, rng.integers(0, 2, n),
                        rng.integers(1, 9, n).astype(float))
            assert lxcim(d, spec0) == float(exact.lxcim(exact.samples(d)))


class TestDoublingIdentity:
    def test_worked_example(self, d0, spec0):
        rep = verify_doubling_identity(d0, spec0)
        assert rep.passed
        assert rep.auroc_duplicated == 0.625
        assert rep.accuracy_original == 0.5
        assert rep.h_area == pytest.approx(0.1875, abs=1e-12)
        # ACC^2 + 2H = 0.25 + 0.375
        assert rep.doubling_deviation <= 1e-12
        assert rep.area_identity_deviation <= 1e-12

    def test_extremes(self, perfect_pair, wrong_pair, spec0):
        assert verify_doubling_identity(perfect_pair, spec0).passed
        assert verify_doubling_identity(wrong_pair, spec0).passed

    def test_random_weighted_datasets(self, spec0):
        rng = np.random.default_rng(22)
        for _ in range(25):
            d = random_dataset(rng, int(rng.integers(1, 100)))
            rep = verify_doubling_identity(d, spec0)
            assert rep.doubling_deviation <= 1e-9
            assert rep.area_identity_deviation <= 1e-9

    def test_tied_confidences(self, spec0):
        d = Dataset([1.0, -1.0, 1.0, 0.5], [1, 1, 0, 0], [1.0, 2.0, 1.5, 0.5])
        assert verify_doubling_identity(d, spec0).passed

    def test_area_matches_running_sum(self, spec0):
        def running_sum(xs, ys, x_stop):
            area = 0.0
            for x0, x1, y0, y1 in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
                if x1 <= x_stop:
                    area += (x1 - x0) * (y0 + y1) / 2.0
                    continue
                if x0 < x_stop:
                    y_cut = y0 + (x_stop - x0) / (x1 - x0) * (y1 - y0)
                    area += (x_stop - x0) * (y0 + y_cut) / 2.0
                break
            return area

        rng = np.random.default_rng(24)
        for k in range(40):
            d = random_dataset(rng, int(rng.integers(1, 60)))
            if k % 2:
                d = Dataset(np.round(d.scores, 1) + 0.05, d.labels, d.weights)
            curve = roc_curve(duplicate_dataset(d, spec0))
            xs, ys = curve.x.tolist(), curve.y.tolist()
            for x_stop in (-0.5, 0.0, float(rng.random()), xs[len(xs) // 2], 1.0, 1.5):
                assert _area_left_of(curve, x_stop) == running_sum(xs, ys, x_stop)


    @pytest.mark.parametrize("name", sorted(underflowing_datasets()))
    def test_underflowing_weights_raise(self, name, spec0):
        with pytest.raises(LxcimError, match="^the weights underflow float arithmetic$"):
            verify_doubling_identity(underflowing_datasets()[name], spec0)


class TestCrossingPoint:
    def test_worked_example(self, d0, spec0):
        rep = verify_crossing_point(d0, spec0)
        assert rep.passed
        assert rep.expected == (0.5, 0.5)
        assert rep.found == (0.5, 0.5)

    def test_extremes(self, perfect_pair, wrong_pair, spec0):
        assert verify_crossing_point(perfect_pair, spec0).found == (0.0, 1.0)
        assert verify_crossing_point(wrong_pair, spec0).found == (1.0, 0.0)

    def test_random_weighted_datasets(self, spec0):
        rng = np.random.default_rng(23)
        for _ in range(25):
            d = random_dataset(rng, int(rng.integers(1, 100)))
            assert verify_crossing_point(d, spec0).deviation <= 1e-9

    @pytest.mark.parametrize("name", sorted(underflowing_datasets()))
    def test_underflowing_weights_keep_the_report(self, name, spec0):
        # no product of weight totals: the report is that of the weights scaled up by 2^540
        d = underflowing_datasets()[name]
        rep = verify_crossing_point(d, spec0)
        assert rep.passed
        assert rep == verify_crossing_point(Dataset(d.scores, d.labels, np.ldexp(d.weights, 540)), spec0)


ROW_1_CONFIDENCE = (
    "^row 1: the exchange of score 0.04 gives 0.96, which changes its confidence from 0.46 to "
    "0.45999999999999996: the exchange is not exact at s_star = 0.5$"
)


class TestInexactExchange:
    """A verifier whose report would fail on data whose exchange is not exact raises instead."""

    def test_two_rows_at_one_half(self):
        # the duplicate merges 0.04's mirror into 0.96's tie group: a false deviation of 0.125
        spec = make_abs_spec(0.5)
        d = Dataset([0.04, 0.96], [1, 1])
        with pytest.raises(InexactExchangeError, match=ROW_1_CONFIDENCE):
            verify_doubling_identity(d, spec)
        # the crossing still lands where it should: a passing report is given as it is
        assert verify_crossing_point(d, spec) == CrossingReport((0.5, 0.5), (0.5, 0.5), 0.0, 1e-9)

    def test_both_verifiers_name_the_row(self):
        d = Dataset([0.04, 0.5, 0.96], [1, 1, 1])
        for verifier in (verify_doubling_identity, verify_crossing_point):
            with pytest.raises(InexactExchangeError, match=ROW_1_CONFIDENCE):
                verifier(d, make_abs_spec(0.5))

    def test_exact_failure_keeps_its_report(self, spec0):
        # a row at the threshold keeps its class and unbalances the duplicate (ROADMAP item 11);
        # the exchange about 0 is exact, so the failing reports stand
        d = Dataset([0.0, 1.0, -2.0], [1, 1, 0])
        assert verify_doubling_identity(d, spec0).doubling_deviation == 1.0 - 8.0 / 9.0
        assert verify_crossing_point(d, spec0).found == (0.0, 1.0)

    # Broken reflections at s_star = 0, each judged by the check and both
    # verifiers on one dataset.  A verdict that fails names the first row and
    # the property it breaks; a verdict that passes is given as it is, since
    # the rule judges only verdicts that do not pass.
    SIX = Dataset([-2.0, -1.0, 1.0, 2.0, 3.0, -3.0], [1, 0, 1, 0, 1, 0])
    BROKEN = {
        "identity": DecisionSpec(0.0, np.abs, lambda s: s + 0.0),
        "asymmetric": DecisionSpec(0.0, lambda s: np.where(s > 0, 2 * s, -s), np.negative),
        # keeps floor(|s|) and the side, so no exchange moves a rank
        "non-involution": DecisionSpec(0.0, lambda s: np.floor(np.abs(s)), lambda s: -s - 0.5 * np.sign(s)),
        "doubling": DecisionSpec(0.0, np.abs, lambda s: -2.0 * s),
        "onto-threshold": DecisionSpec(0.0, np.abs, lambda s: np.where(s == 2.0, 0.0, -s)),
    }
    VERDICTS = {
        "check": lambda d, spec: check_rank_lxc_invariance(partial(lxcim, spec=spec), d, spec, trials=20, seed=0),
        "doubling": verify_doubling_identity,
        "crossing": verify_crossing_point,
    }
    SIDE = "^row 1: the exchange of score -2.0 gives -2.0, which is not on the other side of the threshold: "
    CONFIDENCE = "^row 1: the exchange of score -2.0 gives {}, which changes its confidence from 2.0 to 4.0: "
    BACK = "^row 1: the exchange of score -2.0 gives 2.0, which mirrors back to 0.0: "

    @pytest.mark.parametrize(
        "broken, verdict, message",
        [
            ("identity", "check", SIDE),
            ("identity", "doubling", SIDE),
            ("identity", "crossing", SIDE),
            ("asymmetric", "check", CONFIDENCE.format("2.0")),
            ("asymmetric", "doubling", CONFIDENCE.format("2.0")),
            ("asymmetric", "crossing", None),
            ("non-involution", "check", None),
            ("non-involution", "doubling", None),
            ("non-involution", "crossing", None),
            ("doubling", "check", CONFIDENCE.format("4.0")),
            ("doubling", "doubling", CONFIDENCE.format("4.0")),
            ("doubling", "crossing", None),
            ("onto-threshold", "check", BACK),
            ("onto-threshold", "doubling", BACK),
            ("onto-threshold", "crossing", None),
        ],
    )
    def test_broken_reflection_at_each_verdict(self, broken, verdict, message):
        spec, judge = self.BROKEN[broken], self.VERDICTS[verdict]
        with pytest.raises(InexactExchangeError) as raised:
            _require_exact(self.SIX, spec, *_full_exchange(self.SIX, spec))
        if message is None:
            assert judge(self.SIX, spec).passed
        else:
            assert re.match(message, str(raised.value))
            with pytest.raises(InexactExchangeError, match=message):
                judge(self.SIX, spec)

    DYADIC = Dataset([0.25, 0.75, 0.125, 0.875, 0.625, 0.375], [1, 0, 1, 1, 0, 0])

    @pytest.mark.parametrize(
        "spec, d",
        [
            (make_abs_spec(0.0), SIX),
            (DecisionSpec(0.0, np.square, np.negative), SIX),
            (make_abs_spec(0.5), DYADIC),
            (DecisionSpec(0.5, lambda s: np.abs(s - 0.5), lambda s: 1.0 - s), DYADIC),
            (make_abs_spec(-3.0), Dataset([-5.0, -1.0, 0.0, -4.0, -7.0, 2.0], [1, 0, 1, 0, 1, 0])),
        ],
        ids=["abs-at-0", "square-at-0", "abs-at-half", "one-minus-at-half", "abs-at-minus-3"],
    )
    def test_exact_reflection_passes_every_verdict(self, spec, d):
        assert _require_exact(d, spec, *_full_exchange(d, spec)) is None
        assert self.VERDICTS["check"](d, spec).max_deviation == 0.0
        assert self.VERDICTS["doubling"](d, spec).doubling_deviation == 0.0
        assert self.VERDICTS["crossing"](d, spec).passed


class TestGenerate:
    def test_reproducible(self):
        config = GeneratorConfig(kind=GeneratorKind.RANDOM, n=50, seed=9)
        assert generate(config) == generate(config)

    def test_seeds_differ(self):
        a = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=50, seed=1))
        b = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=50, seed=2))
        assert a != b

    def test_scores_avoid_threshold_and_range(self):
        d = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=4000, seed=3))
        assert np.all(d.scores != 0.0)
        assert np.all((d.scores >= -1.0) & (d.scores <= 1.0))

    def test_ideal_is_perfect(self, spec0):
        d = generate(GeneratorConfig(kind=GeneratorKind.IDEAL, n=10, seed=0))
        rep = report(d, spec0)
        assert (rep.lxcim, rep.audrc, rep.auroc, rep.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_adversarial_is_inverted(self, spec0):
        d = generate(GeneratorConfig(kind=GeneratorKind.ADVERSARIAL, n=10, seed=0))
        rep = report(d, spec0)
        assert (rep.lxcim, rep.audrc, rep.auroc, rep.accuracy) == (0.0, 0.0, 0.0, 0.0)

    def test_biased_tracks_p(self, spec0):
        values = [
            lxcim(
                generate(GeneratorConfig(kind=GeneratorKind.BIASED, n=2000, seed=s, p=0.7)),
                spec0,
            )
            for s in range(20)
        ]
        assert float(np.mean(values)) == pytest.approx(0.7, abs=0.02)

    def test_weight_modes(self):
        uniform = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=100, seed=4))
        assert np.all(uniform.weights == 1.0)
        mixed = generate(
            GeneratorConfig(
                kind=GeneratorKind.RANDOM, n=100, seed=4, weight_mode=WeightMode.RANDOM_POSITIVE
            )
        )
        assert np.all((mixed.weights > 0.0) & (mixed.weights <= 2.0))
        assert len(np.unique(mixed.weights)) > 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=GeneratorKind.RANDOM, n=0, seed=0),
            dict(kind=GeneratorKind.BIASED, n=5, seed=0),
            dict(kind=GeneratorKind.BIASED, n=5, seed=0, p=1.5),
            dict(kind=GeneratorKind.RANDOM, n=5, seed=0, p=0.5),
            dict(kind="random", n=5, seed=0),
            dict(kind=GeneratorKind.RANDOM, n=True, seed=0),
            dict(kind=GeneratorKind.RANDOM, n=5, seed=2.5),
            dict(kind=GeneratorKind.RANDOM, n=5, seed=True),
            dict(kind=GeneratorKind.BIASED, n=5, seed=0, p=True),
            dict(kind=GeneratorKind.BIASED, n=5, seed=0, p=np.True_),
            dict(kind=GeneratorKind.BIASED, n=5, seed=0, p="0.5"),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)


class TestConvergenceStudy:
    def test_deviation_shrinks_with_size(self):
        result = convergence_study([10, 1000], seeds=20, base_seed=1)
        rows = result.rows
        assert rows[0].mean_sup_cum_deviation > rows[1].mean_sup_cum_deviation

    def test_rate_discontinuity_does_not_shrink(self):
        result = convergence_study([10, 1000], seeds=20, base_seed=1)
        for row in result.rows:
            assert row.mean_sup_rate_deviation >= 0.4

    def test_emits_curves_per_size(self):
        result = convergence_study([10, 50], seeds=3, base_seed=0)
        for row in result.rows:
            assert row.cumulative_curve.x[-1] == 1.0
            assert row.rate_curve.x[0] > 0.0
        assert result.sizes() == (10, 50)

    def test_ideal_curve_hugs_the_diagonal(self, spec0):
        # the IDEAL generator gives sup |G(i) - i| = 0 at any size
        for n in (10, 500):
            d = generate(GeneratorConfig(kind=GeneratorKind.IDEAL, n=n, seed=2))
            curve = cumulative_accuracy_curve(d, spec0)
            assert float(np.max(np.abs(curve.y - curve.x))) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            convergence_study([], seeds=3)
        with pytest.raises(ValueError):
            convergence_study([10, 10], seeds=3)
        with pytest.raises(ValueError):
            convergence_study([10, 100], seeds=0)
        for sizes, seeds in (([8.7, 32], 2), ([True, 3], 2), ([np.True_, 3], 2), ([8, "32"], 2),
                             ([8, 32], 2.5), ([8, 32], True), ([8, 32], None), ([8, float("nan")], 2)):
            with pytest.raises(ValueError, match="integral"):
                convergence_study(sizes, seeds=seeds)


def loop_sup_deviations(cum, rate) -> tuple[float, float]:
    """The study's two sup deviations, read off one dataset's curves."""
    head = rate.x <= 0.1
    head[0] = True  # the first decision always counts as "early"
    return float(np.max(np.abs(cum.y - cum.x / 2.0))), float(np.max(np.abs(rate.y[head] - 0.5)))


def loop_convergence_study(sizes, seeds: int, base_seed: int = 0) -> StudyResult:
    """The study as one Dataset, ranking and pair of curves per draw: the reference."""
    spec = make_abs_spec(0.0)
    rows = []
    for size_index, size in enumerate(sizes):
        cum_devs = np.empty(seeds)
        rate_devs = np.empty(seeds)
        first_curves = None
        for draw in range(seeds):
            config = GeneratorConfig(
                kind=GeneratorKind.RANDOM, n=size, seed=_study_seed(base_seed, size_index, draw)
            )
            view = rank_by_confidence(generate(config), spec)
            cum = _cumulative_accuracy_curve(view)
            rate = _accuracy_rate_curve(view)
            cum_devs[draw], rate_devs[draw] = loop_sup_deviations(cum, rate)
            if first_curves is None:
                first_curves = (cum, rate)
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


def study_fields(result: StudyResult) -> list:
    """Every field of a study result, floats as hex and curves as bytes."""
    fields = [result.seeds]
    for row in result.rows:
        fields += [row.size, row.mean_sup_cum_deviation.hex(), row.mean_sup_rate_deviation.hex()]
        for curve in (row.cumulative_curve, row.rate_curve):
            fields += [curve.kind, curve.x.dtype, curve.x.tobytes(), curve.y.dtype, curve.y.tobytes()]
    return fields


class TestStudyReference:
    SIZES = (1, 2, 3, 8, 512, 513)

    @pytest.mark.parametrize("seeds", [1, 2, 37])
    @pytest.mark.parametrize("block", [None, 64], ids=["default_block", "block_64"])
    def test_matches_loop_bit_for_bit(self, monkeypatch, seeds, block):
        if block is not None:  # sizes then span several blocks, and 513 runs one row a block
            monkeypatch.setattr(verify, "_STUDY_BLOCK", block)
        for base_seed in range(5):
            expected = study_fields(loop_convergence_study(self.SIZES, seeds, base_seed))
            assert study_fields(convergence_study(self.SIZES, seeds, base_seed)) == expected

    # rows of 8 scores with tied confidences, and their labels
    TIED = [
        ([0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5], [1, 1, 0, 0, 1, 1, 0, 0]),
        ([0.5, -0.5, 0.5, -0.5, 0.25, -0.25, 0.9, 0.1], [1, 1, 0, 0, 1, 0, 0, 1]),
        ([-0.3, 0.3, -0.3, 0.3, -0.3, 0.3, -0.3, 0.3], [0, 0, 1, 1, 0, 1, 1, 0]),
        ([0.5, 0.5, -0.5, 0.2, -0.2, 0.2, 0.7, -0.7], [1, 1, 0, 1, 0, 1, 1, 0]),  # all right
        ([0.5, 0.5, -0.5, 0.2, -0.2, 0.2, 0.7, -0.7], [0, 0, 1, 0, 1, 0, 0, 1]),  # all wrong
        ([0.05, -0.05, 0.6, -0.6, 0.6, 0.01, -0.9, 0.9], [0, 1, 1, 0, 0, 1, 1, 1]),
    ]

    @staticmethod
    def deviations_as_curves_give(scores, labels):
        """``_study_deviations`` of the rows, checked against each row's own curves."""
        cum, rate = _study_deviations(scores, labels == 1)
        spec = make_abs_spec(0.0)
        for r in range(len(scores)):
            view = rank_by_confidence(Dataset(scores[r], labels[r]), spec)
            expected = loop_sup_deviations(_cumulative_accuracy_curve(view), _accuracy_rate_curve(view))
            assert (cum[r].hex(), rate[r].hex()) == (expected[0].hex(), expected[1].hex())
        return cum, rate

    def test_deviations_match_curves_on_tied_rows(self):
        scores = np.array([row for row, _ in self.TIED])
        labels = np.array([row for _, row in self.TIED])
        cum, rate = self.deviations_as_curves_give(scores, labels)
        # one tie group, half right: its inner positions would read 0.0625 and 0.5
        assert (cum[0], rate[0], cum[2], rate[2]) == (0.0, 0.0, 0.0, 0.0)
        assert (cum[3], rate[3], cum[4], rate[4]) == (0.5, 0.5, 0.5, 0.5)

    def test_head_ends_at_a_tenth_inclusive(self):
        # a tied half-right pair, then two right decisions: the second lands on i = 4/40 = 0.1
        scores = np.concatenate(([0.9, -0.9, 0.8, 0.7], np.linspace(0.1, 0.5, 36)))
        labels = np.concatenate(([1, 1, 1, 1], np.arange(36) % 2))
        _, rate = self.deviations_as_curves_give(scores[None, :], labels[None, :])
        assert rate[0] == 0.25

    def test_deviations_match_curves_on_drawn_rows_of_any_width(self):
        for size in (1, 2, 9, 100):
            drawn = [_draw(GeneratorConfig(kind=GeneratorKind.RANDOM, n=size, seed=s)) for s in range(6)]
            self.deviations_as_curves_give(np.array([d[0] for d in drawn]), np.array([d[1] for d in drawn]))

    @pytest.mark.parametrize("kind", list(GeneratorKind))
    @pytest.mark.parametrize("mode", list(WeightMode))
    def test_generate_wraps_the_draw(self, kind, mode):
        config = GeneratorConfig(kind=kind, n=40, seed=5, p=0.6 if kind is GeneratorKind.BIASED else None,
                                 weight_mode=mode)
        data = generate(config)
        for got, want in zip((data.scores, data.labels, data.weights), _draw(config)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRateCurveHead:
    def test_first_point_is_all_or_nothing_on_generated_data(self, spec0):
        for seed in range(30):
            d = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=200, seed=seed))
            assert accuracy_rate_curve(d, spec0).y[0] in (0.0, 1.0)

    def test_audrc_defined_on_generated_data(self, spec0):
        d = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=500, seed=77))
        assert 0.0 <= audrc(d, spec0) <= 1.0


def sequential_rank_and_sweep_doubled(dataset, spec):
    """The verifiers' ranking and duplicate sweep done one after the other, as first written.

    The reference for ``verify._rank_and_sweep_doubled``: the duplicate is
    built as a ``Dataset``, swept with ``np.unique`` and one ``bincount`` per
    class, and only then is the original ranked.
    """
    sweep = unique_score_sweep(duplicate_dataset(dataset, spec))
    return rank_by_confidence(dataset, spec), sweep


def verifier_fields(dataset, spec):
    """Every field of both verifiers' reports as exact text, or the error each raised."""
    fields = []
    for verifier in (verify_doubling_identity, verify_crossing_point):
        try:
            rep = verifier(dataset, spec)
        except Exception as exc:
            fields.append((type(exc), str(exc)))
            continue
        for value in dataclasses.astuple(rep):
            fields.append(tuple(v.hex() for v in value) if isinstance(value, tuple) else value.hex())
    return fields


def reference_fields(monkeypatch, dataset, spec):
    with monkeypatch.context() as m:
        m.setattr(verify, "_rank_and_sweep_doubled", sequential_rank_and_sweep_doubled)
        return verifier_fields(dataset, spec)


@pytest.fixture(params=["sequential", "helper"])
def verify_path(request, monkeypatch):
    """Run ``report``, ``lxcim eval`` and the verifiers with the ranking and the sweep in
    sequence, or on two threads at any size."""
    if request.param == "helper":
        monkeypatch.setattr(metrics, "_HELPER_MIN_N", 1)
        monkeypatch.setattr(metrics, "_two_cpus", lambda: True)
    else:
        monkeypatch.setattr(metrics, "_HELPER_MIN_N", 2**62)
    return request.param


def tied_weighted_corpus(seed, count):
    """Seeded tied, weighted datasets; some put rows at s* = 0, some give it signed zeros."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 300))
        scores = np.round(rng.uniform(-2.0, 2.0, n), int(rng.integers(0, 3)))
        if k % 3 == 1:
            scores[rng.random(n) < 0.2] = 0.0
        if k % 3 == 2:
            scores[rng.random(n) < 0.3] = -0.0
        weights = rng.uniform(0.05, 8.0, n) if k % 2 else np.round(rng.uniform(1.0, 8.0, n))
        yield Dataset(scores, rng.integers(0, 2, n), weights)


class TestVerifierReference:
    """Both verifiers against the sequential ``np.unique`` body, every field as ``float.hex``."""

    def test_tied_weighted_and_at_threshold(self, monkeypatch, verify_path, spec0):
        for d in tied_weighted_corpus(71, 80):
            assert verifier_fields(d, spec0) == reference_fields(monkeypatch, d, spec0)

    def test_probabilities_about_one_half(self, monkeypatch, verify_path):
        spec = make_abs_spec(0.5)
        rng = np.random.default_rng(72)
        for k in range(40):
            n = int(rng.integers(1, 300))
            p = np.round(rng.random(n), 1 + k % 3)
            p[rng.random(n) < 0.1] = 0.5
            d = Dataset(p, rng.integers(0, 2, n), rng.uniform(0.05, 8.0, n))
            assert verifier_fields(d, spec) == reference_fields(monkeypatch, d, spec)

    def test_signed_zeros_and_one_class(self, monkeypatch, verify_path, spec0):
        for d in (
            Dataset([0.0, -0.0, 0.5, -0.5, -0.0], [1, 0, 1, 1, 0], [1.0, 2.0, 0.5, 0.25, 3.0]),
            Dataset([-0.0, 0.0], [1, 1]),  # every row keeps its class: no negative weight
            Dataset([0.75], [0]),
        ):
            assert verifier_fields(d, spec0) == reference_fields(monkeypatch, d, spec0)

    def test_rows_at_the_threshold_keep_their_score(self, monkeypatch, verify_path):
        # the reflection sends s* elsewhere; the duplicate keeps such rows as they are all the same
        spec = DecisionSpec(0.5, lambda s: np.abs(s - 0.5), lambda s: np.where(s == 0.5, 0.75, 1.0 - s))
        d = Dataset([0.5, 0.9, 0.5, 0.2, 0.75], [1, 0, 0, 1, 1], [2.0, 1.0, 0.5, 1.5, 1.0])
        assert verifier_fields(d, spec) == reference_fields(monkeypatch, d, spec)

    def test_above_the_helper_size_by_default(self, monkeypatch, spec0):
        monkeypatch.setattr(metrics, "_two_cpus", lambda: True)
        d = above_the_helper_size(73)
        assert verifier_fields(d, spec0) == reference_fields(monkeypatch, d, spec0)


HELPER_MIN_N = metrics._HELPER_MIN_N  # read before any test patches it


def above_the_helper_size(seed, labels=None):
    """Tied, weighted data of ``_HELPER_MIN_N + 5`` rows, some at s* = 0."""
    rng = np.random.default_rng(seed)
    n = HELPER_MIN_N + 5
    labels = rng.integers(0, 2, n) if labels is None else np.full(n, labels)
    return Dataset(np.round(rng.uniform(-1.0, 1.0, n), 2), labels, rng.uniform(0.05, 2.0, n))


def report_fields(dataset, spec, build=report):
    """Every field of ``build``'s report as exact text, or the error it raised."""
    try:
        rep = build(dataset, spec)
    except Exception as exc:
        return type(exc), str(exc)
    return {key: None if value is None else value.hex() for key, value in rep.as_dict().items()}


def sequential_report(dataset, spec):
    """``report`` as first written: rank, then sweep the scores, one after the other."""
    view = rank_by_confidence(dataset, spec)
    try:
        sweep = metrics._score_sweep(dataset)
    except SingleClassError:
        sweep = None
    return metrics._report(view, sweep)


def sequential_fields(dataset, spec):
    return report_fields(dataset, spec, sequential_report)


def eval_outputs(directory: Path, dataset):
    """``lxcim eval --output json --curves-dir`` on the dataset as a CSV: the exit code and the curve files."""
    directory.mkdir()
    write_prediction_file(directory / "data.csv", dataset)
    code = main(["eval", "--input", str(directory / "data.csv"), "--output", "json",
                 "--curves-dir", str(directory / "curves")])
    files = {p.name: p.read_bytes() for p in sorted((directory / "curves").iterdir())}
    return code, files


class TestReportReference:
    """``report`` and ``lxcim eval`` on both paths against the sequential body, bit for bit."""

    def test_tied_weighted_and_at_threshold(self, verify_path, spec0):
        for d in tied_weighted_corpus(71, 80):
            assert report_fields(d, spec0) == sequential_fields(d, spec0)

    def test_above_the_helper_size_by_default(self, monkeypatch, spec0):
        monkeypatch.setattr(metrics, "_two_cpus", lambda: True)
        d = above_the_helper_size(75)
        assert report_fields(d, spec0) == sequential_fields(d, spec0)

    def test_one_class_above_the_helper_size(self, monkeypatch, spec0):
        monkeypatch.setattr(metrics, "_two_cpus", lambda: True)
        d = above_the_helper_size(76, labels=1)
        rep = report(d, spec0)
        assert rep.auroc is None
        assert report_fields(d, spec0) == sequential_fields(d, spec0)

    def test_eval_matches_the_sequential_path(self, monkeypatch, tmp_path, capsys, verify_path):
        datasets = [*tied_weighted_corpus(77, 4), above_the_helper_size(78), above_the_helper_size(79, labels=0)]
        for k, d in enumerate(datasets):
            got = eval_outputs(tmp_path / f"path{k}", d), capsys.readouterr()
            with monkeypatch.context() as m:
                m.setattr(metrics, "_HELPER_MIN_N", 2**62)
                want = eval_outputs(tmp_path / f"reference{k}", d), capsys.readouterr()
            assert got == want
            assert got[0][0] == 0 and len(got[0][1]) in (4, 6)  # no ROC files for one class


def _no_nan(s):
    return np.where(s > 10.0, np.inf, -s)


class TestHelperThread:
    def test_user_maps_run_on_the_calling_thread(self, monkeypatch, verify_path):
        seen, sweeps = set(), set()

        def confidence(s):
            seen.add(threading.get_ident())
            return np.abs(s)

        def reflect(s):
            seen.add(threading.get_ident())
            return -s

        sweep = metrics._sweep

        def recording_sweep(*args):
            sweeps.add(threading.get_ident())
            return sweep(*args)

        monkeypatch.setattr(metrics, "_sweep", recording_sweep)
        spec = DecisionSpec(0.0, confidence, reflect)
        caller = threading.get_ident()
        for call in (report, verify_doubling_identity, verify_crossing_point):
            seen.clear()
            sweeps.clear()
            for d in tied_weighted_corpus(74, 10):
                call(d, spec)
            assert seen == {caller}
            assert (caller in sweeps) == (verify_path == "sequential") and len(sweeps) >= 1

    def test_report_raises_the_map_error_after_the_join(self, verify_path):
        threads = threading.active_count()
        spec = DecisionSpec(0.0, lambda s: np.where(s > 0.6, np.nan, np.abs(s)), np.negative)
        with pytest.raises(NonFiniteMapError, match="confidence map produced non-finite values"):
            report(Dataset([0.5, 0.75, -1.0, 0.25], [1, 0, 1, 0]), spec)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("call", [report, verify_doubling_identity, verify_crossing_point])
    def test_both_steps_raise_in_the_sequential_order(self, monkeypatch, verify_path, call):
        # the sweep's error comes first, on either path; on two-class data only
        # a fake sweep raises, so only it reaches this case
        class SweepError(Exception):
            pass

        def failing_sweep(*args):
            raise SweepError

        monkeypatch.setattr(metrics, "_sweep", failing_sweep)
        threads = threading.active_count()
        spec = DecisionSpec(0.0, lambda s: np.full_like(s, np.nan), np.negative)
        with pytest.raises(SweepError):
            call(Dataset([0.5, -0.75, 0.25], [1, 0, 0]), spec)
        assert threading.active_count() == threads

    def test_one_class_report_is_only_ranked(self, monkeypatch, spec0):
        # no sweep, and no helper thread whose sweep would be thrown away
        monkeypatch.setattr(metrics, "_two_cpus", lambda: True)
        sweeps, during_ranking = [], []

        def recording_sweep(*args):
            sweeps.append(args)
            return sweep(*args)

        def recording_rank(*args):
            during_ranking.append(threading.active_count())
            return rank(*args)

        sweep, rank = metrics._sweep, metrics.rank_by_confidence
        monkeypatch.setattr(metrics, "_sweep", recording_sweep)
        monkeypatch.setattr(metrics, "rank_by_confidence", recording_rank)
        threads = threading.active_count()
        for labels in (0, 1):
            assert report(above_the_helper_size(80, labels=labels), spec0).auroc is None
        assert sweeps == [] and during_ranking == [threads, threads]
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "data, spec",
        [
            (Dataset([], []), make_abs_spec(0.0)),
            # the reflection overflows: raised before the sweep starts
            (Dataset([0.5, 20.0, -1.0], [1, 0, 1]), DecisionSpec(0.0, np.abs, _no_nan)),
            # the sweep succeeds and the ranking raises
            (Dataset([0.5, 0.75, -1.0], [1, 0, 1]),
             DecisionSpec(0.0, lambda s: np.where(s > 0.6, np.nan, np.abs(s)), np.negative)),
            # both raise, and the sweep's error comes first
            (Dataset([0.0, 0.0, 0.0], [1, 1, 1]),
             DecisionSpec(0.0, lambda s: np.full_like(s, np.nan), np.negative)),
        ],
        ids=["empty", "reflection_overflows", "confidence_nan", "sweep_error_first"],
    )
    def test_errors_match_the_reference(self, monkeypatch, verify_path, data, spec):
        threads = threading.active_count()
        expected = reference_fields(monkeypatch, data, spec)
        assert all(isinstance(f, tuple) and issubclass(f[0], Exception) for f in expected)
        assert verifier_fields(data, spec) == expected
        assert threading.active_count() == threads  # every helper was joined

    def test_reference_errors_are_the_documented_ones(self):
        cases = [
            (Dataset([], []), make_abs_spec(0.0), EmptyDatasetError, "cannot duplicate an empty dataset"),
            (Dataset([0.5, 20.0], [1, 0]), DecisionSpec(0.0, np.abs, _no_nan),
             NonFiniteMapError, "scores must all be finite"),
            (Dataset([0.0, 0.0], [1, 1]), DecisionSpec(0.0, lambda s: np.full_like(s, np.nan), np.negative),
             SingleClassError, "ROC requires positive weight in both classes"),
        ]
        for data, spec, error, text in cases:
            with pytest.raises(error, match=text):
                verify_doubling_identity(data, spec)
        # the duplicate's builder raises the same for the verifiers and duplicate_dataset
        for data, spec, error, text in cases[:2]:
            for call in (duplicate_dataset, verify_doubling_identity, verify_crossing_point):
                with pytest.raises(error) as raised:
                    call(data, spec)
                assert type(raised.value) is error and str(raised.value) == text

    @pytest.mark.filterwarnings("error")
    def test_helper_runs_under_the_callers_error_state(self, monkeypatch, spec0):
        # every prefix sum of these weights overflows, on both threads
        d = Dataset([0.5, -0.25, 0.75, -1.0, 0.125], [1, 0, 0, 1, 1], [1e308] * 5)
        sweeps = {}
        for path, size in (("sequential", 2**62), ("helper", 1)):
            monkeypatch.setattr(metrics, "_HELPER_MIN_N", size)
            monkeypatch.setattr(metrics, "_two_cpus", lambda: True)
            with np.errstate(over="ignore"):
                _, sweeps[path] = verify._rank_and_sweep_doubled(d, spec0)
        assert np.isinf(sweeps["helper"][0][-1])
        for a, b in zip(sweeps["sequential"], sweeps["helper"]):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
