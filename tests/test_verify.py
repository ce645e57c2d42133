import numpy as np
import pytest

from lxcim import (
    Dataset,
    GeneratorConfig,
    GeneratorKind,
    SingleClassError,
    WeightMode,
    accuracy_rate_curve,
    audrc,
    auroc,
    brute_auroc,
    brute_lxcim,
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

from lxcim.metrics import _accuracy_rate_curve, _cumulative_accuracy_curve
from lxcim.model import make_abs_spec, rank_by_confidence
import lxcim.verify as verify
from lxcim.verify import StudyResult, StudySizeResult, _area_left_of, _draw, _study_deviations, _study_seed

from conftest import random_dataset


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
    def test_worked_example(self, d0, spec0):
        assert brute_lxcim(d0, spec0) == pytest.approx(0.625, abs=1e-6)

    def test_perfect_and_tie(self, perfect_pair, tie_pair, spec0):
        assert brute_lxcim(perfect_pair, spec0) == pytest.approx(1.0, abs=1e-6)
        assert brute_lxcim(tie_pair, spec0) == pytest.approx(0.5, abs=1e-6)

    def test_matches_closed_form(self, spec0):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = random_dataset(rng, int(rng.integers(1, 120)))
            assert brute_lxcim(d, spec0) == pytest.approx(lxcim(d, spec0), abs=1e-6)

    def test_subdivision_validation(self, d0, spec0):
        with pytest.raises(ValueError):
            brute_lxcim(d0, spec0, subdivisions=0)


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
