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

from lxcim.verify import _area_left_of

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


class TestRateCurveHead:
    def test_first_point_is_all_or_nothing_on_generated_data(self, spec0):
        for seed in range(30):
            d = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=200, seed=seed))
            assert accuracy_rate_curve(d, spec0).y[0] in (0.0, 1.0)

    def test_audrc_defined_on_generated_data(self, spec0):
        d = generate(GeneratorConfig(kind=GeneratorKind.RANDOM, n=500, seed=77))
        assert 0.0 <= audrc(d, spec0) <= 1.0
