"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
inline; without ``-s`` the test names carry the same pass/fail signal.
"""

import itertools
import json
import time
from functools import partial

import numpy as np
import pytest

from lxcim import (
    ConfusionMatrix,
    Dataset,
    GeneratorConfig,
    GeneratorKind,
    WeightMode,
    accuracy,
    accuracy_rate_curve,
    audrc,
    auroc,
    brute_auroc,
    check_categorical_lxc_invariance,
    check_rank_lxc_invariance,
    convergence_study,
    cumulative_accuracy_curve,
    exchange_subset,
    f1_score,
    generate,
    ingest,
    lxcim,
    make_abs_spec,
    matthews_corrcoef,
    verify_crossing_point,
    verify_doubling_identity,
    write_prediction_file,
)
from lxcim.cli import main
from lxcim.errors import SingleClassError

import exact

_MODULE_T0 = time.perf_counter()

SPEC0 = make_abs_spec(0.0)
D0 = Dataset([-4.0, -3.0, 1.0, 2.0], [0, 1, 0, 1])


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """200 seeded chance-level datasets, N in [1, 256], weights in (0, 2]."""
    meta = np.random.default_rng(20250815)
    sizes = meta.integers(1, 257, size=200)
    return [
        generate(
            GeneratorConfig(
                kind=GeneratorKind.RANDOM,
                n=int(n),
                seed=1000 + i,
                weight_mode=WeightMode.RANDOM_POSITIVE,
            )
        )
        for i, n in enumerate(sizes)
    ]


def test_criterion_01_rank_metric_exchange_invariance(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for i, dataset in enumerate(corpus):
        for name, metric in (("lxcim", lxcim), ("audrc", audrc)):
            rep = check_rank_lxc_invariance(
                partial(metric, spec=SPEC0), dataset, SPEC0, trials=20, seed=i
            )
            assert rep.passed, f"{name} moved {rep.max_deviation:.3e} on dataset {i}"
            worst = max(worst, rep.max_deviation)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"lxcim/audrc max |delta| {worst:.3e} over 200x20 masks in {elapsed:.1f}s",
    )


def test_criterion_02_duplication_reproduces_rank_metric(corpus):
    t0 = time.perf_counter()
    worst = max(
        verify_doubling_identity(dataset, SPEC0).doubling_deviation for dataset in corpus
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        worst <= 1e-9 and elapsed < 5.0,
        f"max |auroc(doubled) - lxcim| {worst:.3e} in {elapsed:.1f}s",
    )


def test_criterion_03_roc_crossing_point(corpus):
    worst = max(verify_crossing_point(dataset, SPEC0).deviation for dataset in corpus)
    _verdict(3, worst <= 1e-9, f"max crossing deviation {worst:.3e}")


def test_criterion_04_area_identity(corpus):
    worst = max(
        verify_doubling_identity(dataset, SPEC0).area_identity_deviation for dataset in corpus
    )
    _verdict(4, worst <= 1e-9, f"max |auroc(doubled) - (acc^2 + 2H)| {worst:.3e}")


def test_criterion_05_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    worst_auroc = 0.0
    for n in range(1, 11):
        scores = np.linspace(-1.3, 1.7, n)
        weights = 0.5 + 0.25 * np.arange(n)
        for labels in itertools.product((0, 1), repeat=n):
            dataset = Dataset(scores, labels, weights)
            if len(set(labels)) < 2:
                with pytest.raises(SingleClassError):
                    auroc(dataset)
                continue
            worst_auroc = max(worst_auroc, abs(auroc(dataset) - brute_auroc(dataset)))
    for k in range(50):
        rng = np.random.default_rng(7000 + k)
        labels = rng.integers(0, 2, 12)
        labels[0], labels[1] = 0, 1
        dataset = Dataset(
            rng.choice([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], size=12),
            labels,
            rng.uniform(0.1, 2.0, 12),
        )
        worst_auroc = max(worst_auroc, abs(auroc(dataset) - brute_auroc(dataset)))
    worst_lxcim = max(
        abs(lxcim(dataset, SPEC0) - float(exact.lxcim(exact.samples(dataset)))) for dataset in corpus
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        worst_auroc <= 1e-12 and worst_lxcim <= 1e-12 and elapsed < 30.0,
        f"auroc vs pairwise {worst_auroc:.3e}, lxcim vs exact {worst_lxcim:.3e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_scale_anchors():
    ideal = generate(GeneratorConfig(GeneratorKind.IDEAL, 500, seed=3))
    adversarial = generate(GeneratorConfig(GeneratorKind.ADVERSARIAL, 500, seed=3))
    assert set(ideal.labels.tolist()) == {0, 1}
    ideal_vals = (
        lxcim(ideal, SPEC0),
        audrc(ideal, SPEC0),
        auroc(ideal),
        accuracy(ideal, SPEC0),
    )
    adversarial_vals = (
        lxcim(adversarial, SPEC0),
        audrc(adversarial, SPEC0),
        auroc(adversarial),
        accuracy(adversarial, SPEC0),
    )

    random_mean = float(
        np.mean(
            [
                lxcim(generate(GeneratorConfig(GeneratorKind.RANDOM, 1000, seed=s)), SPEC0)
                for s in range(1000)
            ]
        )
    )
    biased_ok = True
    biased_means = {}
    for p in (0.6, 0.8):
        mean = float(
            np.mean(
                [
                    lxcim(
                        generate(
                            GeneratorConfig(GeneratorKind.BIASED, 10_000, seed=s, p=p)
                        ),
                        SPEC0,
                    )
                    for s in range(100)
                ]
            )
        )
        biased_means[p] = mean
        biased_ok = biased_ok and abs(mean - p) <= 0.02
    _verdict(
        6,
        ideal_vals == (1.0, 1.0, 1.0, 1.0)
        and adversarial_vals == (0.0, 0.0, 0.0, 0.0)
        and 0.49 <= random_mean <= 0.51
        and biased_ok,
        f"ideal {ideal_vals}, adversarial {adversarial_vals}, "
        f"random mean {random_mean:.4f}, biased means {biased_means}",
    )


def test_criterion_07_auroc_witness(tmp_path, capsys):
    moved = exchange_subset(D0, [2], SPEC0)
    lib_ok = (
        auroc(D0) == 0.75
        and auroc(moved) == 1.0
        and lxcim(moved, SPEC0) == lxcim(D0, SPEC0) == 0.625
    )

    path = tmp_path / "d0.csv"
    path.write_text("score,label\n-4,0\n-3,1\n1,0\n2,1\n", encoding="utf-8")
    argv = ["check", "--input", str(path), "--metric", "auroc", "--seed", "11"]
    code_a = main(argv)
    out_a = capsys.readouterr().out
    code_b = main(argv)
    out_b = capsys.readouterr().out
    _verdict(
        7,
        lib_ok and code_a == code_b == 1 and out_a == out_b and "witness" in out_a,
        f"auroc 0.75 -> 1.0 under mask {{2}}, lxcim pinned at 0.625, "
        f"cli exit {code_a} with stable witness",
    )


def test_criterion_08_chance_level_shape(corpus):
    firsts_ok = True
    slopes_ok = True
    for dataset in corpus:
        rate = accuracy_rate_curve(dataset, SPEC0)
        firsts_ok = firsts_ok and rate.y[0] in (0.0, 1.0)
        cum = cumulative_accuracy_curve(dataset, SPEC0)
        dx = np.diff(cum.x)
        dy = np.diff(cum.y)
        slopes_ok = slopes_ok and bool(np.all(dy >= -1e-12) and np.all(dy <= dx + 1e-12))

    study = convergence_study([10, 100, 1000, 10_000], seeds=100, base_seed=2)
    deviations = [row.mean_sup_cum_deviation for row in study.rows]
    decreasing = all(b < a for a, b in zip(deviations, deviations[1:]))
    _verdict(
        8,
        firsts_ok and slopes_ok and decreasing,
        f"first accuracy points binary, slopes in [0,1], "
        f"mean sup|G - i/2| {['%.4f' % d for d in deviations]}",
    )


def test_criterion_09_categorical_checker():
    rng = np.random.default_rng(99)
    acc_ok = True
    for _ in range(100):
        cm = ConfusionMatrix(*rng.uniform(0.5, 20.0, 4))
        rep = check_categorical_lxc_invariance(
            lambda m: m.correct / m.total, cm, trials=50, seed=5
        )
        acc_ok = acc_ok and rep.passed

    witnesses_ok = True
    matrices = [ConfusionMatrix(3, 1, 2, 4)] + [
        ConfusionMatrix(*rng.integers(1, 13, 4)) for _ in range(25)
    ]
    for cm in matrices:
        bound = min(cm.as_tuple())
        for metric in (f1_score, matthews_corrcoef):
            rep = check_categorical_lxc_invariance(metric, cm, trials=1, seed=5)
            w = rep.witness
            witnesses_ok = witnesses_ok and (
                w is not None and abs(w.delta1) <= bound and abs(w.delta2) <= bound
            )
    _verdict(
        9,
        acc_ok and witnesses_ok,
        "accuracy invariant on 100 random matrices; f1/mcc witnesses inside "
        "the integer grid on 26 integer matrices",
    )


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    path = tmp_path / "d0.csv"
    path.write_text("score,label\n-4,0\n-3,1\n1,0\n2,1\n", encoding="utf-8")
    expected = {"accuracy": 0.5, "lxcim": 0.625, "auroc": 0.75, "audrc": 0.6667}

    assert main(["eval", "--input", str(path), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    json_ok = all(abs(payload[k] - v) <= 1e-4 for k, v in expected.items())

    assert main(["eval", "--input", str(path), "--output", "table"]) == 0
    rows = dict(
        line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    table_ok = all(abs(float(rows[k]) - v) <= 1e-4 for k, v in expected.items())

    dataset = generate(
        GeneratorConfig(
            GeneratorKind.RANDOM, 64, seed=17, weight_mode=WeightMode.RANDOM_POSITIVE
        )
    )
    out = tmp_path / "round.csv"
    write_prediction_file(out, dataset)
    back, _ = ingest(out)
    round_trip_ok = (
        np.array_equal(back.scores, dataset.scores)
        and np.array_equal(back.labels, dataset.labels)
        and np.array_equal(back.weights, dataset.weights)
    )

    elapsed = time.perf_counter() - _MODULE_T0
    _verdict(
        10,
        json_ok and table_ok and round_trip_ok and elapsed < 60.0,
        f"cli within 1e-4 in both modes, exact round-trip, "
        f"acceptance module wall time {elapsed:.1f}s",
    )
