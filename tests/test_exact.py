"""The paper's claims, checked exactly against the rational oracle in ``exact``.

The tied corpus puts scores on a dyadic grid, k/4 or k/8 away from the
threshold and never on it, with whole weights from 1 to 8.  On such data
|s - s_star| is exact and every prefix sum the library takes is an exact
integer, so accuracy, LxCIM and AUROC round once, in their final division.
"""

from fractions import Fraction

import numpy as np
import pytest

from lxcim import Dataset, exchange_subset, make_abs_spec, report, verify_doubling_identity

import exact

THRESHOLDS = (0.0, 0.5, -0.25)


def dyadic_dataset(rng, n, s_star):
    step = float(rng.choice([0.25, 0.125]))
    scores = s_star + rng.choice([-1.0, 1.0], n) * rng.integers(1, 9, n) * step
    return Dataset(scores, rng.integers(0, 2, n), rng.integers(1, 9, n).astype(float))


@pytest.fixture(scope="module")
def tied_corpus():
    """400 seeded datasets, N in [1, 29], at most 16 tie groups each, with their oracle values."""
    rng = np.random.default_rng(20251019)
    corpus = []
    for k in range(400):
        s_star = THRESHOLDS[k % len(THRESHOLDS)]
        dataset = dyadic_dataset(rng, int(rng.integers(1, 30)), s_star)
        rows = exact.samples(dataset)
        omega = exact.duplicate(rows, s_star)  # its ROC comes from its own score groups
        corpus.append(
            {
                "dataset": dataset,
                "s_star": s_star,
                "accuracy": exact.accuracy(rows, s_star),
                "lxcim": exact.lxcim(rows, s_star),
                "audrc": exact.audrc(rows, s_star),
                "auroc": exact.auroc(rows),
                "auroc_omega": exact.auroc(omega),
                "roc_omega": exact.roc(omega),
            }
        )
    return corpus


def test_oracle_worked_example(d0):
    # by hand: G is 1/4, 1/4, 1/2, 1/2 at the quarters, and the running accuracy 1, 1/2, 2/3, 1/2
    rows = exact.samples(d0)
    assert exact.accuracy(rows) == Fraction(1, 2)
    assert exact.lxcim(rows) == Fraction(5, 8)
    assert exact.audrc(rows) == Fraction(2, 3)
    assert exact.auroc(rows) == Fraction(3, 4)
    roc = exact.roc(exact.duplicate(rows))
    assert exact.area_left_of(roc, Fraction(1, 2)) == Fraction(3, 16)
    assert exact.on_polyline(roc, (Fraction(1, 2), Fraction(1, 2)))
    assert not exact.on_polyline(roc, (Fraction(1, 4), Fraction(3, 4)))


def test_report_rounds_the_exact_values_once(tied_corpus):
    for case in tied_corpus:
        dataset = case["dataset"]
        rep = report(dataset, make_abs_spec(case["s_star"]))
        assert rep.accuracy == float(case["accuracy"])
        assert rep.lxcim == float(case["lxcim"])
        assert rep.auroc == (None if case["auroc"] is None else float(case["auroc"]))
        # AUDRC rounds per sample: the slope, G at the boundary (a product and
        # a sum), G / c and w * G / c each once, then a sum of N positive terms
        # and the division by W, so its relative error is at most (N + 5) 2^-53
        bound = (len(dataset) + 5) * Fraction(1, 2**53) * case["audrc"]
        assert abs(Fraction(rep.audrc) - case["audrc"]) <= bound


@pytest.mark.parametrize(
    "dataset, s_star",
    [
        (Dataset([2.5, -1.5, 0.5, -0.5, 1.5, -2.5, 0.5, 2.5, -0.5, 1.5, -1.5, 0.5],
                 [1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1],
                 [0.3, 1.7, 0.9, 0.9, 1.2, 0.45, 1.7, 0.3, 2.0, 1.2, 0.8, 0.9]), 0.0),
        (dyadic_dataset(np.random.default_rng(3), 9, 0.5), 0.5),
        (dyadic_dataset(np.random.default_rng(4), 5, -0.25), -0.25),
    ],
    ids=["n12-float-weights", "n9", "n5"],
)
def test_every_exchange_leaves_the_rank_metrics_bit_identical(dataset, s_star):
    spec = make_abs_spec(s_star)
    base = report(dataset, spec)
    n = len(dataset)
    auroc_moved = False
    for bits in range(2**n):
        moved = report(exchange_subset(dataset, [i for i in range(n) if bits >> i & 1], spec), spec)
        assert (moved.lxcim, moved.audrc, moved.accuracy) == (base.lxcim, base.audrc, base.accuracy)
        auroc_moved |= moved.auroc is not None and moved.auroc != base.auroc
    assert auroc_moved


def test_duplicate_auroc_is_lxcim_and_acc_squared_plus_twice_h(tied_corpus):
    for case in tied_corpus:
        acc, lx, roc = case["accuracy"], case["lxcim"], case["roc_omega"]
        assert case["auroc_omega"] == lx
        assert acc * acc + 2 * exact.area_left_of(roc, 1 - acc) == lx
        assert exact.on_polyline(roc, (1 - acc, acc))
        rep = verify_doubling_identity(case["dataset"], make_abs_spec(case["s_star"]))
        assert rep.auroc_duplicated == float(case["auroc_omega"])


def test_accuracy_bounds_lxcim(tied_corpus):
    for case in tied_corpus:
        acc = case["accuracy"]
        assert acc * acc <= case["lxcim"] <= 2 * acc - acc * acc
