"""The paper's claims, checked exactly against the rational oracle in ``exact``.

The tied corpus puts scores on a dyadic grid, k/4 or k/8 away from the
threshold and never on it, with whole weights from 1 to 8.  The library
sees the scores centred, ``s - s_star``, as ``ingest`` reads them.  On such
data the centring is exact and every prefix sum the library takes is an
exact integer, so accuracy, LxCIM and AUROC round once, in their final
division.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lxcim import Dataset, exchange_subset, make_abs_spec, rank_by_confidence, report, verify_doubling_identity

import exact
from test_model import VIEW_FIELDS, lexsort_view

THRESHOLDS = (0.0, 0.5, -0.25)


def centred(dataset, s_star):
    return Dataset(dataset.scores - s_star, dataset.labels, dataset.weights)


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
        rep = report(centred(dataset, case["s_star"]), make_abs_spec(0.0))
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
def test_every_exchange_leaves_the_rank_metrics_bit_identical(dataset, s_star, spec0):
    spec, dataset = spec0, centred(dataset, s_star)
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
        rep = verify_doubling_identity(centred(case["dataset"], case["s_star"]), make_abs_spec(0.0))
        assert rep.auroc_duplicated == float(case["auroc_omega"])


def test_accuracy_bounds_lxcim(tied_corpus):
    for case in tied_corpus:
        acc = case["accuracy"]
        assert acc * acc <= case["lxcim"] <= 2 * acc - acc * acc


@st.composite
def dyadic_draws(draw):
    """A few rows of dyadic scores k/2^m about a threshold, rows at it included, whole weights up to 2^20."""
    s_star = draw(st.sampled_from(THRESHOLDS))
    step = 2.0 ** -draw(st.integers(0, 4))
    n = draw(st.integers(1, 12))
    scores = [s_star + k * step for k in draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))]
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 2**20), min_size=n, max_size=n))
    return scores, labels, weights, s_star


@given(dyadic_draws())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_report_and_ranking_match_the_oracle_on_drawn_data(data):
    # a differential test: a failure shrinks to a few rows, printed as drawn
    scores, labels, weights, s_star = data
    dataset = Dataset(scores, labels, weights)
    rows = exact.samples(dataset)
    centred_data = centred(dataset, s_star)
    rep = report(centred_data, make_abs_spec(0.0))
    assert rep.accuracy == float(exact.accuracy(rows, s_star))
    assert rep.lxcim == float(exact.lxcim(rows, s_star))
    auroc = exact.auroc(rows)
    assert rep.auroc == (None if auroc is None else float(auroc))
    audrc = exact.audrc(rows, s_star)
    assert abs(Fraction(rep.audrc) - audrc) <= (len(dataset) + 5) * Fraction(1, 2**53) * audrc
    view = rank_by_confidence(centred_data, make_abs_spec(0.0))
    expected = lexsort_view(centred_data)
    for field in VIEW_FIELDS:
        assert getattr(view, field).tobytes() == expected[field].tobytes(), field
