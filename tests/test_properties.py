"""Property-based checks for the metric and exchange layers.

The two permutation oracles at the bottom re-derive the tie policy from
first principles: averaging per-ordering areas over every admissible
ordering of tied samples must reproduce the closed-form values.
"""

import itertools
from functools import partial

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lxcim import (
    Curve,
    Dataset,
    ExchangeMask,
    InexactExchangeError,
    accuracy,
    accuracy_rate_curve,
    audrc,
    auroc,
    check_rank_lxc_invariance,
    cumulative_accuracy_curve,
    duplicate_dataset,
    exchange_subset,
    lxcim,
    make_abs_spec,
    rank_by_confidence,
    roc_curve,
    verify_crossing_point,
    verify_doubling_identity,
)
from lxcim import exchange

SPEC0 = make_abs_spec(0.0)
TIE_POOL = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)


@st.composite
def datasets(draw, max_size=24, weighted=True, score_pool=None):
    n = draw(st.integers(min_value=1, max_value=max_size))
    if score_pool is None:
        score = st.floats(min_value=-50.0, max_value=50.0).filter(lambda s: s != 0.0)
    else:
        score = st.sampled_from(score_pool)
    scores = draw(st.lists(score, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if weighted:
        weights = draw(st.lists(st.floats(0.05, 8.0), min_size=n, max_size=n))
    else:
        weights = [1.0] * n
    return Dataset(scores, labels, weights)


@st.composite
def dataset_with_mask(draw, **kwargs):
    dataset = draw(datasets(**kwargs))
    picks = draw(st.lists(st.booleans(), min_size=len(dataset), max_size=len(dataset)))
    mask = ExchangeMask(i for i, hit in enumerate(picks) if hit)
    return dataset, mask


@given(dataset_with_mask())
@settings(max_examples=80, deadline=None)
def test_exchange_is_an_involution(pair):
    dataset, mask = pair
    once = exchange_subset(dataset, mask, SPEC0)
    twice = exchange_subset(once, mask, SPEC0)
    assert np.array_equal(twice.scores, dataset.scores)
    assert np.array_equal(twice.labels, dataset.labels)
    assert np.array_equal(twice.weights, dataset.weights)


@given(dataset_with_mask())
@settings(max_examples=80, deadline=None)
def test_rank_metrics_survive_exchange(pair):
    dataset, mask = pair
    moved = exchange_subset(dataset, mask, SPEC0)
    assert abs(lxcim(moved, SPEC0) - lxcim(dataset, SPEC0)) <= 1e-9
    assert abs(audrc(moved, SPEC0) - audrc(dataset, SPEC0)) <= 1e-9
    assert abs(accuracy(moved, SPEC0) - accuracy(dataset, SPEC0)) <= 1e-9


@given(datasets(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_sample_order_is_irrelevant(dataset, rnd):
    idx = list(range(len(dataset)))
    rnd.shuffle(idx)
    shuffled = Dataset(dataset.scores[idx], dataset.labels[idx], dataset.weights[idx])
    assert lxcim(shuffled, SPEC0) == lxcim(dataset, SPEC0)
    assert audrc(shuffled, SPEC0) == audrc(dataset, SPEC0)
    assert accuracy(shuffled, SPEC0) == accuracy(dataset, SPEC0)


@given(datasets())
@settings(max_examples=80, deadline=None)
def test_doubling_weights_changes_nothing(dataset):
    scaled = Dataset(dataset.scores, dataset.labels, dataset.weights * 2.0)
    assert lxcim(scaled, SPEC0) == lxcim(dataset, SPEC0)
    assert audrc(scaled, SPEC0) == audrc(dataset, SPEC0)
    assert accuracy(scaled, SPEC0) == accuracy(dataset, SPEC0)


@given(datasets(), st.floats(0.01, 100.0))
@settings(max_examples=80, deadline=None)
def test_weight_scale_invariance(dataset, factor):
    scaled = Dataset(dataset.scores, dataset.labels, dataset.weights * factor)
    assert abs(lxcim(scaled, SPEC0) - lxcim(dataset, SPEC0)) <= 1e-12
    assert abs(audrc(scaled, SPEC0) - audrc(dataset, SPEC0)) <= 1e-12


@given(datasets())
@settings(max_examples=80, deadline=None)
def test_score_scale_invariance_is_exact(dataset):
    scaled = Dataset(dataset.scores * 8.0, dataset.labels, dataset.weights)
    assert lxcim(scaled, SPEC0) == lxcim(dataset, SPEC0)
    assert audrc(scaled, SPEC0) == audrc(dataset, SPEC0)
    assert accuracy(scaled, SPEC0) == accuracy(dataset, SPEC0)


@given(datasets())
@settings(max_examples=100, deadline=None)
def test_curve_endpoint_equals_accuracy(dataset):
    curve = cumulative_accuracy_curve(dataset, SPEC0)
    assert curve.x[0] == 0.0 and curve.x[-1] == 1.0
    assert curve.y[-1] == accuracy(dataset, SPEC0)


def _assert_passes_the_checks(curve):
    again = Curve(curve.kind, curve.x, curve.y)
    assert again.x.tobytes() == curve.x.tobytes() and again.y.tobytes() == curve.y.tobytes()
    assert not curve.x.flags.writeable and not curve.y.flags.writeable


@given(datasets(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_built_curves_pass_the_checks(dataset, tied):
    # the builders skip Curve's checks; here they are asserted instead
    if tied:
        dataset = Dataset(np.round(dataset.scores), dataset.labels, dataset.weights)
    _assert_passes_the_checks(cumulative_accuracy_curve(dataset, SPEC0))
    _assert_passes_the_checks(accuracy_rate_curve(dataset, SPEC0))
    # the verifiers' ROC is that of the dataset with its full exchange
    for d in (dataset, duplicate_dataset(dataset, SPEC0)):
        if 0 < d.labels.sum() < len(d):  # rows at s_star keep their class in the exchange
            _assert_passes_the_checks(roc_curve(d))


@given(datasets())
@settings(max_examples=100, deadline=None)
@example(Dataset([2.0, 1.0], [1, 1], [0.2, 0.7]))  # lxcim rounded one ulp above 1
def test_metrics_stay_in_unit_interval(dataset):
    for value in (lxcim(dataset, SPEC0), audrc(dataset, SPEC0), accuracy(dataset, SPEC0)):
        assert 0.0 <= value <= 1.0


@given(datasets(max_size=16))
@settings(max_examples=60, deadline=None)
def test_duplication_turns_rank_metric_into_auroc(dataset):
    doubled = duplicate_dataset(dataset, SPEC0)
    assert abs(auroc(doubled) - lxcim(dataset, SPEC0)) <= 1e-9
    positive = doubled.weights[doubled.labels == 1].sum()
    negative = doubled.weights[doubled.labels == 0].sum()
    assert abs(positive - negative) <= 1e-9 * max(positive, 1.0)


def _tie_orderings(view):
    groups = []
    start = 0
    for end in view.group_ends:
        groups.append(list(range(start, int(end))))
        start = int(end)
    for parts in itertools.product(*[itertools.permutations(g) for g in groups]):
        yield [i for part in parts for i in part]


def _ordered_area(view, ordering):
    w = view.weight[ordering]
    cw = np.concatenate(([0.0], np.cumsum(w)))
    cc = np.concatenate(([0.0], np.cumsum(w * view.correct[ordering])))
    return float(np.sum((cw[1:] - cw[:-1]) * (cc[:-1] + cc[1:])) / cw[-1] ** 2)


def _ordered_audrc(view, ordering):
    w = view.weight[ordering]
    cw = np.cumsum(w)
    cc = np.cumsum(w * view.correct[ordering])
    return float(np.sum(w * (cc / cw)) / cw[-1])


@given(datasets(max_size=6, score_pool=TIE_POOL))
@settings(max_examples=60, deadline=None)
def test_tie_policy_matches_permutation_average(dataset):
    view = rank_by_confidence(dataset, SPEC0)
    values = [_ordered_area(view, order) for order in _tie_orderings(view)]
    assert abs(lxcim(dataset, SPEC0) - float(np.mean(values))) <= 1e-12


@given(datasets(max_size=6, weighted=False, score_pool=TIE_POOL))
@settings(max_examples=60, deadline=None)
def test_depth_metric_matches_permutation_average(dataset):
    view = rank_by_confidence(dataset, SPEC0)
    values = [_ordered_audrc(view, order) for order in _tie_orderings(view)]
    assert abs(audrc(dataset, SPEC0) - float(np.mean(values))) <= 1e-12


@st.composite
def decimal_probabilities(draw):
    """Probabilities of 1 to 3 decimals, some exactly at a threshold of 0.5 or 0.3, and that spec."""
    s_star = draw(st.sampled_from([0.5, 0.3]))
    scale = 10 ** draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    ks = draw(st.lists(st.integers(0, scale), min_size=n, max_size=n))
    ks += [round(s_star * scale)] * draw(st.integers(0, 2))  # rows at the threshold
    n = len(ks)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]), min_size=n, max_size=n))
    return Dataset([k / scale for k in ks], labels, weights), make_abs_spec(s_star)


def _exact(dataset, spec):
    try:
        exchange._require_exact(dataset, spec, *exchange._mirror(dataset, spec)[:2])
    except InexactExchangeError:
        return False
    return True


@given(decimal_probabilities())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_no_false_verdict_off_a_zero_threshold(data):
    # the mirror s* - (s - s*) rounds on such scores; a verdict is given only where it holds
    dataset, spec = data
    exact = _exact(dataset, spec)
    for metric in (lxcim, audrc, accuracy):
        try:
            rep = check_rank_lxc_invariance(partial(metric, spec=spec), dataset, spec, trials=8, seed=1)
        except InexactExchangeError:
            assert not exact
            continue
        assert rep.passed
        if exact:
            assert rep.max_deviation == 0.0
    off = dataset.scores != spec.s_star  # a row at the threshold unbalances the duplicate
    if off.any():
        dataset = Dataset(dataset.scores[off], dataset.labels[off], dataset.weights[off])
        for verifier in (verify_doubling_identity, verify_crossing_point):
            try:
                assert verifier(dataset, spec).passed
            except InexactExchangeError:
                assert not _exact(dataset, spec)
