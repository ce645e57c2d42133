import sys

import numpy as np
import pytest

from lxcim import Dataset, SingleClassError, make_abs_spec


@pytest.fixture(scope="session")
def spec0():
    return make_abs_spec(0.0)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` counts the calls of ``owner.name``.

    ``owner`` is a class (for a method such as ``Dataset.__init__``) or the
    module that defines a function.  A counting wrapper replaces the attribute
    on ``owner`` and in every ``lxcim`` module that imported the same object.
    Returns the list that each call appends its positional arguments to.
    """

    def install(owner, name):
        original = getattr(owner, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "lxcim" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.fixture()
def d0():
    """Four-sample worked example: one of each confusion cell, accuracy 1/2."""
    return Dataset([-4, -3, 1, 2], [0, 1, 0, 1])


@pytest.fixture()
def perfect_pair():
    return Dataset([2, -2], [1, 0])


@pytest.fixture()
def wrong_pair():
    return Dataset([2, -2], [0, 1])


@pytest.fixture()
def tie_pair():
    """Equal confidence, one correct and one wrong decision."""
    return Dataset([1, -1], [1, 1])


def random_dataset(rng: np.random.Generator, n: int, *, weighted: bool = True) -> Dataset:
    scores = rng.uniform(-1.0, 1.0, n)
    while np.any(scores == 0.0):
        scores[scores == 0.0] = rng.uniform(-1.0, 1.0, int(np.sum(scores == 0.0)))
    labels = rng.integers(0, 2, n)
    weights = rng.uniform(0.05, 2.0, n) if weighted else None
    return Dataset(scores, labels, weights)


def unique_score_sweep(dataset: Dataset):
    """The score sweep as ``np.unique`` and one ``bincount`` per class give it, 0-led.

    The reference for ``lxcim.metrics._sweep``: each class's weight per
    distinct score, summed in input order, then prefix sums from the highest
    score down.
    """
    unique_scores, inverse = np.unique(dataset.scores, return_inverse=True)
    w, y = dataset.weights, dataset.labels
    pos_per_score = np.bincount(inverse, weights=w * y, minlength=len(unique_scores))
    neg_per_score = np.bincount(inverse, weights=w * (1 - y), minlength=len(unique_scores))
    tp = np.concatenate(([0.0], pos_per_score[::-1].cumsum()))
    fp = np.concatenate(([0.0], neg_per_score[::-1].cumsum()))
    pos_total, neg_total = float(tp[-1]), float(fp[-1])
    if pos_total == 0.0 or neg_total == 0.0:
        raise SingleClassError("ROC requires positive weight in both classes")
    return tp, fp, pos_total, neg_total


def underflowing_datasets():
    """Data whose squared total weight, and product of class totals, fall below the normal floats.

    Four weights of 1e-170, and 50 random rows with weights in [0.5, 2]
    scaled by 2^-540.  Every weight and every sum of weights is a normal float.
    """
    rng = np.random.default_rng(540)
    scaled = np.ldexp(rng.uniform(0.5, 2.0, 50), -540)
    return {
        "four-1e-170": Dataset([0.5, -0.5, 0.2, -0.3], [1, 0, 0, 1], [1e-170] * 4),
        "scaled-2^-540": Dataset(rng.uniform(-1.0, 1.0, 50), rng.integers(0, 2, 50), scaled),
    }


def subnormal_weight_datasets():
    """40 rows of 2-decimal scores with weights in [0.5, 2] scaled by 2^k into the subnormals.

    The squared total weight underflows at each k, and AUDRC's interpolation
    within tie groups rounds to the subnormal grid: unchecked, AUDRC read
    0.6332664452955894, 0.633264426449919 and 0.6329855115982284 at these k,
    against 0.6332664452926721 at k = 0.
    """
    rng = np.random.default_rng(1040)
    scores, labels = np.round(rng.uniform(-1.0, 1.0, 40), 2), rng.integers(0, 2, 40)
    weights = rng.uniform(0.5, 2.0, 40)
    return {f"2^{k}": Dataset(scores, labels, np.ldexp(weights, k)) for k in (-1040, -1060, -1066)}
