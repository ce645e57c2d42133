import sys

import numpy as np
import pytest

from lxcim import Dataset, make_abs_spec


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
