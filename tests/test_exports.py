import importlib
import pkgutil

import pytest

import lxcim

REMOVED = ("CategoricalInvarianceReport", "brute_lxcim")
MODULES = ["lxcim"] + [f"lxcim.{info.name}" for info in pkgutil.iter_modules(lxcim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    # CategoricalInvarianceReport was folded into InvarianceReport, which the
    # categorical checker returns; brute_lxcim gave way to an exact oracle in tests/
    for removed in REMOVED:
        assert removed not in module.__all__
        assert not hasattr(module, removed)


def test_ranked_view_has_no_total_weight():
    # Dataset.total_weight is the one total
    view = lxcim.rank_by_confidence(lxcim.Dataset([1.0], [1]), lxcim.make_abs_spec())
    assert not hasattr(view, "total_weight")
