import importlib
import pkgutil

import pytest

import lxcim

MODULES = ["lxcim"] + [f"lxcim.{info.name}" for info in pkgutil.iter_modules(lxcim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    # folded into InvarianceReport, which the categorical checker returns
    assert "CategoricalInvarianceReport" not in module.__all__
    assert not hasattr(module, "CategoricalInvarianceReport")
