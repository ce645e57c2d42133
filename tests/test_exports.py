import importlib
import inspect
import pkgutil

import pytest

import lxcim

REMOVED = (
    "CategoricalInvarianceReport", "brute_lxcim", "validate_decision_spec", "SpecViolation", "SpecValidationReport"
)
MODULES = ["lxcim"] + [f"lxcim.{info.name}" for info in pkgutil.iter_modules(lxcim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    # CategoricalInvarianceReport was folded into InvarianceReport, which the
    # categorical checker returns; brute_lxcim gave way to an exact oracle in tests/;
    # the spec validator and its reports gave way to the exactness rule that the
    # checks and verifiers apply before a failing verdict
    for removed in REMOVED:
        assert removed not in module.__all__
        assert not hasattr(module, removed)


def test_ranked_view_has_no_total_weight():
    # Dataset.total_weight is the one total
    view = lxcim.rank_by_confidence(lxcim.Dataset([1.0], [1]), lxcim.make_abs_spec())
    assert not hasattr(view, "total_weight")


@pytest.mark.parametrize(
    "function",
    [
        lxcim.check_rank_lxc_invariance,
        lxcim.check_categorical_lxc_invariance,
        lxcim.verify_doubling_identity,
        lxcim.verify_crossing_point,
    ],
    ids=lambda f: f.__name__,
)
def test_tolerances_are_fixed(function):
    # the checkers and verifiers pass at 1e-9
    assert set(inspect.signature(function).parameters).isdisjoint({"tolerance", "rel_tol", "abs_tol"})


PACKAGE_SOURCES = ("model", "metrics", "exchange", "verify", "io", "errors")
IO_EXPORTS = ["ingest", "read_prediction_rows", "write_prediction_file", "write_curve_csv"]


def test_package_exports_each_module_list_in_order():
    expected = ["__version__"]
    for source in PACKAGE_SOURCES:
        module = importlib.import_module(f"lxcim.{source}")
        expected += IO_EXPORTS if source == "io" else module.__all__
    assert lxcim.__all__ == expected
    assert len(expected) == 59


@pytest.mark.parametrize("source", PACKAGE_SOURCES)
def test_package_names_are_the_module_objects(source):
    module = importlib.import_module(f"lxcim.{source}")
    names = IO_EXPORTS if source == "io" else module.__all__
    assert [n for n in names if getattr(lxcim, n) is not getattr(module, n)] == []


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from lxcim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lxcim.__all__)
    assert all(namespace[n] is getattr(lxcim, n) for n in lxcim.__all__)


def test_parsing_pieces_stay_in_io():
    import lxcim.io

    for name in ("PredictionColumns", "build_dataset"):
        assert name in lxcim.io.__all__
        assert name not in lxcim.__all__
        assert not hasattr(lxcim, name)
