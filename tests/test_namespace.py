"""The package's lazily resolved names: each is its home module's object."""
import importlib

import pytest

import regdeph
import regdeph.cli
import regdeph.codes

PUBLIC = [name for name in regdeph.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"regdeph.{regdeph._HOME[name]}")
    assert getattr(regdeph, name) is getattr(home, name)
    assert name in home.__all__


def test_dir_star_import_and_unknown_names():
    assert set(regdeph.__all__) <= set(dir(regdeph))
    assert sorted(regdeph._HOME) == sorted(PUBLIC)
    namespace = {}
    exec("from regdeph import *", namespace)
    assert all(namespace[name] is getattr(regdeph, name) for name in regdeph.__all__)
    for module in (regdeph, regdeph.cli, regdeph.codes):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018


def test_states_are_reexported_by_core():
    from regdeph import core, states

    assert core.BasisLabel is states.BasisLabel is regdeph.BasisLabel
    assert core.RegisterState is states.RegisterState is regdeph.RegisterState


@pytest.mark.parametrize("module, name, home", [
    ("cli", "fidelity_curve", "core"),
    ("cli", "factor_curves", "core"),
    ("cli", "classify", "regimes"),
    ("cli", "disorder_average_weights", "regimes"),
    ("cli", "spectral_moments", "bath"),
    ("codes", "pair_factors", "core"),
])
def test_module_attributes_follow_the_home_modules_current_binding(monkeypatch, module, name,
                                                                     home):
    # a tool that rebinds the home module's function, as a tracer does, is seen through
    # the other module's attribute, and its restore is too
    module, home = (importlib.import_module(f"regdeph.{m}") for m in (module, home))
    original = getattr(home, name)
    assert getattr(module, name) is original
    monkeypatch.setattr(home, name, object())
    assert getattr(module, name) is getattr(home, name)
    monkeypatch.undo()
    assert getattr(module, name) is original
