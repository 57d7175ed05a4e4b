import importlib
import pkgutil

import pytest

import approxrate

MODULES = sorted(info.name for info in pkgutil.iter_modules(approxrate.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"approxrate.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
