import importlib
import pkgutil

import pytest

import dynetlogit

MODULES = sorted(m.name for m in pkgutil.iter_modules(dynetlogit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"dynetlogit.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
    exec(f"from dynetlogit.{name} import *", {})


def test_package_star_import():
    names = {}
    exec("from dynetlogit import *", names)
    assert "build_design" in names
