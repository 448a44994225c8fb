"""Package-level checks: every module's public names resolve."""

import importlib
import pkgutil

import pytest

import doublephase


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(doublephase.__path__)))
def test_star_import_resolves_every_export(module):
    # a name left in __all__ after its definition is deleted fails here
    namespace = {}
    exec(f"from doublephase.{module} import *", namespace)
    exported = importlib.import_module(f"doublephase.{module}").__all__
    assert set(exported) <= set(namespace)
