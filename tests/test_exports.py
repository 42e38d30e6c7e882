"""Every public name a photonsim module declares must exist, so a deletion
that leaves an ``__all__`` entry or a package export behind fails here and
not in a user's import."""

import importlib
import pkgutil

import pytest

import photonsim

MODULES = ["photonsim", *sorted(f"photonsim.{m.name}" for m in pkgutil.iter_modules(photonsim.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
