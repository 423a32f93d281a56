"""Each library module's ``__all__`` lists exactly the public functions and
classes it defines: no public name is left out, and no stale name stays
after its definition is gone."""

import importlib
import inspect

import pytest

LIBRARY = ("numerics", "models", "attacks", "generator", "interaction", "harness")


@pytest.mark.parametrize("layer", LIBRARY)
def test_all_lists_exactly_the_public_functions_and_classes(layer):
    module = importlib.import_module(f"advgrad.{layer}")
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    assert sorted(module.__all__) == sorted(defined)
