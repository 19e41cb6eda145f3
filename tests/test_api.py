"""The public API asks for each fact once."""

import importlib
import inspect

import pytest


@pytest.mark.parametrize(
    "module_name", ["cayley", "cosetgraph", "metrics", "ends", "lifting", "homotopy"]
)
def test_no_function_takes_a_spec_beside_a_ball_or_patch(module_name):
    # a ball or patch carries its group as .spec; a second copy could disagree
    module = importlib.import_module(f"cosetgeom.{module_name}")
    offenders = []
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        params = inspect.signature(obj).parameters
        if "spec" in params and ("ball" in params or "patch" in params):
            offenders.append(name)
    assert offenders == []
