"""The package namespace: what `import kinktrap` exports."""

import importlib
import types

import kinktrap

SUBMODULES = ("dynamics", "integrator", "linearized", "scattering", "sweep")


def test_all_is_the_version_and_each_submodules_names_in_order():
    expected = ["__version__"]
    for name in SUBMODULES:
        expected += sorted(importlib.import_module(f"kinktrap.{name}").__all__)
    assert kinktrap.__all__ == expected
    assert len(expected) == 42 and len(set(expected)) == 42
    assert expected[:3] == ["__version__", "CMState", "CoincidentParticles"]
    assert expected[-3:] == ["sensitivity", "sweep", "zoom"]


def test_every_exported_name_resolves_to_its_submodules_object():
    assert isinstance(kinktrap.__version__, str)
    for name in SUBMODULES:
        module = importlib.import_module(f"kinktrap.{name}")
        for export in module.__all__:
            assert getattr(kinktrap, export) is getattr(module, export), export


def test_sweep_is_the_function_not_the_submodule():
    assert isinstance(kinktrap.sweep, types.FunctionType)
    assert kinktrap.sweep is importlib.import_module("kinktrap.sweep").sweep
