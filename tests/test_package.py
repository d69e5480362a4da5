"""The package namespace: what `import kinktrap` exports."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kinktrap

SUBMODULES = ("dynamics", "integrator", "linearized", "scattering", "sweep")


def test_all_is_the_version_and_each_submodules_names_in_order():
    expected = ["__version__"]
    for name in SUBMODULES:
        expected += sorted(importlib.import_module(f"kinktrap.{name}").__all__)
    assert kinktrap.__all__ == expected
    assert len(expected) == 35 and len(set(expected)) == 35
    assert expected[:3] == ["__version__", "CMState", "CoincidentParticles"]
    assert expected[-3:] == ["grid_v0", "sensitivity", "sweep"]
    assert not {"zoom", "ZoomRow"} & set(dir(kinktrap))


def test_every_exported_name_resolves_to_its_submodules_object():
    assert isinstance(kinktrap.__version__, str)
    for name in SUBMODULES:
        module = importlib.import_module(f"kinktrap.{name}")
        for export in module.__all__:
            assert getattr(kinktrap, export) is getattr(module, export), export


def test_sweep_is_the_function_not_the_submodule():
    assert isinstance(kinktrap.sweep, types.FunctionType)
    assert kinktrap.sweep is importlib.import_module("kinktrap.sweep").sweep


def _module_level_imports(tree):
    """(bound name, line) for each import in the module's body, looking into
    if/try/with blocks but not into functions or classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


def test_no_module_level_import_is_unused():
    """Every name a module imports at module level is read somewhere in it;
    a string in __all__ counts as a read."""
    unused = []
    for path in sorted(Path(kinktrap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(elt.value for elt in ast.walk(node.value)
                            if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _module_level_imports(tree) if name not in used]
    assert unused == []


def test_the_package_needs_no_numpy():
    """No module imports numpy, at module level, in a function or under
    TYPE_CHECKING, and the project declares no runtime dependency."""
    found = []
    root = Path(kinktrap.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert found == []
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


# Runs under python -S with src first on sys.path: imports the command line
# and prints the kernel backend and which of the named modules got loaded.
STARTUP_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
import kinktrap.cli
names = ("dataclasses", "inspect", "numpy", "typing", "pathlib", "shutil", "subprocess")
print(kinktrap.cli._kernels.BACKEND, sorted(name for name in names if name in sys.modules))
"""


def test_the_command_line_starts_without_dataclasses_inspect_or_numpy():
    """Each of them costs every CLI process its import; dataclasses alone
    brings inspect, ast, dis and tokenize.  typing, pathlib, shutil and
    subprocess too, where site does not import them first: annotations stay
    text and the kernel library is found with os.path.  Only a build imports
    shutil and subprocess, so with the C library already built they are not
    loaded, and without gcc every process tries a build and loads exactly
    those two."""
    src = str(Path(kinktrap.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP_IMPORTS, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    backend, loaded = proc.stdout.strip().split(" ", 1)
    assert backend == kinktrap._kernels.BACKEND
    assert loaded == {"c": "[]", "python": "['shutil', 'subprocess']"}[backend]
