"""Each module's __all__ and the package's imports name the same live objects."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import levelcross

MODULES = sorted(m.name for m in pkgutil.iter_modules(levelcross.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"levelcross.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"levelcross.{name}.__all__ names missing {attr}"


def test_package_imports_are_exported_by_their_modules():
    tree = ast.parse(Path(levelcross.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"levelcross.{node.module}").__all__
        for alias in node.names:
            assert alias.name in exported, f"levelcross.{node.module} does not export {alias.name}"


def test_oracles_import_nothing_from_the_package():
    # An oracle that imported the package would check it against itself.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert all(name.partition(".")[0] != "levelcross" for name in names), names
