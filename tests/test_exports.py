"""Export lists: every name a module exports exists, and the package re-exports only exports."""

import ast
import importlib
from pathlib import Path

import pytest

import inaclink

PACKAGE_DIR = Path(inaclink.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _package_imports():
    """(module, name) of each name inaclink/__init__.py imports from a sibling module."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"inaclink.{name}")
    if not hasattr(module, "__all__"):
        pytest.skip(f"inaclink.{name} has no __all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_exports():
    imports = _package_imports()
    assert ("channel", "cascaded_moments") in imports  # the parse found them
    stale = [f"{mod}.{name}" for mod, name in imports
             if hasattr(module := importlib.import_module(f"inaclink.{mod}"), "__all__")
             and name not in module.__all__]
    assert stale == []
