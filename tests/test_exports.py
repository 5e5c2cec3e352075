"""Export lists: every name a module exports exists, and the package re-exports only exports."""

import ast
import importlib
from pathlib import Path

import pytest

import inaclink

PACKAGE_DIR = Path(inaclink.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _eager_imports():
    """Each name inaclink/__init__.py imports from a sibling module."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def _exports(module):
    """A module's __all__, or its public names if it has none (errors)."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"inaclink.{name}")
    if not hasattr(module, "__all__"):
        pytest.skip(f"inaclink.{name} has no __all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_all_lists_every_reexport():
    eager = _eager_imports()
    assert "cascaded_moments" in eager  # the parse found them
    assert "sample_cascaded_gains" in inaclink._LAZY
    assert len(set(inaclink.__all__)) == len(inaclink.__all__)
    assert [n for n in [*eager, *inaclink._LAZY] if n not in inaclink.__all__] == []


def test_package_reexports_only_exports():
    # getattr reaches a lazy name through the package's __getattr__, so a
    # stale one fails here as well as an eager one
    modules = [importlib.import_module(f"inaclink.{name}") for name in MODULES]
    stale = [name for name in inaclink.__all__
             if not hasattr(inaclink, name)
             or not any(name in _exports(m) and getattr(m, name) is getattr(inaclink, name)
                        for m in modules)]
    assert stale == []
