"""Every name a module of the package imports is read in that module.

``__init__.py`` is exempt, since its imports are the public re-exports, and
so are ``from __future__`` imports, which bind nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilforms"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """The names the module's imports bind, each with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read(tree):
    """The names the module reads anywhere, annotations included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport os.path\nos.sep\n")
    read = _read(tree)
    assert [name for name, _ in _imported(tree) if name not in read] == ["Fraction"]


def test_only_exterior_core_sums_terms_by_hand():
    """A sparse linear combination outside the form type's own arithmetic
    goes through ``linalg.apply``: no other module binds ``_add_term`` or
    reads it as an attribute."""
    users = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "exterior_core.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(name == "_add_term" for name, _ in _imported(tree)) or any(
                isinstance(node, ast.Attribute) and node.attr == "_add_term"
                for node in ast.walk(tree)):
            users.append(path.name)
    assert not users, f"modules that sum terms with _add_term: {sorted(users)}"


def test_all_lists_only_public_names():
    import nilforms

    modules = [name for name in nilforms.__all__
               if isinstance(getattr(nilforms, name), ModuleType)]
    assert not modules, f"__all__ lists submodules: {modules}"
    removed = {"poly_d", "pullback", "PolyMap", "serialize_json", "parse_json",
               "hodge_star", "codifferential", "IrrationalVolume", "NotUnimodular",
               "euclidean_metric", "fundamental_form", "direct_sum", "skew_matrix",
               "PolyForm", "parse_scalar", "Scalar"}
    assert not removed & set(nilforms.__all__)
