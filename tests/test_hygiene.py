"""Package hygiene: export lists match the modules, no ``assert`` in src, and
the README calls only names the package has."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import orbitforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(orbitforge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_existing_names(name):
    module = importlib.import_module(f"orbitforge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"orbitforge.{name}")
    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


def test_no_assert_statements_in_src():
    # a certification that rests on assert vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_readme_calls_resolve():
    # a code span written as `name(...)` names a function of the package
    readme = Path(__file__).resolve().parent.parent / "README.md"
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", readme.read_text()))
    assert called
    assert sorted(n for n in called if not hasattr(orbitforge, n)) == []
