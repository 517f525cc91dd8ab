"""The public API is what the modules export and what README's library sketch uses."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import qheis

README = pathlib.Path(__file__).parent.parent / "README.md"
MODULES = sorted(f"qheis.{m.name}" for m in pkgutil.iter_modules(qheis.__path__))


def _library_sketch():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("modname", ["qheis"] + MODULES)
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{modname}.__all__ names missing {name!r}"


def test_package_exports_exactly_what_the_sketch_imports():
    imported = set()
    for node in ast.walk(ast.parse(_library_sketch())):
        if isinstance(node, ast.ImportFrom) and node.module == "qheis":
            imported.update(alias.name for alias in node.names)
    assert imported == set(qheis.__all__)
    assert qheis.__version__


def test_library_sketch_runs():
    exec(compile(_library_sketch(), str(README), "exec"), {})
