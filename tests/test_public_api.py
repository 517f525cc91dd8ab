"""The public API is what the modules export and what README's library sketch uses."""

import ast
import dataclasses
import enum
import importlib
import inspect
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


def _is_immutable(cls):
    return (issubclass(cls, (BaseException, enum.Enum))
            or (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)
            or "__slots__" in vars(cls))


@pytest.mark.parametrize("modname", MODULES)
def test_every_class_is_immutable(modname):
    # README promises that all values are immutable after construction
    module = importlib.import_module(modname)
    classes = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == modname]
    assert [cls.__qualname__ for cls in classes if not _is_immutable(cls)] == []
