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
from hypothesis import given, settings
from hypothesis import strategies as st

import qheis
from qheis.heisenberg import (central_bracket, gamma_bracket, oscillator_table,
                              single_heisenberg_table)
from qheis.linalg import identity
from qheis.qscalar import qfactorial, qint, s_power
from qheis.termalg import a_gen, d_gen, h_gen, hp_gen, x_gen
from qheis.verma import Truncation, partition_count, partition_series
from qheis.weyliso import WeylIsomorphism

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


# every public function and value class that takes only ints, with its arity
INT_CALLS = [
    (s_power, 1), (qint, 2), (qfactorial, 2),
    (gamma_bracket, 2), (central_bracket, 2), (oscillator_table, 1),
    (single_heisenberg_table, 1),
    (h_gen, 2), (hp_gen, 2), (a_gen, 1), (x_gen, 2), (d_gen, 2),
    (identity, 1), (partition_count, 1), (partition_series, 2), (Truncation, 2),
    (WeylIsomorphism, 1),
]
# 0, +-1, and 9, one past the largest rank of a supported type (E8)
BOUNDARY = st.sampled_from([0, 1, -1, 9])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_int_arguments_at_the_boundary_return_or_raise_a_value_error(data):
    call, arity = data.draw(st.sampled_from(INT_CALLS))
    args = [data.draw(BOUNDARY) for _ in range(arity)]
    try:
        call(*args)
    except ValueError:
        pass
