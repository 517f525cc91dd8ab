"""The public API is what the modules export and what README's library sketch uses."""

import ast
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
from qheis.cartan import load_type, positive_roots
from qheis.heisenberg import (HeisenbergAlgebra, central_bracket, gamma_bracket,
                              oscillator_table, relation_table, single_heisenberg_table,
                              verify_canonical_relations)
from qheis.linalg import identity
from qheis.loopweights import GradedDims, phi_verma_weight_dim
from qheis.qscalar import ONE, qfactorial, qint, s_power
from qheis.termalg import AlgebraElement, GenId, a_gen, d_gen, h_gen, hp_gen, x_gen
from qheis.verma import PhiSignature, Truncation, build_module, partition_count, partition_series
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


@pytest.mark.parametrize("modname", ["qheis"] + MODULES)
def test_every_imported_name_is_used_or_exported(modname):
    module = importlib.import_module(modname)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and
                getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - set(getattr(module, "__all__", ())) == set()


def _values():
    """One instance of each value class, keyed by its class."""
    cd = load_type("A", 1)
    alg = HeisenbergAlgebra(cd)
    module = build_module(PhiSignature.parse("+"), 1, Truncation(2, 2))
    report = module.graded_dim(0)
    values = [cd, positive_roots(cd)[0], alg, verify_canonical_relations(alg, 1)[0],
              relation_table(alg), h_gen(1, 1), AlgebraElement.from_scalar(ONE), ONE,
              GradedDims({0: 1}), WeylIsomorphism(1), module, module.phi, module.truncation,
              report, report.verdict, module.irreducible_at_truncation(),
              phi_verma_weight_dim(cd, module.phi, (1,), 0, 1, module.truncation)]
    return {type(v): v for v in values}


def _fields(value):
    """The public data attributes of a value: every public name but its methods."""
    return [name for name in dir(value) if not name.startswith("_")
            and not inspect.ismethod(attr := getattr(value, name)) and not inspect.isbuiltin(attr)]


@pytest.mark.parametrize("modname", MODULES)
def test_every_class_is_immutable(modname):
    # README promises that all values are immutable after construction:
    # assigning a field, or any new attribute, raises
    module = importlib.import_module(modname)
    values = _values()
    for _, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ != modname or issubclass(cls, (BaseException, enum.Enum)):
            continue
        assert cls in values and _fields(values[cls]), cls.__qualname__
        for name in _fields(values[cls]) + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(values[cls], name, None)


def test_make_and_replace_run_the_constructor_checks():
    # namedtuple's _make, which _replace calls, builds through __new__
    alg = HeisenbergAlgebra(load_type("A", 1))
    for build in [lambda: Truncation(1, 1)._replace(max_index=0),
                  lambda: GenId._make(("h", 1, 0)),
                  lambda: PhiSignature._make(((), ())),
                  lambda: WeylIsomorphism._make((0,)),
                  lambda: alg._replace(level=0),
                  lambda: alg._replace(convention="bogus")]:
        with pytest.raises(ValueError):
            build()
    assert Truncation(1, 1)._replace(max_exponent=3) == Truncation(1, 3)
    assert alg._replace(level=2) == HeisenbergAlgebra(alg.cartan, level=2)
    assert WeylIsomorphism._make((2,)).level == 2


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
