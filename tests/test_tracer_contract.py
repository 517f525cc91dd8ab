"""The benchmark's tracer wraps package attributes by name; every name it
lists must still resolve, or ``benchmark/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("qheis_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("span,modname,attr", tracer.FUNCTIONS)
def test_traced_function_resolves(span, modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("span,attr", tracer.METHODS)
def test_traced_method_is_defined_on_verma_module(span, attr):
    from qheis.verma import VermaModule

    assert callable(VermaModule.__dict__[attr])


def test_traced_scalar_operators_are_defined_on_scalar():
    from qheis.qscalar import Scalar

    for attr in tracer.SCALAR_OPS:
        assert callable(Scalar.__dict__[attr])


def test_cached_helpers_expose_cache_info():
    from qheis.heisenberg import structure_constant
    from qheis.qscalar import qint

    for fn in (qint, structure_constant):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0
