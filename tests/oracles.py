"""Slow, independent routes that the tests compare the package against."""

import importlib.util
import pathlib


def convolve(a, b):
    """The product of two {degree: count} series, by dense convolution."""
    out = {}
    for m, c in a.items():
        for n, d in b.items():
            out[m + n] = out.get(m + n, 0) + c * d
    return out


def partition_table(n):
    """[p(0), ..., p(n)], the partition numbers, by adding one part size at a time."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table


def load_benchmark_oracle():
    """benchmark/oracle.py: the benchmark's independent check of every CLI output."""
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "oracle.py"
    spec = importlib.util.spec_from_file_location("qheis_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
