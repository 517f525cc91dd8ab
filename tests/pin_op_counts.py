"""Operation counts of every benchmark pool job, and the script that pins them.

    PYTHONPATH=src python tests/pin_op_counts.py

rewrites tests/golden/op_counts.json.  Each job runs in-process through
qheis.cli.run with every qheis cache cleared first, as in a fresh process,
and with counting wrappers around the kernels below; the golden records, per
job, the calls of each and the bytes the job prints.  The counts repeat
exactly, so more work on any job shows where wall times are too noisy to.
A change that moves a count re-pins the golden and records the old and new
totals.  test_qscalar.py::test_kernel_call_counts_of_two_fixed_commands
recomputes every entry; pytest does not collect this file.
"""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import sys

import qheis.heisenberg as heisenberg
import qheis.qscalar as qscalar
import qheis.termalg as termalg
import qheis.verma as verma
from qheis.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "op_counts.json"

# (owner, counter name, attribute names): a reflected alias shares its
# operator's wrapper and count
COUNTED = [(qscalar, name, (name,)) for name in
           ("_pgcd", "_pdiv_exact", "_pmul", "_power_product", "_int_divmod")] + [
    (qscalar.Scalar, "Scalar.__add__", ("__add__", "__radd__")),
    (qscalar.Scalar, "Scalar.__mul__", ("__mul__", "__rmul__")),
    (qscalar.Scalar, "Scalar.__truediv__", ("__truediv__",)),
    (termalg, "termalg._find_descent", ("_find_descent",)),
    (heisenberg, "heisenberg.invert", ("invert",)),
    (verma, "verma._multiply_in", ("_multiply_in",)),
]


def _load_pools():
    path = ROOT / "benchmark" / "pools.py"
    spec = importlib.util.spec_from_file_location("qheis_bench_pools", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _groups():
    # the two commands pinned first keep their place, then both pools in order
    pools = _load_pools()
    fixed = [cmd.split() for cmd in ("heis-verify --type B --rank 3 --max-k 2",
                                     "weyl-verify --type G --rank 2 --level -2 --max-k 3")]
    return {group: {pools.job_key(argv): argv for argv in jobs}
            for group, jobs in [("fixed", fixed), *pools.POOLS.items()]}


GROUPS = _groups()
JOBS = {key: argv for jobs in GROUPS.values() for key, argv in jobs.items()}


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("qheis."):
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
    verma._PARTITION_SERIES.clear()


@contextlib.contextmanager
def _counting(counts):
    saved = [(owner, attr, vars(owner)[attr]) for owner, _, attrs in COUNTED for attr in attrs]
    try:
        for owner, name, attrs in COUNTED:
            def counted(*args, _name=name, _kernel=getattr(owner, attrs[0])):
                counts[_name] += 1
                return _kernel(*args)
            for attr in attrs:
                setattr(owner, attr, counted)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def count_ops(argv):
    """(exit code, {counter: calls, "stdout_bytes": n}) of one in-process run."""
    _clear_caches()
    counts = dict.fromkeys((name for _, name, _ in COUNTED), 0)
    out = io.StringIO()
    with _counting(counts), contextlib.redirect_stdout(out):
        code = run(argv)
    counts["stdout_bytes"] = len(out.getvalue().encode())
    return code, counts


def main():
    os.environ.pop("QAFF_FORMAT", None)
    golden = {}
    for key, argv in JOBS.items():
        code, golden[key] = count_ops(argv)
        if code:
            print(f"exit {code}: {key}")
            return 1
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    for group, jobs in GROUPS.items():
        totals = {name: sum(golden[key][name] for key in jobs) for name in golden[key]}
        print(f"{group} ({len(jobs)} jobs): {json.dumps(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
