"""Fixed job pools of the two workloads.

Every job is one argv list for ``qheis.cli.run``.  A round runs the whole
pool once in an order drawn from the run's seed, so the seed changes the
order of the jobs but never which jobs run.  Sizes were chosen so that no
job takes much more than 3 s on a 2-core machine.

The ``symbolic`` workload is the relation-verification jobs and the Gram
jobs together.  They were two workloads at first; one workload gets twice
the run length within the same time budget, which the noise of a shared
machine needs.
"""

from __future__ import annotations

import random


def _heis(t, r, k, *extra):
    return ["heis-verify", "--type", t, "--rank", str(r), "--max-k", str(k), *extra]


def _weyl(t, r, level, k, *extra):
    return ["weyl-verify", "--type", t, "--rank", str(r), "--level", str(level),
            "--max-k", str(k), *extra]


def _irred(phi, level, n, e):
    return ["verma-irred", "--phi", phi, "--level", str(level),
            "--max-index", str(n), "--max-exp", str(e)]


# Relation verification: rational-function arithmetic on the gcd path,
# commutators of linear elements, and the structure-matrix inverse.
VERIFY = [
    _heis("A", 1, 6),
    _heis("A", 1, 4, "--level", "2"),
    _heis("A", 2, 3, "--level", "-1"),
    _heis("C", 2, 5, "--level", "2"),
    _heis("G", 2, 6),
    _heis("G", 2, 3, "--convention", "drinfeld"),
    _heis("B", 3, 4),
    _heis("C", 3, 2, "--convention", "drinfeld", "--level", "3"),
    _heis("F", 4, 1, "--convention", "drinfeld"),
    _heis("E", 6, 1),
    _weyl("A", 1, -3, 6),
    _weyl("G", 2, -2, 5),
    _weyl("B", 3, 2, 4),
    _weyl("C", 3, 3, 3, "--convention", "drinfeld"),
    _weyl("D", 4, -1, 2),
]

# Gram determinants of imaginary Verma-type modules: long words through the
# rewriting engine, Laurent-polynomial coefficients and det of Gram blocks.
GRAM = [
    _irred("+", 0, 6, 6),
    _irred("-", 0, 5, 5),
    _irred("+-:+", 0, 6, 6),
    _irred("+", 1, 6, 6),
    _irred("-", -1, 6, 6),
    _irred("-", 1, 4, 4),
    _irred("+", 2, 4, 4),
    _irred("-", 2, 5, 5),
    _irred("-", -2, 6, 4),
    _irred("+", -2, 6, 5),
    _irred("+", 3, 5, 5),
    _irred("-", -3, 4, 6),
    _irred("+", -3, 6, 3),
    _irred("+-:+", 1, 3, 3),
    _irred("+-:+", 1, 4, 3),
    _irred("+-:+", -2, 3, 4),
    _irred("+-:+", 3, 3, 3),
]

# Integer counting only: loop-module multiplicities, graded dimensions,
# root closure, quantum integers, and CLI argparse/JSON overhead.
COUNT = [
    ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k", "0", "--window", "3"],
    ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,1", "--k-sweep=-3:3", "--window", "3"],
    ["loop-mult", "--type", "A", "--rank", "2", "--beta", "2,1", "--k", "0", "--window", "4"],
    ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,0", "--k-sweep=-3:3", "--window", "3",
     "--vdims", '{"0": 1, "1": 2, "-1": 1}'],
    ["loop-mult", "--type", "A", "--rank", "2", "--beta", "0,0", "--k-sweep=-4:4", "--window", "3",
     "--phi", "+-:+"],
    ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,1", "--k-sweep=-3:3", "--window", "3",
     "--phi", "+-:+", "--level", "2"],
    ["loop-mult", "--type", "A", "--rank", "3", "--beta", "1,1,1", "--k", "0", "--window", "2"],
    ["loop-mult", "--type", "A", "--rank", "3", "--beta", "1,2,1", "--k-sweep=-4:4", "--window", "4",
     "--phi", "+-:+"],
    ["loop-mult", "--type", "A", "--rank", "4", "--beta", "1,1,1,1", "--k", "0", "--window", "4"],
    ["loop-mult", "--type", "B", "--rank", "3", "--beta", "1,1,1", "--k", "0", "--window", "3",
     "--phi", "-"],
    ["loop-mult", "--type", "C", "--rank", "2", "--beta", "1,1", "--k", "1", "--window", "4",
     "--phi", "-"],
    ["loop-mult", "--type", "C", "--rank", "3", "--beta", "1,1,1", "--k", "0", "--window", "3"],
    ["loop-mult", "--type", "G", "--rank", "2", "--beta", "1,1", "--k-sweep=-2:2", "--window", "3"],
    ["loop-mult", "--type", "F", "--rank", "4", "--beta", "1,1,1,1", "--k", "0", "--window", "2"],
    ["loop-mult", "--type", "D", "--rank", "4", "--beta", "1,1,1,1", "--k", "0", "--window", "2"],
    ["loop-mult", "--type", "D", "--rank", "4", "--beta", "1,2,1,1", "--k-sweep=-3:3", "--window", "3"],
    ["loop-mult", "--type", "E", "--rank", "6", "--beta", "1,1,1,1,1,1", "--k", "0", "--window", "2"],
    ["loop-mult", "--type", "E", "--rank", "6", "--beta", "1,1,2,2,1,1", "--k", "0", "--window", "2"],
    ["verma-dims", "--phi", "+", "--level", "1", "--max-index", "12", "--max-exp", "12"],
    ["verma-dims", "--phi", "+-:+", "--level", "1", "--max-index", "12", "--max-exp", "12"],
    ["verma-dims", "--phi", "-", "--level", "2", "--max-index", "8", "--max-exp", "8"],
    ["verma-dims", "--phi=-+:-", "--level", "-1", "--max-index", "10", "--max-exp", "6",
     "--from-degree", "-5", "--to-degree", "5"],
    ["cartan", "--type", "A", "--rank", "4", "--roots"],
    ["cartan", "--type", "B", "--rank", "4", "--roots"],
    ["cartan", "--type", "C", "--rank", "3", "--roots"],
    ["cartan", "--type", "D", "--rank", "5", "--roots"],
    ["cartan", "--type", "E", "--rank", "6", "--roots"],
    ["cartan", "--type", "E", "--rank", "7", "--roots"],
    ["cartan", "--type", "E", "--rank", "8", "--roots"],
    ["cartan", "--type", "F", "--rank", "4", "--roots"],
    ["cartan", "--type", "G", "--rank", "2", "--roots"],
    ["qnum", "--n", "7", "--d", "2"],
    ["qnum", "--n", "12", "--d", "1"],
    ["qnum", "--n", "5", "--d", "3", "--at-q1"],
    ["qnum", "--n", "-4", "--d", "2"],
]

POOLS = {"symbolic": VERIFY + GRAM, "count": COUNT}


def job_key(argv) -> str:
    """The stable name of a job: its argv joined by single spaces."""
    return " ".join(argv)


def round_order(pool_size: int, seed: int, round_index: int):
    """A permutation of the pool, fixed by (seed, round index)."""
    order = list(range(pool_size))
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order
