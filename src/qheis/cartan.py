"""Affine Cartan data for the untwisted series and the finite root systems.

The affine matrix is assembled uniformly: the finite Cartan matrix of the
given series, read off one table of Dynkin diagrams, the finite positive
roots by reflection closure, and the extra node attached through the
highest root in closed form.  The finite symmetrizers are computed from the
matrix itself (they are determined up to the coprimality normalization) and
the extra node takes the highest root's, so the diagrams are the only
per-type table; known matrices serve only as test oracles.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm


class InvalidType(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


def _finite_gcm(series, n):
    # Kac, Table Fin, on nodes 1..n.  Each series gives its valid ranks, its
    # fork (a node left off the chain of simple bonds, and the node it hangs
    # on: D hangs node n on node n - 2, E node 2 on node 4), and its one
    # multiple bond as (row, column, a_ij)
    valid, fork, bond = {
        "A": (n >= 1, None, None),
        "B": (n >= 3, None, (n, n - 1, -2)),
        "C": (n >= 2, None, (n - 1, n, -2)),
        "D": (n >= 4, (n, n - 2), None),
        "E": (n in (6, 7, 8), (2, 4), None),
        "F": (n == 4, None, (3, 2, -2)),
        "G": (n == 2, None, (2, 1, -3)),
    }.get(series, (False, None, None))
    if not valid:
        raise InvalidType(f"unsupported untwisted type {series}_{n}")
    chain = [i for i in range(1, n + 1) if not fork or i != fork[0]]
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in list(zip(chain, chain[1:])) + ([fork] if fork else []):
        A[i - 1][j - 1] = A[j - 1][i - 1] = -1
    if bond:
        i, j, aij = bond
        A[i - 1][j - 1] = aij
    return A


def _symmetrizers(A):
    # positive coprime integers d with diag(d)A symmetric; every diagram of
    # the table is connected, so the walk from node 1 reaches every node
    m = len(A)
    d = [None] * m
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(m):
            if i != j and A[i][j] != 0 and d[j] is None:
                d[j] = d[i] * A[i][j] / A[j][i]
                todo.append(j)
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _root_closure(A):
    # full orbit of the simple roots under simple reflections
    n = len(A)
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        root = frontier.pop()
        for i in range(n):
            pairing = sum(A[i][j] * root[j] for j in range(n))
            new = list(root)
            new[i] -= pairing
            new = tuple(new)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return seen


@cache
def _positive_roots(A: tuple) -> tuple:
    # one closure per finite Cartan matrix (a tuple of tuples), shared by
    # load_type and positive_roots
    pos = [r for r in _root_closure(A) if all(c >= 0 for c in r)]
    pos.sort(key=lambda r: (sum(r), r))
    return tuple(pos)


class FiniteRoot(namedtuple("FiniteRoot", "coeffs")):
    """A finite root as integer coefficients over the simple roots."""

    __slots__ = ()


class CartanData(namedtuple("CartanData", "series rank gcm d")):
    """Untwisted affine Cartan matrix with symmetrizers; node 0 is the affine node."""

    __slots__ = ()

    @property
    def finite_gcm(self):
        return tuple(tuple(row[1:]) for row in self.gcm[1:])

    def bilinear(self, i, j):
        n = self.rank
        if not (0 <= i <= n and 0 <= j <= n):
            raise IndexOutOfRange(f"node index out of range: ({i}, {j})")
        return self.d[i] * self.gcm[i][j]

    def to_json(self):
        return {
            "series": self.series,
            "rank": self.rank,
            "gcm": [list(row) for row in self.gcm],
            "d": list(self.d),
        }


def load_type(series: str, rank: int) -> CartanData:
    """The standard untwisted affine Cartan data for the given series and rank."""
    fin = tuple(map(tuple, _finite_gcm(series, rank)))
    fd = _symmetrizers(fin)
    theta = _positive_roots(fin)[-1]  # unique root of maximal height, a long root
    # node 0 is alpha_0 = delta - theta: a_j0 = -(A theta)_j, d_0 = d(theta) =
    # max(d), and a_0j = d_j a_j0 / d_0 from the symmetry of d_i a_ij
    col0 = [-sum(a * t for a, t in zip(fin[j], theta)) for j in range(rank)]
    d = (max(fd),) + fd
    row0 = [2] + [fd[j] * col0[j] // d[0] for j in range(rank)]
    gcm = [row0] + [[col0[j]] + list(fin[j]) for j in range(rank)]
    nodes = range(rank + 1)
    if not all(gcm[i][i] == 2 for i in nodes) or not all(
            d[i] * gcm[i][j] == d[j] * gcm[j][i]
            and (i == j or gcm[i][j] <= 0 and (gcm[i][j] == 0) == (gcm[j][i] == 0))
            for i in nodes for j in nodes):
        raise InvalidType(f"{series}_{rank} does not give a symmetrizable GCM")
    return CartanData(series, rank, tuple(tuple(r) for r in gcm), d)


def positive_roots(cd: CartanData):
    """All finite positive roots, sorted by height then lexicographically."""
    return [FiniteRoot(r) for r in _positive_roots(cd.finite_gcm)]
