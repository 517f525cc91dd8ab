"""Affine Cartan data for the untwisted series and the finite root systems.

The affine matrix is assembled uniformly: the finite Cartan matrix of the
given series, the finite positive roots by reflection closure, and the
extra node attached through the highest root.  Symmetrizers are computed
from the matrix itself (they are determined up to the coprimality
normalization), so no per-type tables are hard-coded; known tables serve
only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class InvalidType(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 3,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _finite_gcm(series, n):
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        # 1-based node labels
        A[i - 1][j - 1] = aij
        A[j - 1][i - 1] = aji

    if series in ("A", "B", "C"):
        for i in range(1, n):
            link(i, i + 1)
        if series == "B":
            A[n - 1][n - 2] = -2  # last node short
        if series == "C":
            A[n - 2][n - 1] = -2  # last node long
    elif series == "D":
        for i in range(1, n - 1):
            link(i, i + 1)
        link(n - 2, n)
    elif series == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n >= 7:
            edges.append((6, 7))
        if n == 8:
            edges.append((7, 8))
        for i, j in edges:
            link(i, j)
    elif series == "F":
        link(1, 2)
        link(2, 3)
        link(3, 4)
        A[2][1] = -2  # nodes 3,4 short
    elif series == "G":
        link(1, 2)
        A[1][0] = -3  # node 2 short
    return A


def _symmetrizers(A):
    # positive coprime integers d with diag(d)A symmetric; the matrix must
    # describe a connected diagram
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
    if any(x is None for x in d):
        raise InvalidType("disconnected diagram")
    denom_lcm = 1
    for x in d:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
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


def _positive_roots(A):
    pos = [r for r in _root_closure(A) if all(c >= 0 for c in r)]
    pos.sort(key=lambda r: (sum(r), r))
    return pos


@dataclass(frozen=True)
class FiniteRoot:
    """A finite root as integer coefficients over the simple roots."""

    coeffs: tuple


@dataclass(frozen=True)
class CartanData:
    """Untwisted affine Cartan matrix with symmetrizers; node 0 is the affine node."""

    series: str
    rank: int
    gcm: tuple
    d: tuple

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
    check = _RANK_OK.get(series)
    if check is None or not check(rank):
        raise InvalidType(f"unsupported untwisted type {series}_{rank}")
    fin = _finite_gcm(series, rank)
    fd = _symmetrizers(fin)
    pos = _positive_roots(fin)
    theta = pos[-1]  # unique root of maximal height

    def pair(root, j):
        # (root | alpha_{j+1}) with 0-based j
        return sum(root[c] * fd[c] * fin[c][j] for c in range(rank))

    tp = [pair(theta, j) for j in range(rank)]
    tsq = sum(theta[j] * tp[j] for j in range(rank))
    row0 = [2]
    col0 = []
    for j in range(rank):
        a0j = Fraction(-2 * tp[j], tsq)
        aj0 = Fraction(-tp[j], fd[j])
        if a0j.denominator != 1 or aj0.denominator != 1:
            raise InvalidType(f"non-integral affine node entries for {series}_{rank}")
        row0.append(int(a0j))
        col0.append(int(aj0))
    gcm = [row0] + [[col0[j]] + list(fin[j]) for j in range(rank)]
    d = _symmetrizers(gcm)
    nodes = range(rank + 1)
    if not all(gcm[i][i] == 2 for i in nodes) or not all(
            d[i] * gcm[i][j] == d[j] * gcm[j][i]
            and (i == j or gcm[i][j] <= 0 and (gcm[i][j] == 0) == (gcm[j][i] == 0))
            for i in nodes for j in nodes):
        raise InvalidType(f"{series}_{rank} does not give a symmetrizable GCM")
    return CartanData(series, rank, tuple(tuple(r) for r in gcm), d)


def positive_roots(cd: CartanData):
    """All finite positive roots, sorted by height then lexicographically."""
    return [FiniteRoot(r) for r in _positive_roots([list(r) for r in cd.finite_gcm])]
