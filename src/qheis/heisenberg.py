"""The imaginary-root Heisenberg algebra in its loop presentation.

Provides the structure constants and their exact inverse matrix, the primed
change of variables on the negative generators, symbolic verification of the
decoupled canonical relations, and the single-copy oscillator algebra with
optional level specialization gamma = q^level.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .cartan import IndexOutOfRange
from .linalg import SingularMatrix, invert
from .qscalar import ONE, Scalar, qint, s_power
from .termalg import (
    FLAVOR_A,
    FLAVOR_H,
    FLAVOR_HP,
    AlgebraElement,
    GenId,
    RelationTable,
    commutator,
    generator_key,
    h_gen,
)

__all__ = [
    "StructureConvention", "HeisenbergAlgebra", "ZeroK", "ZeroLevel",
    "SingularMatrix", "structure_constant", "structure_matrix",
    "inverse_structure_matrix", "primed_generators", "relation_table",
    "oscillator_table", "verify_canonical_relations", "RelationCheck",
    "single_heisenberg_table", "central_bracket", "gamma_bracket",
    "report_to_json",
]


class ZeroK(ValueError):
    pass


class ZeroLevel(ValueError):
    pass


class StructureConvention(str, Enum):
    """Normalization of the commutator denominator for non-simply-laced nodes.

    QJ_BRACKET divides by the bracket of d_j in base q_j; PLAIN_Q divides by
    the bracket of d_j in base q.  The two agree whenever d_j = 1 and both
    yield an invertible structure matrix.
    """

    QJ_BRACKET = "paper"
    PLAIN_Q = "drinfeld"


class HeisenbergAlgebra(namedtuple("HeisenbergAlgebra", "cartan convention level")):
    """The algebra of one CartanData under one convention, with gamma formal
    (level None) or specialized to q^level."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, cartan, convention=StructureConvention.QJ_BRACKET, level=None):
        # a str equal to a member shares its cache entries, so it must be that member
        convention = StructureConvention(convention)
        if level == 0:
            raise ZeroLevel("level must be nonzero when specialized")
        return super().__new__(cls, cartan, convention, level)


@lru_cache(maxsize=None)
def _gamma_bracket_cached(k: int, level: int | None):
    if k == 0:
        raise ZeroK("degree k must be nonzero")
    if level is None:
        inv = ONE / (s_power(2) - s_power(-2))
        return {2 * k: inv, -2 * k: -inv}
    return {0: qint(k * level)} if level else {}


def gamma_bracket(k: int, level: int | None):
    """(gamma^k - gamma^(-k)) / (q - q^(-1)) as a central element: empty at
    level 0, where gamma = 1."""
    return dict(_gamma_bracket_cached(k, level))


@lru_cache(maxsize=None)
def structure_constant(alg: HeisenbergAlgebra, i: int, j: int, k: int) -> Scalar:
    """The pairing coefficient of [h_{ik}, h_{j,-k}] under the active convention."""
    if k == 0:
        raise ZeroK("degree k must be nonzero")
    n = alg.cartan.rank
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"node index out of range: ({i}, {j})")
    di = alg.cartan.d[i]
    dj = alg.cartan.d[j]
    aij = alg.cartan.gcm[i][j]
    num = qint(k * aij, di)
    if alg.convention is StructureConvention.QJ_BRACKET:
        den = qint(dj, dj) * k
    else:
        den = qint(dj, 1) * k
    return num / den


def structure_matrix(alg: HeisenbergAlgebra, k: int):
    n = alg.cartan.rank
    return [[structure_constant(alg, i, j, k) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def inverse_structure_matrix(alg: HeisenbergAlgebra, k: int):
    """Exact inverse of the structure matrix; SingularMatrix signals a fault."""
    return invert(structure_matrix(alg, k))


def primed_generators(alg: HeisenbergAlgebra, k: int):
    """The primed negative generators h'_{j,-k}, j = 1..n, as combinations of
    unprimed ones, from one inverse of the degree-k structure matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    b = inverse_structure_matrix(alg, k)
    n = alg.cartan.rank
    return [AlgebraElement({((h_gen(m + 1, -k),), 0): b[m][j] for m in range(n)})
            for j in range(n)]


def relation_table(alg: HeisenbergAlgebra) -> RelationTable:
    """The defining presentation on the unprimed generators.

    Only opposite degrees pair.  The structure constant is read with the positive
    degree first; the gamma bracket of the left degree, odd in k, signs either order.
    """

    def comm(a: GenId, b: GenId):
        if a.degree + b.degree != 0:
            return {}
        pos, neg = (a, b) if a.degree > 0 else (b, a)
        c = structure_constant(alg, pos.node, neg.node, pos.degree)
        return {g: c * v for g, v in gamma_bracket(a.degree, alg.level).items()}

    return RelationTable(generator_key, comm, lambda g: g.flavor == FLAVOR_H)


def oscillator_table(level: int | None = None) -> RelationTable:
    """The decoupled presentation on {h positive, h' negative}: h and h' on one node
    in opposite degrees bracket to the gamma bracket of the left degree, odd in k."""
    if level == 0:
        raise ZeroLevel("level must be nonzero when specialized")

    def comm(a: GenId, b: GenId):
        if a.flavor == b.flavor or a.node != b.node or a.degree + b.degree != 0:
            return {}
        return gamma_bracket(a.degree, level)

    return RelationTable(generator_key, comm,
                         lambda g: g.flavor == (FLAVOR_H if g.degree > 0 else FLAVOR_HP))


class RelationCheck(namedtuple("RelationCheck", "relation_id lhs rhs residue")):
    __slots__ = ()

    @property
    def passed(self):
        return self.residue.is_zero

    def to_json(self):
        return {
            "relation-id": self.relation_id,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residue": str(self.residue),
            "pass": self.passed,
        }


def report_to_json(checks):
    return [c.to_json() for c in checks]


def _check_relations(alg: HeisenbergAlgebra, max_k: int, relations):
    """One RelationCheck per relation and per (i, j, k, l) in [1, n]^2 x [1, max_k]^2.

    relations is a sequence of (name, fn); fn(i, j, k, l, primed) returns
    (sides, expected), where primed[(j, l)] is h'_{j,-l} expanded in the
    unprimed generators.  A check passes only when every side equals expected:
    its lhs is the first side, its rhs the second side or else expected, and its
    residue the first nonzero side - expected.  Checks come in (i, j, k, l) order,
    then relation order.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    n = alg.cartan.rank
    primed = {(j, l): p for l in range(1, max_k + 1)
              for j, p in enumerate(primed_generators(alg, l), start=1)}
    checks = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, max_k + 1):
                for l in range(1, max_k + 1):
                    for name, fn in relations:
                        sides, expected = fn(i, j, k, l, primed)
                        residues = [side - expected for side in sides]
                        residue = next((r for r in residues if not r.is_zero), residues[0])
                        rhs = sides[1] if len(sides) > 1 else expected
                        checks.append(RelationCheck(
                            f"{name}[i={i},j={j},k={k},l={l}]", sides[0], rhs, residue))
    return checks


def _pairing(alg: HeisenbergAlgebra, table: RelationTable, i, j, k, l, primed):
    """[h_{ik}, h'_{j,-l}] through the defining presentation, and its expected
    central value: the gamma bracket when (i, k) == (j, l), else zero."""
    lhs = commutator(AlgebraElement.from_gen(h_gen(i, k)), primed[(j, l)], table)
    if i == j and k == l:
        return lhs, AlgebraElement({((), g): v for g, v in gamma_bracket(k, alg.level).items()})
    return lhs, AlgebraElement.zero()


def verify_canonical_relations(alg: HeisenbergAlgebra, max_k: int):
    """Check the decoupled relations symbolically through the defining presentation.

    Primed generators are expanded by the change of variables and all
    commutators are computed in the unprimed presentation, so a pass is an
    honest derivation, not a restatement of the decoupled table.
    """
    table = relation_table(alg)

    def h(i, k):
        return AlgebraElement.from_gen(h_gen(i, k))

    def pairing(i, j, k, l, primed):
        lhs, expected = _pairing(alg, table, i, j, k, l, primed)
        return (lhs,), expected

    def pos_commute(i, j, k, l, primed):
        return (commutator(h(i, k), h(j, l), table),), AlgebraElement.zero()

    def neg_commute(i, j, k, l, primed):
        return (commutator(primed[(i, k)], primed[(j, l)], table),), AlgebraElement.zero()

    return _check_relations(alg, max_k, [("pairing", pairing), ("pos-commute", pos_commute),
                                        ("neg-commute", neg_commute)])


@lru_cache(maxsize=None)
def _central_bracket_cached(k: int, level: int | None):
    bracket = _gamma_bracket_cached(k, level)  # ZeroK at k = 0, before dividing by k
    factor = qint(2 * k) / k
    return {g: factor * v for g, v in bracket.items()}


def central_bracket(k: int, level: int | None):
    """The central value of [a_k, a_{-k}] in the single-copy algebra."""
    return dict(_central_bracket_cached(k, level))


def single_heisenberg_table(level: int | None = None) -> RelationTable:
    """Relations of the single-copy oscillator family a_k, optionally at gamma = q^level."""
    if level == 0:
        raise ZeroLevel("level must be nonzero when specialized")

    def comm(a: GenId, b: GenId):
        if a.degree + b.degree != 0:
            return {}
        return central_bracket(a.degree, level)

    return RelationTable(generator_key, comm, lambda g: g.flavor == FLAVOR_A)
