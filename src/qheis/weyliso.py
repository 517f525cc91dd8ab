"""The countably-infinite-rank Weyl algebra and its identification with the
level-specialized Heisenberg algebra.

The map substitutes generator-by-generator (positive loop generators become
scaled derivations, primed negative ones become multiplication operators),
so it is exact in every degree; verification recomputes each decoupled
relation on both sides.
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import CartanData
from .heisenberg import (
    HeisenbergAlgebra,
    StructureConvention,
    ZeroLevel,
    _check_relations,
    _pairing,
    oscillator_table,
    relation_table,
)
from .qscalar import ONE, qint
from .termalg import (
    FLAVOR_D,
    FLAVOR_H,
    FLAVOR_HP,
    FLAVOR_X,
    AlgebraElement,
    GenId,
    RelationTable,
    commutator,
    d_gen,
    generator_key,
    h_gen,
    hp_gen,
    reduce_element,
    x_gen,
)

__all__ = ["UnspecializedGamma", "ZeroLevel", "WeylIsomorphism", "weyl_relation_table",
           "verify_weyl_iso"]


class UnspecializedGamma(ValueError):
    pass


def weyl_relation_table() -> RelationTable:
    """[D_{ik}, X_{ik}] = 1; all other generator pairs commute."""

    def comm(a: GenId, b: GenId):
        fa, fb = a.flavor, b.flavor
        if fa not in (FLAVOR_X, FLAVOR_D) or fb not in (FLAVOR_X, FLAVOR_D):
            raise ValueError(f"unexpected generators {a!r}, {b!r} in Weyl presentation")
        if fa == fb or a.node != b.node or a.degree != b.degree:
            return {}
        return {0: ONE if fa == FLAVOR_D else -ONE}

    return RelationTable(generator_key, comm)


def _substitute(x: AlgebraElement, rename, table: RelationTable) -> AlgebraElement:
    """x with every generator replaced by its image under rename, a (factor or
    None, generator) pair, each term scaled by its factors, in normal form
    under table.  rename is one-to-one, so no two terms meet before reduction."""
    terms = {}
    for (word, g), coeff in x.items():
        new = []
        for factor, gen in map(rename, word):
            if factor is not None:
                coeff = coeff * factor
            new.append(gen)
        terms[(tuple(new), g)] = coeff
    return reduce_element(AlgebraElement(terms), table)


class WeylIsomorphism(namedtuple("WeylIsomorphism", "level")):
    """The level-specialized identification, in both directions."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, level):
        if level == 0:
            raise ZeroLevel("level must be nonzero")
        return super().__new__(cls, level)

    def image(self, x: AlgebraElement) -> AlgebraElement:
        """Substitute h_{ik} -> [k*level]_q D_{ik}, h'_{i,-k} -> X_{ik} and normal-order.
        x must be in the decoupled basis, with gamma specialized to q^level."""
        def rename(gen):
            if gen.flavor == FLAVOR_H and gen.degree > 0:
                return qint(gen.degree * self.level), d_gen(gen.node, gen.degree)
            if gen.flavor == FLAVOR_HP and gen.degree < 0:
                return None, x_gen(gen.node, -gen.degree)
            raise ValueError(f"generator {gen!r} is not in the decoupled basis")

        if any(g for (_, g), _ in x.items()):
            raise UnspecializedGamma("gamma is still formal; specialize it first")
        return _substitute(x, rename, weyl_relation_table())

    def inverse_image(self, y: AlgebraElement) -> AlgebraElement:
        """Substitute D_{ik} -> h_{ik} / [k*level]_q, X_{ik} -> h'_{i,-k} and normal-order."""
        def rename(gen):
            if gen.flavor == FLAVOR_D:
                return ONE / qint(gen.degree * self.level), h_gen(gen.node, gen.degree)
            if gen.flavor == FLAVOR_X:
                return None, hp_gen(gen.node, -gen.degree)
            raise ValueError(f"generator {gen!r} is not a Weyl generator")

        return _substitute(y, rename, oscillator_table(self.level))


def verify_weyl_iso(cartan: CartanData, level: int, max_k: int,
                    convention: StructureConvention = StructureConvention.QJ_BRACKET):
    """Recompute every decoupled relation on the Heisenberg side (through the
    structure-matrix inverse, at gamma = q^level) and on the Weyl side, and
    compare them against the expected bracket value."""
    alg = HeisenbergAlgebra(cartan, convention, level)
    loop = relation_table(alg)
    weyl = weyl_relation_table()
    # images under the shipped map, so that the check covers it
    image = WeylIsomorphism(level).image
    indices = [(i, k) for i in range(1, cartan.rank + 1) for k in range(1, max_k + 1)]
    d = {(i, k): image(AlgebraElement.from_gen(h_gen(i, k))) for i, k in indices}
    x = {(i, k): image(AlgebraElement.from_gen(hp_gen(i, -k))) for i, k in indices}

    def pairing(i, j, k, l, primed):
        heis_side, expected = _pairing(alg, loop, i, j, k, l, primed)
        return (heis_side, commutator(d[(i, k)], x[(j, l)], weyl)), expected

    def pos_commute(i, j, k, l, primed):
        return (commutator(d[(i, k)], d[(j, l)], weyl),), AlgebraElement.zero()

    def neg_commute(i, j, k, l, primed):
        return (commutator(x[(i, k)], x[(j, l)], weyl),), AlgebraElement.zero()

    return _check_relations(alg, max_k, [("weyl-pairing", pairing),
                                         ("weyl-pos-commute", pos_commute),
                                         ("weyl-neg-commute", neg_commute)])
