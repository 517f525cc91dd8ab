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
    UnspecializedGamma,
    ZeroLevel,
    _check_relations,
    _h,
    _nonzero_level,
    oscillator_table,
    relation_table,
)
from .qscalar import ONE, qint
from .termalg import (
    FLAVOR_D,
    FLAVOR_H,
    FLAVOR_X,
    AlgebraElement,
    GenId,
    RelationTable,
    _check_generators,
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


def weyl_relation_table() -> RelationTable:
    """[D_{ik}, X_{ik}] = 1; all other generator pairs commute."""

    def comm(a: GenId, b: GenId):
        if a.flavor == b.flavor or a.node != b.node or a.degree != b.degree:
            return {}
        return {0: ONE if a.flavor == FLAVOR_D else -ONE}

    return RelationTable(generator_key, comm, lambda g: g.flavor in (FLAVOR_X, FLAVOR_D))


def _substitute(x: AlgebraElement, rename, source: RelationTable,
                target: RelationTable) -> AlgebraElement:
    """x, an element of the source presentation without gamma, with every
    generator replaced by its image under rename, a (factor or None, generator)
    pair, each term scaled by its factors, in normal form under target.  rename
    is one-to-one, so no two terms meet before reduction."""
    if any(g for (_, g), _ in x.items()):
        raise UnspecializedGamma("gamma is still formal; specialize it first")
    _check_generators((word for (word, _), _ in x.items()), source)
    terms = {}
    for (word, g), coeff in x.items():
        new = []
        for factor, gen in map(rename, word):
            if factor is not None:
                coeff = coeff * factor
            new.append(gen)
        terms[(tuple(new), g)] = coeff
    return reduce_element(AlgebraElement(terms), target)


class WeylIsomorphism(namedtuple("WeylIsomorphism", "level")):
    """The level-specialized identification, in both directions."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, level):
        return super().__new__(cls, _nonzero_level(level))

    def image(self, x: AlgebraElement) -> AlgebraElement:
        """Substitute h_{ik} -> [k*level]_q D_{ik}, h'_{i,-k} -> X_{ik} and normal-order.
        x must be in the decoupled basis, with gamma specialized to q^level."""
        def rename(gen):
            if gen.flavor == FLAVOR_H:
                return qint(gen.degree * self.level), d_gen(gen.node, gen.degree)
            return None, x_gen(gen.node, -gen.degree)

        return _substitute(x, rename, oscillator_table(self.level), weyl_relation_table())

    def inverse_image(self, y: AlgebraElement) -> AlgebraElement:
        """Substitute D_{ik} -> h_{ik} / [k*level]_q, X_{ik} -> h'_{i,-k} and normal-order."""
        def rename(gen):
            if gen.flavor == FLAVOR_D:
                return ONE / qint(gen.degree * self.level), h_gen(gen.node, gen.degree)
            return None, hp_gen(gen.node, -gen.degree)

        return _substitute(y, rename, weyl_relation_table(), oscillator_table(self.level))


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
    d = {(i, k): image(_h(i, k)) for i, k in indices}
    x = {(i, k): image(AlgebraElement.from_gen(hp_gen(i, -k))) for i, k in indices}

    def sides(i, j, k, l, primed):
        return ((commutator(_h(i, k), primed[(j, l)], loop),
                 commutator(d[(i, k)], x[(j, l)], weyl)),
                (commutator(d[(i, k)], d[(j, l)], weyl),),
                (commutator(x[(i, k)], x[(j, l)], weyl),))

    return _check_relations(alg, max_k, "weyl-", sides)
