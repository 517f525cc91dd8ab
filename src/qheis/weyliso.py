"""The countably-infinite-rank Weyl algebra and its identification with the
level-specialized Heisenberg algebra.

The map substitutes generator-by-generator (positive loop generators become
scaled derivations, primed negative ones become multiplication operators),
so it is exact in every degree; verification recomputes each decoupled
relation on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _bump,
    commutator,
    d_gen,
    generator_key,
    h_gen,
    hp_gen,
    reduce_element,
    x_gen,
)

__all__ = [
    "UnspecializedGamma", "ZeroLevel", "WeylIsomorphism",
    "weyl_relation_table", "to_weyl", "from_weyl", "verify_weyl_iso",
]


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


def to_weyl(x: AlgebraElement, level: int) -> AlgebraElement:
    """Substitute h_{ik} -> [k*level]_q D_{ik}, h'_{i,-k} -> X_{ik} and normal-order.

    The input must be written in the decoupled basis with gamma already
    specialized to q^level.
    """
    if level == 0:
        raise ZeroLevel("level must be nonzero")
    pending = {}
    for (word, g), coeff in x.items():
        if g != 0:
            raise UnspecializedGamma("gamma is still formal; specialize it first")
        new = []
        for gen in word:
            if gen.flavor == FLAVOR_H and gen.degree > 0:
                coeff = coeff * qint(gen.degree * level)
                new.append(d_gen(gen.node, gen.degree))
            elif gen.flavor == FLAVOR_HP and gen.degree < 0:
                new.append(x_gen(gen.node, -gen.degree))
            else:
                raise ValueError(f"generator {gen!r} is not in the decoupled basis")
        _bump(pending, (tuple(new), 0), coeff)
    return reduce_element(AlgebraElement(pending), weyl_relation_table())


def from_weyl(y: AlgebraElement, level: int) -> AlgebraElement:
    """Substitute D_{ik} -> h_{ik} / [k*level]_q, X_{ik} -> h'_{i,-k} and normal-order."""
    if level == 0:
        raise ZeroLevel("level must be nonzero")
    pending = {}
    for (word, g), coeff in y.items():
        new = []
        for gen in word:
            if gen.flavor == FLAVOR_D:
                coeff = coeff / qint(gen.degree * level)
                new.append(h_gen(gen.node, gen.degree))
            elif gen.flavor == FLAVOR_X:
                new.append(hp_gen(gen.node, -gen.degree))
            else:
                raise ValueError(f"generator {gen!r} is not a Weyl generator")
        _bump(pending, (tuple(new), g), coeff)
    return reduce_element(AlgebraElement(pending), oscillator_table(level))


@dataclass(frozen=True)
class WeylIsomorphism:
    """The level-specialized identification, packaged with its inverse."""

    level: int

    def __post_init__(self):
        if self.level == 0:
            raise ZeroLevel("level must be nonzero")

    def image(self, x):
        return to_weyl(x, self.level)

    def inverse_image(self, y):
        return from_weyl(y, self.level)


def verify_weyl_iso(cartan: CartanData, level: int, max_k: int,
                    convention: StructureConvention = StructureConvention.QJ_BRACKET):
    """Recompute every decoupled relation on the Heisenberg side (through the
    structure-matrix inverse, at gamma = q^level) and on the Weyl side, and
    compare them against the expected bracket value."""
    if level == 0:
        raise ZeroLevel("level must be nonzero")
    alg = HeisenbergAlgebra(cartan, convention, level)
    loop = relation_table(alg)
    weyl = weyl_relation_table()
    # images under to_weyl, so that the check covers the map the library ships
    indices = [(i, k) for i in range(1, cartan.rank + 1) for k in range(1, max_k + 1)]
    d = {(i, k): to_weyl(AlgebraElement.from_gen(h_gen(i, k)), level) for i, k in indices}
    x = {(i, k): to_weyl(AlgebraElement.from_gen(hp_gen(i, -k)), level) for i, k in indices}

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
