import random
import re
from fractions import Fraction

import pytest

from qheis.cartan import load_type
from qheis.heisenberg import (
    HeisenbergAlgebra,
    StructureConvention,
    ZeroLevel,
    oscillator_table,
    report_to_json,
    structure_constant,
)
from qheis.qscalar import ONE, qint, s_power
from qheis.termalg import (
    FLAVOR_H,
    AlgebraElement,
    a_gen,
    commutator,
    d_gen,
    h_gen,
    hp_gen,
    multiply,
    normal_order,
    x_gen,
)
from qheis.weyliso import (
    UnspecializedGamma,
    WeylIsomorphism,
    verify_weyl_iso,
    weyl_relation_table,
)


def test_a_convention_string_verifies_as_its_member():
    # on a cold cache the string call stores the constants its member reads
    structure_constant.cache_clear()
    cd = load_type("G", 2)
    qj = StructureConvention.QJ_BRACKET
    checks = verify_weyl_iso(cd, 2, 1, convention="paper")
    assert report_to_json(checks) == report_to_json(verify_weyl_iso(cd, 2, 1, qj))
    assert str(structure_constant(HeisenbergAlgebra(cd, qj, 2), 1, 1, 1)) == \
        "s^18 + s^6 / s^24 + s^12 + 1"


def test_weyl_table_relations():
    w = weyl_relation_table()
    pair = commutator(AlgebraElement.from_gen(d_gen(1, 2)),
                      AlgebraElement.from_gen(x_gen(1, 2)), w)
    assert pair == AlgebraElement.from_scalar(ONE)
    for a, b in [(x_gen(1, 1), x_gen(2, 3)), (d_gen(1, 1), d_gen(1, 2)),
                 (d_gen(1, 1), x_gen(1, 2)), (d_gen(2, 1), x_gen(1, 1))]:
        assert commutator(AlgebraElement.from_gen(a),
                          AlgebraElement.from_gen(b), w).is_zero
    with pytest.raises(ValueError, match=r"generator a\[1\] is not in this presentation"):
        normal_order([a_gen(1), x_gen(1, 1)], w)


def test_image_generator_assignments():
    img = WeylIsomorphism(1).image(AlgebraElement.from_gen(h_gen(1, 2)))
    assert img == AlgebraElement.from_word((d_gen(1, 2),), qint(2))
    img2 = WeylIsomorphism(2).image(AlgebraElement.from_gen(hp_gen(1, -3)))
    assert img2 == AlgebraElement.from_word((x_gen(1, 3),))


def test_image_of_the_commutator_is_one():
    t = oscillator_table(1)
    image = WeylIsomorphism(1).image
    h = AlgebraElement.from_gen(h_gen(1, 1))
    hp = AlgebraElement.from_gen(hp_gen(1, -1))
    lhs = image(commutator(h, hp, t))
    # independent recomputation on the Weyl side
    w = weyl_relation_table()
    rhs = commutator(image(h), image(hp), w)
    assert lhs == rhs == AlgebraElement.from_scalar(qint(1))


def test_inverse_image_generator_assignments():
    pre = WeylIsomorphism(1).inverse_image(AlgebraElement.from_gen(x_gen(1, 1)))
    assert pre == AlgebraElement.from_gen(hp_gen(1, -1))
    pre2 = WeylIsomorphism(3).inverse_image(AlgebraElement.from_gen(d_gen(1, 2)))
    assert pre2 == AlgebraElement.from_word((h_gen(1, 2),), ONE / qint(6))


def test_level_and_gamma_guards():
    with pytest.raises(ZeroLevel, match="level must be nonzero"):
        WeylIsomorphism(0)
    iso = WeylIsomorphism(1)
    formal = AlgebraElement.from_scalar(ONE, 2)
    with pytest.raises(UnspecializedGamma, match="gamma is still formal"):
        iso.image(formal)
    with pytest.raises(ValueError, match=r"generator h\[1,-1\] is not in this presentation"):
        iso.image(AlgebraElement.from_gen(h_gen(1, -1)))
    for gen in (h_gen(1, 1), hp_gen(1, -1)):
        with pytest.raises(ValueError, match=re.escape(f"generator {gen.render()} is not in")):
            iso.inverse_image(AlgebraElement.from_gen(gen))


def test_inverse_image_rejects_gamma_as_image_does():
    # the Weyl presentation has no gamma, so a Weyl element carrying a power
    # of it has no preimage at a specialized level
    iso = WeylIsomorphism(1)
    with pytest.raises(UnspecializedGamma, match="gamma is still formal"):
        iso.inverse_image(AlgebraElement.from_word((x_gen(1, 1),), ONE, 2))
    with pytest.raises(UnspecializedGamma, match="gamma is still formal"):
        iso.image(AlgebraElement.from_word((hp_gen(1, -1),), ONE, -2))


def _random_element(rng, nodes, max_k, length, table):
    gens = [h_gen(i, k) for i in range(1, nodes + 1) for k in range(1, max_k + 1)]
    gens += [hp_gen(i, -k) for i in range(1, nodes + 1) for k in range(1, max_k + 1)]
    word = [rng.choice(gens) for _ in range(rng.randint(0, length))]
    c = qint(rng.randint(1, 3))
    return AlgebraElement({key: c * v for key, v in normal_order(word, table).items()})


def test_round_trip_on_200_random_elements():
    rng = random.Random(1729)
    for level in (1, -2, 3):
        t = oscillator_table(level)
        iso = WeylIsomorphism(level)
        for _ in range(67):
            x = _random_element(rng, 2, 3, 4, t)
            assert iso.inverse_image(iso.image(x)) == x
    assert rng is not None


def test_homomorphism_on_500_random_pairs():
    rng = random.Random(8128)
    level = 2
    t = oscillator_table(level)
    w = weyl_relation_table()
    image = WeylIsomorphism(level).image
    for _ in range(500):
        x = _random_element(rng, 2, 3, 3, t)
        y = _random_element(rng, 2, 3, 3, t)
        assert image(multiply(x, y, t)) == multiply(image(x), image(y), w)


def test_bracket_scalar_identity():
    # (q^(kl) - q^(-kl)) / (q - q^(-1)) equals [kl]_q
    for m in range(-24, 25):
        lhs = (s_power(2 * m) - s_power(-2 * m)) / (s_power(2) - s_power(-2))
        assert lhs == qint(m)


def test_verify_weyl_iso_small():
    cd = load_type("A", 2)
    for level in (-1, 1, 2):
        checks = verify_weyl_iso(cd, level, 2)
        assert all(c.passed for c in checks)
    checks = verify_weyl_iso(load_type("B", 3), 1, 2, StructureConvention.PLAIN_Q)
    assert all(c.passed for c in checks)


def test_verify_weyl_iso_checks_the_shipped_map(monkeypatch):
    # the Weyl side is built by WeylIsomorphism.image itself: a map that is off
    # by a factor of 2 must fail every pairing with a nonzero bracket (the rest
    # stay zero)
    shipped = WeylIsomorphism.image
    monkeypatch.setattr(WeylIsomorphism, "image", lambda iso, x: shipped(iso, x) + shipped(iso, x))
    checks = verify_weyl_iso(load_type("A", 1), 2, 2)
    assert [c.relation_id for c in checks if not c.passed] == \
        ["weyl-pairing[i=1,j=1,k=1,l=1]", "weyl-pairing[i=1,j=1,k=2,l=2]"]


def test_errors_on_the_two_sides_of_a_pairing_do_not_cancel(monkeypatch):
    # the primed expansion (so the Heisenberg side) scaled by 3/2 and the
    # images of h_{ik} (the D side) by 1/2: against the bracket the two sides
    # are off by +1/2 and -1/2 of it, and each pairing with k = l must fail
    # all the same
    import qheis.heisenberg as heisenberg

    def scaled(x, c):
        return AlgebraElement({key: v * c for key, v in x.items()})

    primed, shipped = heisenberg.primed_generators, WeylIsomorphism.image

    def primed_three_halves(alg, k):
        return [scaled(p, Fraction(3, 2)) for p in primed(alg, k)]

    def d_images_halved(iso, x):
        [((word, _), _)] = x.items()
        return scaled(shipped(iso, x), Fraction(1, 2) if word[0].flavor == FLAVOR_H else 1)

    monkeypatch.setattr(heisenberg, "primed_generators", primed_three_halves)
    monkeypatch.setattr(WeylIsomorphism, "image", d_images_halved)
    checks = verify_weyl_iso(load_type("A", 1), 2, 2)
    assert [c.relation_id for c in checks if not c.passed] == \
        ["weyl-pairing[i=1,j=1,k=1,l=1]", "weyl-pairing[i=1,j=1,k=2,l=2]"]


def test_verify_weyl_iso_rejects_level_zero():
    with pytest.raises(ZeroLevel):
        verify_weyl_iso(load_type("A", 2), 0, 2)


def test_image_preserves_normal_order_shape():
    # normal-ordered input maps to a normal-ordered image without reordering terms
    t = oscillator_table(1)
    w = weyl_relation_table()
    x = normal_order([h_gen(1, 1), hp_gen(1, -1), h_gen(2, 2)], t)
    img = WeylIsomorphism(1).image(x)
    from qheis.termalg import reduce_element

    assert reduce_element(img, w) == img
