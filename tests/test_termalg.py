import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.heisenberg import gamma_bracket, single_heisenberg_table
from qheis.qscalar import ONE, ZERO, Scalar, qint, s_power
from qheis.termalg import (
    AlgebraElement,
    GenId,
    RelationTable,
    a_gen,
    commutator,
    d_gen,
    h_gen,
    multiply,
    normal_order,
    render_element,
    x_gen,
)
from qheis.weyliso import weyl_relation_table


def test_genid_validation():
    with pytest.raises(ValueError):
        GenId("h", 1, 0)
    with pytest.raises(ValueError):
        GenId("a", 1, 2)  # single-copy generators live on node 0
    with pytest.raises(ValueError):
        GenId("X", 1, 0)
    with pytest.raises(ValueError):
        GenId("z", 1, 1)
    # loop and Weyl generators live on nodes 1, 2, ...
    for flavor, degree in [("h", 1), ("h'", -1), ("X", 1), ("D", 1)]:
        with pytest.raises(ValueError, match="node index must be >= 1"):
            GenId(flavor, 0, degree)


def test_element_coefficients_are_coerced_to_scalars():
    word = ((a_gen(1),), 0)
    assert AlgebraElement({word: 2}) == AlgebraElement({word: Scalar({0: 2})})
    assert AlgebraElement({word: Fraction(1, 3), ((), 1): 0}) == AlgebraElement(
        {word: Scalar({0: Fraction(1, 3)})})
    with pytest.raises(TypeError, match="coefficients must be Scalars"):
        AlgebraElement({word: 0.5})


def test_rendering_of_gamma_powers_and_repr():
    x = AlgebraElement({((a_gen(-1),), 3): ONE, ((), -2): qint(2), ((), 1): -ONE})
    assert render_element(x) == ("(s^2 + s^-2 / 1) * gamma^{-1} + (-1 / 1) * gamma^{1/2}"
                                 " + (1 / 1) * gamma^{3/2} * a[-1]")
    assert repr(x) == f"AlgebraElement({x})"


def test_elements_refuse_other_operands():
    x = AlgebraElement.from_gen(a_gen(1))
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        1 + x
    assert x != 1 and not x == "a[1]"


def test_an_unknown_strategy_is_rejected():
    with pytest.raises(ValueError, match="unknown strategy 'middle'"):
        normal_order([a_gen(1), a_gen(-1)], single_heisenberg_table(), strategy="middle")


def test_normal_order_oscillator_pair_formal():
    t = single_heisenberg_table()
    got = normal_order([a_gen(1), a_gen(-1)], t)
    # a_{-1}a_1 + [2]_q (gamma - gamma^-1)/(q - q^-1)
    expected = AlgebraElement.from_word((a_gen(-1), a_gen(1)))
    for g, v in gamma_bracket(1, None).items():
        expected = expected + AlgebraElement.from_scalar(qint(2) * v, g)
    assert got == expected


def test_normal_order_same_sign_is_identity():
    t = single_heisenberg_table()
    word = (a_gen(-2), a_gen(-1))
    got = normal_order(word, t)
    assert got == AlgebraElement.from_word(word)


# -- polynomial model oracle for the Weyl flavor ----------------------------

def poly_apply_gen(gen, poly):
    # poly: {frozenset-free monomial key: Fraction}; key = tuple of ((node, deg), exp)
    out = {}

    def bump(key, c):
        if c:
            out[key] = out.get(key, Fraction(0)) + c
            if not out[key]:
                del out[key]

    for mono, coeff in poly.items():
        d = dict(mono)
        var = (gen.node, gen.degree)
        if gen.flavor == "X":
            d[var] = d.get(var, 0) + 1
            bump(tuple(sorted(d.items())), coeff)
        else:  # derivation
            e = d.get(var, 0)
            if e:
                d[var] = e - 1
                if not d[var]:
                    del d[var]
                bump(tuple(sorted(d.items())), coeff * e)
    return out


def poly_apply_word(word, poly):
    for gen in reversed(word):
        poly = poly_apply_gen(gen, poly)
    return poly


def poly_apply_element(element, poly):
    total = {}
    for (word, g), coeff in element.items():
        assert g == 0
        assert coeff.is_laurent and list(coeff.num_terms) in ([0], [])
        c = coeff.num_terms.get(0, Fraction(0))
        for mono, v in poly_apply_word(word, poly).items():
            val = total.get(mono, Fraction(0)) + c * v
            if val:
                total[mono] = val
            else:
                total.pop(mono, None)
    return total


def test_normal_order_weyl_leibniz():
    w = weyl_relation_table()
    word = [d_gen(1, 1), x_gen(1, 1), x_gen(1, 1)]
    got = normal_order(word, w)
    expected = (AlgebraElement.from_word((x_gen(1, 1), x_gen(1, 1), d_gen(1, 1)))
                + AlgebraElement.from_word((x_gen(1, 1),), Scalar._coerce(2)))
    assert got == expected
    # oracle: both act identically on x^m for m = 0..4
    for m in range(5):
        mono = (((1, 1), m),) if m else ()
        poly = {mono: Fraction(1)}
        assert poly_apply_word(word, poly) == poly_apply_element(got, poly)


def test_normal_order_weyl_random_against_polynomial_model():
    rng = random.Random(3)
    w = weyl_relation_table()
    gens = [x_gen(i, k) for i in (1, 2) for k in (1, 2)] + \
           [d_gen(i, k) for i in (1, 2) for k in (1, 2)]
    for _ in range(60):
        word = [rng.choice(gens) for _ in range(rng.randint(0, 5))]
        nf = normal_order(word, w)
        poly = {(((1, 1), 2), ((2, 1), 1)): Fraction(1), (): Fraction(3)}
        assert poly_apply_word(word, poly) == poly_apply_element(nf, poly)


def test_multiply_unit_and_bilinearity():
    t = single_heisenberg_table()
    e = normal_order([a_gen(2), a_gen(-2), a_gen(1)], t)
    one = AlgebraElement.from_scalar(ONE)
    assert multiply(e, one, t) == e
    assert multiply(one, e, t) == e
    x = AlgebraElement.from_word((a_gen(1),), qint(3))
    y = AlgebraElement.from_gen(a_gen(-1))
    lhs = multiply(x + y, e, t)
    assert lhs == multiply(x, e, t) + multiply(y, e, t)


def test_multiply_matches_defining_commutator():
    t = single_heisenberg_table()
    x = AlgebraElement.from_gen(a_gen(1))
    y = AlgebraElement.from_gen(a_gen(-1))
    diff = multiply(x, y, t) - multiply(y, x, t)
    expected = AlgebraElement({((), g): qint(2) * v for g, v in gamma_bracket(1, None).items()})
    assert diff == expected


def test_multiply_associative_on_random_triples():
    rng = random.Random(11)
    t = single_heisenberg_table()
    gens = [a_gen(k) for k in (-3, -2, -1, 1, 2, 3)]
    for _ in range(200):
        xs = []
        for _ in range(3):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            c = rng.randint(1, 3)
            xs.append(AlgebraElement({key: c * v for key, v in normal_order(word, t).items()}))
        x, y, z = xs
        assert multiply(multiply(x, y, t), z, t) == multiply(x, multiply(y, z, t), t)


def test_commutator_basics():
    t = single_heisenberg_table()
    x = normal_order([a_gen(2), a_gen(-1)], t)
    assert commutator(x, x, t).is_zero
    gamma = AlgebraElement.from_scalar(ONE, 3)
    assert commutator(gamma, x, t).is_zero
    y = AlgebraElement.from_gen(a_gen(1))
    assert commutator(x, y, t) == -commutator(y, x, t)


def test_commutator_loop_pair_spec_value():
    from qheis.cartan import load_type
    from qheis.heisenberg import HeisenbergAlgebra, relation_table, structure_constant

    alg = HeisenbergAlgebra(load_type("A", 1))
    t = relation_table(alg)
    lhs = commutator(AlgebraElement.from_gen(h_gen(1, 2)),
                     AlgebraElement.from_gen(h_gen(1, -2)), t)
    c = structure_constant(alg, 1, 1, 2)
    assert c == qint(4) / 2
    expected = AlgebraElement({((), g): c * v for g, v in gamma_bracket(2, None).items()})
    assert lhs == expected


def test_degree_additivity_preserved():
    rng = random.Random(23)
    t = single_heisenberg_table()
    gens = [a_gen(k) for k in (-3, -2, -1, 1, 2, 3)]
    for _ in range(200):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
        deg = sum(x.degree for x in word)
        for (w, g), _ in normal_order(word, t).items():
            assert sum(x.degree for x in w) == deg


def _random_central_table(rng, size=4):
    # antisymmetric central commutators on an abstract alphabet of loop flavor
    gens = [h_gen(1, k) for k in range(-size, size + 1) if k]
    vals = {}
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if rng.random() < 0.6:
                coeff = Scalar._coerce(rng.randint(-3, 3))
                vals[(a, b)] = {2 * rng.randint(-1, 1): coeff}

    def comm(a, b):
        if (a, b) in vals:
            return vals[(a, b)]
        if (b, a) in vals:
            return {g: -c for g, c in vals[(b, a)].items()}
        return {}

    def key(g):
        return (g.degree,)

    return gens, RelationTable(key, comm)


def test_confluence_random_tables_and_words():
    rng = random.Random(2024)
    for _ in range(120):
        gens, table = _random_central_table(rng)
        word = [rng.choice(gens) for _ in range(rng.randint(0, 8))]
        left = normal_order(word, table, strategy="leftmost")
        right = normal_order(word, table, strategy="rightmost")
        assert render_element(left) == render_element(right)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=8),
       st.sampled_from([None, 1, -2]))
def test_confluence_oscillator_hypothesis(degrees, level):
    t = single_heisenberg_table(level)
    word = [a_gen(k) for k in degrees]
    left = normal_order(word, t, strategy="leftmost")
    right = normal_order(word, t, strategy="rightmost")
    assert left == right
    assert render_element(left) == render_element(right)


def test_specialize_gamma_matches_level_table():
    rng = random.Random(31)
    formal = single_heisenberg_table()
    for level in (1, -2, 3):
        leveled = single_heisenberg_table(level)
        for _ in range(50):
            word = [a_gen(rng.choice((-3, -2, -1, 1, 2, 3)))
                    for _ in range(rng.randint(0, 5))]
            # substitute gamma = q^level: gamma^(g/2) becomes s^(g * level)
            specialized = {}
            for (w, g), c in normal_order(word, formal).items():
                specialized[(w, 0)] = specialized.get((w, 0), ZERO) + c * s_power(g * level)
            assert AlgebraElement(specialized) == normal_order(word, leveled)


def test_relation_table_antisymmetry_invariant():
    rng = random.Random(7)
    gens, table = _random_central_table(rng)
    for a in gens:
        for b in gens:
            ab = table.central_commutator(a, b)
            ba = table.central_commutator(b, a)
            assert {g: -c for g, c in ab.items() if not c.is_zero} == \
                {g: c for g, c in ba.items() if not c.is_zero}
