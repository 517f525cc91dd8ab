import re
from fractions import Fraction

import pytest

from qheis.cartan import IndexOutOfRange, load_type
from qheis.heisenberg import (
    HeisenbergAlgebra,
    StructureConvention,
    ZeroK,
    ZeroLevel,
    central_bracket,
    gamma_bracket,
    inverse_structure_matrix,
    oscillator_table,
    primed_generators,
    relation_table,
    report_to_json,
    single_heisenberg_table,
    structure_constant,
    structure_matrix,
    verify_canonical_relations,
)
from qheis.linalg import identity, mat_mul
from qheis.qscalar import ONE, qint, specialize_q1
from qheis.termalg import (
    AlgebraElement,
    a_gen,
    commutator,
    h_gen,
    hp_gen,
    normal_order,
    x_gen,
)

QJ = StructureConvention.QJ_BRACKET
PLAIN = StructureConvention.PLAIN_Q


def central(bracket):
    return AlgebraElement({((), g): v for g, v in bracket.items()})


def test_structure_constant_a1_both_conventions():
    cd = load_type("A", 1)
    for conv in (QJ, PLAIN):
        alg = HeisenbergAlgebra(cd, conv)
        assert structure_constant(alg, 1, 1, 1) == qint(2)


def test_structure_constant_zero_k():
    alg = HeisenbergAlgebra(load_type("A", 1))
    with pytest.raises(ZeroK):
        structure_constant(alg, 1, 1, 0)


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("B", 3)])
@pytest.mark.parametrize("convention", [QJ, PLAIN])
def test_structure_constant_rejects_nodes_out_of_range(series, rank, convention):
    # node 0 is the affine node, which the loop presentation leaves out
    alg = HeisenbergAlgebra(load_type(series, rank), convention)
    for i, j in [(0, 1), (1, 0), (rank + 1, 1), (1, rank + 1)]:
        with pytest.raises(IndexOutOfRange):
            structure_constant(alg, i, j, 1)
    # a ValueError, so that cli.run reports it in one line with exit code 2
    with pytest.raises(ValueError):
        structure_constant(alg, 0, 1, 1)


@pytest.mark.parametrize("level", [None, 1, 2, -1])
def test_brackets_at_degree_zero_raise_zero_k(level):
    # as structure_constant does; gamma^0 - gamma^0 has no generator to pair
    with pytest.raises(ZeroK):
        gamma_bracket(0, level)
    with pytest.raises(ZeroK):
        central_bracket(0, level)


def test_level_zero_rejected():
    zero_level = "level must be nonzero when specialized"
    with pytest.raises(ZeroLevel, match=zero_level):
        HeisenbergAlgebra(load_type("A", 1), QJ, 0)
    with pytest.raises(ZeroLevel, match=zero_level):
        single_heisenberg_table(0)
    with pytest.raises(ZeroLevel, match=zero_level):
        oscillator_table(0)


def test_q1_limit_of_structure_constants():
    # the limit is (alpha_i|alpha_j)/(d_i d_j), independent of k
    cd = load_type("C", 2)
    alg = HeisenbergAlgebra(cd, QJ)
    for i in (1, 2):
        for j in (1, 2):
            expected = Fraction(cd.bilinear(i, j), cd.d[i] * cd.d[j])
            for k in (1, 2, 3):
                assert specialize_q1(structure_constant(alg, i, j, k)) == expected


def test_conventions_coincide_simply_laced():
    cd = load_type("A", 2)
    p = HeisenbergAlgebra(cd, QJ)
    d = HeisenbergAlgebra(cd, PLAIN)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2, 3, -2):
                assert structure_constant(p, i, j, k) == structure_constant(d, i, j, k)


def test_conventions_differ_for_mixed_lengths():
    cd = load_type("C", 2)
    p = HeisenbergAlgebra(cd, QJ)
    d = HeisenbergAlgebra(cd, PLAIN)
    assert structure_constant(p, 1, 2, 1) != structure_constant(d, 1, 2, 1)


# the pairing coefficient (i, j, k) = (1, 1, 1) of G2, whose node 1 has d = 3
G2_PAPER = "s^18 + s^6 / s^24 + s^12 + 1"
G2_DRINFELD = "s^10 + s^-2 / s^8 + s^4 + 1"


@pytest.mark.parametrize("order, want", [
    (("paper", QJ), G2_PAPER), ((QJ, "paper"), G2_PAPER),
    (("drinfeld", PLAIN), G2_DRINFELD), ((PLAIN, "drinfeld"), G2_DRINFELD)])
def test_a_convention_string_is_its_member_in_either_call_order(order, want):
    # a str equals its member and hashes like it, so both reach one cache
    # entry: on a cold cache, whichever comes first must store the right value
    structure_constant.cache_clear()
    cd = load_type("G", 2)
    for conv in order:
        alg = HeisenbergAlgebra(cd, conv)
        assert alg.convention is StructureConvention(conv)
        assert str(structure_constant(alg, 1, 1, 1)) == want


def test_an_unknown_convention_is_rejected():
    with pytest.raises(ValueError):
        HeisenbergAlgebra(load_type("G", 2), "nonsense")


def test_inverse_matrix_a1():
    alg = HeisenbergAlgebra(load_type("A", 1))
    b = inverse_structure_matrix(alg, 1)
    assert b == [[ONE / qint(2)]]


def a_n_inverse_closed_form(n, k):
    # C(k)^-1_ij = (k / [k]_q) [min(i,j)]_t [n+1-max(i,j)]_t / [n+1]_t with
    # t = q^k; [m]_t is even in k, so it is the bracket in base q^|k|
    def t_bracket(m):
        return qint(m, abs(k))

    return [[Fraction(k) / qint(k) * t_bracket(min(i, j)) * t_bracket(n + 1 - max(i, j))
             / t_bracket(n + 1) for j in range(1, n + 1)] for i in range(1, n + 1)]


@pytest.mark.parametrize("convention", [QJ, PLAIN])
@pytest.mark.parametrize("k", [1, 2, 3, -2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_matrix_a_n_equals_the_closed_form(n, k, convention):
    alg = HeisenbergAlgebra(load_type("A", n), convention)
    assert inverse_structure_matrix(alg, k) == a_n_inverse_closed_form(n, k)


def test_inverse_matrix_a2_against_adjugate_oracle():
    alg = HeisenbergAlgebra(load_type("A", 2))
    a = structure_matrix(alg, 1)
    # independent 2x2 inverse: adj / det
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    oracle = [[a[1][1] / det, -a[0][1] / det],
              [-a[1][0] / det, a[0][0] / det]]
    assert inverse_structure_matrix(alg, 1) == oracle
    assert det == qint(3)  # [2]^2 - 1


def test_inverse_matrix_identity_a3():
    alg = HeisenbergAlgebra(load_type("A", 3))
    for k in (1, 2):
        a = structure_matrix(alg, k)
        b = inverse_structure_matrix(alg, k)
        assert mat_mul(a, b) == identity(3)


def test_primed_generator_a1():
    alg = HeisenbergAlgebra(load_type("A", 1))
    [pg] = primed_generators(alg, 1)
    assert pg == AlgebraElement.from_word((h_gen(1, -1),), ONE / qint(2))


def test_primed_generators_columns_of_the_inverse():
    alg = HeisenbergAlgebra(load_type("B", 3))
    b = inverse_structure_matrix(alg, 2)
    primed = primed_generators(alg, 2)
    assert len(primed) == 3
    for j, pg in enumerate(primed):
        expected = AlgebraElement.zero()
        for m in range(3):
            expected = expected + AlgebraElement.from_word((h_gen(m + 1, -2),), b[m][j])
        assert pg == expected
    with pytest.raises(ValueError):
        primed_generators(alg, 0)


def test_primed_pairing_formal_gamma():
    alg = HeisenbergAlgebra(load_type("A", 1))
    t = relation_table(alg)
    lhs = commutator(AlgebraElement.from_gen(h_gen(1, 1)),
                     primed_generators(alg, 1)[0], t)
    assert lhs == central(gamma_bracket(1, None))


def test_primed_pairing_vanishes_off_the_diagonal():
    alg = HeisenbergAlgebra(load_type("A", 2))
    t = relation_table(alg)
    for (i, k), (j, l) in [((1, 1), (1, 2)), ((2, 3), (1, 1)), ((1, 2), (2, 2))]:
        assert not (i == j and k == l)
        lhs = commutator(AlgebraElement.from_gen(h_gen(i, k)),
                         primed_generators(alg, l)[j - 1], t)
        assert lhs.is_zero


def test_verify_canonical_relations_a2():
    alg = HeisenbergAlgebra(load_type("A", 2))
    checks = verify_canonical_relations(alg, 4)
    assert len(checks) == 3 * 4 * 16
    assert all(c.passed for c in checks)


def test_verify_canonical_relations_g2_qj():
    alg = HeisenbergAlgebra(load_type("G", 2), QJ)
    checks = verify_canonical_relations(alg, 3)
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("series,rank", [("D", 4), ("F", 4), ("C", 3)])
def test_verify_canonical_relations_rank_four_types(series, rank):
    for conv in (QJ, PLAIN):
        alg = HeisenbergAlgebra(load_type(series, rank), conv)
        assert all(c.passed for c in verify_canonical_relations(alg, 2))


def test_verify_report_json_shape():
    alg = HeisenbergAlgebra(load_type("A", 1))
    rows = report_to_json(verify_canonical_relations(alg, 1))
    assert {"relation-id", "lhs", "rhs", "residue", "pass"} == set(rows[0])
    assert all(r["pass"] for r in rows)
    assert rows[0]["relation-id"].startswith("pairing[")


def test_single_copy_relations_at_level_one():
    t = single_heisenberg_table(1)
    c1 = normal_order([a_gen(1), a_gen(-1)], t) - normal_order([a_gen(-1), a_gen(1)], t)
    assert c1 == AlgebraElement.from_scalar(qint(2))  # [2]_q [1]_q
    c2 = normal_order([a_gen(2), a_gen(-2)], t) - normal_order([a_gen(-2), a_gen(2)], t)
    assert c2 == AlgebraElement.from_scalar(qint(4) / 2 * qint(2))
    c12 = normal_order([a_gen(1), a_gen(2)], t) - normal_order([a_gen(2), a_gen(1)], t)
    assert c12.is_zero


def test_central_bracket_antisymmetry_and_level_identity():
    for k in (1, 2, 3):
        for level in (None, 1, -2, 3):
            plus = central_bracket(k, level)
            minus = central_bracket(-k, level)
            assert {g: -v for g, v in plus.items()} == minus
    # substituting gamma = q^l turns the bracket numerator into [k*l]_q
    for k in (1, 2, 4):
        for level in (1, -1, 2, 3):
            assert gamma_bracket(k, level) == {0: qint(k * level)}


def test_brackets_at_level_zero_are_empty():
    # gamma = q^0 = 1 kills both brackets, which store no zero term
    for k in (1, 2, 3, -1, -2, -3):
        assert gamma_bracket(k, 0) == central_bracket(k, 0) == {}


def test_loop_table_antisymmetric_including_mixed_lengths():
    for series, rank in [("A", 2), ("C", 2), ("G", 2)]:
        for conv in (QJ, PLAIN):
            alg = HeisenbergAlgebra(load_type(series, rank), conv)
            t = relation_table(alg)
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    for k in (1, 2, 3):
                        ab = t.central_commutator(h_gen(i, k), h_gen(j, -k))
                        ba = t.central_commutator(h_gen(j, -k), h_gen(i, k))
                        assert {g: -v for g, v in ab.items()} == ba


def test_loop_table_rejects_foreign_flavors():
    alg = HeisenbergAlgebra(load_type("A", 1))
    t = relation_table(alg)
    with pytest.raises(ValueError, match=r"generator a\[1\] is not in this presentation"):
        normal_order([a_gen(1), a_gen(-1)], t)


@pytest.mark.parametrize("level", [None, -2, 1, 3])
def test_oscillator_table_antisymmetric(level):
    # the table states [h_{ik}, h'_{i,-k}] once; the reverse order is its negative
    t = oscillator_table(level)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2, 3):
                for l in (1, 2, 3):
                    ab = t.central_commutator(h_gen(i, k), hp_gen(j, -l))
                    ba = t.central_commutator(hp_gen(j, -l), h_gen(i, k))
                    assert {g: -v for g, v in ab.items()} == ba
                    assert ab == (gamma_bracket(k, level) if (i, k) == (j, l) else {})


def test_oscillator_table_rejects_foreign_flavors():
    t = oscillator_table()
    with pytest.raises(ValueError, match=r"generator X\[1,1\] is not in this presentation"):
        normal_order([hp_gen(1, -1), x_gen(1, 1)], t)
    with pytest.raises(ValueError, match=r"generator a\[1\] is not in this presentation"):
        normal_order([a_gen(1), a_gen(-1)], t)


@pytest.mark.parametrize("wrong", [h_gen(1, -1), hp_gen(1, 1)])
def test_oscillator_table_rejects_a_generator_on_the_wrong_side(wrong):
    # the decoupled basis has h in positive and h' in negative degrees only
    t = oscillator_table(2)
    named = re.escape(f"generator {wrong.render()} is not in this presentation")
    for other in (h_gen(1, 1), hp_gen(1, -1)):
        with pytest.raises(ValueError, match=named):
            normal_order([wrong, other], t)
        with pytest.raises(ValueError, match=named):
            normal_order([other, wrong], t)


def test_single_copy_table_rejects_foreign_flavors():
    t = single_heisenberg_table()
    for a, b, named in [(h_gen(1, 1), a_gen(-1), r"h\[1,1\]"),
                        (a_gen(1), hp_gen(1, -1), r"h'\[1,-1\]")]:
        with pytest.raises(ValueError, match=f"generator {named} is not in this presentation"):
            normal_order([a, b], t)
