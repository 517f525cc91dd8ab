import dataclasses
import itertools

import pytest

from qheis.heisenberg import central_bracket
from qheis.linalg import det
from qheis.qscalar import ONE, ZERO, qint
from qheis.termalg import AlgebraElement, RelationTable, a_gen, reduce_element
from qheis.verma import (
    EmptyComponent,
    PhiSignature,
    Truncation,
    TruncationExceeded,
    VermaModule,
    build_module,
    degree_counts,
    partition_count,
)

PLUS = PhiSignature.parse("+")
MIXED = PhiSignature.parse("+-:+")  # sign flips at index 2 only


def brute_force_dims(module, degree):
    """Independent enumerator: walk every exponent vector below the bounds."""
    N, E = module.truncation.max_index, module.truncation.max_exponent
    degs = [module.lowering_degree(i) for i in range(1, N + 1)]
    count = 0
    for exps in itertools.product(range(E + 1), repeat=N):
        if sum(e * d for e, d in zip(exps, degs)) == degree:
            count += 1
    return count


# -- the rewriting route, kept as the oracle for the closed forms in verma ----


def is_lowering(module, gen):
    return gen.degree == module.lowering_degree(abs(gen.degree))


def rewriting_table(module):
    """The module's presentation: [a_k, a_-k] = c_k at its level, with the
    lowering generators ordered first, so that a normal word ends in the
    raising factors that kill the highest vector."""
    def comm(a, b):
        return central_bracket(a.degree, module.level) if a.degree + b.degree == 0 else {}

    return RelationTable("verma", lambda g: (0 if is_lowering(module, g) else 1, g.degree), comm)


def monomial_word(module, exps, raising=False):
    """The normal-ordered word of the lowering monomial with these exponents,
    or of its raising counterpart."""
    sign = -1 if raising else 1
    gens = []
    for i, e in enumerate(exps, start=1):
        gens.extend([a_gen(sign * module.lowering_degree(i))] * e)
    gens.sort(key=rewriting_table(module).sort_key)
    return tuple(gens)


def act_by_rewriting(module, j, exps):
    """Reference route for act: normal-order a_j times the monomial and
    apply the result to the highest vector, in the basis."""
    N, E = module.truncation.max_index, module.truncation.max_exponent
    word = (a_gen(j),) + monomial_word(module, exps)
    reduced = reduce_element(AlgebraElement.from_word(word), rewriting_table(module))
    out = {}
    for (w, g), coeff in reduced.items():
        if g != 0:
            raise ValueError("gamma must be specialized to a level")
        if any(not is_lowering(module, t) for t in w):
            continue  # a raising factor reaches the highest vector
        image = [0] * N
        for t in w:
            i = abs(t.degree)
            if i > N:
                raise TruncationExceeded(f"index {i} exceeds bound {N}")
            image[i - 1] += 1
        if any(e > E for e in image):
            raise TruncationExceeded(f"exponent bound {E} exceeded")
        out[tuple(image)] = out.get(tuple(image), ZERO) + coeff
    return {v: c for v, c in out.items() if not c.is_zero}


def vacuum_pairing_unfactored(module, u_exps, w_exps):
    """Reference route: reduce the full word sigma(u) w at once and read off
    the highest-vector coefficient."""
    word = monomial_word(module, u_exps, raising=True) + monomial_word(module, w_exps)
    reduced = reduce_element(AlgebraElement.from_word(word), rewriting_table(module))
    return sum((c for (w, g), c in reduced.items() if not w), ZERO)


def test_phi_signature_parse_render_eval():
    assert PLUS.prefix == () and PLUS.period == (1,)
    assert MIXED.prefix == (1, -1) and MIXED.period == (1,)
    assert [MIXED(i) for i in range(1, 6)] == [1, -1, 1, 1, 1]
    assert MIXED.render() == "+-:+"
    assert PhiSignature.parse("-").render() == "-"
    two = PhiSignature.parse(":+-")
    assert [two(i) for i in range(1, 6)] == [1, -1, 1, -1, 1]
    with pytest.raises(ValueError):
        PhiSignature.parse("+x")
    with pytest.raises(ValueError):
        PhiSignature((1,), ())
    with pytest.raises(ValueError):
        PLUS(0)


def test_signature_constancy_probes():
    assert PLUS.is_constant()
    assert not MIXED.is_constant()
    assert MIXED.constant_on_window(1)
    assert not MIXED.constant_on_window(2)
    late = PhiSignature.parse("+++:-")
    assert late.constant_on_window(3)
    assert not late.is_constant()


def test_constant_sign_rejects_nonconstant_signatures():
    # an explicit check, so it holds under python -O as well
    assert PLUS.constant_sign() == 1
    assert PhiSignature.parse("-").constant_sign() == -1
    for text in ("+-", "+-:+", "+++:-"):
        with pytest.raises(ValueError, match="not constant"):
            PhiSignature.parse(text).constant_sign()


def test_basis_components_small_truncations():
    m = build_module(PLUS, 1, Truncation(3, 2))
    comp = m.basis_component(-2)
    assert comp == [(0, 1, 0), (2, 0, 0)]  # a_{-2} v and a_{-1}^2 v
    assert m.basis_component(0) == [(0, 0, 0)]
    mm = build_module(PhiSignature.parse("-:+"), 1, Truncation(2, 2))
    assert mm.basis_component(0) == [(0, 0), (2, 1)]  # v and a_1^2 a_{-2} v


def test_basis_component_of_a_long_truncation_does_not_recurse():
    # one Python frame per index would pass the interpreter's recursion limit
    m = build_module(PLUS, 1, Truncation(1500, 1))
    basis = m.basis_component(-3)
    assert [[i + 1 for i, e in enumerate(vec) if e] for vec in basis] == [[3], [1, 2]]


def test_basis_positive_degree_empty_for_constant_plus():
    m = build_module(PLUS, 1, Truncation(4, 4))
    assert m.basis_component(1) == []
    assert m.truncated_dim(1) == 0


def test_act_examples():
    m = build_module(PLUS, 1, Truncation(4, 4))
    v = (0, 0, 0, 0)
    down = m.act(-1, v)
    assert down == {(1, 0, 0, 0): ONE}
    up = m.act(1, (1, 0, 0, 0))
    assert up == {v: qint(2)}  # c_1 = ([2]_q/1)[1]_q
    assert m.act(-2, v) == {(0, 1, 0, 0): ONE}
    assert m.act(2, (1, 0, 0, 0)) == {}


def test_act_truncation_errors():
    m = build_module(PLUS, 1, Truncation(2, 2))
    with pytest.raises(TruncationExceeded):
        m.act(-3, (0, 0))
    with pytest.raises(TruncationExceeded):
        m.act(-1, (2, 0))


def test_act_rejects_a_vector_that_is_not_a_basis_vector():
    m = build_module(PLUS, 1, Truncation(2, 2))
    for exps in [(0,), (0, 0, 0), (1, 0, 1), (3, 0), (-1, 0)]:
        for j in (-1, 1):
            with pytest.raises(ValueError, match="not a basis vector"):
                m.act(j, exps)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("phi", ["+", "-", "+-:+", "-:+", ":+-", "-+:-"])
def test_act_equals_the_rewriting_route(phi):
    for level in (-2, 0, 1, 3, None):
        for n_max, e_max in ((3, 2), (2, 3), (4, 2)):
            m = build_module(PhiSignature.parse(phi), level, Truncation(n_max, e_max))
            js = [j for i in range(1, n_max + 2) for j in (-i, i)]
            for exps in itertools.product(range(e_max + 1), repeat=n_max):
                for j in js:
                    assert (_outcome(lambda: m.act(j, exps))
                            == _outcome(lambda: act_by_rewriting(m, j, exps))), (level, j, exps)


def test_module_axioms_at_truncation():
    for phi, level in [(PLUS, 1), (MIXED, -2), (PhiSignature.parse("-"), 3)]:
        m = build_module(phi, level, Truncation(3, 4))
        v = (1, 1, 0)

        def act_elem(j, vec_map):
            out = {}
            for vec, c in vec_map.items():
                for w, cc in m.act(j, vec).items():
                    val = out.get(w, ZERO) + c * cc
                    if val.is_zero:
                        out.pop(w, None)
                    else:
                        out[w] = val
            return out

        for i, j in [(1, -1), (2, -2), (1, 2), (-1, -2), (3, -3)]:
            one_way = act_elem(i, act_elem(j, {v: ONE}))
            other = act_elem(j, act_elem(i, {v: ONE}))
            diff = dict(one_way)
            for w, c in other.items():
                val = diff.get(w, ZERO) - c
                if val.is_zero:
                    diff.pop(w, None)
                else:
                    diff[w] = val
            if i + j == 0:
                expected = central_bracket(i, level)[0]
                assert diff == ({v: expected} if not expected.is_zero else {})
            else:
                assert diff == {}


def test_graded_dims_are_partition_numbers():
    m = build_module(PLUS, 1, Truncation(10, 10))
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, p in enumerate(known):
        rep = m.graded_dim(-n)
        assert rep.truncated_dim == p
        assert rep.verdict.render() == f"FINITE({p})"
    assert m.graded_dim(1).truncated_dim == 0
    assert m.graded_dim(1).verdict.render() == "FINITE(0)"


def test_graded_dims_match_brute_force():
    for phi in (PLUS, MIXED, PhiSignature.parse("-"), PhiSignature.parse("-+:-")):
        m = build_module(phi, 1, Truncation(4, 3))
        for n in range(-8, 9):
            assert m.truncated_dim(n) == brute_force_dims(m, n)


def test_partition_function_values():
    assert [partition_count(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_graded_dim_verdicts():
    mixed = build_module(MIXED, 1, Truncation(6, 6))
    for n in (-3, 0, 2):
        assert mixed.graded_dim(n).verdict.kind == "INFINITE"
    # constant within the window but mixed beyond it
    late = build_module(PhiSignature.parse("++++++++:-"), 1, Truncation(6, 6))
    assert late.graded_dim(-2).verdict.kind == "UNKNOWN_AT_TRUNCATION"
    minus = build_module(PhiSignature.parse("-"), 1, Truncation(6, 6))
    rep = minus.graded_dim(3)
    assert rep.verdict.render() == "FINITE(3)"
    assert rep.truncated_dim == 3


def test_degree_zero_growth_witness_for_mixed_signature():
    dims = [build_module(MIXED, 1, Truncation(6, e)).truncated_dim(0)
            for e in range(1, 7)]
    assert all(a < b for a, b in zip(dims, dims[1:]))


def test_gram_matrix_degree_one_and_two():
    m = build_module(PLUS, 1, Truncation(6, 6))
    g1 = m.gram_matrix(-1)
    assert g1 == [[qint(2)]]
    g2 = m.gram_matrix(-2)
    assert g2[0][1] == ZERO and g2[1][0] == ZERO
    assert g2[0][0] == qint(4) / 2 * qint(2)
    assert g2[1][1] == qint(2) * qint(2) * 2


def test_gram_matrix_level_zero_vanishes():
    m = build_module(PLUS, 0, Truncation(4, 4))
    for n in (-1, -2, -3):
        g = m.gram_matrix(n)
        assert all(x.is_zero for row in g for x in row)


def test_gram_matrix_symmetric():
    m = build_module(MIXED, 2, Truncation(4, 3))
    for n in (-2, 0, 1):
        basis = m.basis_component(n)
        if not basis:
            continue
        g = m.gram_matrix(n)
        assert g == [[g[j][i] for j in range(len(g))] for i in range(len(g))]


def test_vacuum_pairing_factored_equals_full_reduction():
    for phi, level in [(PLUS, 1), (MIXED, -2)]:
        m = build_module(phi, level, Truncation(3, 2))
        for n in range(-4, 5):
            for u in m.basis_component(n):
                for w in m.basis_component(n):
                    assert m.vacuum_pairing(u, w) == vacuum_pairing_unfactored(m, u, w)


@pytest.mark.parametrize("level", [-2, 0, 1, 3])
@pytest.mark.parametrize("phi", ["+", "-", "+-:+", "-:+"])
def test_gram_dets_equal_det_of_the_rewritten_gram_block(phi, level):
    # full rewriting of every entry is exponential in the exponent bound, so the
    # mixed signatures, whose blocks are larger, stop at a smaller truncation
    signature = PhiSignature.parse(phi)
    bounds = [(4, 3)] if signature.is_constant() else [(2, 3), (3, 2), (4, 2)]
    for n_max, e_max in bounds:
        m = build_module(signature, level, Truncation(n_max, e_max))
        rep = m.irreducible_at_truncation()
        assert [n for n, _ in rep.gram_dets] == [n for n in range(-n_max, n_max + 1)
                                                 if m.basis_component(n)]
        for n, d in rep.gram_dets:
            basis = m.basis_component(n)
            block = [[vacuum_pairing_unfactored(m, u, w) for w in basis] for u in basis]
            assert d == det(block), (phi, level, n_max, e_max, n)


@pytest.mark.parametrize("level", range(-3, 4))
@pytest.mark.parametrize("phi", ["+", "-", "+-:+", "-:+"])
def test_gram_dets_equal_the_product_of_the_diagonal_pairings(phi, level):
    # the one-power-per-index closed form against one vacuum_pairing per vector
    for n_max, e_max in itertools.product(range(1, 5), repeat=2):
        m = build_module(PhiSignature.parse(phi), level, Truncation(n_max, e_max))
        for n, d in m.irreducible_at_truncation().gram_dets:
            diagonal = ONE
            for u in m.basis_component(n):
                diagonal = diagonal * m.vacuum_pairing(u, u)
            assert d == diagonal, (n_max, e_max, n)


def test_unspecialized_gamma_is_rejected():
    # a formal level leaves gamma powers that no basis vector carries
    m = build_module(PLUS, None, Truncation(2, 2))
    with pytest.raises(ValueError, match="gamma"):
        m.act(1, (1, 0))
    with pytest.raises(ValueError, match="gamma"):
        m.vacuum_pairing((1, 0), (1, 0))


def test_gram_empty_component():
    m = build_module(PLUS, 1, Truncation(3, 3))
    with pytest.raises(EmptyComponent):
        m.gram_matrix(2)


def test_irreducible_verdicts():
    rep = build_module(PLUS, 1, Truncation(6, 6)).irreducible_at_truncation()
    assert rep.verdict == "IRREDUCIBLE-CONSISTENT"
    assert rep.witness_degree is None
    assert all(not c.is_zero for _, c in rep.pairing_scalars)

    rep0 = build_module(PLUS, 0, Truncation(4, 4)).irreducible_at_truncation()
    assert rep0.verdict == "REDUCIBLE"
    assert rep0.witness_degree in (1, -1)

    repm = build_module(PhiSignature.parse("-:+"), -2,
                        Truncation(4, 3)).irreducible_at_truncation()
    assert repm.verdict == "IRREDUCIBLE-CONSISTENT"

    rep0m = build_module(MIXED, 0, Truncation(3, 2)).irreducible_at_truncation()
    assert rep0m.verdict == "REDUCIBLE"
    assert rep0m.witness_degree in (1, -1)


def test_report_shape():
    m = build_module(MIXED, 1, Truncation(3, 2))
    obj = m.report(degrees=[-1, 0, 1])
    assert obj["phi"] == {"prefix": "+-", "period": "+"}
    assert obj["level"] == 1
    assert obj["truncation"] == {"max_index": 3, "max_exponent": 2}
    assert [row["n"] for row in obj["degrees"]] == [-1, 0, 1]
    assert all({"n", "dim", "verdict"} == set(row) for row in obj["degrees"])
    assert all({"n", "det", "nonzero"} == set(row) for row in obj["gram"])
    assert obj["verdict"] == "IRREDUCIBLE-CONSISTENT"
    assert obj["witness_degree"] is None
    assert list(obj)[:3] == list(m.header()) == ["phi", "level", "truncation"]


def test_module_is_an_immutable_value():
    m = build_module(MIXED, 2, Truncation(3, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.level = 3
    twin = VermaModule(PhiSignature.parse("+-:+"), 2, Truncation(3, 2))
    assert m == twin and hash(m) == hash(twin)
    assert m != build_module(MIXED, 1, Truncation(3, 2))


def test_degree_counts_do_not_depend_on_the_level():
    counts = degree_counts(MIXED, Truncation(4, 3))
    assert sum(counts.values()) == 4 ** 4
    for level in (None, -2, 0, 1, 3):
        m = build_module(MIXED, level, Truncation(4, 3))
        assert [m.truncated_dim(n) for n in range(-30, 31)] == \
            [counts.get(n, 0) for n in range(-30, 31)]


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(0, 3)
    with pytest.raises(ValueError):
        Truncation(3, 0)
