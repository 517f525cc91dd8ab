import itertools
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    convolve,
    inverse_euler_cut,
    inverse_euler_divisor_sums,
    load_benchmark_oracle,
    partition_pentagonal,
    partition_table,
)

import qheis.verma as verma
from qheis.heisenberg import UnspecializedGamma, central_bracket
from qheis.linalg import det
from qheis.qscalar import ONE, ZERO, power_product, qint
from qheis.termalg import FLAVOR_A, AlgebraElement, RelationTable, a_gen, reduce_element
from qheis.verma import (
    EmptyComponent,
    PhiSignature,
    Truncation,
    TruncationExceeded,
    VermaModule,
    _divide_out,
    _multiply_in,
    build_module,
    degree_counts,
    partition_count,
)

PLUS = PhiSignature.parse("+")
MIXED = PhiSignature.parse("+-:+")  # sign flips at index 2 only


def brute_force_dims(module, degree):
    """Independent enumerator: walk every exponent vector below the bounds."""
    N, E = module.truncation.max_index, module.truncation.max_exponent
    degs = [module.phi.lowering_degree(i) for i in range(1, N + 1)]
    count = 0
    for exps in itertools.product(range(E + 1), repeat=N):
        if sum(e * d for e, d in zip(exps, degs)) == degree:
            count += 1
    return count


# -- the rewriting route, kept as the oracle for the closed forms in verma ----


def is_lowering(module, gen):
    return gen.degree == module.phi.lowering_degree(abs(gen.degree))


def rewriting_table(module):
    """The module's presentation: [a_k, a_-k] = c_k at its level, with the
    lowering generators ordered first, so that a normal word ends in the
    raising factors that kill the highest vector."""
    def comm(a, b):
        return central_bracket(a.degree, module.level) if a.degree + b.degree == 0 else {}

    return RelationTable(lambda g: (0 if is_lowering(module, g) else 1, g.degree), comm,
                         lambda g: g.flavor == FLAVOR_A)


def monomial_word(module, exps, raising=False):
    """The normal-ordered word of the lowering monomial with these exponents,
    or of its raising counterpart."""
    sign = -1 if raising else 1
    gens = []
    for i, e in enumerate(exps, start=1):
        gens.extend([a_gen(sign * module.phi.lowering_degree(i))] * e)
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
            raise UnspecializedGamma("gamma is still formal; specialize it first")
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


def unpruned_basis_component(module, n):
    """Reference enumeration: keep every prefix whose residual lies between
    what the later indices can reach at most and at least, reachable or not."""
    N, E = module.truncation.max_index, module.truncation.max_exponent
    degs = [module.phi.lowering_degree(i) for i in range(1, N + 1)]
    lo = [0] * (N + 1)
    hi = [0] * (N + 1)
    for i in range(N - 1, -1, -1):
        lo[i] = lo[i + 1] + min(0, E * degs[i])
        hi[i] = hi[i + 1] + max(0, E * degs[i])
    layer = [((), n)]
    for idx, deg in enumerate(degs, start=1):
        layer = [(vec + (e,), r - e * deg) for vec, r in layer for e in range(E + 1)
                 if lo[idx] <= r - e * deg <= hi[idx]]
    return [vec for vec, _ in layer]


def block_det_by_enumeration(module, n):
    """Reference route for a Gram determinant: enumerate the degree-n basis and
    take each index's exponent sum and factorials from its column."""
    count = 1
    powers = []
    for i, column in enumerate(zip(*module.basis_component(n)), start=1):
        total = sum(column)
        if not total:
            continue
        c = module._pairing_scalar(i)
        if c.is_zero:
            return ZERO
        count *= module.phi(i) ** total * prod(map(factorial, column))
        powers.append((c, total))
    return power_product(powers, count)


def test_phi_signature_parse_render_eval():
    assert PLUS.prefix == () and PLUS.period == (1,)
    assert MIXED.prefix == (1, -1) and MIXED.period == (1,)
    assert [MIXED(i) for i in range(1, 6)] == [1, -1, 1, 1, 1]
    assert [MIXED.lowering_degree(i) for i in range(1, 5)] == [-1, 2, -3, -4]
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
    for prefix, period in [((0,), (1,)), ((), (1, 2)), ((), (1, "+"))]:
        with pytest.raises(ValueError, match="signs must be"):
            PhiSignature(prefix, period)


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


def test_basis_component_of_a_long_truncation_lists_the_distinct_partitions():
    # with E = 1 and phi = +, degree -n holds one vector per partition of n
    # into distinct parts; only the first few of the 1500 indices can be used
    m = build_module(PLUS, 1, Truncation(1500, 1))
    for n, parts in enumerate([1, 1, 1, 2, 2, 3, 4, 5, 6]):
        basis = m.basis_component(-n)
        assert len(basis) == parts
        assert all(sum(i + 1 for i, e in enumerate(vec) if e) == n for vec in basis)


@pytest.mark.parametrize("phi", ["+", "-", "+-:+", "-:+", "-+:-"])
def test_basis_component_equals_the_unpruned_enumeration(phi):
    for n_max, e_max in itertools.product(range(1, 5), repeat=2):
        m = build_module(PhiSignature.parse(phi), 1, Truncation(n_max, e_max))
        reach = e_max * n_max * (n_max + 1) // 2
        for n in range(-reach - 2, reach + 3):
            assert m.basis_component(n) == unpruned_basis_component(m, n), (n_max, e_max, n)


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


def test_act_rejects_degree_zero():
    m = build_module(PLUS, 1, Truncation(2, 2))
    with pytest.raises(ValueError, match="degree must be nonzero"):
        m.act(0, (0, 0))


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
    assert partition_count(-1) == 0


def test_pentagonal_partition_table_equals_the_part_by_part_table(monkeypatch):
    # partition_count reads the rank-1 table, grown on demand from p(0) alone
    # and out of order, against the pentagonal recurrence and the table that
    # adds one part size at a time
    monkeypatch.setattr(verma, "_PARTITION_SERIES", {})
    want = partition_table(500)
    assert partition_pentagonal(500) == want
    for n in (37, 500, 12, 499, 0):
        assert partition_count(n) == want[n]
    assert [partition_count(n) for n in range(501)] == want
    assert len(verma._PARTITION_SERIES[1]) == 501


@pytest.mark.parametrize("rank", range(1, 9))
def test_power_recurrence_table_equals_the_divisor_sum_table(rank, monkeypatch):
    # Miller's recurrence on Euler's series, grown from a(0) in three steps,
    # against the divisor-sum recurrence and the product cut at degree 300
    monkeypatch.setattr(verma, "_PARTITION_SERIES", {})
    want = inverse_euler_divisor_sums(rank, 300)
    assert want == inverse_euler_cut(rank, 300)
    for far in (7, 0, 300, 150):
        assert verma.partition_series(rank, far)[:far + 1] == want[:far + 1]
    assert len(verma._PARTITION_SERIES[rank]) == 301


# -- one geometric factor at a time, against the dense convolution -----------

_SERIES = st.dictionaries(st.integers(-15, 15), st.integers(-4, 4).filter(bool),
                          min_size=1, max_size=8)


def _dense(counts, lo, hi):
    return [counts.get(n, 0) for n in range(lo, hi + 1)]


def _sparse(coeffs, lo):
    return {lo + j: c for j, c in enumerate(coeffs) if c}


@settings(max_examples=300, deadline=None)
@given(_SERIES, st.integers(-6, 6).filter(bool), st.integers(0, 8))
def test_multiplying_in_a_factor_equals_the_convolution(counts, deg, E):
    want = {n: c for n, c in convolve(counts, {e * deg: 1 for e in range(E + 1)}).items() if c}
    # with room for the whole product
    lo, hi = min(counts) + min(0, E * deg), max(counts) + max(0, E * deg)
    coeffs = _dense(counts, lo, hi)
    _multiply_in(coeffs, deg, E)
    product = _sparse(coeffs, lo)
    assert product == want
    assert _divide_out(product, deg, E) == counts
    # with room for the degrees of counts only: what falls past the end is dropped
    lo, hi = min(counts), max(counts)
    coeffs = _dense(counts, lo, hi)
    _multiply_in(coeffs, deg, E)
    assert _sparse(coeffs, lo) == {n: c for n, c in want.items() if lo <= n <= hi}


_bench_oracle = load_benchmark_oracle()


@pytest.mark.parametrize("phi", ["+", "-", "+-:+", "-:+", "-+:-", "++-:+-"])
def test_degree_counts_equal_the_benchmark_oracle(phi):
    for n_max, e_max in itertools.product(range(1, 7), repeat=2):
        assert degree_counts(PhiSignature.parse(phi), Truncation(n_max, e_max)) == \
            _bench_oracle.degree_counts(phi, n_max, e_max), (n_max, e_max)


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


@pytest.mark.parametrize("phi", ["+", "-", "+-:+", "-:+", "-+:-", "++-:+-"])
def test_gram_dets_from_the_counts_equal_the_enumerated_blocks(phi):
    for level in range(-3, 4):
        for n_max, e_max in itertools.product(range(1, 4), repeat=2):
            m = build_module(PhiSignature.parse(phi), level, Truncation(n_max, e_max))
            want = [(n, block_det_by_enumeration(m, n)) for n in range(-n_max, n_max + 1)
                    if m.basis_component(n)]
            assert list(m.irreducible_at_truncation().gram_dets) == want, (level, n_max, e_max)


def test_irreducible_at_truncation_builds_no_basis(monkeypatch):
    modules = [build_module(PhiSignature.parse(phi), level, Truncation(4, 3))
               for phi, level in [("+", 2), ("+-:+", 0), ("++-:+-", -2), ("-+:-", 1)]]
    before = [(m.irreducible_at_truncation(), m.report()) for m in modules]

    def refuse(self, n):
        raise AssertionError("the Gram blocks come from the degree counts")

    monkeypatch.setattr(VermaModule, "basis_component", refuse)
    assert [(m.irreducible_at_truncation(), m.report()) for m in modules] == before


def test_unspecialized_gamma_is_rejected():
    # a formal level leaves gamma powers that no basis vector carries
    m = build_module(PLUS, None, Truncation(2, 2))
    with pytest.raises(UnspecializedGamma, match="gamma is still formal"):
        m.act(1, (1, 0))
    with pytest.raises(UnspecializedGamma, match="gamma is still formal"):
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
    obj = m.report()
    assert obj["phi"] == {"prefix": "+-", "period": "+"}
    assert obj["level"] == 1
    assert obj["truncation"] == {"max_index": 3, "max_exponent": 2}
    assert [row["n"] for row in obj["degrees"]] == list(range(-3, 4))
    assert all({"n", "dim", "verdict"} == set(row) for row in obj["degrees"])
    assert all({"n", "det", "nonzero"} == set(row) for row in obj["gram"])
    assert obj["verdict"] == "IRREDUCIBLE-CONSISTENT"
    assert obj["witness_degree"] is None
    assert list(obj)[:3] == list(m.header()) == ["phi", "level", "truncation"]


def test_module_is_an_immutable_value():
    m = build_module(MIXED, 2, Truncation(3, 2))
    with pytest.raises(AttributeError):
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


@pytest.mark.parametrize("short,long", [("-", "--"), ("+-:+", "+-:++")],
                         ids=["minus", "mixed"])
def test_one_signature_spelled_two_ways_shares_one_count_table(short, long):
    # the counts are cached on the lowering degrees, not on the spelling
    for trunc in (Truncation(1, 1), Truncation(4, 3)):
        assert degree_counts(PhiSignature.parse(short), trunc) is \
            degree_counts(PhiSignature.parse(long), trunc)
