import itertools
from collections import Counter
from functools import reduce

import pytest
from oracles import convolve, inverse_euler_cut, partition_pentagonal

import qheis.verma as verma
from qheis.cartan import load_type, positive_roots
from qheis.loopweights import (
    GradedDims,
    NotInSupport,
    _shift_series,
    phi_verma_graded_dims,
    phi_verma_weight_dim,
    support_contains,
    weight_multiplicity,
)
from qheis.verma import PhiSignature, Truncation, degree_counts, partition_count

PLUS = PhiSignature.parse("+")
MINUS = PhiSignature.parse("-")
MIXED = PhiSignature.parse("+-:+")


# -- independent oracle: explicit multiset enumeration ----------------------

def brute_force_count(cartan, beta, k, vdims, window):
    items = sorted((r.coeffs, m) for r in positive_roots(cartan)
                   for m in range(-window, window + 1))
    total = 0

    def rec(idx, remaining, shift):
        nonlocal total
        if all(c == 0 for c in remaining):
            total += vdims.dim(k - shift)[0]
            return
        if idx == len(items):
            return
        alpha, m = items[idx]
        max_mult = min((rc // ac) for rc, ac in zip(remaining, alpha) if ac) \
            if any(alpha) else 0
        for mult in range(max_mult + 1):
            rest = tuple(rc - mult * ac for rc, ac in zip(remaining, alpha))
            if all(c >= 0 for c in rest):
                rec(idx + 1, rest, shift + mult * m)

    rec(0, tuple(beta), 0)
    return total


def _one_sign(phis):
    # every signature used here has settled by index 8
    return len({phi(i) for phi in phis for i in range(1, 9)}) == 1


def brute_force_dims(phis, lo, hi, trunc):
    """Monomials in the lowering generators of every node, counted by degree on
    [lo, hi] by enumerating exponent vectors.  Nodes that are all constant
    with one sign form the untruncated module, so their generators run up to
    the window's reach; otherwise the truncation bounds index and exponent."""
    reach = max(abs(lo), abs(hi))
    untruncated = _one_sign(phis)
    gens = []  # (degree, largest exponent) of each generator of each node
    for phi in phis:
        if untruncated:
            gens += [(-i if phi(i) > 0 else i, reach // i) for i in range(1, reach + 1)]
        else:
            gens += [(-i if phi(i) > 0 else i, trunc.max_exponent)
                     for i in range(1, trunc.max_index + 1)]
    counts = Counter()
    for exps in itertools.product(*(range(top + 1) for _, top in gens)):
        m = sum(e * deg for e, (deg, _) in zip(exps, gens))
        if lo <= m <= hi:
            counts[m] += 1
    return counts


def test_support_membership():
    assert support_contains((0,))
    assert support_contains((1,))
    assert not support_contains((-1,))
    assert not support_contains((1, -1))


def test_single_factor_window_count():
    cd = load_type("A", 1)
    vdims = GradedDims.constant_line(-5, 5)
    rep = weight_multiplicity(cd, (1,), 0, vdims, 3)
    assert rep.truncated_count == 7  # one monomial per shift in {-3..3}
    assert rep.verdict.kind == "INFINITE"


def test_beta_zero_column_is_inducing_dimension():
    cd = load_type("A", 1)
    vdims = GradedDims({-2: 5, 0: 1, 3: 2}, frozenset(), (-2, 3))
    for k in (-2, 0, 1, 3):
        rep = weight_multiplicity(cd, (0,), k, vdims, 3)
        assert rep.truncated_count == vdims.dim(k)[0]
        assert rep.verdict.render() == f"FINITE({vdims.dim(k)[0]})"
    marked = GradedDims({0: 4}, frozenset({0}), (0, 0))
    assert weight_multiplicity(cd, (0,), 0, marked, 2).verdict.kind == "INFINITE"


def test_infinite_requires_reachable_component():
    cd = load_type("A", 1)
    rep = weight_multiplicity(cd, (1,), 0, GradedDims.line(0), 3)
    assert rep.verdict.kind == "INFINITE" and rep.truncated_count == 1
    far = weight_multiplicity(cd, (1,), 0, GradedDims.line(100), 3)
    assert far.verdict.kind == "UNKNOWN_AT_TRUNCATION"
    assert far.truncated_count == 0


def test_not_in_support():
    cd = load_type("A", 1)
    with pytest.raises(NotInSupport):
        weight_multiplicity(cd, (-1,), 0, GradedDims.line(0), 3)
    with pytest.raises(NotInSupport):
        phi_verma_weight_dim(cd, PLUS, (-1,), 0, 3, Truncation(3, 3))


def test_negative_window_rejected():
    cd = load_type("A", 1)
    with pytest.raises(ValueError, match="window"):
        weight_multiplicity(cd, (0,), 0, GradedDims.line(0), -1)
    with pytest.raises(ValueError, match="window"):
        phi_verma_weight_dim(cd, PLUS, (0,), 0, -1, Truncation(3, 3))
    assert weight_multiplicity(cd, (0,), 0, GradedDims.line(0), 0).truncated_count == 1


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2)])
def test_counts_match_brute_force(series, rank):
    cd = load_type(series, rank)
    vdims = GradedDims({m: max(0, 2 - abs(m)) for m in range(-4, 5)},
                       frozenset(), (-4, 4))
    betas = [b for b in itertools.product(range(4), repeat=rank) if sum(b) <= 3]
    for beta in betas:
        for k in range(-3, 4):
            for window in (1, 2, 3):
                rep = weight_multiplicity(cd, beta, k, vdims, window)
                assert rep.truncated_count == brute_force_count(cd, beta, k, vdims, window)


@pytest.mark.parametrize("series,rank,betas", [
    ("A", 1, [(0,), (1,), (3,)]),
    ("A", 2, [(1, 1), (2, 1)]),
    ("C", 2, [(1, 1), (1, 2)]),
    ("G", 2, [(1, 1), (2, 1)]),
])
def test_shift_series_matches_multiset_enumeration(series, rank, betas):
    cd = load_type(series, rank)
    for beta in betas:
        for window in (0, 1, 2):
            reach = window * sum(beta)
            # with the inducing module on degree 0 alone, the count at k is
            # the number of multisets with total shift k
            brute = {d: brute_force_count(cd, beta, d, GradedDims.line(0), window)
                     for d in range(-reach, reach + 1)}
            assert _shift_series(cd, beta, window) == {d: c for d, c in brute.items() if c}


def test_count_symmetric_in_shift_for_centered_inducing_module():
    cd = load_type("A", 2)
    vdims = GradedDims.line(0)
    for beta in [(1, 0), (1, 1), (2, 1)]:
        for m in (1, 2, 3):
            plus = weight_multiplicity(cd, beta, m, vdims, 3)
            minus = weight_multiplicity(cd, beta, -m, vdims, 3)
            assert plus.truncated_count == minus.truncated_count


def test_count_monotone_in_window():
    cd = load_type("A", 1)
    vdims = GradedDims.constant_line(-9, 9)
    counts = [weight_multiplicity(cd, (1,), 0, vdims, w).truncated_count
              for w in range(1, 6)]
    assert all(a < b for a, b in zip(counts, counts[1:]))
    line0 = [weight_multiplicity(cd, (1,), 0, GradedDims.line(0), w).truncated_count
             for w in range(1, 6)]
    assert all(a <= b for a, b in zip(line0, line0[1:]))


def test_phi_verma_constant_signature():
    cd = load_type("A", 1)
    rep = phi_verma_weight_dim(cd, PLUS, (0,), -2, 3, Truncation(6, 6))
    assert rep.truncated_count == partition_count(2) == 2
    assert rep.verdict.render() == "FINITE(2)"
    repm = phi_verma_weight_dim(cd, MINUS, (0,), 3, 3, Truncation(6, 6))
    assert repm.verdict.render() == "FINITE(3)"
    zero_side = phi_verma_weight_dim(cd, PLUS, (0,), 2, 3, Truncation(6, 6))
    assert zero_side.verdict.render() == "FINITE(0)"


def test_phi_verma_mixed_signature_infinite():
    cd = load_type("A", 1)
    for beta, k in [((0,), 0), ((1,), 2), ((0,), -1)]:
        rep = phi_verma_weight_dim(cd, MIXED, beta, k, 3, Truncation(4, 4))
        assert rep.verdict.kind == "INFINITE"


def test_phi_verma_nonzero_beta_infinite():
    cd = load_type("A", 1)
    rep = phi_verma_weight_dim(cd, PLUS, (1,), 0, 3, Truncation(4, 4))
    assert rep.verdict.kind == "INFINITE"
    assert rep.truncated_count == sum(partition_count(m) for m in range(4))  # shifts 0..-3 reachable
    # no inducing component inside the window: still infinite, with count 0
    far = phi_verma_weight_dim(cd, PLUS, (1,), 10, 1, Truncation(4, 4))
    assert (far.verdict.kind, far.truncated_count) == ("INFINITE", 0)


def test_phi_verma_rank_two_convolution():
    cd = load_type("A", 2)
    rep = phi_verma_weight_dim(cd, PLUS, (0, 0), -2, 2, Truncation(6, 6))
    # two tensor factors: p(0)p(2) + p(1)p(1) + p(2)p(0)
    assert rep.truncated_count == 2 + 1 + 2
    assert rep.verdict.render() == "FINITE(5)"
    per_node = [PLUS, MINUS]
    mixed_dirs = phi_verma_weight_dim(cd, per_node, (0, 0), 0, 2, Truncation(4, 4))
    assert mixed_dirs.verdict.kind == "INFINITE"


def test_phi_verma_graded_dims_window():
    dims = phi_verma_graded_dims([PLUS], -4, 1, Truncation(6, 6))
    assert [dims.dim(m)[0] for m in range(-4, 2)] == [5, 3, 2, 1, 1, 0]
    assert not any(dims.dim(m)[1] for m in range(-4, 2))
    mixed = phi_verma_graded_dims([MIXED], -2, 2, Truncation(4, 4))
    assert all(mixed.dim(m)[1] for m in range(-2, 3))


_SIGNATURES = {
    1: ["+", "-", "+-:+", "-:+"],
    2: ["+,+", "-,-", "+,-", "+-:+,+"],
    3: ["+,+,+", "-,-,-", "+,-,+", "+-:+,-,:+-"],
}
_REACH = {1: 7, 2: 5, 3: 3}
_TRUNC = {1: Truncation(4, 3), 2: Truncation(3, 3), 3: Truncation(3, 2)}


@pytest.mark.parametrize("rank,signs", [(r, s) for r, signs in _SIGNATURES.items()
                                        for s in signs])
def test_phi_verma_graded_dims_match_brute_force(rank, signs):
    phis = [PhiSignature.parse(s) for s in signs.split(",")]
    r = _REACH[rank]
    # below, above and straddling 0: a constant sign reaches its window's far end
    for lo, hi in [(-r, -1), (1, r), (-r, 2), (-2, r)]:
        dims = phi_verma_graded_dims(phis, lo, hi, _TRUNC[rank])
        brute = brute_force_dims(phis, lo, hi, _TRUNC[rank])
        assert [dims.dim(m)[0] for m in range(lo, hi + 1)] == \
            [brute[m] for m in range(lo, hi + 1)]
        assert dims.infinite == (frozenset() if _one_sign(phis) else frozenset(range(lo, hi + 1)))


@pytest.mark.parametrize("signs", ["+-:+", "+,-", "-:+,-+:-", "+-:+,-,:+-", "+,+-:+,-,-:+"])
def test_mixed_series_is_the_product_of_the_node_counts(signs):
    phis = tuple(PhiSignature.parse(s) for s in signs.split(","))
    for trunc in (Truncation(1, 1), Truncation(3, 2), Truncation(2, 4), Truncation(4, 3)):
        product = reduce(convolve, (degree_counts(phi, trunc) for phi in phis))
        # a window one degree wider than the product on each side
        dims = phi_verma_graded_dims(phis, min(product) - 1, max(product) + 1, trunc)
        assert dims.counts == product, trunc


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_constant_series_equals_the_partition_convolution(rank, sign):
    # one partition series per node by the pentagonal recurrence, cut at the
    # window's far end, convolved rank times
    phis = [PhiSignature.parse(sign)] * rank
    side = 1 if sign == "-" else -1
    for lo, hi in [(-20, 20), (-7, -2), (3, 9), (0, 0), (-1, 15), (-15, 1), (4, 2)]:
        far = hi if side > 0 else -lo
        pentagonal = partition_pentagonal(max(far, 0))
        node = {side * t: pentagonal[t] for t in range(far + 1)}
        want = {m: c for m, c in reduce(convolve, [node] * rank).items() if lo <= m <= hi}
        assert phi_verma_graded_dims(phis, lo, hi, Truncation(2, 2)).counts == want, (lo, hi)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_constant_series_table_equals_the_product_cut_at_each_window(rank, monkeypatch):
    # one table per rank, grown from empty by windows that move out, back in
    # and out again, against the product cut afresh at each window's far end
    monkeypatch.setattr(verma, "_PARTITION_SERIES", {})
    windows = [(k - 10, k + 10) for k in range(-70, 71, 7)] + [(0, 0), (4, 2), (-80, 80)]
    for sign, side in (("-", 1), ("+", -1)):
        phis = [PhiSignature.parse(sign)] * rank
        for lo, hi in windows:
            far = hi if side > 0 else -lo
            cut = inverse_euler_cut(rank, max(far, 0))
            want = {side * t: c for t, c in enumerate(cut) if lo <= side * t <= hi}
            counts = phi_verma_graded_dims(phis, lo, hi, Truncation(2, 2)).counts
            assert counts == want, (sign, lo, hi)
            if rank == 1:
                pentagonal = partition_pentagonal(max(far, 0))
                assert all(c == pentagonal[side * m] for m, c in counts.items())


def test_report_json_shape():
    cd = load_type("A", 1)
    obj = phi_verma_weight_dim(cd, PLUS, (1,), 0, 2, Truncation(4, 4)).to_json()
    assert obj["mu"] == {"beta": [1], "k": 0}
    assert obj["bounds"] == {"max_abs_k": 2}
    assert set(obj) == {"mu", "truncated_count", "verdict", "bounds"}
