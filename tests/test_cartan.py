from fractions import Fraction

import pytest

from qheis.cartan import IndexOutOfRange, InvalidType, load_type, positive_roots

# Affine Cartan matrices from the standard tables, kept only as oracles.
KNOWN_AFFINE = {
    ("A", 1): [[2, -2], [-2, 2]],
    ("A", 2): [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    ("C", 2): [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    ("G", 2): [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    ("B", 3): [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -2, 2]],
}

KNOWN_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 3): 9, ("B", 4): 16, ("C", 2): 4, ("C", 3): 9,
    ("D", 4): 12, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


def test_load_type_a1():
    cd = load_type("A", 1)
    assert [list(r) for r in cd.gcm] == KNOWN_AFFINE[("A", 1)]
    assert cd.d == (1, 1)


def test_load_type_a2():
    cd = load_type("A", 2)
    assert [list(r) for r in cd.gcm] == KNOWN_AFFINE[("A", 2)]
    assert cd.d == (1, 1, 1)


@pytest.mark.parametrize("series,rank", KNOWN_AFFINE)
def test_affine_matrices_against_tables(series, rank):
    cd = load_type(series, rank)
    assert [list(r) for r in cd.gcm] == KNOWN_AFFINE[(series, rank)]


@pytest.mark.parametrize("series,rank", KNOWN_ROOT_COUNTS)
def test_symmetrizer_invariants(series, rank):
    cd = load_type(series, rank)
    n = cd.rank
    from math import gcd
    g = 0
    for x in cd.d:
        g = gcd(g, x)
    assert g == 1
    for i in range(n + 1):
        assert cd.gcm[i][i] == 2
        for j in range(n + 1):
            assert cd.d[i] * cd.gcm[i][j] == cd.d[j] * cd.gcm[j][i]
            if i != j:
                assert cd.gcm[i][j] <= 0


@pytest.mark.parametrize("series,rank,count", [(s, r, c) for (s, r), c in KNOWN_ROOT_COUNTS.items()])
def test_positive_root_counts(series, rank, count):
    assert len(positive_roots(load_type(series, rank))) == count


def test_positive_roots_a1_a2():
    assert [r.coeffs for r in positive_roots(load_type("A", 1))] == [(1,)]
    assert [r.coeffs for r in positive_roots(load_type("A", 2))] == [(0, 1), (1, 0), (1, 1)]


def test_closure_idempotent():
    cd = load_type("G", 2)
    roots = {r.coeffs for r in positive_roots(cd)}
    A = cd.finite_gcm
    n = cd.rank
    grown = set(roots)
    for root in roots:
        for i in range(n):
            pairing = sum(A[i][j] * root[j] for j in range(n))
            new = list(root)
            new[i] -= pairing
            if all(c >= 0 for c in new) and any(new):
                grown.add(tuple(new))
    assert grown == roots


def test_roots_sorted_by_height_then_lex():
    for key in KNOWN_ROOT_COUNTS:
        roots = positive_roots(load_type(*key))
        keys = [(sum(r.coeffs), r.coeffs) for r in roots]
        assert keys == sorted(keys)
        assert all(height >= 1 for height, _ in keys)


def test_bilinear_examples():
    a1 = load_type("A", 1)
    assert a1.bilinear(1, 1) == 2
    c2 = load_type("C", 2)
    for i in range(3):
        for j in range(3):
            assert c2.bilinear(i, j) == c2.bilinear(j, i)
    g2 = load_type("G", 2)
    # short-long pairing is -3 times the short symmetrizer
    short = min((1, 2), key=lambda i: g2.d[i])
    long_ = 3 - short
    assert g2.bilinear(short, long_) == -3 * g2.d[short]


def test_bilinear_out_of_range():
    cd = load_type("A", 2)
    with pytest.raises(IndexOutOfRange):
        cd.bilinear(0, 3)
    with pytest.raises(IndexOutOfRange):
        cd.bilinear(-1, 0)
    # a ValueError, so that cli.run reports it in one line with exit code 2
    with pytest.raises(ValueError):
        cd.bilinear(5, 0)


@pytest.mark.parametrize("series,rank", [
    ("A", 0), ("B", 2), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2),
])
def test_invalid_types(series, rank):
    with pytest.raises(InvalidType):
        load_type(series, rank)


def test_load_type_rejects_inconsistent_data(monkeypatch):
    # positive off-diagonal entries make no GCM; the check is explicit, not an assert
    import qheis.cartan as cartan

    monkeypatch.setattr(cartan, "_finite_gcm", lambda series, n: [[2, 1], [1, 2]])
    with pytest.raises(InvalidType, match="GCM"):
        cartan.load_type("A", 2)


def test_highest_root_is_long():
    for series, rank in [("B", 3), ("C", 2), ("G", 2), ("F", 4)]:
        cd = load_type(series, rank)
        theta = positive_roots(cd)[-1]  # the highest root
        fd = cd.d[1:]
        fin = cd.finite_gcm
        norm = sum(theta.coeffs[i] * theta.coeffs[j] * fd[i] * fin[i][j]
                   for i in range(cd.rank) for j in range(cd.rank))
        assert norm == 2 * max(fd)


def test_to_json_shape():
    obj = load_type("C", 2).to_json()
    assert obj == {"series": "C", "rank": 2,
                   "gcm": KNOWN_AFFINE[("C", 2)], "d": [2, 1, 2]}


def test_one_root_closure_per_finite_type(monkeypatch):
    # load_type finds theta and positive_roots lists the roots from one closure
    import qheis.cartan as cartan

    closures = []
    closure = cartan._root_closure
    monkeypatch.setattr(cartan, "_root_closure", lambda A: closures.append(A) or closure(A))
    cartan._positive_roots.cache_clear()
    for _ in range(3):
        for series, rank in KNOWN_ROOT_COUNTS:
            assert len(positive_roots(load_type(series, rank))) == \
                KNOWN_ROOT_COUNTS[series, rank]
    assert len(closures) == len(set(closures)) == len(KNOWN_ROOT_COUNTS)


def test_mutating_the_returned_roots_leaves_the_next_call_unchanged():
    cd = load_type("B", 3)
    roots = positive_roots(cd)
    want = list(roots)
    roots.reverse()
    roots.append(roots[0])
    assert positive_roots(cd) == want
    assert positive_roots(cd) is not positive_roots(cd)


def test_every_supported_type_of_rank_at_most_8_is_pinned(capsys):
    # `cartan --type T --rank r` for the 31 supported (T, r <= 8), pinned before
    # the affine node was built in closed form from the highest root
    import json
    import pathlib

    from qheis.cli import run

    golden = pathlib.Path(__file__).parent / "golden" / "cartan_types.json"
    cases = json.loads(golden.read_text())
    assert len(cases) == 31
    for case in cases:
        code = run(case["argv"])
        assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"]), case["argv"]


def _det(rows):
    # exact Gaussian elimination over the rationals
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _invariants():
    # (series, rank, det of the finite Cartan matrix, which is the order of
    # the weight lattice modulo the root lattice, and the number of positive
    # roots), past the rank-8 golden for the classical series
    for n in range(1, 17):
        yield "A", n, n + 1, n * (n + 1) // 2
        if n >= 2:
            yield "C", n, 2, n * n
        if n >= 3:
            yield "B", n, 2, n * n
        if n >= 4:
            yield "D", n, 4, n * (n - 1)
    yield from [("E", 6, 3, 36), ("E", 7, 2, 63), ("E", 8, 1, 120), ("F", 4, 1, 24),
                ("G", 2, 1, 6)]


@pytest.mark.parametrize("series,rank,det,roots", list(_invariants()))
def test_cartan_data_has_the_invariants_of_its_type(series, rank, det, roots):
    cd = load_type(series, rank)
    assert _det(cd.finite_gcm) == det
    assert len(positive_roots(cd)) == roots
    assert _det(cd.gcm) == 0
