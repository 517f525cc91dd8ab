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
