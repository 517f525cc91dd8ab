"""Gauss-Jordan inverse and elimination determinant on matrices that need a row swap."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.linalg import SingularMatrix, det, identity, invert, mat_mul
from qheis.qscalar import ONE, ZERO, Scalar, qint, s_power


def permutation_det(a):
    # the Leibniz expansion: sum over permutations p of sign(p) prod_i a[i][p(i)]
    n = len(a)
    total = ZERO
    for p in permutations(range(n)):
        term = ONE
        for i in range(n):
            term = term * a[i][p[i]]
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total = total + (-term if inversions % 2 else term)
    return total


S = s_power(1)
# a zero (1, 1) entry, so both routes swap rows, and a nonzero block below the
# pivot, so det eliminates below it
PIVOTING = [
    [[ZERO, ONE], [qint(2), S]],
    [[ZERO, S, ONE], [qint(2), ONE, ZERO], [ONE, s_power(-1), Scalar({0: 2})]],
    [[ZERO, ZERO, qint(3), ONE], [ZERO, S, ONE, -ONE], [ONE - S * S, qint(2), ZERO, S],
     [qint(3) / qint(2), ONE, S, ZERO]],
]


@pytest.mark.parametrize("a", PIVOTING, ids=["2x2", "3x3", "4x4"])
def test_inverse_and_determinant_with_a_row_swap(a):
    n = len(a)
    assert mat_mul(a, invert(a)) == identity(n)
    assert mat_mul(invert(a), a) == identity(n)
    assert det(a) == permutation_det(a)
    assert not det(a).is_zero


_ENTRIES = [ZERO, ONE, -ONE, Scalar({0: 2}), S, s_power(-2), qint(2), ONE - S * S,
            qint(3) / qint(2)]


@st.composite
def pivoting_matrices(draw):
    n = draw(st.integers(2, 4))
    a = [[draw(st.sampled_from(_ENTRIES)) for _ in range(n)] for _ in range(n)]
    a[0][0] = ZERO
    a[1][0] = draw(st.sampled_from(_ENTRIES[1:]))
    return a


@settings(max_examples=60, deadline=None)
@given(pivoting_matrices())
def test_pivoting_routes_equal_the_permutation_expansion(a):
    d = det(a)
    assert d == permutation_det(a)
    if d.is_zero:
        with pytest.raises(SingularMatrix):
            invert(a)
    else:
        assert mat_mul(a, invert(a)) == identity(len(a))
