import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.qscalar import (
    _KRONECKER_MIN_PAIRS,
    ONE,
    ZERO,
    DivisionByZero,
    PoleAtOne,
    Scalar,
    UndefinedFactorial,
    _pmul,
    _pmul_schoolbook,
    qfactorial,
    qint,
    s_power,
    specialize_q1,
)


# -- independent long-division oracle on {exponent: Fraction} dicts ---------

def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_div_exact(num, den):
    # Laurent-safe: shift both to nonnegative exponents, long-divide, shift back
    shift = min(list(num) + list(den))
    num = {e - shift: c for e, c in num.items()}
    den = {e - shift: c for e, c in den.items()}
    off = min(num) - min(den)
    num = {e - min(num): c for e, c in num.items()}
    den = {e - min(den): c for e, c in den.items()}
    quo = {}
    dtop = max(den)
    while num:
        e = max(num)
        assert e >= dtop, "inexact division"
        c = num[e] / den[dtop]
        quo[e - dtop] = c
        for de, dc in den.items():
            v = num.get(e - dtop + de, Fraction(0)) - c * dc
            if v:
                num[e - dtop + de] = v
            else:
                num.pop(e - dtop + de, None)
    return {e + off: c for e, c in quo.items()}


def laurent(scalar):
    assert scalar.is_laurent
    return scalar.num_terms


def test_qint_identity_and_two():
    assert qint(1, 1) == ONE
    assert qint(2, 1) == s_power(2) + s_power(-2)  # q + q^-1


def test_qint_negative_by_division_oracle():
    # oracle: (q^{-6} - q^{6}) / (q^{2} - q^{-2}) by explicit long division
    num = {-12: Fraction(1), 12: Fraction(-1)}  # s-exponents
    den = {4: Fraction(1), -4: Fraction(-1)}
    quo = poly_div_exact(num, den)
    assert quo == {8: Fraction(-1), 0: Fraction(-1), -8: Fraction(-1)}
    got = qint(-3, 2)
    assert laurent(got) == quo
    assert got == -(s_power(8) + ONE + s_power(-8))


def test_qint_zero_and_base_validation():
    assert qint(0, 1) == ZERO
    with pytest.raises(ValueError):
        qint(2, 0)


def test_field_operation_examples():
    two = qint(2, 1)
    assert two - two == ZERO
    assert s_power(2) * s_power(-2) == ONE
    # oracle: [4]/[2] by long division
    quo = poly_div_exact(laurent(qint(4, 1)), laurent(qint(2, 1)))
    assert quo == {4: Fraction(1), -4: Fraction(1)}
    assert qint(4, 1) / qint(2, 1) == s_power(4) + s_power(-4)
    with pytest.raises(DivisionByZero):
        ONE / ZERO


def test_specialize_q1_on_quantum_integers():
    for n in range(-3, 4):
        for d in (1, 2, 3):
            assert specialize_q1(qint(n, d)) == n


def test_specialize_q1_trivial_and_pole():
    assert specialize_q1(ONE) == 1
    with pytest.raises(PoleAtOne):
        specialize_q1(ONE / (s_power(2) - s_power(-2)))


def test_qfactorial_values_and_negative_argument():
    assert qfactorial(0) == ONE
    assert qfactorial(3, 2) == qint(2, 2) * qint(3, 2)
    with pytest.raises(UndefinedFactorial):
        qfactorial(-1)


def test_qint_antisymmetry():
    for n in range(-20, 21):
        for d in (1, 2, 3, 4):
            assert qint(-n, d) == -qint(n, d)


def test_qint_bar_symmetry():
    # invariant under q -> q^-1: palindromic Laurent polynomial
    for n in range(-6, 7):
        for d in (1, 2, 3):
            terms = laurent(qint(n, d))
            assert all(terms.get(-e) == c for e, c in terms.items())


def _random_scalar(rng):
    def poly():
        return {rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))}

    num = poly()
    den = {e: c for e, c in poly().items() if c}
    while not den:
        den = {e: c for e, c in poly().items() if c}
    return Scalar(num, den)


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero:
            assert a * (ONE / a) == ONE
        assert a - a == ZERO


@st.composite
def scalars(draw):
    exps = st.integers(min_value=-5, max_value=5)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    num = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    den = draw(st.dictionaries(exps, coeffs.filter(lambda f: f != 0),
                               min_size=1, max_size=3))
    return Scalar(num, den)


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars())
def test_subtraction_and_division_invert(a, b):
    assert (a + b) - b == a
    if not b.is_zero:
        assert (a * b) / b == a


def test_canonical_string_example():
    assert str(qint(2, 1)) == "s^2 + s^-2 / 1"
    assert str(ZERO) == "0 / 1"


def test_canonical_form_invariants():
    rng = random.Random(5)
    for _ in range(300):
        a = _random_scalar(rng)
        den = a.den_terms
        assert min(den) == 0
        assert den[max(den)] == 1
        # no common root at 1 unless the denominator genuinely has none
        if not a.is_zero:
            num, dnm = a.num_terms, a.den_terms
            g = poly_div_exact  # just exercising the accessor shapes
            assert all(isinstance(c, Fraction) for c in num.values())


def test_power_and_coercion():
    x = qint(2, 1)
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == ONE / (x * x)
    assert x * 2 == x + x
    assert (x / 2) * 2 == x
    assert x == x + 0


def test_hash_agrees_with_equality_on_constants():
    assert ONE == 1 and hash(ONE) == hash(1)
    assert ZERO == 0 and hash(ZERO) == hash(0)
    half = Scalar({0: Fraction(1, 2)})
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({ONE, 1}) == 1
    assert len({ZERO, 0, Fraction(0)}) == 1
    assert {qint(1): "x"}[1] == "x"  # [1]_q is the constant 1
    assert len({qint(2), qint(2) + 0, s_power(1)}) == 2


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Scalar({0: 0.1})
    with pytest.raises(TypeError):
        Scalar({0: 1}, {1: 2.0})
    with pytest.raises(TypeError):
        ONE + 0.5


@pytest.mark.parametrize("build", [
    lambda: Scalar({0.5: 1}),
    lambda: Scalar({0: 1}, {1.0: 2}),
    lambda: Scalar({Fraction(1, 2): 1}),
    lambda: Scalar({"a": 1}),
    lambda: s_power(0.5),
], ids=["float", "float-in-denominator", "Fraction", "str", "s_power"])
def test_non_integer_exponents_rejected(build):
    with pytest.raises(TypeError, match="exponents must be int"):
        build()


def test_inexact_polynomial_division_is_an_explicit_error():
    from qheis.qscalar import _pdiv_exact

    x = {1: Fraction(1)}
    assert _pdiv_exact({2: Fraction(1), 1: Fraction(1)}, x) == {1: Fraction(1), 0: Fraction(1)}
    with pytest.raises(ArithmeticError, match="inexact"):
        _pdiv_exact(x, {1: Fraction(1), 0: Fraction(1)})


# -- the Kronecker-substitution product against the schoolbook loop -----------

_BIG = 10**40
_COEFFS = (st.fractions(min_value=-9, max_value=9, max_denominator=12)
           | st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG))
           | st.integers(-_BIG, _BIG).map(Fraction))


@st.composite
def laurent_polys(draw, max_size=24):
    step = draw(st.sampled_from([1, 2, 3, 4]))
    low = draw(st.integers(-60, 60))
    offsets = st.integers(0, 40).map(lambda k: low + step * k)
    poly = draw(st.dictionaries(offsets, _COEFFS, min_size=1, max_size=max_size))
    return {e: c for e, c in poly.items() if c} or {low: Fraction(1)}


@settings(max_examples=300, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_kronecker_product_equals_schoolbook(a, b):
    assert _pmul(a, b) == _pmul_schoolbook(a, b)


@pytest.mark.parametrize("sizes", [(7, 9), (8, 8), (1, 64), (9, 20), (40, 40)])
def test_kronecker_product_on_both_sides_of_the_threshold(sizes):
    assert _KRONECKER_MIN_PAIRS == 64  # the sizes straddle it
    rng = random.Random(sum(sizes))
    for _ in range(20):
        a, b = ({e: Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**3))
                 for e in rng.sample(range(-50, 51), n)} for n in sizes)
        assert _pmul(a, b) == _pmul_schoolbook(a, b)


@pytest.mark.parametrize("den", [1, 3**7])
@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (-1, -1)])
@pytest.mark.parametrize("past_edge", [False, True])
@pytest.mark.parametrize("sizes", [(1, 64), (8, 8), (3, 30)])
@pytest.mark.parametrize("nbytes", [1, 2, 3, 9])
def test_kronecker_product_at_the_digit_bound(nbytes, sizes, past_edge, signs, den):
    # equal coefficients on consecutive exponents put n*A*B, the bound
    # max|a| * max|b| * min(len a, len b) itself, in the middle of the product:
    # the largest such value that fits an nbytes-byte signed digit, or the
    # smallest that does not
    n = min(sizes)
    edge = 1 << (8 * nbytes - 1)
    big = -(-edge // n) if past_edge else (edge - 1) // n
    a = {e: Fraction(signs[0] * big, den) for e in range(-3, sizes[0] - 3)}
    b = {e: Fraction(signs[1], den) for e in range(5, sizes[1] + 5)}
    got = _pmul(a, b)
    peak = max(got.values(), key=abs)
    assert abs(peak) * den * den == n * big and (n * big >= edge) == past_edge
    assert got == _pmul_schoolbook(a, b)


@settings(max_examples=60, deadline=None)
@given(scalars(), st.integers(-4, 6))
def test_power_equals_repeated_product(x, k):
    if x.is_zero and k < 0:
        return
    expected = ONE
    for _ in range(abs(k)):
        expected = expected * x
    assert x ** k == (expected if k >= 0 else ONE / expected)
