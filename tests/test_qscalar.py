import json
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import pdiv_exact, pmul_schoolbook, pseudo_rem
from pin_op_counts import GOLDEN, JOBS, count_ops

import qheis.qscalar as qscalar
from qheis.qscalar import (
    _ONE_PACK_MAX_BYTES,
    ONE,
    ZERO,
    DivisionByZero,
    PoleAtOne,
    Scalar,
    UndefinedFactorial,
    _digit_bytes,
    _int_divmod,
    _int_pseudo_rem,
    _integer_coefficients,
    _kronecker,
    _padd,
    _pdiv_exact,
    _pgcd,
    _pmul,
    _pneg,
    _poly_str,
    _power_product,
    power_product,
    qfactorial,
    qint,
    s_power,
    specialize_q1,
)


# -- independent long-division oracle on {exponent: Fraction} dicts ---------

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


def poly_rem(num, den):
    # remainder of long division of ordinary polynomials
    num = dict(num)
    dtop = max(den)
    while num and max(num) >= dtop:
        e = max(num)
        c = num[e] / den[dtop]
        for de, dc in den.items():
            v = num.get(e - dtop + de, Fraction(0)) - c * dc
            if v:
                num[e - dtop + de] = v
            else:
                num.pop(e - dtop + de, None)
    return num


def poly_gcd_degree(a, b):
    # Euclid over Fraction coefficients on ordinary polynomials
    while b:
        a, b = b, poly_rem(a, b)
    return max(a)


_PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7)


def _mod_p(poly, p):
    # coefficients mod p, lowest degree first; None when p divides a
    # denominator or the leading coefficient, since then it cannot decide
    if any(c.denominator % p == 0 for c in poly.values()):
        return None
    out = [0] * (max(poly) + 1)
    for e, c in poly.items():
        out[e] = c.numerator * pow(c.denominator, -1, p) % p
    return out if out[-1] else None


def _gcd_is_constant_mod(a, b, p):
    # Euclid over GF(p) on coefficient lists with nonzero leading terms
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def coprime(a, b):
    # Over a prime p that divides no denominator and neither leading
    # coefficient, a common factor of a and b over Q (taken primitive in Z[x],
    # Gauss) keeps its degree mod p; so a constant gcd mod p proves a and b
    # coprime.  When no prime decides, Euclid over Fraction does.
    for p in _PRIMES:
        ra, rb = _mod_p(a, p), _mod_p(b, p)
        if ra is not None and rb is not None and _gcd_is_constant_mod(ra, rb, p):
            return True
    return poly_gcd_degree(a, b) == 0


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
    # the closed form against (q^{dn} - q^{-dn}) / (q^d - q^{-d}) by long
    # division, and against the gcd-reduced Scalar of that quotient
    for d in range(1, 5):
        assert qint(0, d) == ZERO
        for n in [*range(-40, 0), *range(1, 41)]:
            quo = poly_div_exact({2 * d * n: Fraction(1), -2 * d * n: Fraction(-1)},
                                 {2 * d: Fraction(1), -2 * d: Fraction(-1)})
            got = qint(n, d)
            assert laurent(got) == quo and got == Scalar(quo)
            assert str(got) == str(Scalar(quo))


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


def same(x, y):
    return x == y and hash(x) == hash(y)


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars())
def test_subtraction_and_division_invert(a, b):
    assert (a + b) - b == a
    # built by different routes, equal values hash alike
    assert same(a / ONE, a) and same(-(-a), a)
    if not b.is_zero:
        assert same((a * b) / b, a)
    if not a.is_zero:
        assert same(a ** 2 / a, a)


def test_canonical_string_example():
    assert str(qint(2, 1)) == "s^2 + s^-2 / 1"
    assert str(ZERO) == "0 / 1"


def _results(a, b):
    yield a + b
    yield a - b
    yield a * b
    if not b.is_zero:
        yield a / b
        yield b ** -2
        yield ONE / b


def assert_canonical(x):
    num, den = x.num_terms, x.den_terms
    # an ordinary polynomial with nonzero constant term, monic
    assert min(den) == 0 and den[0] != 0 and den[max(den)] == 1
    assert all(isinstance(c, Fraction) and c for c in (*num.values(), *den.values()))
    if x.is_zero:
        assert str(x) == "0 / 1"
    else:
        flat = {e - min(num): c for e, c in num.items()}
        assert coprime(flat, den)


def test_coprime_equals_euclid_over_fraction():
    # with and without a planted common factor, and with coefficients whose
    # numerator or denominator one of the primes divides
    rng = random.Random(11)
    big = [1, 1, 1, *_PRIMES]

    def poly(top):
        out = {e: Fraction(rng.randint(-3, 3) * rng.choice(big), rng.randint(1, 3)
                           * rng.choice(big)) for e in range(top + 1)}
        out[top] = out[top] or Fraction(1)
        return {e: c for e, c in out.items() if c}

    verdicts = []
    for _ in range(300):
        a, b = poly(rng.randint(0, 4)), poly(rng.randint(0, 4))
        if rng.random() < 0.5:
            g = poly(rng.randint(1, 2))
            a, b = pmul_schoolbook(a, g), pmul_schoolbook(b, g)
        verdicts.append(coprime(a, b))
        assert verdicts[-1] == (poly_gcd_degree(a, b) == 0), (a, b)
    assert 50 < sum(verdicts) < 250
    # x + p and x share a root mod p only, and another prime decides
    for p in _PRIMES:
        assert coprime({1: Fraction(1), 0: Fraction(p)}, {1: Fraction(1)})


def test_canonical_form_invariants():
    rng = random.Random(5)
    for _ in range(300):
        a, b = _random_scalar(rng), _random_scalar(rng)
        for x in _results(a, b):
            assert_canonical(x)
    assert str(qint(2) - qint(2)) == str(ZERO) == "0 / 1"


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
    # non-constant values reached by different routes
    x = qint(3) / qint(2)
    assert len({x, (x * qint(5)) / qint(5), x / ONE, -(-x), x ** 2 / x}) == 1


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
    x = {1: Fraction(1)}
    assert _pdiv_exact({2: Fraction(1), 1: Fraction(1)}, x) == {1: Fraction(1), 0: Fraction(1)}
    with pytest.raises(ArithmeticError, match="inexact"):
        _pdiv_exact(x, {1: Fraction(1), 0: Fraction(1)})
    # x^2 over 2x + 1 leaves nothing below degree 1 in integers: only the
    # first step's remainder shows the division inexact
    with pytest.raises(ArithmeticError, match="inexact"):
        _pdiv_exact({2: Fraction(1)}, {1: Fraction(2), 0: Fraction(1)})


# -- integer cancellation against the Fraction long division -----------------

_SMALL = st.integers(-9, 9).map(Fraction) | st.fractions(-9, 9, max_denominator=12)
# scales that make a divisor non-primitive, flip its leading sign, or both
_CONTENTS = st.sampled_from([1, -1, 6, -4, Fraction(1, 3), Fraction(-10, 21)])


def ordinary_polys(max_degree=5):
    polys = st.dictionaries(st.integers(0, max_degree), _SMALL, min_size=1,
                            max_size=max_degree + 1)
    return polys.map(lambda p: {e: c for e, c in p.items() if c} or {0: Fraction(1)})


@settings(max_examples=200, deadline=None)
@given(ordinary_polys(), ordinary_polys(), _CONTENTS)
def test_integer_division_equals_the_fraction_oracle(g, q, content):
    g = {e: c * content for e, c in g.items()}
    num = pmul_schoolbook(g, q)
    quo = _pdiv_exact(num, g)
    assert quo == pdiv_exact(num, g) == q
    assert all(type(c) is Fraction for c in quo.values())


@settings(max_examples=150, deadline=None)
@given(ordinary_polys(), ordinary_polys(), ordinary_polys(), _SMALL.filter(bool),
       st.integers(1, 3), _CONTENTS)
def test_a_non_multiple_raises_in_both_routes(g, q, r, lead, gap, content):
    # num = g*q + r with r nonzero of degree below g's
    g = {e: c for e, c in g.items() if e <= max(r)}
    g[max(r) + gap] = lead
    g = {e: c * content for e, c in g.items()}
    num = pmul_schoolbook(g, q)
    for e, c in r.items():
        num[e] = num.get(e, Fraction(0)) + c
    num = {e: c for e, c in num.items() if c}
    for divide in (_pdiv_exact, pdiv_exact):
        with pytest.raises(ArithmeticError, match="inexact polynomial division"):
            divide(num, g)


@settings(max_examples=200, deadline=None)
@given(ordinary_polys(), ordinary_polys(), ordinary_polys(3), st.booleans())
def test_gcd_is_primitive_and_divides_both_operands(a, b, common, plant):
    if plant:
        a, b = pmul_schoolbook(a, common), pmul_schoolbook(b, common)
    g = _pgcd(a, b)
    assert all(type(c) is int for c in g.values())
    assert gcd(*g.values()) == 1 and g[max(g)] > 0
    for p in (a, b):
        assert _pdiv_exact(p, g) == pdiv_exact(p, g)
    assert max(g) == poly_gcd_degree(a, b)


def integer_polys(max_degree=5, bound=9):
    polys = st.dictionaries(st.integers(0, max_degree), st.integers(-bound, bound),
                            min_size=1, max_size=max_degree + 1)
    return polys.map(lambda p: {e: c for e, c in p.items() if c} or {0: 1})


@settings(max_examples=300, deadline=None)
@given(integer_polys(), integer_polys(), integer_polys(), st.sampled_from([1, -1, 2, -3]),
       st.integers(1, 3))
def test_integer_divmod_returns_quotient_and_remainder(div, q, r, lead, gap):
    # num = q * div + r with deg r < deg div and q integral: every step divides
    # exactly, and the division returns q and r
    div = {**div, max(div) + gap: lead}
    r = {e: c for e, c in r.items() if e < max(div)}
    num = {e: int(c) for e, c in pmul_schoolbook(q, div).items()}
    for e, c in r.items():
        num[e] = num.get(e, 0) + c
    assert _int_divmod({e: c for e, c in num.items() if c}, div) == (q, r)


@settings(max_examples=300, deadline=None)
@given(integer_polys(8, 30), integer_polys(5, 30))
def test_pseudo_remainder_equals_the_step_by_step_oracle(a, b):
    if max(a) < max(b):
        a, b = b, a
    # lead(b)^(deg a - deg b + 1) * a = q * b + r with deg r < deg b
    scaled = {e: c * b[max(b)] ** (max(a) - max(b) + 1) for e, c in a.items()}
    q, r = _int_divmod(scaled, b)
    assert not r or max(r) < max(b)
    product = pmul_schoolbook(q, b)
    assert all(product.get(e, 0) + r.get(e, 0) == scaled.get(e, 0)
               for e in set(product) | set(r) | set(scaled))
    # whose primitive part is the oracle's, up to sign
    rem = _int_pseudo_rem(a, b)
    oracle = pseudo_rem(a, b)
    assert rem in (oracle, {e: -c for e, c in oracle.items()})
    assert not rem or gcd(*rem.values()) == 1


def test_a_constant_operand_skips_the_remainder_sequence(monkeypatch):
    calls = []
    step = qscalar._int_pseudo_rem
    monkeypatch.setattr(qscalar, "_int_pseudo_rem", lambda a, b: calls.append(1) or step(a, b))
    x = {1: Fraction(1), 0: Fraction(-2, 3)}
    for a, b in [({0: Fraction(5, 7)}, x), (x, {0: Fraction(-3)}),
                 ({0: Fraction(1)}, {0: Fraction(2)})]:
        assert _pgcd(a, b) == {0: 1}
    assert calls == []
    assert _pgcd(pmul_schoolbook(x, x), {2: Fraction(-6), 1: Fraction(4)}) == {1: 3, 0: -2}
    assert calls


# -- the integer products against the Fraction schoolbook loop -----------------

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
    assert _pmul(a, b) == pmul_schoolbook(a, b)


# fixed operand sizes: products of about 500 to 2,000 term pairs
_PAIRS = 512
_SIDE = isqrt(_PAIRS)


@pytest.mark.parametrize("sizes", [(_SIDE, (_PAIRS - 1) // _SIDE), (_SIDE + 1, _SIDE + 1),
                                   (1, _PAIRS), (1, _PAIRS - 1), (2 * _SIDE, 2 * _SIDE)])
def test_kronecker_product_on_both_sides_of_the_threshold(sizes):
    rng = random.Random(sum(sizes))
    for _ in range(20):
        a, b = ({e: Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**3))
                 for e in rng.sample(range(-2 * _PAIRS, 2 * _PAIRS + 1), n)} for n in sizes)
        assert _pmul(a, b) == pmul_schoolbook(a, b)


@st.composite
def product_operands(draw):
    # integer or fractional coefficients, on random operands or on a pair whose
    # product cancels every term but its two ends; pair counts from 1 to about
    # twice _PAIRS
    integral, cancel = draw(st.booleans()), draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))

    def coeff():
        c = rng.randint(-10**6, 10**6) or 1
        return Fraction(c) if integral else Fraction(c, rng.randint(1, 10**4))

    if cancel:
        # (1 - x + x^2 - ... +- x^(n-1)) (1 + x) = 1 +- x^n with x = s^k
        n, k = draw(st.integers(1, _PAIRS)), draw(st.integers(1, 4))
        low = draw(st.integers(-50, 50))
        c, d = coeff(), coeff()
        a = {low + i * k: c * (-1) ** i for i in range(n)}
        b = {-low: d, k - low: d}
        return (a, b) if draw(st.booleans()) else (b, a)
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 2 * _PAIRS // m + 1))
    return tuple({e: coeff() for e in rng.sample(range(-3 * _PAIRS, 3 * _PAIRS + 1), size)}
                 for size in (m, n))


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_integer_product_equals_the_fraction_schoolbook(operands):
    got = _pmul(*operands)
    assert got == pmul_schoolbook(*operands)
    assert all(type(c) is Fraction and c for c in got.values())


@pytest.mark.parametrize("den", [1, 3**7])
@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (-1, -1)])
@pytest.mark.parametrize("past_edge", [False, True])
@pytest.mark.parametrize("sizes", [(1, _PAIRS), (_SIDE + 1, _SIDE + 1), (3, _PAIRS // 3 + 1)])
@pytest.mark.parametrize("nbytes", [1, 2, 3, 9])
def test_kronecker_product_at_the_digit_bound(nbytes, sizes, past_edge, signs, den):
    # the two-factor pack of the chained power product, on operands scaled to
    # integers as _power_product scales them: equal coefficients on
    # consecutive exponents put n*A*B, the bound max|a| * max|b| * min(len a,
    # len b) itself, in the middle of the product, the largest such value (A
    # coprime to den, so scaling keeps it) that fits an nbytes-byte signed
    # digit, or the smallest that does not
    n = min(sizes)
    edge = 1 << (8 * nbytes - 1)
    big = -(-edge // n) if past_edge else (edge - 1) // n
    while gcd(big, den) > 1:
        big += 1 if past_edge else -1
    a = {e: Fraction(signs[0] * big, den) for e in range(-3, sizes[0] - 3)}
    b = {e: Fraction(signs[1], den) for e in range(5, sizes[1] + 5)}
    pair = [(_integer_coefficients(a)[1], 1), (_integer_coefficients(b)[1], 1)]
    assert _digit_bytes(pair) == nbytes + past_edge
    got = _kronecker(pair, _digit_bytes(pair))
    peak = max(got.values(), key=abs)
    assert abs(peak) == n * big and (n * big >= edge) == past_edge
    assert got == pmul_schoolbook(*(p for p, _ in pair))


@settings(max_examples=60, deadline=None)
@given(scalars(), st.integers(-4, 6))
def test_power_equals_repeated_product(x, k):
    if x.is_zero and k < 0:
        return
    expected = ONE
    for _ in range(abs(k)):
        expected = expected * x
    assert x ** k == (expected if k >= 0 else ONE / expected)


# -- powers and power products on integer polynomials -------------------------

POWER_BASES = {
    "qint3": qint(3),
    "laurent": Scalar({-3: Fraction(-2, 3), 1: Fraction(5, 7), 4: 1}),
    "monomial": Scalar({-2: Fraction(-3, 4)}),
    "quotient": qint(3) / qint(2),
    "rational-den": Scalar({1: 2, 0: Fraction(-1, 3)}, {1: Fraction(5, 2), 0: 1}),
    # the Fraction coefficients of its powers grow fast; coprime() checks
    # them over GF(p), where Euclid over Fraction alone took 20 s for k <= 32
    "rational-quadratic-den": Scalar({1: 2, 0: Fraction(-1, 3)},
                                     {2: Fraction(5, 2), 0: 1, -1: 3}),
}


@pytest.mark.parametrize("name", sorted(POWER_BASES))
def test_power_equals_repeated_product_up_to_forty(name):
    x = POWER_BASES[name]
    expected = ONE
    for k in range(41):
        got = x ** k
        assert got == expected
        assert_canonical(got)
        if k in (1, 2, 7, 40):
            inverse = x ** -k
            assert inverse == ONE / expected
            assert_canonical(inverse)
        expected = expected * x


@pytest.mark.parametrize("den", [1, 3**7])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("past_edge", [False, True])
@pytest.mark.parametrize("nbytes", [1, 2, 3, 9])
def test_power_of_a_monomial_at_the_digit_bound(nbytes, past_edge, sign, den):
    # the power bound |P|_1^(k-1) * max|P| is exact on a monomial: for k = 1
    # (mod 8), c^k is the largest value that fits a signed digit of 8*m - 1 bits
    # when c = 2^(8n-1) - 1, or the smallest that does not when c = 2^(8n-1)
    edge = 1 << (8 * nbytes - 1)
    c = edge if past_edge else edge - 1
    x = Scalar({5: Fraction(sign * c, den)})
    expected = ONE
    for k in range(1, 18):
        expected = expected * x
        got = x ** k
        assert got == expected and got.num_terms == {5 * k: Fraction(sign * c, den) ** k}
        assert_canonical(got)
    # the tight bound of a square: (big (1 + s^2))^2 peaks at 2 big^2 = |P|_1 * max|P|
    big = (1 << (4 * nbytes - 1)) - (0 if past_edge else 1)
    y = Scalar({0: Fraction(sign * big, den), 2: Fraction(sign * big, den)})
    assert (y ** 2).num_terms[2] * den * den == 2 * big * big
    assert ((2 * big * big) >= edge) == past_edge
    assert y ** 2 == y * y


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(scalars(), st.integers(0, 4)), max_size=3),
       st.integers(-10**6, 10**6).filter(bool))
def test_power_product_equals_the_product_of_powers(pairs, count):
    expected = Scalar({0: count})
    for x, k in pairs:
        expected = expected * x ** k
    got = power_product(pairs, count)
    assert got == expected
    assert_canonical(got)


def product_by_schoolbook(factors):
    out = {0: Fraction(1)}
    for p, k in factors:
        for _ in range(k):
            out = pmul_schoolbook(out, p)
    return out


def digit_width(factors):
    return _digit_bytes([(_integer_coefficients(p)[1], k) for p, k in factors if k])


@pytest.mark.parametrize("den", [1, 3**7])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("past_edge", [False, True])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_power_product_of_monomials_at_the_width_bound(shift, past_edge, sign, den):
    # the bound is exact on monomials: the product coefficient c is the largest
    # value that fits nbytes-byte signed digits (c = 2^(8n-1) - 1), or the
    # smallest that does not (c = 2^(8n-1)), with n beside the one-pack limit
    nbytes = _ONE_PACK_MAX_BYTES + shift
    edge = 1 << (8 * nbytes - 1)
    c = edge if past_edge else edge - 1
    factors = [({3: Fraction(c, den)}, 1), ({-2: Fraction(sign, den)}, 3),
               ({5: Fraction(-1, den)}, 2), ({0: Fraction(7, 2)}, 0)]
    assert digit_width(factors) == nbytes + past_edge
    got = _power_product(factors, -5)
    assert got == {7: Fraction(-5 * c * sign ** 3, den ** 6)}
    assert got == {e: -5 * v for e, v in product_by_schoolbook(factors).items()}


@pytest.mark.parametrize("above", [False, True])
def test_power_product_on_both_sides_of_the_width_limit(above):
    # random factor lists whose digit width lies just below or just above the
    # limit at which the factors stop sharing one pack
    band = (range(_ONE_PACK_MAX_BYTES + 1, _ONE_PACK_MAX_BYTES + 4) if above
            else range(_ONE_PACK_MAX_BYTES - 2, _ONE_PACK_MAX_BYTES + 1))
    rng = random.Random(_ONE_PACK_MAX_BYTES + above)
    cases = 0
    while cases < 12:
        bits = rng.randint(20, 60)
        factors = [({e: Fraction(rng.randint(-2**bits, 2**bits) or 1, rng.choice([1, 2, 9]))
                     for e in rng.sample(range(-8, 9, rng.choice([1, 2])), rng.randint(1, 4))},
                    rng.randint(1, 3))
                   for _ in range(rng.randint(2, 4))]
        if digit_width(factors) not in band:
            continue
        cases += 1
        assert _power_product(factors, 3) == {
            e: 3 * v for e, v in product_by_schoolbook(factors).items()}


def test_power_product_of_laurent_factors_and_its_validation():
    pairs = [(qint(3), 4), (Scalar({-2: 1, 2: Fraction(-1, 2)}), 3), (qint(5), 0)]
    assert power_product(pairs, -6) == -6 * qint(3) ** 4 * Scalar({-2: 1, 2: Fraction(-1, 2)}) ** 3
    assert power_product([], 5) == 5 and power_product([(ZERO, 2)]) == ZERO
    assert power_product([(ZERO, 0)]) == ONE
    for k in (-1, 1.5, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="nonnegative int exponents"):
            power_product([(qint(2), k)])
    # a zero count would build the zero polynomial with every coefficient 0
    for count in (0, Fraction(2), 2.0, "2", None):
        with pytest.raises(ValueError, match="nonzero int count"):
            power_product([(qint(3), 2)], count)
    # one pair needs no gcd; two pairs whose numerator and denominator share
    # a factor do
    x = qint(2) / qint(3)
    assert power_product([(x, 3)], 2) == 2 * x * x * x
    assert power_product([(x, 2), (qint(3), 2)]) == qint(2) ** 2
    assert power_product([(x, 1), (ONE / x, 1), (qint(5), 0)], -1) == -1


def poly_str_fraction(p):
    # the formatter as it was on Fraction coefficients, kept as the oracle
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items(), reverse=True):
        mag = -c if c < 0 else c
        if e == 0:
            body = f"{mag}"
        else:
            sym = "s" if e == 1 else f"s^{e}"
            body = sym if mag == 1 else f"{mag}*{sym}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


_UNIT_HEAVY = (st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-7, 3)])
               | st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6))


@settings(max_examples=300, deadline=None)
@given(scalars(), st.dictionaries(st.integers(-3, 3), _UNIT_HEAVY, max_size=7))
def test_poly_str_equals_the_fraction_formatter(x, p):
    p = {e: c for e, c in p.items() if c}
    assert _poly_str(p) == poly_str_fraction(p)
    for part in (x.num_terms, x.den_terms):
        assert _poly_str(part) == poly_str_fraction(part)
    assert str(x) == poly_str_fraction(x.num_terms) + " / " + poly_str_fraction(x.den_terms)


# -- a sum over a shared denominator against the general sum -------------------

_LAURENT = st.dictionaries(st.integers(-4, 4), _SMALL, min_size=1, max_size=5).map(
    lambda p: {e: c for e, c in p.items() if c} or {0: Fraction(1)})
_NONCONSTANT = ordinary_polys(3).filter(lambda p: max(p) > 0)


@st.composite
def shared_denominator_operands(draw):
    # (a, b, d) with d = 1 or an ordinary non-constant d; a + b is free, zero,
    # or a multiple of a factor planted in d
    a = draw(_LAURENT)
    d = draw(st.just({0: Fraction(1)}) | _NONCONSTANT)
    case = draw(st.sampled_from(["free", "zero", "planted"]))
    if case == "free":
        return a, draw(_LAURENT), d
    if case == "zero":
        return a, _pneg(a), d
    g = draw(_NONCONSTANT)
    total = pmul_schoolbook(g, draw(_LAURENT))
    return a, _padd(total, _pneg(a)) or total, pmul_schoolbook(d, g)


def value(p, s):
    return sum((c * s ** e for e, c in p.items()), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(shared_denominator_operands())
def test_a_sum_over_a_shared_denominator_equals_the_general_sum(operands):
    a, b, d = operands
    x, y = Scalar(a, d), Scalar(b, d)
    assume(x.den_terms == y.den_terms)
    total = x + y
    assert_canonical(total)
    assert total == Scalar(_padd(a, b), d)
    for s in (Fraction(2), Fraction(5, 3)):
        assume(value(d, s))
        got = value(total.num_terms, s) / value(total.den_terms, s)
        assert got == (value(a, s) + value(b, s)) / value(d, s)


# -- a sum over unequal denominators against the unreduced quotient ------------

@st.composite
def unequal_denominator_operands(draw):
    # (a, d1, b, d2) with d1 = g e1, d2 = g e2 and e2 = e1 + g m; b = g t - a
    # makes a e2 + b e1 = g (a m + t e1), so the sum carries a factor of the
    # shared g, the only factor that can cancel
    g, m = draw(_NONCONSTANT), draw(_NONCONSTANT)
    e1 = draw(st.just({0: Fraction(1)}) | _NONCONSTANT)
    e2 = _padd(e1, pmul_schoolbook(g, m))
    a = draw(_LAURENT)
    b = _padd(pmul_schoolbook(g, draw(_LAURENT)), _pneg(a))
    assume(e2 and b)
    return a, pmul_schoolbook(g, e1), b, pmul_schoolbook(g, e2)


@settings(max_examples=200, deadline=None)
@given(unequal_denominator_operands())
def test_a_sum_over_unequal_denominators_equals_the_unreduced_quotient(operands):
    a, d1, b, d2 = operands
    x, y = Scalar(a, d1), Scalar(b, d2)
    # Henrici's route: unequal denominators with a nonconstant common factor
    assume(x.den_terms != y.den_terms and max(_pgcd(x.den_terms, y.den_terms)) > 0)
    total = x + y
    assert_canonical(total)
    assert total == Scalar(_padd(pmul_schoolbook(a, d2), pmul_schoolbook(b, d1)),
                           pmul_schoolbook(d1, d2))


# -- operation counts of every benchmark job ------------------------------------

OP_COUNTS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv, want", [(key, OP_COUNTS.get(key)) for key in JOBS])
def test_kernel_call_counts_of_two_fixed_commands(argv, want, monkeypatch):
    # two fixed commands, then every benchmark pool job; each starts with every
    # cache empty, as in a fresh process (tests/pin_op_counts.py rewrites them)
    monkeypatch.delenv("QAFF_FORMAT", raising=False)
    assert count_ops(JOBS[argv]) == (0, want)
