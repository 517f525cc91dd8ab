"""Exact arithmetic in the field of rational functions of s = q^(1/2).

A Scalar is a quotient of Laurent polynomials in s with rational
coefficients, kept in canonical form: numerator and denominator share no
polynomial factor, and the denominator is an ordinary polynomial with
nonzero constant term and leading coefficient 1.  Equality of canonical
forms is structural, so ``==`` decides equality in the field.

Quantum integers and factorials are built on top, together with the
specialization q -> 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtOne(ArithmeticError):
    pass


class UndefinedFactorial(ValueError):
    pass


# Laurent polynomials in s are plain {exponent: Fraction} dicts; zero
# coefficients are never stored.

def _trim(p):
    return {e: c for e, c in p.items() if c}


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, Fraction(0)) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _pneg(a):
    return {e: -c for e, c in a.items()}


# Below this many term pairs the schoolbook loop beats packing into ints.
_KRONECKER_MIN_PAIRS = 64


def _pmul(a, b):
    """The product of two Laurent polynomials.

    Large products go through Kronecker substitution (Harvey, arXiv:0712.4046):
    both operands are scaled to integer coefficients, each is packed into one
    int with a digit of 8*nbytes bits per exponent step, the two ints are
    multiplied, and the product is read back digit by digit.  A digit holds
    any coefficient of modulus below 2^(8*nbytes - 1), and no product
    coefficient exceeds max|a| * max|b| * min(len a, len b).
    """
    if len(a) * len(b) < _KRONECKER_MIN_PAIRS:
        return _pmul_schoolbook(a, b)
    den_a, ints_a = _integer_coefficients(a)
    den_b, ints_b = _integer_coefficients(b)
    low_a, low_b = min(a), min(b)
    # exponents often step by 2 or 4 (powers of q = s^2): pack one digit per step
    step = gcd(*(e - low_a for e in a), *(e - low_b for e in b))
    bound = (max(map(abs, ints_a.values())) * max(map(abs, ints_b.values()))
             * min(len(a), len(b)))
    nbytes = (bound.bit_length() + 8) // 8
    digits_a = (max(a) - low_a) // step + 1
    digits_b = (max(b) - low_b) // step + 1
    digits = digits_a + digits_b - 1
    product = (_pack(ints_a, low_a, step, nbytes, digits_a)
               * _pack(ints_b, low_b, step, nbytes, digits_b))
    # a half-digit bias makes every digit nonnegative, so one to_bytes unpacks
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * digits, "little")
    raw = (product + bias).to_bytes(digits * nbytes, "little")
    den = den_a * den_b
    low = low_a + low_b
    out = {}
    for k in range(digits):
        c = int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little") - half
        if c:
            out[low + k * step] = Fraction(c, den)
    return out


def _integer_coefficients(p):
    # (d, {e: d * c}) with d the least common denominator of the coefficients
    den = lcm(*(c.denominator for c in p.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in p.items()}


def _pack(ints, low, step, nbytes, digits):
    # sum of c * 2^(8 * nbytes * (e - low) / step), positive and negative
    # coefficients written into separate little-endian buffers
    pos = bytearray(digits * nbytes)
    neg = bytearray(digits * nbytes)
    for e, c in ints.items():
        i = (e - low) // step * nbytes
        if c > 0:
            pos[i:i + nbytes] = c.to_bytes(nbytes, "little")
        else:
            neg[i:i + nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _pmul_schoolbook(a, b):
    # term by term; the reference that the Kronecker route is tested against
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e, Fraction(0)) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _pshift(p, k):
    if k == 0:
        return dict(p)
    return {e + k: c for e, c in p.items()}


def _pdivmod(num, den):
    # ordinary polynomials (min exponent >= 0), den nonzero
    num = dict(num)
    quo = {}
    dtop = max(den)
    lead = den[dtop]
    while num and max(num) >= dtop:
        e = max(num)
        c = num[e] / lead
        quo[e - dtop] = quo.get(e - dtop, Fraction(0)) + c
        for de, dc in den.items():
            ne = e - dtop + de
            v = num.get(ne, Fraction(0)) - c * dc
            if v:
                num[ne] = v
            else:
                num.pop(ne, None)
    return _trim(quo), _trim(num)


def _int_primitive(p):
    # integer multiple of p with coprime coefficients (content stripped)
    ints = _integer_coefficients(p)[1]
    content = gcd(*ints.values())
    return {e: c // content for e, c in ints.items()}


def _int_pseudo_rem(a, b):
    # primitive pseudo-remainder sequence step over the integers
    dtop = max(b)
    lead = b[dtop]
    r = dict(a)
    while r and max(r) >= dtop:
        e = max(r)
        c = r[e]
        new = {ee: cc * lead for ee, cc in r.items()}
        for de, dc in b.items():
            ne = e - dtop + de
            v = new.get(ne, 0) - c * dc
            if v:
                new[ne] = v
            else:
                new.pop(ne, None)
        content = 0
        for cc in new.values():
            content = gcd(content, cc)
        r = {ee: cc // content for ee, cc in new.items()} if content else {}
    return r


def _pgcd(a, b):
    # monic gcd of ordinary polynomials; {} only if both are zero
    a, b = _trim(a), _trim(b)
    if not a or not b:
        p = a or b
        if not p:
            return {}
        lead = p[max(p)]
        return {e: c / lead for e, c in p.items()}
    A = _int_primitive(a)
    B = _int_primitive(b)
    if max(A) < max(B):
        A, B = B, A
    while B:
        A, B = B, _int_pseudo_rem(A, B)
    lead = Fraction(A[max(A)])
    return {e: Fraction(c) / lead for e, c in A.items()}


def _pdiv_exact(a, b):
    q, r = _pdivmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _canonical(num, den, reduced=False):
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, {0: Fraction(1)}
    dmin = min(den)
    if dmin:
        num = _pshift(num, -dmin)
        den = _pshift(den, -dmin)
    val = min(num)
    flat = _pshift(num, -val) if val else dict(num)
    if not reduced:
        g = _pgcd(flat, den)
        if max(g) > 0:
            flat = _pdiv_exact(flat, g)
            den = _pdiv_exact(den, g)
    lead = den[max(den)]
    if lead != 1:
        flat = {e: c / lead for e, c in flat.items()}
        den = {e: c / lead for e, c in den.items()}
    return (_pshift(flat, val) if val else flat), den


def _poly_str(p):
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


def _exact(c):
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
    return Fraction(c)


def _exponent(e):
    if not isinstance(e, int):
        raise TypeError(f"exponents must be int, not {type(e).__name__}")
    return e


class Scalar:
    """An exact rational function of s = q^(1/2), always canonical."""

    __slots__ = ("_num", "_den", "_key")

    def __init__(self, num, den=None):
        if den is None:
            den = {0: Fraction(1)}
        num = _trim({_exponent(e): _exact(c) for e, c in num.items()})
        den = _trim({_exponent(e): _exact(c) for e, c in den.items()})
        self._num, self._den = _canonical(num, den)
        self._key = (
            tuple(sorted(self._num.items())),
            tuple(sorted(self._den.items())),
        )

    @classmethod
    def _reduced(cls, num, den):
        # fast path for numerator/denominator pairs already known coprime
        out = cls.__new__(cls)
        out._num, out._den = _canonical(num, den, reduced=True)
        out._key = (
            tuple(sorted(out._num.items())),
            tuple(sorted(out._den.items())),
        )
        return out

    @property
    def num_terms(self):
        return dict(self._num)

    @property
    def den_terms(self):
        return dict(self._den)

    @property
    def is_zero(self):
        return not self._num

    @property
    def is_laurent(self):
        return self._den == {0: Fraction(1)}

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar({0: Fraction(x)})
        return None

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._den, other._den
        if max(d1) == 0 and max(d2) == 0:
            return Scalar._reduced(_padd(self._num, other._num), {0: Fraction(1)})
        g = _pgcd(d1, d2)
        if max(g) == 0:
            num = _padd(_pmul(self._num, d2), _pmul(other._num, d1))
            return Scalar._reduced(num, _pmul(d1, d2))
        d1g = _pdiv_exact(d1, g)
        d2g = _pdiv_exact(d2, g)
        num = _padd(_pmul(self._num, d2g), _pmul(other._num, d1g))
        den = _pmul(d1, d2g)
        if num:
            val = min(num)
            flat = _pshift(num, -val) if val else num
            h = _pgcd(flat, g)
            if max(h) > 0:
                num = _pshift(_pdiv_exact(flat, h), val)
                den = _pdiv_exact(den, h)
        return Scalar._reduced(num, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        # cross-cancel so the product of the cleared parts is already coprime
        v1 = min(self._num)
        f1 = _pshift(self._num, -v1) if v1 else dict(self._num)
        v2 = min(other._num)
        f2 = _pshift(other._num, -v2) if v2 else dict(other._num)
        d1, d2 = self._den, other._den
        if max(d2) > 0:
            g = _pgcd(f1, d2)
            if max(g) > 0:
                f1 = _pdiv_exact(f1, g)
                d2 = _pdiv_exact(d2, g)
        if max(d1) > 0:
            g = _pgcd(f2, d1)
            if max(g) > 0:
                f2 = _pdiv_exact(f2, g)
                d1 = _pdiv_exact(d1, g)
        return Scalar._reduced(_pshift(_pmul(f1, f2), v1 + v2), _pmul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by zero scalar")
        if self.is_zero:
            return ZERO
        v1 = min(self._num)
        f1 = _pshift(self._num, -v1) if v1 else dict(self._num)
        v2 = min(other._num)
        f2 = _pshift(other._num, -v2) if v2 else dict(other._num)
        d1, d2 = self._den, other._den
        g = _pgcd(f1, f2)
        if max(g) > 0:
            f1 = _pdiv_exact(f1, g)
            f2 = _pdiv_exact(f2, g)
        if max(d1) > 0 and max(d2) > 0:
            g = _pgcd(d1, d2)
            if max(g) > 0:
                d1 = _pdiv_exact(d1, g)
                d2 = _pdiv_exact(d2, g)
        return Scalar._reduced(_pshift(_pmul(f1, d2), v1 - v2), _pmul(d1, f2))

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        out = Scalar.__new__(Scalar)
        out._num = _pneg(self._num)
        out._den = self._den
        out._key = (tuple(sorted(out._num.items())), self._key[1])
        return out

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        # a constant hashes like the equal int or Fraction, as == promises
        if self.is_laurent and self._num.keys() <= {0}:
            return hash(self._num.get(0, 0))
        return hash(self._key)

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return _poly_str(self._num) + " / " + _poly_str(self._den)

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar({})
ONE = Scalar({0: 1})


def s_power(e: int) -> Scalar:
    """s^e, the basic Laurent monomial."""
    return Scalar({e: 1})


@lru_cache(maxsize=None)
def qint(n: int, d: int = 1) -> Scalar:
    """The quantum integer [n] in base q^d: (q^(dn) - q^(-dn)) / (q^d - q^(-d))."""
    if d < 1:
        raise ValueError("base exponent d must be a positive integer")
    return (s_power(2 * d * n) - s_power(-2 * d * n)) / (s_power(2 * d) - s_power(-2 * d))


@lru_cache(maxsize=None)
def qfactorial(n: int, d: int = 1) -> Scalar:
    """[n]! in base q^d."""
    if n < 0:
        raise UndefinedFactorial(f"factorial of negative argument {n}")
    out = ONE
    for k in range(1, n + 1):
        out = out * qint(k, d)
    return out


def specialize_q1(a: Scalar) -> Fraction:
    """Evaluate at s = 1 after cancellation; raises PoleAtOne on a true pole."""
    dv = sum(a._den.values(), Fraction(0))
    if dv == 0:
        raise PoleAtOne(f"denominator of {a} vanishes at q = 1")
    return sum(a._num.values(), Fraction(0)) / dv
