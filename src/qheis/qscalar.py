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
from math import gcd, lcm, prod


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


# Up to this many bytes per digit, packing every factor of a power product at
# one common width beats raising each at its own width and multiplying in turn.
_ONE_PACK_MAX_BYTES = 45


def _pmul(a, b):
    # both operands scaled to integers once and multiplied term by term; each
    # nonzero output coefficient becomes a Fraction once
    da, ia = _integer_coefficients(a)
    db, ib = _integer_coefficients(b)
    out = {}
    for ea, ca in ia.items():
        for eb, cb in ib.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    den = da * db
    return {e: Fraction(c, den) for e, c in out.items() if c}


def _power_product(factors, count=1):
    """count * prod p^k over pairs (Laurent polynomial p, int k >= 0), count != 0.

    Each factor is scaled to integers over its least common denominator.  Up
    to _ONE_PACK_MAX_BYTES bytes per digit, every factor is packed once at the
    one width that holds the whole product and the product is unpacked once;
    wider, each factor is raised at its own width and the integer powers are
    multiplied in turn.  Each output coefficient becomes a Fraction once.
    """
    den, ints = 1, []
    for p, k in factors:
        if not k:
            continue
        if not p:
            return {}
        d, q = _integer_coefficients(p)
        den *= d ** k
        ints.append((q, k))
    if not ints:
        out = {0: 1}
    elif (nbytes := _digit_bytes(ints)) <= _ONE_PACK_MAX_BYTES:
        out = _kronecker(ints, nbytes)
    else:
        out = None
        for q, k in ints:
            if k > 1:
                q = _kronecker([(q, k)], _digit_bytes([(q, k)]))
            if out is not None:
                pair = [(out, 1), (q, 1)]
                q = _kronecker(pair, _digit_bytes(pair))
            out = q
    return {e: Fraction(c * count, den) for e, c in out.items()}


def _norm1(ints):
    return sum(map(abs, ints.values()))


def _top(ints):
    return max(map(abs, ints.values()))


def _digit_bytes(pairs):
    """Bytes per digit that hold every coefficient of prod q^k over pairs
    ({exponent: int} q, int k >= 1).  A coefficient of a*b is at most
    |a|_1 * max|b|, so no coefficient exceeds the product of |q|_1 over all k
    copies of every q with one copy's |q|_1 replaced by its max|q|; take the
    smallest such bound.  A digit holds any |coefficient| below 2^(8*nbytes - 1).
    """
    norms = [_norm1(q) for q, _ in pairs]
    total = prod(n ** k for n, (_, k) in zip(norms, pairs))
    bound = min(total // n * _top(q) for n, (q, _) in zip(norms, pairs))
    return (bound.bit_length() + 8) // 8


def _kronecker(pairs, nbytes):
    """prod q^k over pairs ({exponent: int} q, int k >= 1) by Kronecker
    substitution (Harvey, arXiv:0712.4046): one int per q with a digit of
    8*nbytes bits per exponent step, big-integer powers and products, and one
    unpack.  nbytes must hold every coefficient of the product (_digit_bytes).
    """
    lows = [min(q) for q, _ in pairs]
    # exponents often step by 2 or 4 (powers of q = s^2): pack one digit per step
    step = gcd(*(e - low for (q, _), low in zip(pairs, lows) for e in q)) or 1
    value, digits = 1, 1
    for (q, k), low in zip(pairs, lows):
        span = (max(q) - low) // step
        value *= _pack(q, low, step, nbytes, span + 1) ** k
        digits += k * span
    # a half-digit bias makes every digit nonnegative, so one to_bytes unpacks
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * digits, "little")
    raw = (value + bias).to_bytes(digits * nbytes, "little")
    low = sum(k * low for (_, k), low in zip(pairs, lows))
    return {low + i * step: c for i in range(digits)
            if (c := int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little") - half)}


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


def _pshift(p, k):
    # no polynomial dict is changed in place, so a zero shift shares p
    return p if k == 0 else {e + k: c for e, c in p.items()}


def _int_primitive(p):
    # integer multiple of p with coprime coefficients (content stripped)
    ints = _integer_coefficients(p)[1]
    content = gcd(*ints.values())
    return {e: c // content for e, c in ints.items()}


def _int_divmod(num, div):
    # (quotient, remainder) of integer polynomials (min exponent >= 0) by dense
    # long division, with deg remainder < deg div; every step must divide by
    # div's leading coefficient exactly, else "inexact polynomial division"
    dtop = max(div)
    lead = div[dtop]
    tail = [(de - dtop, dc) for de, dc in div.items() if de != dtop]
    rem = [0] * (max(num) + 1)
    for e, c in num.items():
        rem[e] = c
    quo = {}
    for e in range(len(rem) - 1, dtop - 1, -1):
        if c := rem[e]:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            quo[e - dtop] = q
            for off, dc in tail:
                rem[e + off] -= q * dc
    return quo, {e: c for e, c in enumerate(rem[:dtop]) if c}


def _int_pseudo_rem(a, b):
    # primitive part of the pseudo-remainder: lead(b)^(deg a - deg b + 1) * a
    # divided by b, which every step divides exactly (Knuth, TAOCP 4.6.1)
    scale = b[max(b)] ** (max(a) - max(b) + 1)
    r = _int_divmod({e: c * scale for e, c in a.items()}, b)[1]
    content = gcd(*r.values())
    return {e: c // content for e, c in r.items()}


def _pgcd(a, b):
    # the primitive integer gcd, leading coefficient positive, of two nonzero
    # ordinary polynomials; a constant operand has gcd 1
    if max(a) == 0 or max(b) == 0:
        return {0: 1}
    A = _int_primitive(a)
    B = _int_primitive(b)
    if max(A) < max(B):
        A, B = B, A
    while B:
        A, B = B, _int_pseudo_rem(A, B)
    if A[max(A)] < 0:
        return _pneg(A)
    return A


def _pdiv_exact(num, den):
    # the quotient of nonzero ordinary polynomials (min exponent >= 0);
    # a nonzero remainder is an error.  Both are scaled to integers once; by
    # Gauss's lemma an exact quotient by den's primitive part is integral, and
    # each quotient coefficient becomes a Fraction once, scaled by
    # dd / (dn * content).
    dn, ints = _integer_coefficients(num)
    dd, div = _integer_coefficients(den)
    content = gcd(*div.values())
    quo, rem = _int_divmod(ints, {e: c // content for e, c in div.items()})
    if rem:
        raise ArithmeticError("inexact polynomial division")
    scale = dn * content
    return {e: Fraction(q * dd, scale) for e, q in quo.items()}


def _coprime(num, den):
    # an equal quotient with the common factor of the parts cleared of powers
    # of s divided out of both; a monomial den leaves no factor to divide out
    if len(den) == 1:
        return num, den
    v, w = min(num), min(den)
    flat, den = _pshift(num, -v), _pshift(den, -w)
    g = _pgcd(flat, den)
    if max(g) > 0:
        flat, den = _pdiv_exact(flat, g), _pdiv_exact(den, g)
    return _pshift(flat, v - w), den


def _canonical(num, den):
    # num / den with no common factor but powers of s: shift the denominator
    # to an ordinary polynomial with nonzero constant term and make it monic
    if not num:
        return {}, {0: Fraction(1)}
    dmin = min(den)
    if dmin:
        num = _pshift(num, -dmin)
        den = _pshift(den, -dmin)
    lead = den[max(den)]
    if lead != 1:
        num = {e: c / lead for e, c in num.items()}
        den = {e: c / lead for e, c in den.items()}
    return num, den


def _poly_str(p):
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items(), reverse=True):
        n, d = c.numerator, c.denominator
        mag = f"{abs(n)}" if d == 1 else f"{abs(n)}/{d}"
        if e == 0:
            body = mag
        else:
            sym = "s" if e == 1 else f"s^{e}"
            body = sym if mag == "1" else f"{mag}*{sym}"
        if not parts:
            parts.append(("-" if n < 0 else "") + body)
        else:
            parts.append((" - " if n < 0 else " + ") + body)
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

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        if den is None:
            den = {0: Fraction(1)}
        num = _trim({_exponent(e): _exact(c) for e, c in num.items()})
        den = _trim({_exponent(e): _exact(c) for e, c in den.items()})
        if not den:
            raise DivisionByZero("zero denominator")
        if num:
            num, den = _coprime(num, den)
        self._num, self._den = _canonical(num, den)

    @classmethod
    def _reduced(cls, num, den):
        # for numerator/denominator pairs already known coprime
        out = cls.__new__(cls)
        out._num, out._den = _canonical(num, den)
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
        if d1 == d2:
            # only gcd(a + b, d) can cancel; a Laurent sum is the case d = 1
            num = _padd(self._num, other._num)
            if not num:
                return ZERO
            return Scalar._reduced(*_coprime(num, d1))
        g = _pgcd(d1, d2)
        if max(g) == 0:
            num = _padd(_pmul(self._num, d2), _pmul(other._num, d1))
            return Scalar._reduced(num, _pmul(d1, d2))
        d1g, d2g = _pdiv_exact(d1, g), _pdiv_exact(d2, g)
        # Henrici: only a factor of g can cancel.  num is nonzero: a zero sum
        # would make self and -other equal canonical forms over unequal d1, d2
        num = _padd(_pmul(self._num, d2g), _pmul(other._num, d1g))
        num, g = _coprime(num, g)
        return Scalar._reduced(num, _pmul(d1g, _pmul(d2g, g)))

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
        # cross-cancel so that the product is already coprime
        n1, d2 = _coprime(self._num, other._den)
        n2, d1 = _coprime(other._num, self._den)
        return Scalar._reduced(_pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by zero scalar")
        # the reciprocal of a canonical pair is coprime as it stands
        return self * Scalar._reduced(other._den, other._num)

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        out = Scalar.__new__(Scalar)
        out._num = _pneg(self._num)
        out._den = self._den
        return out

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** -k
        return power_product(((self, k),))

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a constant hashes like the equal int or Fraction, as == promises
        if self.is_laurent and self._num.keys() <= {0}:
            return hash(self._num.get(0, 0))
        return hash((frozenset(self._num.items()), frozenset(self._den.items())))

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
    """The quantum integer [n] in base q^d, (q^(dn) - q^(-dn)) / (q^d - q^(-d)),
    as its Laurent sum sign(n) * sum_{j < |n|} s^(2d(|n| - 1 - 2j))."""
    if d < 1:
        raise ValueError("base exponent d must be a positive integer")
    sign, m = Fraction(1 if n > 0 else -1), abs(n)
    return Scalar._reduced({2 * d * (m - 1 - 2 * j): sign for j in range(m)}, {0: Fraction(1)})


@lru_cache(maxsize=None)
def qfactorial(n: int, d: int = 1) -> Scalar:
    """[n]! in base q^d."""
    if n < 0:
        raise UndefinedFactorial(f"factorial of negative argument {n}")
    return power_product([(qint(k, d), 1) for k in range(1, n + 1)])


def power_product(pairs, count: int = 1) -> Scalar:
    """count * prod x^k over pairs (Scalar x, int k >= 0), count a nonzero int.
    A power of one canonical pair is canonical, so a gcd runs only when two
    pairs have k > 0 and one of them has a nontrivial denominator."""
    if not isinstance(count, int) or not count:
        raise ValueError(f"power_product takes a nonzero int count, not {count!r}")
    if any(not isinstance(k, int) or k < 0 for _, k in pairs):
        raise ValueError("power_product takes nonnegative int exponents")
    num = _power_product([(x._num, k) for x, k in pairs], count)
    live = [x for x, k in pairs if k]
    if all(x.is_laurent for x in live):
        return Scalar._reduced(num, {0: Fraction(1)})
    den = _power_product([(x._den, k) for x, k in pairs])
    if len(live) > 1 and num:
        num, den = _coprime(num, den)
    return Scalar._reduced(num, den)


def specialize_q1(a: Scalar) -> Fraction:
    """Evaluate at s = 1 after cancellation; raises PoleAtOne on a true pole."""
    dv = sum(a._den.values(), Fraction(0))
    if dv == 0:
        raise PoleAtOne(f"denominator of {a} vanishes at q = 1")
    return sum(a._num.values(), Fraction(0)) / dv
