"""Linear combinations of generator words with oscillator-type normal ordering.

The rewriting engine handles any presentation in which the commutator of two
generators is central: a Scalar coefficient times an integer power of the
central element gamma^(1/2).  Each out-of-order adjacent pair (a, b) rewrites
to (b, a) plus the central commutator times the shorter word; every swap
either lowers the inversion count or shortens the word, so reduction
terminates, and centrality of all brackets makes the normal form independent
of the reduction strategy.
"""

from __future__ import annotations

from collections import namedtuple

from .qscalar import ONE, Scalar

FLAVOR_H = "h"     # loop generator, nonzero degree
FLAVOR_HP = "h'"   # primed loop generator (change of variables on the negative side)
FLAVOR_A = "a"     # single-copy oscillator generator, nonzero degree
FLAVOR_X = "X"     # Weyl multiplication operator, degree >= 1
FLAVOR_D = "D"     # Weyl derivation operator, degree >= 1

_HEISENBERG = (FLAVOR_H, FLAVOR_HP, FLAVOR_A)
_WEYL = (FLAVOR_X, FLAVOR_D)


class GenId(namedtuple("GenId", "flavor node degree")):
    """A generator: flavor tag, node index, and integer degree."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, flavor, node, degree):
        if flavor in _HEISENBERG:
            if degree == 0:
                raise ValueError(f"degree must be nonzero for {flavor!r}")
            if flavor == FLAVOR_A:
                if node != 0:
                    raise ValueError("single-copy generators use node 0")
            elif node < 1:
                raise ValueError("node index must be >= 1")
        elif flavor in _WEYL:
            if degree < 1:
                raise ValueError(f"degree must be >= 1 for {flavor!r}")
            if node < 1:
                raise ValueError("node index must be >= 1")
        else:
            raise ValueError(f"unknown flavor {flavor!r}")
        return super().__new__(cls, flavor, node, degree)

    def render(self):
        if self.flavor == FLAVOR_A:
            return f"a[{self.degree}]"
        return f"{self.flavor}[{self.node},{self.degree}]"


def generator_key(g: GenId):
    """The normal order of the loop, oscillator, single-copy and Weyl tables:
    negative-degree generators and X before the rest, then by node and degree."""
    return (0 if g.degree < 0 or g.flavor == FLAVOR_X else 1, g.node, g.degree)


def h_gen(node, degree):
    return GenId(FLAVOR_H, node, degree)


def hp_gen(node, degree):
    return GenId(FLAVOR_HP, node, degree)


def a_gen(degree):
    return GenId(FLAVOR_A, 0, degree)


def x_gen(node, degree):
    return GenId(FLAVOR_X, node, degree)


def d_gen(node, degree):
    return GenId(FLAVOR_D, node, degree)


class RelationTable(namedtuple("RelationTable", "sort_key central_commutator")):
    """A presentation with central commutators and a total order on generators.

    central_commutator(a, b) returns {gamma_half_exponent: Scalar} for
    [a, b] = ab - ba; it must be antisymmetric.  sort_key defines the normal
    order: a word is normal iff its keys are nondecreasing.
    """

    __slots__ = ()


class AlgebraElement:
    """A finite linear combination of (word, gamma-half-power) with Scalar coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        out = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, Scalar):
                coeff = Scalar._coerce(coeff)
            if coeff is None:
                raise TypeError("coefficients must be Scalars")
            if not coeff.is_zero:
                word, g = key
                out[(tuple(word), g)] = coeff
        self._terms = out

    @staticmethod
    def zero():
        return AlgebraElement()

    @staticmethod
    def from_scalar(c, gamma_half_exp=0):
        return AlgebraElement({((), gamma_half_exp): c})

    @staticmethod
    def from_word(word, coeff=ONE, gamma_half_exp=0):
        return AlgebraElement({(tuple(word), gamma_half_exp): coeff})

    @staticmethod
    def from_gen(gen):
        return AlgebraElement.from_word((gen,))

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            _bump(out, key, coeff)
        res = AlgebraElement()
        res._terms = out
        return res

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        res = AlgebraElement()
        res._terms = {k: -c for k, c in self._terms.items()}
        return res

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return f"AlgebraElement({self})"


def _term_sort_key(item):
    (word, g), _ = item
    return (len(word), word, g)


def _gamma_str(g):
    if g % 2 == 0:
        return f"gamma^{{{g // 2}}}"
    return f"gamma^{{{g}/2}}"


def render_element(x: AlgebraElement) -> str:
    """Canonical plain-text rendering."""
    if x.is_zero:
        return "0"
    parts = []
    for (word, g), coeff in sorted(x.items(), key=_term_sort_key):
        bits = [f"({coeff})"]
        if g != 0:
            bits.append(_gamma_str(g))
        if word:
            bits.append(" ".join(t.render() for t in word))
        parts.append(" * ".join(bits))
    return " + ".join(parts)


def _find_descent(word, key, strategy):
    rng = range(len(word) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    elif strategy != "leftmost":
        raise ValueError(f"unknown strategy {strategy!r}")
    for i in rng:
        if key(word[i]) > key(word[i + 1]):
            return i
    return None


def _bump(acc, key, coeff):
    v = acc.get(key)
    v = coeff if v is None else v + coeff
    if v.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = v


def _reduce(pending, table, strategy="leftmost"):
    key = table.sort_key
    done = {}
    while pending:
        (word, g), coeff = pending.popitem()
        i = _find_descent(word, key, strategy)
        if i is None:
            _bump(done, (word, g), coeff)
            continue
        a, b = word[i], word[i + 1]
        swapped = word[:i] + (b, a) + word[i + 2:]
        _bump(pending, (swapped, g), coeff)
        shorter = word[:i] + word[i + 2:]
        for dg, c in table.central_commutator(a, b).items():
            if not c.is_zero:
                _bump(pending, (shorter, g + dg), coeff * c)
    out = AlgebraElement()
    out._terms = done
    return out


def normal_order(word, table: RelationTable, strategy="leftmost") -> AlgebraElement:
    """The unique normal form of a generator word under the given presentation."""
    return _reduce({(tuple(word), 0): ONE}, table, strategy)


def reduce_element(x: AlgebraElement, table: RelationTable) -> AlgebraElement:
    return _reduce(dict(x.items()), table)


def multiply(x: AlgebraElement, y: AlgebraElement, table: RelationTable) -> AlgebraElement:
    """Bilinear extension of word concatenation followed by normal ordering."""
    pending = {}
    for (w1, g1), c1 in x.items():
        for (w2, g2), c2 in y.items():
            _bump(pending, (w1 + w2, g1 + g2), c1 * c2)
    return _reduce(pending, table)


def commutator(x: AlgebraElement, y: AlgebraElement, table: RelationTable) -> AlgebraElement:
    """xy - yx in normal form."""
    return multiply(x, y, table) - multiply(y, x, table)
