"""Imaginary Verma-type modules over the single-copy oscillator algebra.

A sign signature phi picks, for every positive index, which of a_{+i}, a_{-i}
annihilates the highest vector; the module is spanned by monomials in the
opposite (lowering) generators.  Everything here is computed on an explicit
truncation (bounded index, bounded exponent) with honest truncation errors,
and the infinite/finite verdicts come from the analytic criterion on the
signature, never from growth curves.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from .heisenberg import UnspecializedGamma, central_bracket
from .qscalar import ONE, ZERO, Scalar, power_product

__all__ = [
    "PhiSignature", "Truncation", "VermaModule", "build_module", "degree_counts",
    "Verdict", "GradedDimReport", "IrreducibilityReport",
    "TruncationExceeded", "EmptyComponent", "partition_count", "partition_series",
]


class TruncationExceeded(ValueError):
    pass


class EmptyComponent(ValueError):
    pass


_SIGN_CHARS = {"+": 1, "-": -1}


def _signs(values) -> str:
    return "".join("+" if v > 0 else "-" for v in values)


class PhiSignature(namedtuple("PhiSignature", "prefix period")):
    """An eventually periodic sign function on the positive integers."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, prefix, period):
        if not period:
            raise ValueError("period must be nonempty")
        for v in prefix + period:
            if v not in (1, -1):
                raise ValueError("signs must be +1 or -1")
        return super().__new__(cls, prefix, period)

    @classmethod
    def parse(cls, text: str) -> "PhiSignature":
        """Parse "<prefix>:<period>" with +/- characters; no colon means constant."""
        if ":" in text:
            pre, per = text.split(":", 1)
        else:
            pre, per = "", text
        try:
            prefix = tuple(_SIGN_CHARS[c] for c in pre)
            period = tuple(_SIGN_CHARS[c] for c in per)
        except KeyError as exc:
            raise ValueError(f"bad sign character in {text!r}") from exc
        return cls(prefix, period)

    def render(self) -> str:
        pre, per = _signs(self.prefix), _signs(self.period)
        return f"{pre}:{per}" if pre else per

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError("the signature is defined on positive indices")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.period[(i - len(self.prefix) - 1) % len(self.period)]

    def is_constant(self) -> bool:
        return len(set(self.prefix) | set(self.period)) == 1

    def constant_sign(self):
        if not self.is_constant():
            raise ValueError(f"signature {self.render()!r} is not constant")
        return self.period[0]

    def constant_on_window(self, n: int) -> bool:
        return len({self(i) for i in range(1, n + 1)}) <= 1

    def lowering_degree(self, i: int) -> int:
        """Signed degree of the lowering generator at index i: -phi(i) * i."""
        return -self(i) * i


class Truncation(namedtuple("Truncation", "max_index max_exponent")):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, max_index, max_exponent):
        if max_index < 1 or max_exponent < 1:
            raise ValueError("truncation bounds must be >= 1")
        return super().__new__(cls, max_index, max_exponent)


class Verdict(namedtuple("Verdict", "kind value", defaults=(None,))):
    """kind is FINITE, with its value, INFINITE or UNKNOWN_AT_TRUNCATION."""

    __slots__ = ()

    def render(self) -> str:
        if self.kind == "FINITE":
            return f"FINITE({self.value})"
        return self.kind


class GradedDimReport(namedtuple("GradedDimReport", "degree truncated_dim verdict")):
    __slots__ = ()

    def to_json(self):
        return {"n": self.degree, "dim": self.truncated_dim,
                "verdict": self.verdict.render()}


class IrreducibilityReport(namedtuple("IrreducibilityReport",
                                      "verdict witness_degree pairing_scalars gram_dets")):
    __slots__ = ()


_PARTITION_SERIES = {}


def partition_series(rank: int, far: int) -> list:
    """[a(0), ..., a(far), ...]: the coefficients of prod_{m >= 1} (1 - x^m)^(-rank),
    on one table per rank that grows on demand.  Miller's power recurrence on
    Euler's series prod (1 - x^m) = sum_k p_k x^k gives
    t a(t) = sum_{k <= t} ((1 - rank) k - t) p_k a(t - k), with k the
    generalized pentagonal numbers j(3j -+ 1)/2 and p_k = (-1)^j, so a(t)
    costs O(sqrt t) steps.  No coefficient at t <= far depends on where the
    product is cut, so every window shares the table."""
    a = _PARTITION_SERIES.setdefault(rank, [1])
    euler, j = [], 1
    while (k := j * (3 * j - 1) // 2) <= far:
        p = -1 if j % 2 else 1
        euler += [(k, p), (k + j, p)]
        j += 1
    for t in range(len(a), far + 1):
        a.append(sum(((1 - rank) * k - t) * p * a[t - k] for k, p in euler if k <= t) // t)
    return a


def partition_count(n: int) -> int:
    """Number of partitions of n (unbounded parts and multiplicities)."""
    return partition_series(1, n)[n] if n >= 0 else 0


def _multiply_in(coeffs, deg, E):
    """Multiply the dense series coeffs (coeffs[j] counts degree lo + j) in place
    by one index's factor sum_{e <= E} x^(e*deg).  Terms that fall past the end
    of coeffs that deg points to are dropped.  The factor is
    (1 - x^((E+1)*deg)) / (1 - x^deg): one pass multiplies by the numerator,
    and one divides by the denominator from the other end."""
    L, s = len(coeffs), (E + 1) * deg
    if deg > 0:
        if s < L:
            coeffs[s:] = [x - y for x, y in zip(coeffs[s:], coeffs)]
        for j in range(deg, L):
            coeffs[j] += coeffs[j - deg]
    else:
        if -s < L:
            coeffs[:s] = [x - y for x, y in zip(coeffs, coeffs[-s:])]
        for j in range(L - 1 + deg, -1, -1):
            coeffs[j] += coeffs[j - deg]


def _count_series(degs: tuple, E: int) -> dict:
    """{degree: count}: the product over deg in degs of sum_{e <= E} x^(e*deg)."""
    lo = sum(min(0, E * deg) for deg in degs)
    coeffs = [0] * (sum(E * abs(deg) for deg in degs) + 1)
    coeffs[-lo] = 1
    for deg in degs:
        _multiply_in(coeffs, deg, E)
    return {lo + j: c for j, c in enumerate(coeffs) if c}


@lru_cache(maxsize=None)
def _factor_product(degs: tuple, E: int) -> dict:
    """_count_series cached on the degrees, so one module's counts serve every
    spelling of its signature and every caller only reads them.  A module's
    complement series are not cached: they would add N entries per module."""
    return _count_series(degs, E)


def degree_counts(phi: PhiSignature, truncation: Truncation) -> dict:
    """{degree: basis monomials}: the product over i of sum_{e <= E} x^(e * deg_i).
    The level plays no part.  Shared through _factor_product's cache, so
    callers only read it."""
    degs = tuple(phi.lowering_degree(i) for i in range(1, truncation.max_index + 1))
    return _factor_product(degs, truncation.max_exponent)


class VermaModule(namedtuple("VermaModule", "phi level truncation")):
    """A truncated imaginary Verma-type module for one oscillator family."""

    __slots__ = ()

    # -- basis -------------------------------------------------------

    def basis_component(self, n: int):
        """Exponent vectors of total degree n, in lexicographic order."""
        N, E = self.truncation.max_index, self.truncation.max_exponent
        degs = [self.phi.lowering_degree(i) for i in range(1, N + 1)]
        # the indices after idx leave a residual in [lo[idx], hi[idx]]
        lo, hi = [0] * (N + 1), [0] * (N + 1)
        for idx in range(N - 1, -1, -1):
            lo[idx] = lo[idx + 1] + min(0, E * degs[idx])
            hi[idx] = hi[idx + 1] + max(0, E * degs[idx])
        # extend (prefix, residual) pairs index by index, in lexicographic order,
        # keeping a prefix only while the later indices' bounds hold its residual
        layer = [((), n)]
        for idx, deg in enumerate(degs, start=1):
            layer = [(vec + (e,), r - e * deg) for vec, r in layer for e in range(E + 1)
                     if lo[idx] <= r - e * deg <= hi[idx]]
        return [vec for vec, _ in layer]

    # -- generator action ---------------------------------------------

    def act(self, j: int, exps):
        """Left action of a_j on a basis monomial, as {exponent vector: Scalar}.

        A lowering a_j multiplies in one more factor at index i = |j|.  A
        raising a_j commutes with every other index and, by Wick's formula
        with one contraction, pairs with each of the e_i lowering factors at
        i to [raise, lower] = phi(i) c_i; the uncontracted term kills the
        highest vector.
        """
        if j == 0:
            raise ValueError("generator degree must be nonzero")
        N, E = self.truncation.max_index, self.truncation.max_exponent
        if len(exps) != N or any(not 0 <= e <= E for e in exps):
            raise ValueError(f"{tuple(exps)} is not a basis vector: it needs {N} "
                             f"exponents in 0..{E}")
        i = abs(j)
        out = list(exps)
        if j == self.phi.lowering_degree(i):
            if i > N:
                raise TruncationExceeded(f"index {i} exceeds bound {N}")
            if exps[i - 1] == E:
                raise TruncationExceeded(f"exponent bound {E} exceeded")
            out[i - 1] += 1
            return {tuple(out): ONE}
        if i > N or exps[i - 1] == 0:
            return {}
        coeff = exps[i - 1] * self.phi(i) * self._pairing_scalar(i)
        if coeff.is_zero:
            return {}
        out[i - 1] -= 1
        return {tuple(out): coeff}

    # -- graded dimensions ---------------------------------------------

    def truncated_dim(self, n: int) -> int:
        return degree_counts(self.phi, self.truncation).get(n, 0)

    def graded_dim(self, n: int) -> GradedDimReport:
        N = self.truncation.max_index
        count = self.truncated_dim(n)
        if not self.phi.constant_on_window(N):
            verdict = Verdict("INFINITE")
        elif self.phi.is_constant():
            # occupied degrees have the sign -phi; partition_count is 0 below 0
            verdict = Verdict("FINITE", partition_count(-self.phi.constant_sign() * n))
        else:
            verdict = Verdict("UNKNOWN_AT_TRUNCATION")
        return GradedDimReport(n, count, verdict)

    # -- contravariant pairing ------------------------------------------

    def _pairing_scalar(self, i: int) -> Scalar:
        """c_i, the central value of [a_i, a_{-i}] at the module's level."""
        if self.level is None:
            raise UnspecializedGamma("gamma is still formal; specialize it first")
        return central_bracket(i, self.level).get(0, ZERO)

    def vacuum_pairing(self, u_exps, w_exps) -> Scalar:
        """<u v, w v>: the coefficient of the highest vector in sigma(u) w v,
        with each raising generator of sigma(u) applied to w through act."""
        out, vec = ONE, tuple(w_exps)
        for i, e in enumerate(u_exps, start=1):
            for _ in range(e):
                image = self.act(-self.phi.lowering_degree(i), vec)
                if not image:
                    return ZERO
                (vec, coeff), = image.items()
                out = out * coeff
        return ZERO if any(vec) else out

    def gram_matrix(self, n: int):
        basis = self.basis_component(n)
        if not basis:
            raise EmptyComponent(f"no basis monomials in degree {n}")
        return [[self.vacuum_pairing(u, w) for w in basis] for u in basis]

    # -- irreducibility at truncation -------------------------------------

    def _block_det(self, n, pairing, others) -> Scalar:
        """The determinant of the Gram block of degree n, in closed form.

        The block is diagonal, and its diagonal entries are the Wick products
        prod_i e_i! (phi(i) c_i)^(e_i), so the determinant is
        (prod_u prod_i e_i!) * prod_i (phi(i) c_i)^(E_i) with E_i = sum_u e_i:
        one power product, with the signs phi(i)^(E_i) in the integer factor.
        No basis is built: with others[i - 1] the count series of the indices
        but i, C_i(n - e*d_i) vectors have e_i = e, so E_i = sum_e e*C_i(n - e*d_i)
        and the factorials multiply to prod_e (e!)^C_i(n - e*d_i).
        """
        count = 1
        powers = []
        for (i, c), other in zip(pairing, others):
            deg = self.phi.lowering_degree(i)
            with_e = [other.get(n - e * deg, 0) for e in range(self.truncation.max_exponent + 1)]
            total = sum(e * m for e, m in enumerate(with_e))
            if not total:
                continue
            if c.is_zero:
                return ZERO
            count *= self.phi(i) ** total * prod(factorial(e) ** m for e, m in enumerate(with_e))
            powers.append((c, total))
        return power_product(powers, count)

    def irreducible_at_truncation(self) -> IrreducibilityReport:
        """The Gram determinant of every occupied degree in -N..N, in degree
        order.  The witness is the zero block nearest degree 0, the negative
        one first and degree 0 last.  A zero c_i zeroes the block at the
        degree of index i, so REDUCIBLE is exactly a witness."""
        N, E = self.truncation.max_index, self.truncation.max_exponent
        pairing = tuple((k, self._pairing_scalar(k)) for k in range(1, N + 1))
        degs = tuple(self.phi.lowering_degree(k) for k in range(1, N + 1))
        counts = _factor_product(degs, E)
        others = [_count_series(degs[:k] + degs[k + 1:], E) for k in range(N)]
        dets = {n: self._block_det(n, pairing, others) for n in range(-N, N + 1) if counts.get(n)}
        witness = min((n for n, d in dets.items() if d.is_zero),
                      key=lambda n: (n == 0, abs(n), n), default=None)
        verdict = "IRREDUCIBLE-CONSISTENT" if witness is None else "REDUCIBLE"
        return IrreducibilityReport(verdict, witness, pairing, tuple(dets.items()))

    # -- reporting ---------------------------------------------------------

    def header(self) -> dict:
        """The signature, level and truncation that every JSON report opens with."""
        return {
            "phi": {"prefix": _signs(self.phi.prefix), "period": _signs(self.phi.period)},
            "level": self.level,
            "truncation": {"max_index": self.truncation.max_index,
                           "max_exponent": self.truncation.max_exponent},
        }

    def report(self) -> dict:
        N = self.truncation.max_index
        irr = self.irreducible_at_truncation()
        return {
            **self.header(),
            "degrees": [self.graded_dim(n).to_json() for n in range(-N, N + 1)],
            "gram": [{"n": n, "det": str(d), "nonzero": not d.is_zero}
                     for n, d in irr.gram_dets],
            "verdict": irr.verdict,
            "witness_degree": irr.witness_degree,
        }


def build_module(phi: PhiSignature, level: int, truncation: Truncation) -> VermaModule:
    """Construct the truncated module; any integer level is allowed here."""
    return VermaModule(phi, level, truncation)
