"""Imaginary Verma-type modules over the single-copy oscillator algebra.

A sign signature phi picks, for every positive index, which of a_{+i}, a_{-i}
annihilates the highest vector; the module is spanned by monomials in the
opposite (lowering) generators.  Everything here is computed on an explicit
truncation (bounded index, bounded exponent) with honest truncation errors,
and the infinite/finite verdicts come from the analytic criterion on the
signature, never from growth curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .heisenberg import central_bracket
from .qscalar import ONE, ZERO, Scalar, power_product

__all__ = [
    "PhiSignature", "Truncation", "VermaModule", "build_module", "degree_counts",
    "Verdict", "GradedDimReport", "IrreducibilityReport",
    "TruncationExceeded", "EmptyComponent", "partition_count",
]


class TruncationExceeded(ValueError):
    pass


class EmptyComponent(ValueError):
    pass


_SIGN_CHARS = {"+": 1, "-": -1}


def _signs(values) -> str:
    return "".join("+" if v > 0 else "-" for v in values)


@dataclass(frozen=True)
class PhiSignature:
    """An eventually periodic sign function on the positive integers."""

    prefix: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        for v in self.prefix + self.period:
            if v not in (1, -1):
                raise ValueError("signs must be +1 or -1")

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


@dataclass(frozen=True)
class Truncation:
    max_index: int
    max_exponent: int

    def __post_init__(self):
        if self.max_index < 1 or self.max_exponent < 1:
            raise ValueError("truncation bounds must be >= 1")


@dataclass(frozen=True)
class Verdict:
    kind: str  # FINITE | INFINITE | UNKNOWN_AT_TRUNCATION
    value: int | None = None

    def render(self) -> str:
        if self.kind == "FINITE":
            return f"FINITE({self.value})"
        return self.kind


@dataclass(frozen=True)
class GradedDimReport:
    degree: int
    truncated_dim: int
    verdict: Verdict

    def to_json(self):
        return {"n": self.degree, "dim": self.truncated_dim,
                "verdict": self.verdict.render()}


@dataclass(frozen=True)
class IrreducibilityReport:
    verdict: str
    witness_degree: int | None
    pairing_scalars: tuple
    gram_dets: tuple


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Number of partitions of n (unbounded parts and multiplicities)."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def _convolve(a, b):
    """The product of two {degree: count} series."""
    out = {}
    for m, c in a.items():
        for n, d in b.items():
            out[m + n] = out.get(m + n, 0) + c * d
    return out


def _lowering_degree(phi: PhiSignature, i: int) -> int:
    """Signed degree of the lowering generator at index i: -phi(i) * i."""
    return -phi(i) * i


@lru_cache(maxsize=None)
def degree_counts(phi: PhiSignature, truncation: Truncation) -> dict:
    """{degree: basis monomials}: the product over i of {e * deg_i: 1}, e <= E.
    The level plays no part.  Cached, so callers only read it."""
    counts = {0: 1}
    for i in range(1, truncation.max_index + 1):
        deg = _lowering_degree(phi, i)
        counts = _convolve(counts, {e * deg: 1 for e in range(truncation.max_exponent + 1)})
    return counts


@dataclass(frozen=True)
class VermaModule:
    """A truncated imaginary Verma-type module for one oscillator family."""

    phi: PhiSignature
    level: int | None
    truncation: Truncation

    # -- presentation ------------------------------------------------

    def lowering_degree(self, i: int) -> int:
        """Signed degree of the lowering generator at index i."""
        return _lowering_degree(self.phi, i)

    # -- basis -------------------------------------------------------

    def basis_component(self, n: int):
        """Exponent vectors of total degree n, in lexicographic order."""
        N, E = self.truncation.max_index, self.truncation.max_exponent
        degs = [self.lowering_degree(i) for i in range(1, N + 1)]
        lo = [0] * (N + 1)
        hi = [0] * (N + 1)
        for i in range(N - 1, -1, -1):
            lo[i] = lo[i + 1] + min(0, E * degs[i])
            hi[i] = hi[i + 1] + max(0, E * degs[i])
        # extend (prefix, residual) pairs index by index, in lexicographic order,
        # while later indices can cover the residual; lo[N] = hi[N] = 0 at the end
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
        if j == self.lowering_degree(i):
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
            side = -self.phi.constant_sign()  # sign of occupied degrees
            if n == 0:
                verdict = Verdict("FINITE", 1)
            elif n * side < 0:
                verdict = Verdict("FINITE", 0)
            else:
                verdict = Verdict("FINITE", partition_count(abs(n)))
        else:
            verdict = Verdict("UNKNOWN_AT_TRUNCATION")
        return GradedDimReport(n, count, verdict)

    # -- contravariant pairing ------------------------------------------

    def _pairing_scalar(self, i: int) -> Scalar:
        """c_i, the central value of [a_i, a_{-i}] at the module's level."""
        if self.level is None:
            raise ValueError("gamma must be specialized to a level")
        return central_bracket(i, self.level)[0]

    def _index_pair(self, i: int, e: int, f: int) -> Scalar:
        """Wick's formula: the raising power empties the lowering one in e! ways,
        each contracting to [raise, lower] = phi(i) c_i, and only when e == f."""
        if e != f:
            return ZERO
        return factorial(e) * (self.phi(i) * self._pairing_scalar(i)) ** e

    def vacuum_pairing(self, u_exps, w_exps) -> Scalar:
        """<u v, w v>: the coefficient of the highest vector in sigma(u) w v.

        Generators of distinct indices commute and only pair within an index,
        so the coefficient factors into single-index Wick factors, and the
        pairing vanishes between distinct monomials.
        """
        out = ONE
        for i, (e, f) in enumerate(zip(u_exps, w_exps), start=1):
            if e == 0 and f == 0:
                continue
            factor = self._index_pair(i, e, f)
            if factor.is_zero:
                return ZERO
            out = out * factor
        return out

    def gram_matrix(self, n: int):
        basis = self.basis_component(n)
        if not basis:
            raise EmptyComponent(f"no basis monomials in degree {n}")
        return [[self.vacuum_pairing(u, w) for w in basis] for u in basis]

    # -- irreducibility at truncation -------------------------------------

    def _witness_scan_order(self):
        N = self.truncation.max_index
        for m in range(1, N + 1):
            yield -m
            yield m
        yield 0

    def _block_det(self, basis, pairing) -> Scalar:
        """The determinant of a Gram block, in closed form.

        The block is diagonal, and its diagonal entries are the Wick products
        prod_i e_i! (phi(i) c_i)^(e_i), so the determinant is
        (prod_u prod_i e_i!) * prod_i (phi(i) c_i)^(E_i) with E_i = sum_u e_i:
        one power product, with the signs phi(i)^(E_i) in the integer factor.
        """
        count = 1
        powers = []
        for (i, c), column in zip(pairing, zip(*basis)):
            total = sum(column)
            if not total:
                continue
            if c.is_zero:
                return ZERO
            count *= self.phi(i) ** total * prod(map(factorial, column))
            powers.append((c, total))
        return power_product(powers, count)

    def irreducible_at_truncation(self) -> IrreducibilityReport:
        N = self.truncation.max_index
        pairing = tuple((k, self._pairing_scalar(k)) for k in range(1, N + 1))
        dets = {}
        witness = None
        for n in self._witness_scan_order():
            basis = self.basis_component(n)
            if not basis:
                continue
            dets[n] = d = self._block_det(basis, pairing)
            if d.is_zero and witness is None:
                witness = n
        ok = witness is None and all(not c.is_zero for _, c in pairing)
        verdict = "IRREDUCIBLE-CONSISTENT" if ok else "REDUCIBLE"
        ordered = tuple(sorted(dets.items()))
        return IrreducibilityReport(verdict, witness, pairing, ordered)

    # -- reporting ---------------------------------------------------------

    def header(self) -> dict:
        """The signature, level and truncation that every JSON report opens with."""
        return {
            "phi": {"prefix": _signs(self.phi.prefix), "period": _signs(self.phi.period)},
            "level": self.level,
            "truncation": {"max_index": self.truncation.max_index,
                           "max_exponent": self.truncation.max_exponent},
        }

    def report(self, degrees=None) -> dict:
        if degrees is None:
            N = self.truncation.max_index
            degrees = range(-N, N + 1)
        irr = self.irreducible_at_truncation()
        return {
            **self.header(),
            "degrees": [self.graded_dim(n).to_json() for n in degrees],
            "gram": [{"n": n, "det": str(d), "nonzero": not d.is_zero}
                     for n, d in irr.gram_dets],
            "verdict": irr.verdict,
            "witness_degree": irr.witness_degree,
        }


def build_module(phi: PhiSignature, level: int, truncation: Truncation) -> VermaModule:
    """Construct the truncated module; any integer level is allowed here."""
    return VermaModule(phi, level, truncation)
