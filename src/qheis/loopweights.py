"""Support membership and truncated weight multiplicities for induced loop modules.

Multiplicities never touch root vectors: by freeness over the negative side
of the non-standard partition, the count of a weight space is the number of
monomials with the right finite part and shift, convolved against the graded
dimensions of the inducing module.  Shifts are windowed (|shift| <= K) and
selected verdicts cite the analytic statements, not extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .cartan import CartanData, positive_roots
from .verma import (PhiSignature, Truncation, Verdict, _factor_product, _lowering_degree,
                    partition_series)

__all__ = [
    "NotInSupport", "GradedDims", "MultiplicityReport", "support_contains",
    "weight_multiplicity", "phi_verma_weight_dim", "phi_verma_graded_dims",
]


class NotInSupport(ValueError):
    pass


@dataclass(frozen=True)
class GradedDims:
    """Graded dimensions of an inducing module over a window of shift degrees.

    counts holds truncated dimensions; degrees in `infinite` are known to be
    infinite-dimensional in the untruncated module (the count is then only a
    window figure).
    """

    counts: dict
    infinite: frozenset = frozenset()
    window: tuple = (0, 0)

    def dim(self, m: int):
        return self.counts.get(m, 0), m in self.infinite

    @classmethod
    def line(cls, degree: int = 0):
        return cls({degree: 1}, frozenset(), (degree, degree))

    @classmethod
    def constant_line(cls, lo: int, hi: int):
        return cls({m: 1 for m in range(lo, hi + 1)}, frozenset(), (lo, hi))


@dataclass(frozen=True)
class MultiplicityReport:
    beta: tuple
    k: int
    truncated_count: int
    verdict: Verdict
    max_abs_k: int

    def to_json(self):
        return {
            "mu": {"beta": list(self.beta), "k": self.k},
            "truncated_count": self.truncated_count,
            "verdict": self.verdict.render(),
            "bounds": {"max_abs_k": self.max_abs_k},
        }


def support_contains(beta) -> bool:
    """Whether lambda - beta + k*delta lies in the support: beta must be a
    nonnegative combination of simple roots; lambda and the shift k are
    unrestricted."""
    return all(c >= 0 for c in beta)


@lru_cache(maxsize=None)
def _shift_series(cartan: CartanData, beta, max_abs_k: int):
    """{d: number of multisets of (positive root, shift) pairs, |shift| <=
    max_abs_k, whose roots sum to beta with total shift d}.  Cached, so callers
    only read it."""
    ht_beta = sum(beta)
    if ht_beta == 0:
        return {0: 1}
    dp = {(tuple([0] * len(beta)), 0): 1}
    roots = [r.coeffs for r in positive_roots(cartan)
             if all(rc <= bc for rc, bc in zip(r.coeffs, beta))]
    for alpha in roots:
        ht_a = sum(alpha)
        for m in range(-max_abs_k, max_abs_k + 1):
            # unbounded multiplicity: sweep source heights upward; targets sit
            # strictly higher, so each level is final when visited
            for h in range(0, ht_beta - ht_a + 1):
                for (part, d), cnt in list(dp.items()):
                    if sum(part) != h:
                        continue
                    new = tuple(p + a for p, a in zip(part, alpha))
                    if any(x > b for x, b in zip(new, beta)):
                        continue
                    key = (new, d + m)
                    dp[key] = dp.get(key, 0) + cnt
    return {d: cnt for (part, d), cnt in dp.items() if part == beta}


def weight_multiplicity(cartan: CartanData, beta, k: int, vdims: GradedDims,
                        max_abs_k: int) -> MultiplicityReport:
    """Truncated dimension of the weight space lambda - beta + k*delta.

    INFINITE requires beta != 0 together with a nonzero inducing component
    reachable inside the shift window; beta = 0 reports the inducing
    dimension itself.
    """
    beta = tuple(beta)
    if not support_contains(beta):
        raise NotInSupport(f"finite part {beta} is not a nonnegative root combination")
    if max_abs_k < 0:
        raise ValueError(f"shift window must be >= 0, got {max_abs_k}")
    total = 0
    witnessed = False
    for d, cnt in _shift_series(cartan, beta, max_abs_k).items():
        count, infinite = vdims.dim(k - d)
        total += cnt * count
        if count > 0 or infinite:
            witnessed = True
    if beta == tuple([0] * len(beta)):
        _, infinite = vdims.dim(k)
        verdict = Verdict("INFINITE") if infinite else Verdict("FINITE", total)
    elif witnessed:
        verdict = Verdict("INFINITE")
    else:
        verdict = Verdict("UNKNOWN_AT_TRUNCATION")
    return MultiplicityReport(beta, k, total, verdict, max_abs_k)


def _broadcast_phis(phis, rank):
    if isinstance(phis, PhiSignature):
        return [phis] * rank
    phis = list(phis)
    if len(phis) != rank:
        raise ValueError(f"need one signature per node ({rank}), got {len(phis)}")
    return phis


def _mixed(phis) -> bool:
    """False iff every signature is constant, all with one sign."""
    return not (all(phi.is_constant() for phi in phis)
                and len({phi.constant_sign() for phi in phis}) == 1)


def phi_verma_graded_dims(phis, lo: int, hi: int, trunc: Truncation) -> GradedDims:
    """Graded dimensions of the rank-many tensor factors picked out by the
    signatures, on the window [lo, hi].  They do not depend on the level."""
    phis = tuple(phis)
    if _mixed(phis):
        # every index's factor of every node multiplied into one series
        degs = tuple(_lowering_degree(phi, i) for phi in phis
                     for i in range(1, trunc.max_index + 1))
        series = _factor_product(degs, trunc.max_exponent)
        counts = {m: c for m, c in series.items() if lo <= m <= hi}
        return GradedDims(counts, frozenset(range(lo, hi + 1)), (lo, hi))
    # every node constant with the same sign: all supports lie on one side,
    # and the series is prod_m (1 - x^(side*m))^(-rank), read at side * t for
    # t from the window's near end to its far end
    side = -phis[0].constant_sign()
    near, far = (lo, hi) if side > 0 else (-hi, -lo)
    table = partition_series(len(phis), far)
    counts = {side * t: table[t] for t in range(max(near, 0), far + 1)}
    return GradedDims(counts, frozenset(), (lo, hi))


def phi_verma_weight_dim(cartan: CartanData, phis, beta, k: int, max_abs_k: int,
                         trunc: Truncation) -> MultiplicityReport:
    """Weight-space report for the module induced from a signature-picked
    inducing module: infinite for any non-constant signature and for any
    nonzero finite part; exact partition-convolution counts otherwise."""
    phis = _broadcast_phis(phis, cartan.rank)
    reach = max_abs_k * max(sum(beta), 1)
    vdims = phi_verma_graded_dims(phis, k - reach, k + reach, trunc)
    report = weight_multiplicity(cartan, beta, k, vdims, max_abs_k)
    if _mixed(phis) or any(report.beta):
        report = replace(report, verdict=Verdict("INFINITE"))
    return report
