"""Support membership and truncated weight multiplicities for induced loop modules.

Multiplicities never touch root vectors: by freeness over the negative side
of the non-standard partition, the count of a weight space is the number of
monomials with the right finite part and shift, convolved against the graded
dimensions of the inducing module.  Shifts are windowed (|shift| <= K) and
selected verdicts cite the analytic statements, not extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanData, positive_roots
from .verma import PhiSignature, Truncation, Verdict, VermaModule, partition_count

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


def _monomial_counts(cartan: CartanData, beta, max_abs_k: int):
    """dp[(partial, d)] = number of multisets of (positive root, shift) pairs,
    |shift| <= max_abs_k, whose roots sum to `partial` with total shift d."""
    n = len(beta)
    zero = tuple([0] * n)
    dp = {(zero, 0): 1}
    ht_beta = sum(beta)
    if ht_beta == 0:
        return dp
    dmax = max_abs_k * ht_beta
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
                    nd = d + m
                    if abs(nd) > dmax:
                        continue
                    key = (new, nd)
                    dp[key] = dp.get(key, 0) + cnt
    return dp


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
    dp = _monomial_counts(cartan, beta, max_abs_k)
    total = 0
    witnessed = False
    for (part, d), cnt in dp.items():
        if part != beta:
            continue
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


def _exact_constant_dims(sign, nodes: int, lo: int, hi: int) -> GradedDims:
    # every node constant with the same sign: all supports on one side, so the
    # node-by-node convolution of partition counts is finite and exact
    side = -sign
    conv = {0: 1}
    for _ in range(nodes):
        new = {}
        for p, c in conv.items():
            t = 0
            while True:
                m = p + t * side
                if (side < 0 and m < lo) or (side > 0 and m > hi):
                    break
                new[m] = new.get(m, 0) + c * partition_count(abs(t))
                t += 1
        conv = new
    counts = {m: c for m, c in conv.items() if lo <= m <= hi}
    return GradedDims(counts, frozenset(), (lo, hi))


def _truncated_mixed_dims(phis, level, lo: int, hi: int, trunc: Truncation) -> GradedDims:
    conv = {0: 1}
    for phi in phis:
        node_counts = VermaModule(phi, level, trunc)._degree_counts()
        new = {}
        for p, c in conv.items():
            for m, cnt in node_counts.items():
                new[p + m] = new.get(p + m, 0) + c * cnt
        conv = new
    counts = {m: c for m, c in conv.items() if lo <= m <= hi}
    return GradedDims(counts, frozenset(range(lo, hi + 1)), (lo, hi))


def phi_verma_graded_dims(phis, level: int, lo: int, hi: int,
                          trunc: Truncation) -> GradedDims:
    """Graded dimensions of the rank-many tensor factors picked out by the
    signatures, on the window [lo, hi]."""
    if not _mixed(phis):
        return _exact_constant_dims(phis[0].constant_sign(), len(phis), lo, hi)
    return _truncated_mixed_dims(phis, level, lo, hi, trunc)


def phi_verma_weight_dim(cartan: CartanData, phis, level: int, beta, k: int,
                         max_abs_k: int, trunc: Truncation) -> MultiplicityReport:
    """Weight-space report for the module induced from a signature-picked
    inducing module: infinite for any non-constant signature and for any
    nonzero finite part; exact partition-convolution counts otherwise."""
    beta = tuple(beta)
    if not support_contains(beta):
        raise NotInSupport(f"finite part {beta} is not a nonnegative root combination")
    phis = _broadcast_phis(phis, cartan.rank)
    reach = max_abs_k * max(sum(beta), 1)
    vdims = phi_verma_graded_dims(phis, level, k - reach, k + reach, trunc)
    report = weight_multiplicity(cartan, beta, k, vdims, max_abs_k)
    if _mixed(phis) or beta != tuple([0] * len(beta)):
        report = MultiplicityReport(report.beta, report.k, report.truncated_count,
                                    Verdict("INFINITE"), report.max_abs_k)
    return report
