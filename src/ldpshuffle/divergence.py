"""Exact small-n certification oracle for the shuffled one-bit protocol.

When every report is one-bit randomized response, the shuffled output is
equivalent to its count of 1-responses, and that count's distribution is an
exact convolution of two binomials. This module computes those
distributions, scans every adjacent pair for the worst hockey-stick
divergence, and checks the closed-form accountant against the result.

The scan costs O(n^2 log n). With p = e^e0/(1+e^e0), q = 1-p and R_m the
count pmf of n-1 reports holding m ones, the pair (m, m+1) is
P_m = p R_m(x) + q R_m(x-1) against P_{m+1} = q R_m(x) + p R_m(x-1). Its
forward sum sum_x max(a R_m(x) - b R_m(x-1), 0), with a = p - e^eps q and
b = e^eps p - q, is positive only where R_m rises, so only the prefix up to
floor(mean) + 1 is summed. The backward sum of pair m is the forward sum of
pair n-1-m by bit-flip symmetry. Every R_m comes from one split over m:
for m in [lo, hi], all R_m share the pmf of the first lo reports (ones) and
the last n-1-hi reports (zeros). Splitting at mid, the left half convolves
that pmf with the binomial of the hi-mid reports it adds as zeros, the right
half with the binomial of the mid+1-lo reports it adds as ones, and a range
of one m is R_m. That is about 2n `np.convolve` calls and O(n^2 log n)
multiply-adds; the recursion holds one pmf per level and the binomials of
O(log n) distinct sizes, so O(n log n) memory. Until the final
hockey-stick sum only sums of nonnegative products are formed, so there is
no cancellation: if each binomial from `_count_pmf` is within relative eta
of its exact values entrywise, every entry of R_m above the underflow range
is within relative (1 + eta)^D (1 + g)^D - 1, about D (eta + n u), where
D = ceil(log2 n) is the depth of the split, g = n u / (1 - n u) bounds the
rounding of one convolution sum of at most n terms and u = 2^-53 is the
unit roundoff. At eps >= e0 every delta is exactly zero, since
P_m/P_{m+1} <= p/q = e^e0. The oracle is capped at n <= 10000.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .amplification import amplify_shuffle
from .core import PROB_TOLERANCE, check_budget, check_count

ORACLE_MAX_N = 10_000

# Above this epsilon the scan never forms e^eps (it overflows past ~709.78).
EXP_SAFE = 700.0


def _pmf_terms(n, epsilon0):
    """Log truth and lie probabilities plus the table lgam[i] = log(i!),
    shared by every count distribution over n reports. Both logs come from
    e^-e0, so a truth probability that rounds to 1 still has a finite lie
    log-probability."""
    log_norm = math.log1p(math.exp(-epsilon0))
    lgam = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    return -log_norm, -epsilon0 - log_norm, lgam


def _count_pmf(n, m, log_p, log_1mp, lgam):
    j = np.arange(m + 1)
    ones = np.exp(lgam[m] - lgam[j] - lgam[m - j] + j * log_p + (m - j) * log_1mp)
    i = np.arange(n - m + 1)
    zeros = np.exp(lgam[n - m] - lgam[i] - lgam[n - m - i]
                   + i * log_1mp + (n - m - i) * log_p)
    probs = np.convolve(ones, zeros)
    total = float(probs.sum())
    if not abs(total - 1.0) <= PROB_TOLERANCE:  # also catches nan
        raise ArithmeticError(
            f"count distribution sums to {total!r}, outside tolerance {PROB_TOLERANCE}"
        )
    return probs / total


def divergence_scan(n, epsilon0, epsilon):
    """Hockey-stick divergence between the m and m+1 count distributions,
    for every m in [0, n-1]; returns the length-n array of deltas."""
    n = check_count(n, "n", low=2, high=ORACLE_MAX_N)
    epsilon0 = check_budget(epsilon0, "epsilon0")
    epsilon = check_budget(epsilon, zero_ok=True)
    forward = np.zeros(n)
    if epsilon >= epsilon0:
        return forward
    log_p, log_q, lgam = _pmf_terms(n - 1, epsilon0)
    p, q = math.exp(log_p), math.exp(log_q)
    a = -p * math.expm1(epsilon - epsilon0)          # p - e^eps q
    if epsilon <= EXP_SAFE:
        b = p * math.expm1(epsilon) + math.tanh(epsilon0 / 2.0)  # e^eps p - q
    else:
        # e^eps would overflow: b = e^eps p (1 - e^-(eps+e0)) is carried as
        # its log and only its products with R, which are small, are formed
        log_b = epsilon + log_p + math.log1p(-math.exp(-epsilon - epsilon0))
    pieces = {}

    def binomial(size, ones):
        # count pmf of size reports that all hold 1, or all hold 0
        if (size, ones) not in pieces:
            pieces[size, ones] = _count_pmf(size, size if ones else 0, log_p, log_q, lgam)
        return pieces[size, ones]

    def scan(lo, hi, base):
        # base is the count pmf shared by R_lo .. R_hi: lo reports holding 1
        # and n-1-hi reports holding 0
        if lo < hi:
            mid = (lo + hi) // 2
            scan(lo, mid, np.convolve(base, binomial(hi - mid, False)))
            scan(mid + 1, hi, np.convolve(base, binomial(mid + 1 - lo, True)))
            return
        top = min(math.floor(lo * p + (n - 1 - lo) * q) + 1, n - 1)
        head = base[:top + 1]
        terms = a * head
        if epsilon <= EXP_SAFE:
            terms[1:] -= b * head[:-1]
        else:
            with np.errstate(divide="ignore", over="ignore"):
                terms[1:] -= np.exp(log_b + np.log(np.maximum(head[:-1], 0.0)))
        forward[lo] = np.maximum(terms, 0.0).sum()

    scan(0, n - 1, np.ones(1))
    return np.maximum(forward, forward[::-1])


def worst_case_divergence(n, epsilon0, epsilon):
    """Exact smallest delta for which the shuffled one-bit protocol is
    (epsilon, delta)-DP: the max over all adjacent input pairs.

    Adjacent means m versus m+1 inputs equal to 1; no extremality shortcut
    is assumed, every m in [0, n-1] is scanned (`divergence_scan` gives the
    per-m deltas).
    """
    return float(divergence_scan(n, epsilon0, epsilon).max())


@dataclass(frozen=True)
class CertificationRecord:
    """Outcome of checking the closed-form accountant against the oracle."""

    n: int
    epsilon0: float
    delta_target: float
    claimed_epsilon: float
    regime: str
    exact_delta: float
    passed: bool

    def to_json_dict(self):
        return {
            "n": self.n,
            "eps0": self.epsilon0,
            "delta_target": self.delta_target,
            "claimed_epsilon": self.claimed_epsilon,
            "regime": self.regime,
            "exact_delta": self.exact_delta,
            "passed": self.passed,
        }


def certify_amplification(n, epsilon0, delta_target):
    """Check that the accountant's epsilon really delivers the target delta.

    Asks `amplify_shuffle` for its epsilon at the target delta, then
    computes the exact delta of the one-bit protocol at that epsilon; the
    claim is sound iff exact <= target.
    """
    claim = amplify_shuffle(epsilon0, n, delta_target)
    exact = worst_case_divergence(n, epsilon0, claim.epsilon_central)
    return CertificationRecord(
        n=int(n),
        epsilon0=float(epsilon0),
        delta_target=float(delta_target),
        claimed_epsilon=claim.epsilon_central,
        regime=claim.regime,
        exact_delta=exact,
        passed=bool(exact <= delta_target),
    )
