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
that pmf with Bin(hi-mid, q) for the reports it adds as zeros, the right
half with Bin(mid+1-lo, p), the reverse of Bin(mid+1-lo, q), for those it
adds as ones, and a range of one m is R_m. That is about 2n `np.convolve`
calls and O(n^2 log n) multiply-adds; the recursion holds one pmf per level
and one binomial for each of O(log n) distinct sizes, so O(n log n) memory.
Each binomial is a convolution power of one report's pmf [p, q]: Bin(s, q)
is Bin(s//2, q) convolved with Bin(s - s//2, q). Until the final
hockey-stick sum only sums of nonnegative products are formed, so there is
no cancellation. An entry of R_m is a degree-(n-1) polynomial in p and q
with nonnegative coefficients, so rounding p and q by relative r (a few u;
about e0 u for q) moves it by at most (1 + r)^(n-1) - 1, and a convolution
adds about L u to its operands' relative errors, with L the terms of one of
its sums and u = 2^-53. R_m's convolutions, D = ceil(log2 n) split steps
and the halving trees of binomials whose sizes add up to n - 1 (at most D
levels each), hold at most about (D + 1) n terms per sum all told, so every
entry above the underflow range is within relative about n (r + (D + 1) u).
At eps >= e0 every delta is exactly zero, since P_m/P_{m+1} <= p/q = e^e0.
The oracle is capped at n <= 10000.
"""

import math
from dataclasses import dataclass

import numpy as np

from .amplification import amplify_shuffle
from .core import PROB_TOLERANCE, check_budget, check_count

ORACLE_MAX_N = 10_000

# Above this epsilon the scan never forms e^eps (it overflows past ~709.78).
EXP_SAFE = 700.0


def divergence_scan(n, epsilon0, epsilon):
    """Hockey-stick divergence between the m and m+1 count distributions,
    for every m in [0, n-1]; returns the length-n array of deltas."""
    n = check_count(n, "n", low=2, high=ORACLE_MAX_N)
    epsilon0 = check_budget(epsilon0, "epsilon0")
    epsilon = check_budget(epsilon, zero_ok=True)
    forward = np.zeros(n)
    if epsilon >= epsilon0:
        return forward
    # q from e^-e0, not 1 - p, which is 0 once p rounds to 1
    log_p = -math.log1p(math.exp(-epsilon0))
    p, q = math.exp(log_p), math.exp(log_p - epsilon0)
    a = -p * math.expm1(epsilon - epsilon0)          # p - e^eps q
    if epsilon <= EXP_SAFE:
        b = p * math.expm1(epsilon) + math.tanh(epsilon0 / 2.0)  # e^eps p - q
    else:
        # e^eps would overflow: b = e^eps p (1 - e^-(eps+e0)) is carried as
        # its log and only its products with R, which are small, are formed
        log_b = epsilon + log_p + math.log1p(-math.exp(-epsilon - epsilon0))
    binomials = {1: np.array([p, q])}

    def binomial(size):
        # Bin(size, q), the count pmf of size reports that all hold 0, as a
        # convolution power of one report's [p, q]; reversed, it is Bin(size, p)
        if size not in binomials:
            probs = np.convolve(binomial(size // 2), binomial(size - size // 2))
            total = float(probs.sum())
            if not abs(total - 1.0) <= PROB_TOLERANCE:  # also catches nan
                raise ArithmeticError(f"count distribution sums to {total!r}, "
                                      f"outside tolerance {PROB_TOLERANCE}")
            binomials[size] = probs
        return binomials[size]

    def scan(lo, hi, base):
        # base is the count pmf shared by R_lo .. R_hi: lo reports holding 1
        # and n-1-hi reports holding 0
        if lo < hi:
            mid = (lo + hi) // 2
            scan(lo, mid, np.convolve(base, binomial(hi - mid)))
            scan(mid + 1, hi, np.convolve(base, binomial(mid + 1 - lo)[::-1]))
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
    (epsilon, delta)-DP: the max over every adjacent pair, m against m+1
    inputs equal to 1; every m in [0, n-1] is scanned, none assumed extremal."""
    return float(divergence_scan(n, epsilon0, epsilon).max())


@dataclass(frozen=True)
class CertificationRecord:
    """Outcome of checking the closed-form accountant against the oracle;
    its fields, under these names, are what `verify-amplification` prints."""

    n: int
    eps0: float
    delta_target: float
    claimed_epsilon: float
    regime: str
    exact_delta: float
    passed: bool


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
        eps0=float(epsilon0),
        delta_target=float(delta_target),
        claimed_epsilon=claim.epsilon_central,
        regime=claim.regime,
        exact_delta=exact,
        passed=bool(exact <= delta_target),
    )
