"""Exact small-n certification oracle for the shuffled one-bit protocol.

When every report is one-bit randomized response, the shuffled output is
equivalent to its count of 1-responses, and that count's distribution is an
exact convolution of two binomials. This module computes those
distributions, scans every adjacent pair for the worst hockey-stick
divergence, and checks the closed-form accountant against the result.

The scan is O(n^2). With p = e^e0/(1+e^e0), q = 1-p and R_m the count pmf of
n-1 reports holding m ones, the pair (m, m+1) is P_m = p R_m(x) + q R_m(x-1)
against P_{m+1} = q R_m(x) + p R_m(x-1). Its forward sum
sum_x max(a R_m(x) - b R_m(x-1), 0), with a = p - e^eps q and
b = e^eps p - q, is positive only where R_m rises, so only the prefix up to
floor(mean) + 1 is summed. The backward sum of pair m is the forward sum of
pair n-1-m by bit-flip symmetry. R_{m+1} follows from P_{m+1} by solving the
two-tap system p R(x) + q R(x-1) = P(x) left to right: on the rising side an
error carried from x-1 shrinks by (q/p) R(x-1)/R(x) < e^-e0, and rounding
junk in the far right tail never flows left. Every 256 steps, and at the
last m, R_m is recomputed exactly; a recurrence that drifted past 1e-9
relative on the summed prefix raises ArithmeticError. At eps >= e0
every delta is exactly zero, since P_m/P_{m+1} <= p/q = e^e0. The oracle is
capped at n <= 10000.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .amplification import amplify_shuffle
from .core import PROB_TOLERANCE, check_budget, check_count

ORACLE_MAX_N = 10_000

# The two-tap solve multiplies BLOCK-wide slices by one Toeplitz matrix and
# carries between blocks with one small matrix; R_m is recomputed exactly
# every RESYNC_STEPS steps and must agree with the recurrence to
# RESYNC_RTOL wherever the exact value is at least RESYNC_FLOOR.
BLOCK = 64
RESYNC_STEPS = 256
RESYNC_RTOL = 1e-9
RESYNC_FLOOR = 1e-290
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


def _two_tap_solver(n, p, q):
    """Return solve(f): the length-n y with p y[x] + q y[x-1] = f[x] and
    y[-1] = 0. Each BLOCK-wide slice is one product with the Toeplitz
    inverse of the two-tap filter; the slices' last entries are then chained
    by one lower-triangular matrix over the blocks."""
    blocks = -(-n // BLOCK)
    powers = (-q / p) ** np.arange(BLOCK + 1)
    lag = np.arange(BLOCK) - np.arange(BLOCK)[:, None]
    within = np.where(lag >= 0, powers[np.maximum(lag, 0)] / p, 0.0)
    carry = powers[1:]
    block_lag = np.arange(blocks)[:, None] - np.arange(blocks)
    across = np.where(block_lag >= 0, powers[BLOCK] ** np.maximum(block_lag, 0), 0.0)
    padded = np.zeros(blocks * BLOCK)

    def solve(f):
        padded[:n] = f
        y = padded.reshape(blocks, BLOCK) @ within
        ends = across @ y[:, -1]
        y[1:] += np.outer(ends[:-1], carry)
        return y.ravel()[:n]

    return solve


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
    solve = _two_tap_solver(n, p, q)
    r = _count_pmf(n - 1, 0, log_p, log_q, lgam)
    for m in range(n):
        top = min(math.floor(m * p + (n - 1 - m) * q) + 1, n - 1)
        if m:
            pmf = q * r
            pmf[1:] += p * r[:-1]
            r = solve(pmf)
            if m % RESYNC_STEPS == 0 or m == n - 1:
                exact = _count_pmf(n - 1, m, log_p, log_q, lgam)
                known = exact[:top + 1]
                seen = known >= RESYNC_FLOOR
                drift = float(np.max(np.abs(r[:top + 1][seen] - known[seen]) / known[seen]))
                if not drift <= RESYNC_RTOL:  # also catches nan
                    raise ArithmeticError(
                        f"count recurrence drifted {drift!r} from the exact pmf at "
                        f"m={m}, past tolerance {RESYNC_RTOL}")
                r = exact
        head = r[:top + 1]
        terms = a * head
        if epsilon <= EXP_SAFE:
            terms[1:] -= b * head[:-1]
        else:
            with np.errstate(divide="ignore", over="ignore"):
                terms[1:] -= np.exp(log_b + np.log(np.maximum(head[:-1], 0.0)))
        forward[m] = np.maximum(terms, 0.0).sum()
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
    slack_ratio: float
    passed: bool

    def to_json_dict(self):
        return {
            "n": self.n,
            "eps0": self.epsilon0,
            "delta_target": self.delta_target,
            "claimed_epsilon": self.claimed_epsilon,
            "regime": self.regime,
            "exact_delta": self.exact_delta,
            "slack_ratio": self.slack_ratio,
            "passed": self.passed,
        }


def certify_amplification(n, epsilon0, delta_target):
    """Check that the accountant's epsilon really delivers the target delta.

    Asks `amplify_shuffle` for its epsilon at the target delta, then
    computes the exact delta of the one-bit protocol at that epsilon; the
    claim is sound iff exact <= target. The slack ratio (exact / target)
    quantifies how loose the closed form is.
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
        slack_ratio=exact / delta_target,
        passed=bool(exact <= delta_target),
    )
