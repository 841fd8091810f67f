"""Exact small-n certification oracle for the shuffled one-bit protocol.

When every report is one-bit randomized response, the shuffled output is
equivalent to its count of 1-responses, and that count's distribution is an
exact convolution of two binomials. This module computes those
distributions, scans every adjacent pair for the worst hockey-stick
divergence, and checks the closed-form accountant against the result.

The scan is O(n^3) overall, so the oracle is capped at n <= 10000; a full
certification at n = 5000 is well under a minute.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .amplification import amplify_shuffle
from .core import PROB_TOLERANCE, hockey_stick_sum
from .errors import InvalidParameterError

ORACLE_MAX_N = 10_000


def _pmf_terms(n, epsilon0):
    """Log truth and lie probabilities plus the table lgam[i] = log(i!),
    shared by every count distribution over n reports."""
    truth = 1.0 / (1.0 + math.exp(-epsilon0))
    lgam = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    return math.log(truth), math.log1p(-truth), lgam


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


def shuffled_rr_count_distribution(n, m, epsilon0):
    """Exact distribution of the number of 1-responses over support {0..n}.

    With m inputs equal to 1 and truth probability p = e^e0/(1+e^e0), the
    count is the independent sum of Binomial(m, p) and Binomial(n-m, 1-p).
    Terms are computed in log space against a log-gamma table so deep tails
    survive; the convolved vector is checked to sum to 1 within 1e-9 and
    renormalized.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if n > ORACLE_MAX_N:
        raise InvalidParameterError(f"oracle capped at n <= {ORACLE_MAX_N}, got {n}")
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= n):
        raise InvalidParameterError(f"ones count must be in [0, {n}], got {m}")
    if not (epsilon0 > 0.0 and math.isfinite(epsilon0)):
        raise InvalidParameterError(f"epsilon0 must be > 0, got {epsilon0}")
    n = int(n)
    return _count_pmf(n, int(m), *_pmf_terms(n, epsilon0))


def divergence_scan(n, epsilon0, epsilon):
    """Hockey-stick divergence between the m and m+1 count distributions,
    for every m in [0, n-1]; returns the length-n array of deltas."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise InvalidParameterError(f"need n >= 2, got {n}")
    if n > ORACLE_MAX_N:
        raise InvalidParameterError(f"oracle capped at n <= {ORACLE_MAX_N}, got {n}")
    if not (epsilon0 > 0.0 and math.isfinite(epsilon0)):
        raise InvalidParameterError(f"epsilon0 must be > 0, got {epsilon0}")
    if not (epsilon >= 0.0 and math.isfinite(epsilon)):
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    n = int(n)
    terms = _pmf_terms(n, epsilon0)
    e_eps = math.exp(epsilon)
    deltas = np.empty(n)
    prev = _count_pmf(n, 0, *terms)
    for m in range(n):
        cur = _count_pmf(n, m + 1, *terms)
        deltas[m] = hockey_stick_sum(prev, cur, e_eps)
        prev = cur
    return deltas


def worst_case_divergence(n, epsilon0, epsilon, return_scan=False):
    """Exact smallest delta for which the shuffled one-bit protocol is
    (epsilon, delta)-DP: the max over all adjacent input pairs.

    Adjacent means m versus m+1 inputs equal to 1; no extremality shortcut
    is assumed, every m in [0, n-1] is scanned. Set return_scan to also get
    the per-m divergence array.
    """
    deltas = divergence_scan(n, epsilon0, epsilon)
    worst = float(deltas.max())
    if return_scan:
        return worst, deltas
    return worst


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
