"""The shuffled one-bit count distribution with its input checks, and the
O(n^3) reference for `ldpshuffle.divergence.divergence_scan`, which builds
every count pmf afresh as the convolution of two binomials. Its binomials
come from a log-factorial table, so it shares no pmf code with the scan,
which builds them as convolution powers of one report's pmf."""

import math

import numpy as np
from scipy.special import gammaln

from ldpshuffle.core import PROB_TOLERANCE, check_budget, check_count
from ldpshuffle.divergence import ORACLE_MAX_N

from reference.core import hockey_stick_sum


def _pmf_terms(n, epsilon0):
    """Log truth and lie probabilities plus the table lgam[i] = log(i!),
    shared by every count distribution over n reports. Both logs come from
    e^-e0, so a truth probability that rounds to 1 still has a finite lie
    log-probability."""
    log_norm = math.log1p(math.exp(-epsilon0))
    lgam = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    return -log_norm, -epsilon0 - log_norm, lgam


def count_pmf(n, m, log_p, log_1mp, lgam):
    """Bin(m, p) convolved with Bin(n - m, 1 - p): the count pmf of n
    reports of which m hold 1, checked to sum to 1 and renormalized."""
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
    n = check_count(n, "n", high=ORACLE_MAX_N)
    m = check_count(m, "ones count m", low=0, high=n)
    epsilon0 = check_budget(epsilon0, "epsilon0")
    return count_pmf(n, m, *_pmf_terms(n, epsilon0))


def reference_divergence_scan(n, epsilon0, epsilon):
    """O(n^3) reference for `divergence.divergence_scan`: a fresh count pmf
    for every m and the full two-sided hockey-stick sum of each pair."""
    terms = _pmf_terms(n, epsilon0)
    e_eps = math.exp(epsilon)
    deltas = np.empty(n)
    prev = count_pmf(n, 0, *terms)
    for m in range(n):
        cur = count_pmf(n, m + 1, *terms)
        deltas[m] = hockey_stick_sum(prev, cur, e_eps)
        prev = cur
    return deltas
