"""The shuffled one-bit count distribution with its input checks, and the
O(n^3) reference for `ldpshuffle.divergence.divergence_scan`."""

import math

import numpy as np

from ldpshuffle.core import check_budget, check_count
from ldpshuffle.divergence import ORACLE_MAX_N, _count_pmf, _pmf_terms

from reference.core import hockey_stick_sum


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
    return _count_pmf(n, m, *_pmf_terms(n, epsilon0))


def reference_divergence_scan(n, epsilon0, epsilon):
    """O(n^3) reference for `divergence.divergence_scan`: a fresh count pmf
    for every m and the full two-sided hockey-stick sum of each pair."""
    terms = _pmf_terms(n, epsilon0)
    e_eps = math.exp(epsilon)
    deltas = np.empty(n)
    prev = _count_pmf(n, 0, *terms)
    for m in range(n):
        cur = _count_pmf(n, m + 1, *terms)
        deltas[m] = hockey_stick_sum(prev, cur, e_eps)
        prev = cur
    return deltas
