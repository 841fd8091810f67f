"""The checked two-sided hockey-stick divergence of two finite
distributions, the reference for the divergence scan's sums, and the
advanced composition theorem as an (epsilon, delta) pair, an independent
closed form of the accountant's general bound."""

import math
from dataclasses import dataclass

import numpy as np

from ldpshuffle.core import PROB_TOLERANCE, check_budget, check_count, check_real
from ldpshuffle.errors import InvalidParameterError


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential-privacy guarantee."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        check_budget(self.epsilon, zero_ok=True)
        check_real(self.delta, "delta", 0.0, 1.0, "[)")


def advanced_composition(epsilon, delta, k, delta_prime):
    """Privacy of the adaptive k-fold composition of (epsilon, delta) mechanisms.

    Returns (eps', k*delta + delta') with
    eps' = eps * sqrt(2k log(1/delta')) + k * eps * (e^eps - 1).
    """
    epsilon = check_budget(epsilon, zero_ok=True)
    delta = check_real(delta, "delta", 0.0, 1.0, "[)")
    k = check_count(k, "k")
    delta_prime = check_real(delta_prime, "delta_prime", 0.0, 1.0)
    eps_total = epsilon * math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) \
        + k * epsilon * math.expm1(epsilon)
    return PrivacyParams(eps_total, k * delta + delta_prime)


def _as_probability_vector(p):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise InvalidParameterError("probability vector must be one-dimensional")
    if np.any(p < 0.0):
        raise InvalidParameterError("probability vector has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise InvalidParameterError(
            f"probability vector sums to {total!r}, outside tolerance {PROB_TOLERANCE}"
        )
    return p / total


def hockey_stick_delta(p, q, epsilon):
    """Smallest delta for which two finite distributions are (eps, delta)-close.

    Symmetric in its arguments: returns
    max( sum_x max(P(x) - e^eps Q(x), 0), sum_x max(Q(x) - e^eps P(x), 0) ),
    the exact additive slack in both neighbor orders. Zero iff the pair is
    (eps, 0)-close; at eps = 0 this is the total-variation distance.
    """
    epsilon = check_budget(epsilon, zero_ok=True)
    p = _as_probability_vector(p)
    q = _as_probability_vector(q)
    if p.shape != q.shape:
        raise InvalidParameterError(
            f"support mismatch: {p.shape[0]} vs {q.shape[0]} entries"
        )
    return hockey_stick_sum(p, q, math.exp(epsilon))


def hockey_stick_sum(p, q, e_eps):
    """The sum behind `hockey_stick_delta`, with e^eps given and no input
    checks: p and q must already be probability vectors of equal length."""
    forward = float(np.maximum(p - e_eps * q, 0.0).sum())
    backward = float(np.maximum(q - e_eps * p, 0.0).sum())
    return max(forward, backward)
