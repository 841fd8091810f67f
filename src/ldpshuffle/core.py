"""Privacy-parameter arithmetic shared by every other module.

Everything here is a pure function. Formulas that touch ``e^x - 1`` or
``log(1 + y)`` are evaluated with expm1/log1p so the small-budget regime
(epsilon around 1e-3) keeps full precision.

The parameter domains every module shares are checked here and only here:
`check_count` (an integer in a range), `check_real` (a real in an interval,
such as a delta), `check_budget` (a finite privacy budget) and
`level_count` (a power-of-two horizon). Each raises
InvalidParameterError outside its domain, for a bool and for a non-number.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Max |sum - 1| accepted before a probability vector is rejected. Vectors
# inside the tolerance are renormalized; silent renormalization beyond it
# would mask convolution bugs.
PROB_TOLERANCE = 1e-9


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name, low=1, high=None):
    """value as an int, if it is a Python or numpy integer (never a bool) in
    [low, high]; high None means no upper limit."""
    if not (_is_integer(value) and value >= low and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidParameterError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def check_real(value, name, low, high, ends="()"):
    """value as a float, if it is a real (never a bool) between low and
    high; ends marks each end open, "(" or ")", or closed, "[" or "]". An
    infinite end is kept open, so that the value is finite."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            x = math.inf if value > 0 else -math.inf
        if ((x > low if ends[0] == "(" else x >= low)
                and (x < high if ends[1] == ")" else x <= high)):
            return x
    raise InvalidParameterError(
        f"{name} must be a real in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")


def check_budget(value, name="epsilon", zero_ok=False):
    """value as a float, if it is a finite real (never a bool) > 0, or >= 0
    with zero_ok."""
    return check_real(value, name, 0.0, math.inf, "[)" if zero_ok else "()")


def is_power_of_two(n):
    return _is_integer(n) and n >= 1 and (n & (n - 1)) == 0


def level_count(d):
    """Number of tree levels over a horizon of d leaves, log2(d) + 1; the
    one check that d is a power of two."""
    if not is_power_of_two(d):
        raise InvalidParameterError(f"horizon must be a power of two, got {d!r}")
    return int(d).bit_length()


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential-privacy guarantee."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        check_budget(self.epsilon, zero_ok=True)
        check_real(self.delta, "delta", 0.0, 1.0, "[)")


@dataclass(frozen=True)
class SubsampleRate:
    """Mixture weight of the sensitive component in a subsampled mechanism."""

    q: float

    def __post_init__(self):
        check_real(self.q, "subsample rate", 0.0, 0.5)


def rr_probability(epsilon):
    """Probability of answering truthfully in binary randomized response.

    Returns e^(eps/2) / (1 + e^(eps/2)), which is 1/2 at zero budget and
    approaches 1 as the budget grows.
    """
    epsilon = check_budget(epsilon, zero_ok=True)
    return 1.0 / (1.0 + math.exp(-epsilon / 2.0))


def scale_factor(epsilon):
    """Debiasing factor (e^(eps/2) + 1) / (e^(eps/2) - 1) for response sums.

    This is the reciprocal of the randomized-response bias 2p - 1, so
    ``scale_factor(eps) * (2 * rr_probability(eps) - 1) == 1``. Diverges as
    epsilon approaches 0, hence the strict positivity requirement.
    """
    epsilon = check_budget(epsilon)
    return 1.0 + 2.0 / math.expm1(epsilon / 2.0)


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


def subsample_amplify(epsilon, q):
    """Amplified budget log(q (e^eps - 1) + 1) after q-subsampling.

    Only the epsilon side of the amplification; the caller is responsible
    for scaling the additive slack (delta becomes q * delta).
    """
    if isinstance(q, SubsampleRate):
        q = q.q
    q = check_real(q, "subsample rate", 0.0, 0.5)
    epsilon = check_budget(epsilon, zero_ok=True)
    return math.log1p(q * math.expm1(epsilon))


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
