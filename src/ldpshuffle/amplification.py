"""Closed-form accountant for privacy amplification by shuffling.

All bounds share the per-step budget eps1 = 2 e^(2 eps0) (e^(eps0) - 1) / n.
The calculator evaluates every closed form whose hypotheses hold, returns
the minimum, and never reports worse than the trivial bound eps0 (a local
guarantee is a central guarantee as-is).
"""

import math
import sys
from dataclasses import dataclass, field

from .core import check_budget, check_count, check_real
from .errors import InvalidParameterError, OutOfRegimeError

REGIME_GENERAL = "general"
REGIME_MODERATE = "moderate"
REGIME_SIMPLIFIED = "simplified"
REGIME_NONE = "no-amplification"


@dataclass(frozen=True)
class AmplificationResult:
    """Amplified central-model guarantee plus how it was obtained.

    `bounds` holds every closed form that was applicable, uncapped;
    `epsilon_central` is their minimum capped at epsilon0, and `regime`
    labels the winner ("no-amplification" when the cap bites).
    """

    epsilon_central: float
    epsilon_1: float
    regime: str
    delta: float
    bounds: dict = field(default_factory=dict)


def _check_n(n, name="n", low=2):
    # every closed form divides by n, so n must convert to a float
    return check_count(n, name, low=low, high=sys.float_info.max)


def _validate(epsilon0, n, delta):
    """The accountant's domain; returns eps0, n and delta as a float, an int
    and a float."""
    return (check_budget(epsilon0, "epsilon0"), _check_n(n),
            check_real(delta, "delta", 0.0, 1.0))


def per_step_epsilon(epsilon0, n):
    """Per-step budget 2 e^(2 eps0) (e^(eps0) - 1) / n of the swapped protocol;
    inf once e^(2 eps0) overflows, where every bound built on it is vacuous."""
    epsilon0, n = check_budget(epsilon0, "epsilon0"), _check_n(n)
    try:
        return 2.0 * math.exp(2.0 * epsilon0) * math.expm1(epsilon0) / n
    except OverflowError:
        return math.inf


def _general_bound(eps1, n, delta):
    # above 700 expm1 overflows, and the bound is vacuous long before; below
    # the normal float range eps1 has underflowed and would make it too small
    if not sys.float_info.min <= eps1 <= 700.0:
        return math.inf
    return eps1 * math.sqrt(2.0 * n * math.log(1.0 / delta)) + n * eps1 * math.expm1(eps1)


def _moderate_bound(epsilon0, n, delta):
    try:
        lead = math.exp(2.0 * epsilon0) * math.expm1(epsilon0)
        return lead * math.sqrt(8.0 * math.log(1.0 / delta) / n) \
            + 6.0 * math.exp(4.0 * epsilon0) * math.expm1(epsilon0) ** 2 / n
    except OverflowError:  # vacuous long before e^(4 eps0) overflows
        return math.inf


def _simplified_bound(epsilon0, n, delta):
    return 12.0 * epsilon0 * math.sqrt(math.log(1.0 / delta) / n)


def _least(epsilon0, eps1, delta, bounds):
    """The least bound capped at eps0. One below the normal float range has
    underflowed, and 0 would claim perfect privacy, so it is refused."""
    regime, best = min(bounds.items(), key=lambda item: item[1])
    if best >= epsilon0:
        return AmplificationResult(epsilon0, eps1, REGIME_NONE, delta, bounds)
    if best < sys.float_info.min:
        raise InvalidParameterError(
            f"the {regime} bound at eps0={epsilon0!r} underflows the float range")
    return AmplificationResult(best, eps1, regime, delta, bounds)


def amplify_shuffle(epsilon0, n, delta):
    """Central-model budget of n shuffled eps0-local reports.

    Evaluates the general bound always, the moderate bound when
    eps0 <= ln(n/4)/3, and the simplified bound 12 eps0 sqrt(log(1/delta)/n)
    when n >= 1000, eps0 < 1/2 and delta < 1/100; returns the minimum,
    capped at eps0.
    """
    epsilon0, n, delta = _validate(epsilon0, n, delta)
    eps1 = per_step_epsilon(epsilon0, n)
    bounds = {REGIME_GENERAL: _general_bound(eps1, n, delta)}
    if epsilon0 <= math.log(n / 4.0) / 3.0:
        bounds[REGIME_MODERATE] = _moderate_bound(epsilon0, n, delta)
    if n >= 1000 and 0.0 < epsilon0 < 0.5 and 0.0 < delta < 0.01:
        bounds[REGIME_SIMPLIFIED] = _simplified_bound(epsilon0, n, delta)
    return _least(epsilon0, eps1, delta, bounds)


def amplify_group(epsilon0, group_size, delta):
    """Per-member budget when only a group of identical reports is shuffled.

    Applies 12 eps0 sqrt(log(1/delta)/|S|) under its stated hypotheses
    (|S| >= 1000, eps0 < 1/2, delta < 1/100) and refuses anything outside
    them rather than extrapolating; fall back to `amplify_shuffle` whose
    general regime is unconditional. Like every claim it is capped at eps0,
    and one that underflows is refused.
    """
    epsilon0 = check_budget(epsilon0, "epsilon0")
    group_size = _check_n(group_size, "group size", low=1)
    delta = check_real(delta, "delta", 0.0, 1.0)
    if group_size < 1000:
        raise OutOfRegimeError(f"group bound needs |S| >= 1000, got {group_size}")
    if epsilon0 >= 0.5:
        raise OutOfRegimeError(f"group bound needs epsilon0 < 1/2, got {epsilon0}")
    if delta >= 0.01:
        raise OutOfRegimeError(f"group bound needs delta in (0, 1/100), got {delta}")
    return _least(epsilon0, per_step_epsilon(epsilon0, group_size), delta,
                  {REGIME_SIMPLIFIED: _simplified_bound(epsilon0, group_size, delta)})


def rdp_bound(epsilon0, n, alpha):
    """Renyi-DP budget 2 alpha e^(4 eps0) (e^(eps0) - 1)^2 / n of the
    shuffled protocol at order alpha; linear in alpha, decreasing in n.
    inf once e^(4 eps0) overflows."""
    epsilon0, n = check_budget(epsilon0, "epsilon0"), _check_n(n)
    alpha = check_real(alpha, "order", 1.0, math.inf, "[)")
    try:
        return 2.0 * alpha * math.exp(4.0 * epsilon0) * math.expm1(epsilon0) ** 2 / n
    except OverflowError:
        return math.inf
