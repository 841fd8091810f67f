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

import numpy as np

from .errors import InvalidParameterError

# Max |sum - 1| accepted before a count distribution is rejected. Ones
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
    epsilon approaches 0, hence the strict positivity requirement, and one
    below ~2.2e-308, whose factor overflows, is refused. Once e^(eps/2)
    overflows (eps past ~1419) it is the exact limit 1, as a float from ~75.
    """
    epsilon = check_budget(epsilon)
    try:
        half = math.expm1(epsilon / 2.0)  # 0 once eps / 2 underflows
    except OverflowError:
        return 1.0
    factor = 1.0 + 2.0 / half if half else math.inf
    if factor < math.inf:
        return factor
    raise InvalidParameterError(f"epsilon={epsilon!r} is so small that its factor overflows")
