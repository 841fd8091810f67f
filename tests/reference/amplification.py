"""The asymptotic one-bit reference curve that the certified bounds are
compared with; never a guarantee itself."""

import math

from ldpshuffle.amplification import _validate


def binary_case_bound(epsilon0, n, delta):
    """Asymptotic reference curve min(1, eps0) e^(eps0/2) sqrt(log(1/delta)/n)
    for the one-bit case, with the unknown constant set to 1.

    Plot/comparison aid only; never a certified guarantee. inf once
    e^(eps0/2) overflows.
    """
    epsilon0, n, delta = _validate(epsilon0, n, delta)
    try:
        return min(1.0, epsilon0) * math.exp(epsilon0 / 2.0) \
            * math.sqrt(math.log(1.0 / delta) / n)
    except OverflowError:
        return math.inf
