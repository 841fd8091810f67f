"""Bulk report emission for a whole client population.

This is the inner loop of a simulation trial under shuffle mode none,
vectorized in numpy over the flat report stream of a block of clients; a
post-shuffle trial draws its histogram without emitting reports. Its scalar reference is
`client_update` in `tests/reference/client.py`: fed the same coins, it
emits the same reports.
"""

import numpy as np

from .errors import InvalidParameterError


def resolve_backend():
    """Name of the numeric backend, always "numpy": it is the only one.

    `perfbench/run.py` records this value in the environment block of
    every benchmark run.
    """
    return "numpy"


def emit_reports(signal_t, signal_v, levels, coins, truth_prob, d):
    """Emit every report of a client population as (h, t, u) arrays.

    Inputs per client i: the sampled level, the timestep of the one change
    it reports on (0 when none) and that change's value. `coins` holds one
    pre-drawn uniform per emitted report, client-major, report time
    ascending: client i emits d >> (levels[i] - 1) reports, one at every
    multiple of its level period. The first report at or after the signal
    timestep carries randomized response, all others are fair signs. The
    output is in the same order as the coins.
    """
    signal_t = np.ascontiguousarray(signal_t, dtype=np.int64)
    signal_v = np.ascontiguousarray(signal_v, dtype=np.int64)
    levels = np.ascontiguousarray(levels, dtype=np.int64)
    coins = np.ascontiguousarray(coins, dtype=np.float64)
    counts = d >> (levels - 1)
    total = int(counts.sum())
    if coins.shape != (total,):
        raise InvalidParameterError(
            f"coins must be a flat vector of the {total} emitted reports, "
            f"got shape {coins.shape}"
        )
    starts = np.cumsum(counts) - counts
    h = np.repeat(levels, counts)
    # the s-th report (1-based) of a client at level h goes out at s 2^(h-1)
    t = (np.arange(1, total + 1, dtype=np.int64) - np.repeat(starts, counts)) << (h - 1)
    u = np.where(coins < 0.5, 1, -1)

    has = np.flatnonzero(signal_t > 0)
    at = starts[has] + ((signal_t[has] - 1) >> (levels[has] - 1))
    u[at] = np.where(coins[at] < truth_prob, 1, -1) * signal_v[has]
    return h, t, u
