"""Bulk report emission for a whole client population.

This is the inner loop that dominates a simulation trial, vectorized in
numpy one tree level at a time. `client.client_update` is its scalar
reference: fed the same coins, it emits the same reports.
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
    it reports on (0 when none), that change's value, and one pre-drawn
    uniform per timestep (coins[i, t-1] is consumed iff a report is emitted
    at t). A report goes out at every multiple of the level period; the
    first one at or after the signal timestep carries randomized response,
    all others are fair signs. Output order is client-major, report time
    ascending.
    """
    signal_t = np.ascontiguousarray(signal_t, dtype=np.int64)
    signal_v = np.ascontiguousarray(signal_v, dtype=np.int64)
    levels = np.ascontiguousarray(levels, dtype=np.int64)
    coins = np.ascontiguousarray(coins, dtype=np.float64)
    n = levels.shape[0]
    if coins.shape != (n, d):
        raise InvalidParameterError(
            f"coins must have shape (n, d) = ({n}, {d}), got {coins.shape}"
        )
    counts = d >> (levels - 1)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    total = int(counts.sum())
    out_h = np.empty(total, dtype=np.int64)
    out_t = np.empty(total, dtype=np.int64)
    out_u = np.empty(total, dtype=np.int64)

    max_level = int(levels.max()) if n else 0
    for h in range(1, max_level + 1):
        rows = np.flatnonzero(levels == h)
        if len(rows) == 0:
            continue
        period = 1 << (h - 1)
        times = np.arange(period, d + 1, period, dtype=np.int64)
        block = coins[rows][:, times - 1]
        u = np.where(block < 0.5, 1, -1).astype(np.int64)

        st = signal_t[rows]
        has = st > 0
        if np.any(has):
            r_sig = ((st[has] + period - 1) // period) * period
            col = r_sig // period - 1
            src = np.flatnonzero(has)
            b = np.where(block[src, col] < truth_prob, 1, -1)
            u[src, col] = b * signal_v[rows][has]

        # scatter the level's block back into client-major order
        dest = offsets[rows][:, None] + np.arange(len(times))[None, :]
        out_h[dest] = h
        out_t[dest] = times[None, :]
        out_u[dest] = u
    return out_h, out_t, out_u
