"""Server-side aggregation: accumulate reports into a binary tree of
counts and turn prefix covers of that tree into debiased marginal
estimates. `stray_report` is the one rule for which reports address a
node; `accumulate_arrays` and the report reader in `client` apply it."""

import math

import numpy as np

from .core import check_count, level_count, scale_factor
from .errors import InvalidParameterError, MalformedReportError


class SumTree:
    """Balanced binary tree over a horizon of d leaves holding the
    anonymized histogram of a report stream: each node's -1 and +1 counts.

    Level h (1 = leaves) has d / 2^(h-1) nodes; node (h, j) covers
    timesteps [(j-1) * 2^(h-1) + 1, j * 2^(h-1)], and its reports carry
    t = j * 2^(h-1). Storage is one zeros-initialized (2d - 1, 2) int64
    array `counts`, level by level from offset `_offsets[h - 1]`.
    """

    def __init__(self, d):
        self.levels = level_count(d)
        self.d = int(d)
        self._offsets = np.concatenate(([0], np.cumsum(self.d >> np.arange(self.levels - 1))))
        self.counts = np.zeros((2 * self.d - 1, 2), dtype=np.int64)

    def nodes(self):
        """(h, t) of every node in storage order, as two int64 arrays: its
        level and the timestep its reports carry."""
        h = np.repeat(np.arange(1, self.levels + 1), self.d >> np.arange(self.levels))
        return h, (np.arange(len(h)) - self._offsets[h - 1] + 1) << (h - 1)


def stray_report(h, t, u, d):
    """Index of the first report (h, t, u), of int64 arrays, that addresses
    no node of the tree over horizon d, or None if every one does. A report
    addresses a node when 1 <= h <= log2(d) + 1, 1 <= t <= d, t is a
    multiple of the level period 2^(h-1) and u is -1 or +1."""
    levels = level_count(d)
    shift = np.clip(h, 1, levels) - 1  # an out-of-range h is refused, not shifted by
    bad = np.flatnonzero((h < 1) | (h > levels) | (t < 1) | (t > d)
                         | (t & ((1 << shift) - 1) != 0) | ((u != 1) & (u != -1)))
    return int(bad[0]) if len(bad) else None


def accumulate_arrays(h, t, u, d):
    """Vectorized accumulate for reports held as parallel arrays; one that
    addresses no node raises MalformedReportError naming its index."""
    h, t, u = (np.asarray(a, dtype=np.int64) for a in (h, t, u))
    tree = SumTree(d)
    bad = stray_report(h, t, u, d)
    if bad is not None:
        raise MalformedReportError(f"report {bad} (h={h[bad]}, t={t[bad]}, u={u[bad]}) "
                                   f"addresses no node of the tree over horizon {d}")
    # count every node's -1 and +1 reports in one integer bincount over
    # (node, sign) cells
    shift = h - 1
    cell = 2 * (tree._offsets[shift] + (t >> shift) - 1) + (u > 0)
    tree.counts += np.bincount(cell, minlength=tree.counts.size).reshape(-1, 2)
    return tree


def dyadic_cover(t, d):
    """Canonical set of tree nodes whose leaf ranges partition [1, t].

    Each set bit b of t, msb first, gives the level-(b+1) node t >> b: the
    nodes of the higher bits cover the first (t >> (b+1)) << (b+1)
    timesteps, and t >> b, which is odd, is the width-2^b node right after
    them. The result has popcount(t) nodes, at most log2(d).
    """
    level_count(d)
    t = check_count(t, "timestep", high=d)
    return tuple((b + 1, t >> b) for b in range(t.bit_length() - 1, -1, -1) if t >> b & 1)


def estimate_weight(epsilon, k, d, reports):
    """scale_factor(eps) * k * (log2 d + 1), which turns a prefix cover's
    report sum into an estimate; refused if it overflows on a sum of up to
    `reports` reports, which is n for n clients (one report per cover each)."""
    weight = scale_factor(epsilon) * check_count(k, "change budget k") * level_count(d)
    reports = check_count(reports, "report count", low=0, high=np.iinfo(np.int64).max)
    if weight * max(reports, 1) < math.inf:
        return weight
    raise InvalidParameterError(f"epsilon={epsilon!r} is so small that an estimate "
                                f"overflows, with a cover sum of up to {reports}")


def estimate_marginals(tree, epsilon, k, d):
    """Debiased running-count estimates for every timestep.

    Each estimate sums the tree nodes of the prefix cover and rescales by
    scale_factor(eps) * k * (log2 d + 1): the randomized-response debiasing
    times the inverse probabilities of the client-side change and level
    sampling. The level weight is the number of levels actually sampled
    (log2 d + 1), which is what makes the estimator unbiased; at d = 1 it
    is 1, so the degenerate horizon needs no special case. An epsilon so
    small that an estimate would overflow is refused.
    """
    if not isinstance(tree, SumTree):
        raise InvalidParameterError("expected a SumTree")
    if tree.d != d:
        raise InvalidParameterError(f"tree horizon {tree.d} does not match d={d}")
    # the prefix cover of t holds the level-h node t >> (h-1) exactly when
    # bit h-1 of t is set (see dyadic_cover)
    sums = tree.counts[:, 1] - tree.counts[:, 0]
    t = np.arange(1, d + 1, dtype=np.int64)
    total = np.zeros(d, dtype=np.int64)
    for h in range(1, tree.levels + 1):
        j = t >> (h - 1)
        total += np.where(j & 1, sums[tree._offsets[h - 1] + np.maximum(j, 1) - 1], 0)
    return estimate_weight(epsilon, k, d, int(np.abs(total).max())) * total
