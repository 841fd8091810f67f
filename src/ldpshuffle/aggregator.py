"""Server-side aggregation: accumulate reports into a binary tree of
counts and turn prefix covers of that tree into debiased marginal estimates."""

import numpy as np

from .core import check_count, level_count, scale_factor
from .errors import InvalidParameterError, MalformedReportError


class SumTree:
    """Balanced binary tree over a horizon of d leaves holding the
    anonymized histogram of a report stream: each node's -1 and +1 counts.

    Level h (1 = leaves) has d / 2^(h-1) nodes; node (h, j) covers
    timesteps [(j-1) * 2^(h-1) + 1, j * 2^(h-1)], and its reports carry
    t = j * 2^(h-1). Storage is one zeros-initialized (2d - 1, 2) int64
    array `counts`, level by level; node sums are derived from it.
    """

    def __init__(self, d):
        self.levels = level_count(d)
        self.d = int(d)
        self._offsets = np.concatenate(([0], np.cumsum(self.d >> np.arange(self.levels - 1))))
        self.counts = np.zeros((2 * self.d - 1, 2), dtype=np.int64)

    @property
    def values(self):
        """Every node's report sum, +1 count minus -1 count (read-only)."""
        return _sums(self.counts)

    def level(self, h):
        """The report sums of all nodes at one level (read-only)."""
        h = check_count(h, "level", high=self.levels)
        lo = self._offsets[h - 1]
        return _sums(self.counts[lo:lo + (self.d >> (h - 1))])

    def nodes(self):
        """(h, t) of every node in storage order, as two int64 arrays: its
        level and the timestep its reports carry."""
        h = np.repeat(np.arange(1, self.levels + 1), self.d >> np.arange(self.levels))
        return h, (np.arange(len(h)) - self._offsets[h - 1] + 1) << (h - 1)

    def merge(self, other):
        """Nodewise sum with another tree over the same horizon (in place)."""
        if not isinstance(other, SumTree) or other.d != self.d:
            raise InvalidParameterError("can only merge trees over the same horizon")
        self.counts += other.counts
        return self


def _sums(counts):
    sums = counts[:, 1] - counts[:, 0]
    sums.flags.writeable = False
    return sums


def accumulate_arrays(h, t, u, d):
    """Vectorized accumulate for reports held as parallel arrays."""
    h, t, u = (np.asarray(a, dtype=np.int64) for a in (h, t, u))
    tree = SumTree(d)
    if len(h) == 0:
        return tree
    if h.min() < 1 or h.max() > tree.levels:
        raise MalformedReportError("report level outside the tree")
    if t.min() < 1 or t.max() > tree.d:
        raise MalformedReportError("report timestep outside the horizon")
    shift = h - 1
    if np.any(t & ((1 << shift) - 1)):
        raise MalformedReportError("report timestep not divisible by its level period")
    if u.min() < -1 or u.max() > 1 or not u.all():
        raise MalformedReportError("report values must be -1 or +1")
    # count every node's -1 and +1 reports in one integer bincount over
    # (node, sign) cells
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


def estimate_marginals(tree, epsilon, k, d):
    """Debiased running-count estimates for every timestep.

    Each estimate sums the tree nodes of the prefix cover and rescales by
    scale_factor(eps) * k * (log2 d + 1): the randomized-response debiasing
    times the inverse probabilities of the client-side change and level
    sampling. The level weight is the number of levels actually sampled
    (log2 d + 1), which is what makes the estimator unbiased; at d = 1 it
    is 1, so the degenerate horizon needs no special case.
    """
    if not isinstance(tree, SumTree):
        raise InvalidParameterError("expected a SumTree")
    if tree.d != d:
        raise InvalidParameterError(f"tree horizon {tree.d} does not match d={d}")
    weight = scale_factor(epsilon) * check_count(k, "change budget k") * level_count(d)
    # the prefix cover of t holds the level-h node t >> (h-1) exactly when
    # bit h-1 of t is set (see dyadic_cover)
    t = np.arange(1, d + 1, dtype=np.int64)
    total = np.zeros(d, dtype=np.int64)
    for h in range(1, tree.levels + 1):
        j = t >> (h - 1)
        total += np.where(j & 1, tree.level(h)[np.maximum(j, 1) - 1], 0)
    return weight * total
