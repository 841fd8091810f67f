"""Server-side aggregation: accumulate reports into a binary tree of sums
and turn prefix covers of that tree into debiased marginal estimates."""

import numpy as np

from .core import check_count, level_count, scale_factor
from .errors import InvalidParameterError, MalformedReportError


class SumTree:
    """Balanced binary tree of report sums over a horizon of d leaves.

    Level h (1 = leaves) has d / 2^(h-1) nodes; node (h, j) covers
    timesteps [(j-1) * 2^(h-1) + 1, j * 2^(h-1)]. Storage is one flat
    int64 array of 2d - 1 zeros-initialized cells, so nodes no report ever
    touches stay zero and lookups are O(1).
    """

    def __init__(self, d):
        self.levels = level_count(d)
        self.d = int(d)
        sizes = [self.d >> (h - 1) for h in range(1, self.levels + 1)]
        self._offsets = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.int64)
        self.values = np.zeros(2 * self.d - 1, dtype=np.int64)

    def _index(self, h, j):
        if not 1 <= h <= self.levels:
            raise MalformedReportError(f"level {h} outside [1, {self.levels}]")
        width = self.d >> (h - 1)
        if not 1 <= j <= width:
            raise MalformedReportError(f"node index {j} outside [1, {width}] at level {h}")
        return int(self._offsets[h - 1]) + int(j) - 1

    def merge(self, other):
        """Nodewise sum with another tree over the same horizon (in place)."""
        if not isinstance(other, SumTree) or other.d != self.d:
            raise InvalidParameterError("can only merge trees over the same horizon")
        self.values += other.values
        return self

    def level(self, h):
        """Read-only view of all node values at one level."""
        lo = self._index(h, 1)
        return self.values[lo: lo + (self.d >> (h - 1))]


def accumulate_arrays(h, t, u, d):
    """Vectorized accumulate for reports held as parallel arrays."""
    h = np.asarray(h, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
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
    # (node, sign) cells; the node sum is their difference
    signed = 2 * (tree._offsets[shift] + (t >> shift) - 1) + (u > 0)
    counts = np.bincount(signed, minlength=2 * len(tree.values)).reshape(-1, 2)
    tree.values += counts[:, 1] - counts[:, 0]
    return tree


def dyadic_cover(t, d):
    """Canonical set of tree nodes whose leaf ranges partition [1, t].

    Follows the binary representation of t msb-first: each set bit 2^b
    contributes the level-(b+1) node starting right after the span covered
    so far. The result has popcount(t) nodes, at most log2(d).
    """
    level_count(d)
    t = check_count(t, "timestep", high=d)
    nodes = []
    covered = 0
    for b in range(t.bit_length() - 1, -1, -1):
        width = 1 << b
        if t & width:
            nodes.append((b + 1, covered // width + 1))
            covered += width
    return tuple(nodes)


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
