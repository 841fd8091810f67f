"""Server-side aggregation: accumulate reports into a binary tree of
counts and turn prefix covers of that tree into debiased marginal
estimates. A shuffled stream reaches the server as its histogram, distinct
reports each with the count of its copies (`client.read_reports`), and the
tree counts them in int64. `stray_report` is the one rule for which reports
address a node; `SumTree.add`, hence `accumulate_arrays`, and the report
reader in `client` apply it to rows, whatever their counts."""

import math

import numpy as np

from .core import check_count, level_count, scale_factor
from .errors import InvalidParameterError, MalformedReportError


class SumTree:
    """Balanced binary tree over a horizon of d leaves holding the
    anonymized histogram of a report stream: each node's -1 and +1 counts.

    Level h (1 = leaves) has d / 2^(h-1) nodes; node (h, j) covers
    timesteps [(j-1) * 2^(h-1) + 1, j * 2^(h-1)], and its reports carry
    t = j * 2^(h-1). Storage is one zeros-initialized, C-ordered
    (2d - 1, 2) int64 array `counts`, level by level from offset
    `_offsets[h - 1]`; a horizon whose array cannot be allocated raises
    InvalidParameterError.
    """

    def __init__(self, d):
        self.levels = level_count(d)
        self.d = int(d)
        self._offsets = np.concatenate(([0], np.cumsum(self.d >> np.arange(self.levels - 1))))
        try:
            self.counts = np.zeros((2 * self.d - 1, 2), dtype=np.int64)
        except (ValueError, MemoryError) as exc:
            raise InvalidParameterError(f"the tree over horizon {self.d} needs "
                                        f"{16 * (2 * self.d - 1)} bytes, more than can be "
                                        "allocated") from exc

    def nodes(self):
        """(h, t) of every node in storage order, as two int64 arrays: its
        level and the timestep its reports carry."""
        h = np.repeat(np.arange(1, self.levels + 1), self.d >> np.arange(self.levels))
        return h, (np.arange(len(h)) - self._offsets[h - 1] + 1) << (h - 1)

    def cells(self, h, t, u):
        """The (node, sign) cell of each report (h, t, u), of int64 arrays
        that address nodes of this tree: 2 * (its node's storage row) +
        (u > 0), an index into `counts.ravel()`."""
        shift = h - 1
        return 2 * (self._offsets[shift] + (t >> shift) - 1) + (u > 0)

    def reports(self, cells):
        """The report (h, t, u) of each (node, sign) cell of this tree, of an
        int64 array of indices into `counts.ravel()`: the inverse of `cells`,
        with h and t those `nodes` gives the cell's row."""
        row = cells >> 1
        h = self._offsets.searchsorted(row, "right")
        shift = h - 1
        return h, (row - self._offsets[shift] + 1) << shift, 2 * (cells & 1) - 1

    def add(self, h, t, u, counts=None):
        """Count reports (h, t, u), of int64 arrays, into this tree, each
        counts[i] times (once if counts is None), and return their cells;
        one that addresses no node raises MalformedReportError naming its
        index, before any is counted, whatever its count."""
        bad = stray_report(h, t, u, self.d)
        if bad is not None:
            raise MalformedReportError(f"report {bad} (h={h[bad]}, t={t[bad]}, u={u[bad]}) "
                                       f"addresses no node of the tree over horizon {self.d}")
        # count every node's -1 and +1 reports in place, in integers, over
        # the (node, sign) cells of a flat view of the C-ordered counts
        cells = self.cells(h, t, u)
        np.add.at(self.counts.reshape(-1), cells, 1 if counts is None else counts)
        return cells


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


def accumulate_arrays(h, t, u, d, counts=None):
    """Vectorized accumulate for reports held as parallel arrays, report i
    counted counts[i] times (once each if counts is None), exactly for any
    int64 counts whose sum in each (node, sign) cell fits an int64, such as
    the histogram (counts, h, t, u) `client.read_reports` returns, whose at
    most 4d - 2 distinct rows are checked here again. A report that
    addresses no node raises MalformedReportError naming its index,
    whatever its count; counts of another length or below zero raise
    InvalidParameterError."""
    h, t, u = (np.asarray(a, dtype=np.int64) for a in (h, t, u))
    if counts is not None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != h.shape or (counts < 0).any():
            raise InvalidParameterError("counts must give each report a count of zero or more")
    tree = SumTree(d)
    tree.add(h, t, u, counts)
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


def estimate_marginals(tree, epsilon, k):
    """Debiased running-count estimates for every timestep of the tree's
    horizon d.

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
    d = tree.d
    # the prefix cover of t holds the level-h node j = t >> (h-1) exactly
    # when j is odd (see dyadic_cover). Over t in [0, 2d) viewed as rows of
    # width w = 2^(h-1), row j holds the t with t >> (h-1) = j, so level h
    # adds node j's sum to every odd row j in one broadcast add, without
    # a gather or a (levels, d) temporary
    sums = tree.counts[:, 1] - tree.counts[:, 0]
    total = np.zeros(2 * d, dtype=np.int64)
    for shift, offset in enumerate(tree._offsets.tolist()):
        odd = sums[offset:offset + (d >> shift):2]  # nodes j = 1, 3, 5, ...
        total.reshape(-1, 2, 1 << shift)[:len(odd), 1] += odd[:, None]
    total = total[1:d + 1]
    return estimate_weight(epsilon, k, d, int(np.abs(total).max())) * total
