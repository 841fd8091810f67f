"""Per-report tree updates and the literal pairwise-merge prefix cover:
the references for `accumulate_arrays` and `dyadic_cover`."""

from ldpshuffle.aggregator import SumTree
from ldpshuffle.core import check_count, level_count
from ldpshuffle.errors import MalformedReportError


def node(tree, h, j):
    return int(tree.values[tree._index(h, j)])


def add_report(tree, h, t, u):
    if not 1 <= h <= tree.levels:  # before h sizes a shift below
        raise MalformedReportError(f"level {h} outside [1, {tree.levels}]")
    if not (1 <= t <= tree.d):
        raise MalformedReportError(f"timestep {t} outside [1, {tree.d}]")
    if t % (1 << (h - 1)) != 0:
        raise MalformedReportError(
            f"timestep {t} not divisible by the level-{h} period"
        )
    if u not in (-1, 1):
        raise MalformedReportError(f"report value must be -1 or +1, got {u}")
    tree.values[tree._index(h, int(t) >> (int(h) - 1))] += int(u)


def accumulate(reports, d):
    """Fold an iterable of Report objects into a SumTree; order-independent."""
    tree = SumTree(d)
    for r in reports:
        add_report(tree, int(r.level), int(r.t), int(r.u))
    return tree


def dyadic_cover_merge(t, d, rng=None):
    """Literal pairwise-merge construction of the prefix cover.

    Starts from the first t leaves and repeatedly replaces a sibling pair by
    its parent until no pair remains. Kept as an independent oracle for the
    closed-form `dyadic_cover`; pass an rng to randomize which mergeable
    pair is picked at each step and check order-independence. Each node
    merges at most once, so the worklist makes a run O(t).
    """
    level_count(d)
    t = check_count(t, "timestep", high=d)
    cover = {(1, j) for j in range(1, t + 1)}
    worklist = list(cover)
    while worklist:
        pick = len(worklist) - 1 if rng is None else int(rng.integers(0, len(worklist)))
        h, j = worklist.pop(pick)
        if (h, j) not in cover:
            continue
        sibling = j - 1 if j % 2 == 0 else j + 1
        if (h, sibling) not in cover:
            continue
        cover.remove((h, j))
        cover.remove((h, sibling))
        parent = (h + 1, max(j, sibling) // 2)
        cover.add(parent)
        worklist.append(parent)
    return cover


def cover_leaf_range(h, j):
    """Inclusive timestep interval [lo, hi] covered by node (h, j)."""
    width = 1 << (int(h) - 1)
    return ((int(j) - 1) * width + 1, int(j) * width)
