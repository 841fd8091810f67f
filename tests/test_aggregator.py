import math

import numpy as np
import pytest

from ldpshuffle.aggregator import (SumTree, accumulate_arrays, dyadic_cover, estimate_marginals,
                                   estimate_weight, stray_report)
from ldpshuffle.core import level_count, scale_factor
from ldpshuffle.errors import InvalidParameterError, MalformedReportError
from ldpshuffle.randomizer import RandomnessStream

from reference.aggregator import (accumulate, add_report, cover_leaf_range,
                                  dyadic_cover_merge, index, node)
from reference.client import Report


def _random_reports(rng, d, count):
    levels = rng.integers(1, level_count(d) + 1, size=count)
    slots = np.array([int(rng.integers(1, (d >> (h - 1)) + 1)) for h in levels])
    times = slots * (1 << (levels - 1))
    values = np.where(rng.uniform(size=count) < 0.5, 1, -1)
    return levels.astype(np.int64), times.astype(np.int64), values.astype(np.int64)


class TestSumTree:
    def test_rejects_bad_horizon(self):
        with pytest.raises(InvalidParameterError):
            SumTree(6)

    def test_empty_stream_gives_zero_tree(self):
        tree = accumulate([], 4)
        assert np.all(tree.counts == 0)
        assert tree.counts.shape == (2 * 4 - 1, 2)

    def test_single_report(self):
        tree = accumulate([Report(1, 3, -1)], 4)
        assert node(tree, 1, 3) == -1
        assert tree.counts[index(tree, 1, 3)].tolist() == [1, 0]
        assert int(tree.counts.sum()) == 1

    def test_nodes_give_the_coordinates_of_each_row(self):
        for d in (1, 2, 8, 64):
            tree = SumTree(d)
            h, t = tree.nodes()
            assert len(h) == len(t) == len(tree.counts)
            assert [index(tree, a, b >> (a - 1)) for a, b in zip(h.tolist(), t.tolist())] \
                == list(range(len(h)))
            # one +1 report at every node's coordinates lands in that node's row
            got = accumulate_arrays(h, t, np.ones(len(h), dtype=np.int64), d)
            assert np.array_equal(got.counts, [[0, 1]] * len(h))

    def test_two_reports_same_node(self):
        tree = accumulate([Report(2, 2, 1), Report(2, 2, 1)], 4)
        assert node(tree, 2, 1) == 2
        assert tree.counts[index(tree, 2, 1)].tolist() == [0, 2]

    def test_malformed_report_rejected(self):
        tree = SumTree(4)
        with pytest.raises(MalformedReportError):
            add_report(tree, 2, 3, 1)  # period 2 does not divide 3
        with pytest.raises(MalformedReportError):
            add_report(tree, 4, 4, 1)  # level beyond the tree
        with pytest.raises(MalformedReportError):
            add_report(tree, 1, 5, 1)  # beyond horizon

    def test_level_zero_rejected_before_shift(self):
        with pytest.raises(MalformedReportError, match="level 0"):
            add_report(SumTree(4), 0, 1, 1)

    def test_array_accumulate_matches_object_path(self):
        rng = RandomnessStream(21, 0)
        h, t, u = _random_reports(rng, 16, 500)
        by_objects = accumulate((Report(int(a), int(b), int(c))
                                 for a, b, c in zip(h, t, u)), 16)
        by_arrays = accumulate_arrays(h, t, u, 16)
        assert np.array_equal(by_objects.counts, by_arrays.counts)

    def test_array_accumulate_matches_add_at(self):
        rng = RandomnessStream(26, 0)
        for d, count in [(1, 0), (1, 50), (8, 0), (8, 300), (64, 5000), (1024, 20000)]:
            h, t, u = _random_reports(rng, d, count)
            want = SumTree(d)
            np.add.at(want.counts, (want._offsets[h - 1] + (t >> (h - 1)) - 1,
                                    (u > 0).astype(np.int64)), 1)
            got = accumulate_arrays(h, t, u, d)
            assert got.counts.dtype == np.int64
            assert np.array_equal(got.counts, want.counts)

    def test_array_accumulate_validates(self):
        with pytest.raises(MalformedReportError):
            accumulate_arrays([2], [3], [1], 4)
        with pytest.raises(MalformedReportError):
            accumulate_arrays([1], [1], [2], 4)

    # at d = 4: three levels, level periods 1, 2 and 4
    @pytest.mark.parametrize("report", [(0, 1, 1), (4, 4, 1), (-1, 1, 1), (2 ** 62, 4, 1),
                                        (1, 0, 1), (1, 5, 1), (1, -4, 1), (2, 3, 1),
                                        (3, 2, -1), (1, 1, 0), (1, 1, 2), (1, 1, -2)])
    def test_every_fault_names_its_index(self, report):
        # three good reports, the bad one, then another bad one
        h, t, u = [1, 2, 3, report[0], 1], [1, 2, 4, report[1], 5], [1, -1, 1, report[2], -1]
        assert stray_report(*(np.array(c) for c in (h, t, u)), 4) == 3
        with pytest.raises(MalformedReportError, match=r"report 3 \(h=%d, t=%d, u=%d\)"
                           % report):
            accumulate_arrays(h, t, u, 4)

    def test_accumulation_linearity(self):
        rng = RandomnessStream(22, 0)
        h, t, u = _random_reports(rng, 32, 800)
        whole = accumulate_arrays(h, t, u, 32)
        left = accumulate_arrays(h[:300], t[:300], u[:300], 32)
        right = accumulate_arrays(h[300:], t[300:], u[300:], 32)
        assert np.array_equal(whole.counts, left.counts + right.counts)

    def test_order_independence(self):
        rng = RandomnessStream(23, 0)
        h, t, u = _random_reports(rng, 8, 200)
        perm = rng.permutation(200)
        a = accumulate_arrays(h, t, u, 8)
        b = accumulate_arrays(h[perm], t[perm], u[perm], 8)
        assert np.array_equal(a.counts, b.counts)


class TestDyadicCover:
    def test_single_leaf(self):
        assert dyadic_cover(1, 8) == ((1, 1),)

    def test_full_prefix_is_root(self):
        assert dyadic_cover(8, 8) == ((4, 1),)

    def test_hand_merged_example(self):
        assert set(dyadic_cover(6, 8)) == {(3, 1), (2, 3)}

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            dyadic_cover(0, 8)
        with pytest.raises(InvalidParameterError):
            dyadic_cover(9, 8)

    def test_matches_merge_loop_and_partitions(self):
        d = 256
        for t in range(1, d + 1):
            closed = set(dyadic_cover(t, d))
            assert closed == dyadic_cover_merge(t, d)
            assert len(closed) == bin(t).count("1") <= int(math.log2(d))
            leaves = []
            for h, j in closed:
                lo, hi = cover_leaf_range(h, j)
                leaves.extend(range(lo, hi + 1))
            assert sorted(leaves) == list(range(1, t + 1))

    def test_merge_order_does_not_matter(self):
        rng = RandomnessStream(24, 0)
        for d in (16, 64):
            for _ in range(40):
                t = int(rng.integers(1, d + 1))
                assert dyadic_cover_merge(t, d, rng=rng) == set(dyadic_cover(t, d))


def _cover_loop_estimates(tree, epsilon, k, d):
    """Per-t reference: sum the nodes of dyadic_cover(t, d), then rescale."""
    weight = scale_factor(epsilon) * k * level_count(d)
    estimates = np.empty(d, dtype=np.float64)
    for t in range(1, d + 1):
        total = 0
        for h, j in dyadic_cover(t, d):
            total += node(tree, h, j)
        estimates[t - 1] = weight * total
    return estimates


class TestEstimateMarginals:
    def test_bit_identical_to_cover_loop(self):
        rng = RandomnessStream(27, 0)
        for exp in range(13):
            d = 1 << exp
            tree = SumTree(d)
            tree.counts[:] = rng.integers(0, 10 ** 9, size=tree.counts.shape)
            got = estimate_marginals(tree, 0.7, 3, d)
            assert np.array_equal(got, _cover_loop_estimates(tree, 0.7, 3, d))

    def test_zero_tree_estimates_zero(self):
        est = estimate_marginals(SumTree(8), 1.0, 2, 8)
        assert np.all(est == 0.0)

    def test_single_node_scaling(self):
        # d=2 has two levels, so the inverse level-sampling weight is 2
        tree = SumTree(2)
        for _ in range(5):
            add_report(tree, 2, 2, 1)
        est = estimate_marginals(tree, 2.0, 1, 2)
        assert est[1] == pytest.approx(scale_factor(2.0) * 1 * 2 * 5, rel=1e-12)
        assert est[0] == 0.0

    def test_degenerate_horizon_weight_is_one(self):
        tree = SumTree(1)
        add_report(tree, 1, 1, 1)
        est = estimate_marginals(tree, 2.0, 1, 1)
        assert est[0] == pytest.approx(scale_factor(2.0), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            estimate_marginals(SumTree(4), 1.0, 1, 8)

    @pytest.mark.parametrize("sign", [0, 1])
    def test_refused_exactly_when_an_estimate_overflows(self, sign):
        # at eps = 1e-307 the weight is 4e307: a cover sum of 4 reports stays
        # finite, one of 5 does not
        tree = SumTree(1)
        tree.counts[0, sign] = 4
        assert np.all(np.isfinite(estimate_marginals(tree, 1e-307, 1, 1)))
        assert estimate_weight(1e-307, 1, 1, 4) == scale_factor(1e-307)
        tree.counts[0, sign] = 5
        with pytest.raises(InvalidParameterError, match="overflows"):
            estimate_marginals(tree, 1e-307, 1, 1)
        with pytest.raises(InvalidParameterError, match="overflows"):
            estimate_weight(1e-307, 1, 1, 5)

    def test_estimates_sum_covers(self):
        rng = RandomnessStream(25, 0)
        d = 16
        h, t, u = _random_reports(rng, d, 400)
        tree = accumulate_arrays(h, t, u, d)
        est = estimate_marginals(tree, 1.0, 3, d)
        weight = scale_factor(1.0) * 3 * level_count(d)
        for t_query in (1, 5, 11, 16):
            total = sum(node(tree, hh, jj) for hh, jj in dyadic_cover(t_query, d))
            assert est[t_query - 1] == pytest.approx(weight * total, rel=1e-12)
