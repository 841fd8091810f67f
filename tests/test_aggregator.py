import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpshuffle.aggregator import (SumTree, accumulate_arrays, dyadic_cover, estimate_marginals,
                                   estimate_weight, stray_report)
from ldpshuffle.client import read_reports
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

    @pytest.mark.parametrize("e", [50, 62])
    def test_refuses_a_horizon_it_cannot_allocate(self, tmp_path, e):
        # the 2(2d - 1) int64 counts at d = 2^50 (32 PiB) and 2^62 are past
        # any address space (numpy raises MemoryError and ValueError); the
        # tree, the accumulator and the reader refuse them alike
        d = 1 << e
        match = f"the tree over horizon {d} needs {16 * (2 * d - 1)} bytes"
        with pytest.raises(InvalidParameterError, match=match):
            SumTree(d)
        with pytest.raises(InvalidParameterError, match=match):
            accumulate_arrays([1], [1], [1], d)
        path = tmp_path / "reports.jsonl"
        path.write_text('{"h": 1, "t": 1, "u": 1}\n')
        with pytest.raises(InvalidParameterError, match=match):
            read_reports(path, d)

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

    @pytest.mark.parametrize("exponent", range(13))
    def test_reports_invert_cells(self, exponent):
        # each cell's report is (h, t) of its row by `nodes`, with u from its
        # sign bit, on random subsets of the cells, repeats and order kept
        d = 1 << exponent
        tree = SumTree(d)
        h, t = tree.nodes()
        rng = np.random.default_rng(exponent)
        for size in (0, 1, 7, tree.counts.size, 3 * tree.counts.size):
            cells = rng.integers(0, tree.counts.size, size=size)
            got = tree.reports(cells)
            want = (h[cells >> 1], t[cells >> 1], 2 * (cells & 1) - 1)
            assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(got, want))
            assert np.array_equal(tree.cells(*got), cells)

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

    @staticmethod
    def _rows(d, cells):
        """(h, t, u) of the given (node, sign) cells of the tree over d."""
        cells = np.asarray(cells, dtype=np.int64)
        h, t = (a[cells >> 1] for a in SumTree(d).nodes())
        return h, t, 2 * (cells & 1) - 1

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 6).flatmap(lambda e: st.tuples(
        st.just(1 << e), st.lists(st.tuples(st.integers(0, 4 * (1 << e) - 3),
                                            st.integers(0, 4)), max_size=30))))
    def test_counts_equal_repeated_rows(self, tree_rows):
        # rows may share a cell, and a count may be zero
        d, rows = tree_rows
        h, t, u = self._rows(d, [cell for cell, _ in rows])
        counts = np.array([count for _, count in rows], dtype=np.int64)
        got = accumulate_arrays(h, t, u, d, counts)
        want = accumulate_arrays(*(np.repeat(c, counts) for c in (h, t, u)), d)
        assert np.array_equal(got.counts, want.counts)

    def test_counts_are_exact_past_float_precision(self):
        # counts near 2^57 over 40 rows, past float64's 53-bit mantissa
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 14, 40)
        counts = rng.integers(0, 1 << 57, 40)
        # and rows whose counts sum to exactly 2^63 - 1 in cell 5
        at_max = np.array([5, 5, 5, 2]), np.array([1 << 62, (1 << 62) - 2, 1, 7])
        for cells, counts in [(cells, counts), at_max]:
            got = accumulate_arrays(*self._rows(4, cells), 4, counts)
            want = [0] * 14
            for cell, count in zip(cells.tolist(), counts.tolist()):
                want[cell] += count
            assert got.counts.ravel().tolist() == want

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_stray_row_refused_whatever_its_count(self, count):
        with pytest.raises(MalformedReportError, match=r"report 2 \(h=2, t=3, u=1\)"):
            accumulate_arrays([1, 2, 2], [1, 2, 3], [1, -1, 1], 4, [3, 1, count])

    @pytest.mark.parametrize("counts", [[-1, 1], [1], [1, 1, 1]])
    def test_counts_need_one_non_negative_count_per_report(self, counts):
        with pytest.raises(InvalidParameterError, match="counts"):
            accumulate_arrays([1, 1], [1, 2], [1, 1], 4, counts)


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
            got = estimate_marginals(tree, 0.7, 3)
            assert np.array_equal(got, _cover_loop_estimates(tree, 0.7, 3, d))

    @pytest.mark.parametrize("tree", [None, np.zeros((7, 2), dtype=np.int64)])
    def test_refuses_anything_but_a_tree(self, tree):
        with pytest.raises(InvalidParameterError, match="expected a SumTree"):
            estimate_marginals(tree, 1.0, 1)

    def test_zero_tree_estimates_zero(self):
        est = estimate_marginals(SumTree(8), 1.0, 2)
        assert np.all(est == 0.0)

    def test_single_node_scaling(self):
        # d=2 has two levels, so the inverse level-sampling weight is 2
        tree = SumTree(2)
        for _ in range(5):
            add_report(tree, 2, 2, 1)
        est = estimate_marginals(tree, 2.0, 1)
        assert est[1] == pytest.approx(scale_factor(2.0) * 1 * 2 * 5, rel=1e-12)
        assert est[0] == 0.0

    def test_degenerate_horizon_weight_is_one(self):
        tree = SumTree(1)
        add_report(tree, 1, 1, 1)
        est = estimate_marginals(tree, 2.0, 1)
        assert est[0] == pytest.approx(scale_factor(2.0), rel=1e-12)

    @pytest.mark.parametrize("sign", [0, 1])
    def test_refused_exactly_when_an_estimate_overflows(self, sign):
        # at eps = 1e-307 the weight is 4e307: a cover sum of 4 reports stays
        # finite, one of 5 does not
        tree = SumTree(1)
        tree.counts[0, sign] = 4
        assert np.all(np.isfinite(estimate_marginals(tree, 1e-307, 1)))
        assert estimate_weight(1e-307, 1, 1, 4) == scale_factor(1e-307)
        tree.counts[0, sign] = 5
        with pytest.raises(InvalidParameterError, match="overflows"):
            estimate_marginals(tree, 1e-307, 1)
        with pytest.raises(InvalidParameterError, match="overflows"):
            estimate_weight(1e-307, 1, 1, 5)

    def test_estimates_sum_covers(self):
        rng = RandomnessStream(25, 0)
        d = 16
        h, t, u = _random_reports(rng, d, 400)
        tree = accumulate_arrays(h, t, u, d)
        est = estimate_marginals(tree, 1.0, 3)
        weight = scale_factor(1.0) * 3 * level_count(d)
        for t_query in (1, 5, 11, 16):
            total = sum(node(tree, hh, jj) for hh, jj in dyadic_cover(t_query, d))
            assert est[t_query - 1] == pytest.approx(weight * total, rel=1e-12)
