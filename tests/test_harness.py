import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

import ldpshuffle
import ldpshuffle.harness as harness
from ldpshuffle.aggregator import SumTree, accumulate_arrays, estimate_marginals
from ldpshuffle.client import read_reports
from ldpshuffle.core import level_count, rr_probability, scale_factor
from ldpshuffle.errors import InvalidParameterError, ParseError
from ldpshuffle.harness import (SHUFFLE_MODES, SimulationConfig, generate_inputs,
                                read_change_vectors, results_to_csv, results_to_json,
                                run_trial, simulate, theorem_error_bound, trial_bytes,
                                write_results)
from ldpshuffle.kernels import emit_reports
from ldpshuffle.randomizer import RandomnessStream

from reference.client import changes_to_states


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({"x": row}) + "\n")


def _dense(times, values, d):
    """The (n, d) change matrix of padded change lists."""
    x = np.zeros((len(times), d + 1), dtype=np.int64)
    np.put_along_axis(x, times, values, axis=1)  # padding lands in column 0
    return x[:, 1:]


class TestGenerateInputs:
    def test_rejects_zero_budget(self):
        with pytest.raises(InvalidParameterError):
            generate_inputs(5, 8, 0, "random-changes", RandomnessStream(0, 0))

    def test_step_function_truth(self):
        times, values, clipped = generate_inputs(5, 8, 1, "step-function",
                                                 RandomnessStream(1, 0), step_time=3)
        assert clipped == 0
        truth = changes_to_states(_dense(times, values, 8).sum(axis=0))
        assert np.array_equal(truth, [0, 0, 5, 5, 5, 5, 5, 5])

    def test_worst_case_sparse_shares_change_times(self):
        times, values, _ = generate_inputs(7, 16, 4, "worst-case-sparse",
                                           RandomnessStream(2, 0))
        x = _dense(times, values, 16)
        assert np.all((x == x[0]).all(axis=1))
        assert np.count_nonzero(x[0]) == 4
        states = np.cumsum(x, axis=1)
        assert set(np.unique(states)) <= {0, 1}

    def test_random_changes_respect_budget(self):
        times, values, _ = generate_inputs(10_000, 16, 3, "random-changes",
                                           RandomnessStream(3, 0))
        assert times.shape == values.shape == (10_000, 3)
        assert np.all(np.diff(times, axis=1) > 0)  # distinct, in time order
        x = _dense(times, values, 16)
        assert np.all(np.count_nonzero(x, axis=1) <= 3)
        states = np.cumsum(x, axis=1)
        assert set(np.unique(states)) <= {0, 1}

    def test_random_changes_uniform_over_subsets(self):
        # Floyd's sampler must give each of the C(8, 3) = 56 change sets
        # the same probability
        times, _, _ = generate_inputs(56_000, 8, 3, "random-changes",
                                      RandomnessStream(6, 0))
        masks = (1 << (times - 1)).sum(axis=1)
        subsets = [sum(1 << c for c in combo) for combo in
                   itertools.combinations(range(8), 3)]
        counts = np.array([np.count_nonzero(masks == m) for m in subsets])
        assert counts.sum() == len(masks)
        assert chisquare(counts).pvalue > 0.001

    def test_file_model_round_trip(self, tmp_path):
        path = tmp_path / "inputs.jsonl"
        rows = [[0, 1, 0, -1], [1, 0, 0, 0]]
        _write_rows(path, rows)
        times, values, clipped = generate_inputs(2, 4, 2, "file", RandomnessStream(4, 0),
                                                 input_path=str(path))
        assert np.array_equal(_dense(times, values, 4), rows)
        assert clipped == 0

    def test_file_model_clips_and_counts(self, tmp_path):
        path = tmp_path / "inputs.jsonl"
        _write_rows(path, [[1, -1, 1, -1]])
        times, values, clipped = read_change_vectors(path, 1, 4, 2)
        assert clipped == 1
        assert np.array_equal(_dense(times, values, 4)[0], [1, -1, 0, 0])

    def test_file_model_parse_error_line(self, tmp_path):
        path = tmp_path / "inputs.jsonl"
        path.write_text('{"x": [0, 1, 0, 0]}\n{"x": [0, 2, 0, 0]}\n')
        with pytest.raises(ParseError) as err:
            read_change_vectors(path, 2, 4, 1)
        assert err.value.line_number == 2

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_inputs(5, 8, 1, "adversarial", RandomnessStream(5, 0))


# Prints how far one run_trial call raises this process's peak RSS, in
# bytes, and trial_bytes for its config. The peak is VmHWM, which starts
# afresh at exec; ru_maxrss would start at the forking process's peak.
_RSS_RISE = """
import sys
from ldpshuffle.harness import SimulationConfig, run_trial, trial_bytes

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

n, d, k, mode, path = sys.argv[1:]
cfg = SimulationConfig(n=int(n), d=int(d), k=int(k), epsilon=1.0, shuffle_mode=mode,
                       reports_path=path or None)
before = peak()
run_trial(cfg, 0)
print((peak() - before) * 1024, trial_bytes(cfg.n, cfg.d, cfg.k))
"""


@pytest.mark.parametrize("mode,dump", [("none", False), ("none", True),
                                       ("post-shuffle", True)])
@pytest.mark.parametrize("n,d,k", [(100_000, 8, 8), (64, 1 << 16, 1)])
def test_trial_bytes_bounds_a_trial(tmp_path, n, d, k, mode, dump):
    # many clients over a short horizon, and few over a long one, each in a
    # fresh process so that the rise is the trial's own
    env = dict(os.environ, PYTHONPATH=str(Path(ldpshuffle.__file__).parents[1]))
    path = str(tmp_path / "reports.jsonl") if dump else ""
    out = subprocess.run([sys.executable, "-c", _RSS_RISE, str(n), str(d), str(k), mode,
                          path], env=env, capture_output=True, text=True, check=True)
    rise, bound = map(int, out.stdout.split())
    assert 0 < rise <= bound


class TestSimulate:
    def _config(self, **kw):
        base = dict(n=200, d=8, k=2, epsilon=1.0, trials=3, seed=42,
                    input_model="random-changes")
        base.update(kw)
        return SimulationConfig(**base)

    def test_deterministic_output_files(self, tmp_path):
        for suffix in ("json", "csv"):
            paths = []
            for run in range(2):
                cfg = self._config(output_path=None)
                results = simulate(cfg)
                path = tmp_path / f"out_{run}.{suffix}"
                write_results(cfg, results, path)
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pure_noise_mean_is_zero(self, tmp_path):
        # one client with no changes: the estimate is rescaled cover noise
        path = tmp_path / "zero.jsonl"
        _write_rows(path, [[0] * 8])
        cfg = self._config(n=1, k=1, trials=1000, input_model="file",
                           input_path=str(path))
        ests = np.array([run_trial(cfg, t)[0] for t in range(cfg.trials)])
        truth = run_trial(cfg, 0)[1]
        assert np.all(truth == 0)
        se = ests.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
        assert np.all(np.abs(ests.mean(axis=0)) <= 3.0 * se)

    def test_bound_recorded_per_trial(self):
        cfg = self._config()
        results = simulate(cfg)
        bound = theorem_error_bound(cfg.n, cfg.d, cfg.k, cfg.epsilon, cfg.beta)
        for r in results:
            assert r.theorem_bound == bound
            assert r.bound_satisfied == (r.max_abs_error <= bound)
            assert r.errors.shape == (cfg.d,)

    def test_bound_at_a_tiny_beta_is_finite(self):
        # 2d / beta passes the float range below beta ~1e-307; the log is
        # then taken as log(2d) - log(beta), about 716.6 at d = 8
        tiny = theorem_error_bound(10, 8, 1, 1.0, 1e-310)
        assert math.isfinite(tiny)
        assert tiny >= theorem_error_bound(10, 8, 1, 1.0, 1e-300)
        assert theorem_error_bound(10, 8, 1, 1.0, 5e-324) >= tiny
        # where 2d / beta is finite the bound keeps its exact formula
        for d, beta in [(1, 1.0 / 3.0), (8, 1e-300), (1024, 0.05), (2 ** 20, 1e-9)]:
            want = scale_factor(1.0) * max(math.log2(d), 1) ** 1.5 \
                * math.sqrt(10 * math.log(2.0 * d / beta))
            assert theorem_error_bound(10, d, 1, 1.0, beta) == want

    def test_resource_guard(self, monkeypatch):
        # the bound is worked out from (n, d, k): a million clients at
        # d = 4096 fit in well under a gigabyte, and no option overrides it
        cfg = self._config(n=10 ** 6, d=1 << 12, k=1, trials=1)
        assert trial_bytes(cfg.n, cfg.d, cfg.k) < 1 << 30
        cfg.validate()
        for n, d in ((10 ** 12, 2), (2, 1 << 62)):
            with pytest.raises(InvalidParameterError, match="bytes"):
                simulate(self._config(n=n, d=d, k=1, trials=1))
        # the same config is refused on a host with less memory than the bound
        monkeypatch.setattr(harness.os, "sysconf",
                            lambda name: 1 if name == "SC_PAGE_SIZE" else 1 << 20)
        with pytest.raises(InvalidParameterError, match="bytes"):
            cfg.validate()

    def test_post_shuffle_preserves_estimates(self, tmp_path):
        # the stream is written out only when asked for, so ask for it; the
        # modes draw their trees differently (see TestHistogramDraw), but
        # each mode's dump holds exactly the reports its estimates sum
        plain = self._config(shuffle_mode="none", reports_path=str(tmp_path / "a.jsonl"))
        mixed = self._config(shuffle_mode="post-shuffle",
                             reports_path=str(tmp_path / "b.jsonl"))
        est_a, _, count_a, _ = run_trial(plain, 0)
        est_b, _, count_b, _ = run_trial(mixed, 0)
        streams = []
        for cfg, est in ((plain, est_a), (mixed, est_b)):
            h, t, u = read_reports(cfg.reports_path)
            tree = accumulate_arrays(h, t, u, cfg.d)
            assert np.array_equal(estimate_marginals(tree, cfg.epsilon, cfg.k, cfg.d), est)
            streams.append(np.stack((h, t, u), axis=1))
        rows_a, rows_b = streams
        assert len(rows_a) == len(rows_b) == count_a == count_b
        # the same clients at the same levels: one (h, t) multiset, two orders
        ht_a, ht_b = rows_a[:, :2], rows_b[:, :2]
        assert not np.array_equal(ht_a, ht_b)
        assert sorted(map(tuple, ht_a)) == sorted(map(tuple, ht_b))

    def test_one_coin_per_report_and_no_permutation_unless_dumped(self, monkeypatch,
                                                                  tmp_path):
        draws = []
        uniform = RandomnessStream.uniform

        def counting(stream, size=None):
            draws.append(size)
            return uniform(stream, size)

        def refuse(stream, n):
            raise AssertionError("permutation drawn for a stream nobody writes")

        monkeypatch.setattr(RandomnessStream, "uniform", counting)
        monkeypatch.setattr(RandomnessStream, "permutation", refuse)
        # post-shuffle draws the histogram, not one coin per report
        run_trial(self._config(shuffle_mode="post-shuffle", trials=2), 0)
        assert draws == []
        cfg = self._config(shuffle_mode="none", trials=2)
        assert run_trial(cfg, 0)[2] == sum(draws)
        dumped = self._config(trials=1, reports_path=str(tmp_path / "reports.jsonl"))
        draws.clear()
        count = run_trial(dumped, 0)[2]
        h, _, _ = read_reports(dumped.reports_path)
        assert sum(draws) == len(h) == count

    @pytest.mark.parametrize("block", [1, 7, 10 ** 9])
    def test_results_do_not_depend_on_block_size(self, monkeypatch, tmp_path, block):
        for mode in SHUFFLE_MODES:
            want_path, got_path = tmp_path / f"{mode}.want", tmp_path / f"{mode}.got"
            cfg = self._config(n=300, d=16, k=3, shuffle_mode=mode,
                               reports_path=str(want_path))
            want = run_trial(cfg, 0)
            cfg.reports_path = str(got_path)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "BLOCK", block)
                got = run_trial(cfg, 0)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            assert got_path.read_bytes() == want_path.read_bytes()

    @pytest.mark.parametrize("chunks", [1, 2, 3, 7])
    def test_chunked_shuffle_is_a_uniform_arrangement(self, monkeypatch, chunks):
        # a tree over d = 2 holding 7 reports: two level-1 clients put
        # +1, +1 on leaf 1 and +1, -1 on leaf 2, three level-2 clients put
        # +1 on the root; that multiset has 7! / (3! 2!) = 420 arrangements
        tree = SumTree(2)
        tree.counts[:] = [[0, 2], [1, 1], [0, 3]]
        drawn = []
        monkeypatch.setattr(harness, "write_report_arrays",
                            lambda path, h, t, u, mode="w": drawn.extend(zip(h, t, u)))
        rows = [(1, 1, 1), (1, 1, 1), (1, 2, 1), (1, 2, -1), (2, 2, 1), (2, 2, 1),
                (2, 2, 1)]
        index = {order: i for i, order in enumerate(set(itertools.permutations(rows)))}
        assert len(index) == 420
        stream = RandomnessStream(23, chunks)
        counts = np.zeros(len(index), dtype=np.int64)
        for _ in range(15 * len(index)):
            drawn.clear()
            harness._write_shuffled("unused", tree, stream, -(-7 // chunks))
            counts[index[tuple(tuple(int(v) for v in row) for row in drawn)]] += 1
        assert chisquare(counts).pvalue > 0.001

    def test_anonymized_stream_has_no_client_field(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        cfg = self._config(shuffle_mode="post-shuffle", reports_path=str(path),
                           trials=1)
        simulate(cfg)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) > 0
        assert all(set(row) == {"h", "t", "u"} for row in rows)

    def test_aggregation_path_needs_only_reports(self, tmp_path):
        # rebuild the estimates offline from the serialized stream alone
        from ldpshuffle.aggregator import accumulate_arrays, estimate_marginals
        from ldpshuffle.client import read_reports

        path = tmp_path / "reports.jsonl"
        cfg = self._config(trials=1, reports_path=str(path))
        results = simulate(cfg)
        estimates, truth, _, _ = run_trial(cfg, 0)
        h, t, u = read_reports(path)
        tree = accumulate_arrays(h, t, u, cfg.d)
        offline = estimate_marginals(tree, cfg.epsilon, cfg.k, cfg.d)
        assert np.array_equal(offline, estimates)
        assert results[0].max_abs_error == float(np.abs(truth - offline).max())

    def test_wall_time_never_serialized(self):
        cfg = self._config(trials=1)
        results = simulate(cfg)
        assert results[0].wall_time > 0.0
        assert "wall_time" not in results_to_json(cfg, results)
        assert "wall_time" not in results_to_csv(cfg, results)

    def test_csv_floats_have_17_significant_digits(self):
        cfg = self._config(trials=1)
        results = simulate(cfg)
        row = results_to_csv(cfg, results).splitlines()[1]
        err_field = row.split(",")[9]
        assert float(err_field) == results[0].max_abs_error

    def test_numpy_integer_counts_accepted(self):
        plain = self._config(trials=1)
        wide = self._config(n=np.int64(plain.n), k=np.int64(plain.k),
                            trials=np.int64(1))
        assert results_to_json(wide, simulate(wide)) == \
            results_to_json(plain, simulate(plain))

    @pytest.mark.parametrize("field", ["n", "k", "trials"])
    def test_bool_counts_rejected(self, field):
        with pytest.raises(InvalidParameterError):
            simulate(self._config(**{field: True}))

    def test_validation_errors(self):
        with pytest.raises(InvalidParameterError):
            simulate(self._config(d=6))
        with pytest.raises(InvalidParameterError):
            simulate(self._config(epsilon=0.0))
        with pytest.raises(InvalidParameterError):
            simulate(self._config(input_model="file"))  # no path

    def test_unknown_shuffle_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown shuffle mode 'x'"):
            self._config(shuffle_mode="x").validate()


def _signals(n, d, k, input_model, seed, **kw):
    """(signal_t, signal_v, levels) of a population, drawn as run_trial does."""
    stream = RandomnessStream(seed, 0)
    times, values, _ = generate_inputs(n, d, k, input_model, stream, **kw)
    target = stream.integers(1, k + 1, size=n)
    levels = stream.integers(1, level_count(d) + 1, size=n)
    rows = np.arange(n)
    return times[rows, target - 1], values[rows, target - 1], levels


def _homogeneity_pvalue(x, y):
    """Chi-squared test that two integer samples share one distribution,
    with adjacent values pooled until every column holds at least 10."""
    values = np.union1d(x, y)
    table = np.array([[np.count_nonzero(s == v) for v in values] for s in (x, y)])
    cols, run = [], np.zeros(2, dtype=np.int64)
    for col in table.T:
        run = run + col
        if run.sum() >= 10:
            cols.append(run)
            run = np.zeros(2, dtype=np.int64)
    if cols:
        cols[-1] = cols[-1] + run
    if len(cols) < 2:
        return 1.0
    return chi2_contingency(np.array(cols).T, correction=False).pvalue


class TestHistogramDraw:
    """The post-shuffle tree is drawn from three binomial vectors; it must
    match, in distribution, the tree of the per-report path (one coin per
    report, `emit_reports` then `accumulate_arrays`) on the same inputs."""

    TRIALS = 600

    @pytest.mark.parametrize("n,d,k,eps,model", [
        (2000, 16, 2, 1.0, "random-changes"),
        (400, 1, 1, 0.0, "random-changes"),       # p = 1/2, one node
        (300, 8, 3, 40.0, "worst-case-sparse"),   # p = 1 in floating point
        (500, 4, 2, 2.0, "file"),                 # every third client unchanged
    ])
    def test_drawn_tree_matches_emitted_tree(self, tmp_path, n, d, k, eps, model):
        kw = {}
        if model == "file":
            path = tmp_path / "inputs.jsonl"
            patterns = ([0] * d, [1] + [0] * (d - 1), [1, -1] + [0] * (d - 2))
            _write_rows(path, [patterns[i % 3] for i in range(n)])
            kw["input_path"] = str(path)
        signal_t, signal_v, levels = _signals(n, d, k, model, 31, **kw)
        p = rr_probability(eps)
        drawn, emitted = [], []
        for trial in range(self.TRIALS):
            tree = harness._draw_counts(signal_t, signal_v, levels, p, d,
                                        RandomnessStream(32, trial))
            drawn.append(tree.counts)
            stream = RandomnessStream(33, trial)
            coins = stream.uniform(size=int((d >> (levels - 1)).sum()))
            emitted.append(accumulate_arrays(*emit_reports(signal_t, signal_v, levels,
                                                           coins, p, d), d).counts)
        drawn, emitted = np.array(drawn), np.array(emitted)
        # a valid histogram: per node, the -1 and +1 counts are nonnegative
        # and sum to the node's fixed report count
        assert drawn.min() >= 0
        assert np.array_equal(drawn.sum(axis=2), emitted.sum(axis=2))
        nodes = drawn.shape[1]
        pvalues = [_homogeneity_pvalue(drawn[:, j, 1], emitted[:, j, 1])
                   for j in range(nodes)]
        assert min(pvalues) > 0.001 / nodes

    def test_post_shuffle_estimator_is_unbiased(self):
        # acceptance criterion 2's config and band, under post-shuffle
        cfg = SimulationConfig(n=100_000, d=8, k=1, epsilon=1.0, trials=50, seed=20,
                               input_model="step-function", step_time=2,
                               shuffle_mode="post-shuffle")
        cfg.validate()
        estimates = np.array([run_trial(cfg, t)[0] for t in range(cfg.trials)])
        truth = run_trial(cfg, 0)[1]
        assert np.array_equal(truth, np.r_[0, np.full(7, cfg.n)])
        stderr = estimates.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
        assert np.all(np.abs(estimates.mean(axis=0) - truth) <= 3.0 * stderr)
