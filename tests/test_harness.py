import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare

import ldpshuffle.harness as harness
from ldpshuffle.errors import InvalidParameterError, ParseError
from ldpshuffle.harness import (SimulationConfig, generate_inputs, read_change_vectors,
                                results_to_csv, results_to_json, run_trial, simulate,
                                theorem_error_bound, write_results)
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

    def test_resource_guard(self):
        cfg = self._config(n=10 ** 6, d=1 << 12, trials=1)
        with pytest.raises(InvalidParameterError):
            simulate(cfg)
        cfg.allow_large = True
        cfg.validate()  # no raise once overridden

    def test_post_shuffle_preserves_estimates(self, tmp_path):
        # the stream is permuted only when it is written out, so ask for it
        dump = str(tmp_path / "reports.jsonl")
        plain = self._config(shuffle_mode="none", reports_path=dump)
        mixed = self._config(shuffle_mode="post-shuffle", reports_path=dump)
        est_a, _, reports_a, _ = run_trial(plain, 0)
        est_b, _, reports_b, _ = run_trial(mixed, 0)
        # same trial stream: the permutation consumes extra draws after the
        # coins, so the report multiset and hence the tree are identical
        assert np.array_equal(est_a, est_b)
        rows_a, rows_b = np.stack(reports_a, axis=1), np.stack(reports_b, axis=1)
        assert not np.array_equal(rows_a, rows_b)
        for a, b in zip(np.unique(rows_a, axis=0, return_counts=True),
                        np.unique(rows_b, axis=0, return_counts=True)):
            assert np.array_equal(a, b)

    def test_one_coin_per_report_and_no_permutation_unless_dumped(self, monkeypatch):
        draws = []
        uniform = RandomnessStream.uniform

        def counting(stream, size=None):
            draws.append(size)
            return uniform(stream, size)

        def refuse(stream, n):
            raise AssertionError("permutation drawn for a stream nobody writes")

        monkeypatch.setattr(RandomnessStream, "uniform", counting)
        monkeypatch.setattr(RandomnessStream, "permutation", refuse)
        cfg = self._config(shuffle_mode="post-shuffle", trials=2)
        assert run_trial(cfg, 0)[2] is None
        dumped = self._config(trials=1, reports_path="unused.jsonl")
        draws.clear()
        h, _, _ = run_trial(dumped, 0)[2]
        assert sum(draws) == len(h)

    @pytest.mark.parametrize("block", [1, 7, 10 ** 9])
    def test_results_do_not_depend_on_block_size(self, monkeypatch, tmp_path, block):
        cfg = self._config(n=300, d=16, k=3, shuffle_mode="post-shuffle",
                           reports_path=str(tmp_path / "reports.jsonl"))
        want = run_trial(cfg, 0)
        monkeypatch.setattr(harness, "BLOCK", block)
        got = run_trial(cfg, 0)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        for a, b in zip(got[2], want[2]):
            assert np.array_equal(a, b)

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
