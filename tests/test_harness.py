import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

import ldpshuffle
import ldpshuffle.harness as harness
from ldpshuffle.aggregator import SumTree, accumulate_arrays, estimate_marginals
from ldpshuffle.client import READ_LINES, json_lines, open_input, read_reports
from ldpshuffle.core import level_count, rr_probability, scale_factor
from ldpshuffle.errors import InvalidParameterError, ParseError
from ldpshuffle.harness import (SHUFFLE_MODES, SimulationConfig, generate_inputs,
                                read_change_vectors, results_to_csv, results_to_json,
                                run_trial, simulate, theorem_error_bound, trial_bytes,
                                write_results)
from ldpshuffle.kernels import emit_reports
from ldpshuffle.randomizer import RandomnessStream

from reference import harness as ref_harness
from reference.client import changes_to_states, parse_report_rows


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

    @pytest.mark.parametrize("bad", [
        [1, 1, 0, 0],     # the state would reach 2
        [-1, 0, 0, 0],    # and here -1
        [0, -1, 0, 1],
        [1, -1, -1, 0],   # its third change is past k = 2: the whole row is checked
        [1, -1, 1, 1],
    ])
    def test_file_model_refuses_a_state_that_is_not_boolean(self, tmp_path, bad):
        path = tmp_path / "inputs.jsonl"
        _write_rows(path, [[0, 1, 0, -1], bad])
        with pytest.raises(ParseError, match="alternate") as err:
            read_change_vectors(path, 2, 4, 2)
        assert err.value.line_number == 2

    @settings(deadline=None, max_examples=100)
    @given(k=st.integers(1, 4), rows=st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=4,
                                                         max_size=4), min_size=1, max_size=6))
    def test_file_model_refuses_each_non_boolean_row_at_its_line(self, tmp_path_factory,
                                                                   k, rows):
        # a row is read iff its state trajectory stays in {0, 1}; the first
        # row that leaves it is refused at its own line, whatever k clips
        path = tmp_path_factory.mktemp("rows") / "inputs.jsonl"
        _write_rows(path, rows)
        boolean = [set(changes_to_states(row).tolist()) <= {0, 1} for row in rows]
        if all(boolean):
            read_change_vectors(path, len(rows), 4, k)
            return
        with pytest.raises(ParseError) as err:
            read_change_vectors(path, len(rows), 4, k)
        assert err.value.line_number == boolean.index(False) + 1

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_inputs(5, 8, 1, "adversarial", RandomnessStream(5, 0))


# This process's peak RSS in KB: VmHWM, which starts afresh at exec;
# ru_maxrss would start at the forking process's peak.
_PEAK = """
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""

# Prints how far one run_trial call raises this process's peak RSS, in
# bytes, and trial_bytes for its config.
_RSS_RISE = _PEAK + """
import sys
from ldpshuffle.harness import SimulationConfig, run_trial, trial_bytes

n, d, k, mode, path = sys.argv[1:]
cfg = SimulationConfig(n=int(n), d=int(d), k=int(k), epsilon=1.0, shuffle_mode=mode,
                       reports_path=path or None)
before = peak()
run_trial(cfg, 0)
print((peak() - before) * 1024, trial_bytes(cfg.n, cfg.d, cfg.k, bool(path)))
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


# Prints the exit code of one `estimate` of a report file, how far it
# raises this process's peak RSS, in bytes, and _estimate_bytes for its
# horizon.
_ESTIMATE_RISE = _PEAK + """
import os, sys
from ldpshuffle import cli
from ldpshuffle.harness import _estimate_bytes

d, path = sys.argv[1:]
before = peak()
code = cli.main(["estimate", "--reports", path, "--d", d, "--k", "1", "--epsilon", "1.0",
                 "--output", os.devnull])
print(code, (peak() - before) * 1024, _estimate_bytes(int(d)))
"""


@pytest.fixture(scope="module")
def past_cap_dump(tmp_path_factory):
    """A post-shuffle dump of 400 clients over d = 2^14, about 880k reports
    in 25 MB, whose tree is past the reader's cap."""
    d = 1 << 14
    assert 4 * d - 2 > READ_LINES
    path = tmp_path_factory.mktemp("dump") / "reports.jsonl"
    run_trial(SimulationConfig(n=400, d=d, k=1, epsilon=1.0, shuffle_mode="post-shuffle",
                               reports_path=str(path)), 0)
    return d, path


@pytest.mark.parametrize("source", ["path", "pipe", "respelled", "lone-cr", "lone-cr-long"])
def test_estimate_bytes_bounds_an_estimate_past_the_cap(tmp_path, past_cap_dump, source):
    # the dump read in a fresh process by its path, through a pipe,
    # re-spelled with two blanks after each comma, with each line ended by a
    # lone \r, and so with 70,000 blanks before line 1, a line longer than
    # READ_BYTES, so that every chunk goes through the per-row parser (its
    # first 250,000 lines, to keep the parse near a second): each rise is
    # bounded by d, not by the input
    d, path = past_cap_dump
    stdin = None
    if source == "pipe":
        stdin, path = path.read_bytes(), "/dev/stdin"
    elif source != "path":
        data = b"".join(path.read_bytes().splitlines(keepends=True)[:250_000])
        path = tmp_path / f"{source}.jsonl"
        if source == "respelled":
            data = data.replace(b", ", b",  ")
        else:
            data = data.replace(b"\n", b"\r")
        if source == "lone-cr-long":
            data = b" " * 70_000 + data
        path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(ldpshuffle.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _ESTIMATE_RISE, str(d), str(path)], env=env,
                         input=stdin, capture_output=True, check=True, timeout=120)
    code, rise, bound = map(int, out.stdout.split())
    assert code == 0 and 0 < rise <= bound


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

    def test_only_a_dump_is_charged_a_line_table(self, tmp_path, monkeypatch):
        # a trial that writes no report file builds no line table, so its
        # bound is the one it had before the table; a dump adds a slot and a
        # mask byte per cell and a str per cell it can fill, at most one per
        # report
        for n, d, k in ((10 ** 6, 1 << 12, 1), (64, 1 << 16, 1), (1, 1 << 20, 2)):
            words = 4 * n * k + 12 * n + 12 * (max(harness.ROWS, 4 * d) + d) + 40 * d
            assert trial_bytes(n, d, k) == 8 * words + (4 << 20)
            table = 8 * 4 * d + 4 * d + 112 * min(4 * d, n * d)
            assert trial_bytes(n, d, k, dump=True) == 8 * words + table + (4 << 20)
        # so a host with room for the trial but not for the table refuses
        # only the config that dumps
        cfg = self._config(n=64, d=1 << 16, k=1, trials=1)
        memory = (trial_bytes(cfg.n, cfg.d, cfg.k) + trial_bytes(cfg.n, cfg.d, cfg.k, True)) // 2
        monkeypatch.setattr(harness.os, "sysconf",
                            lambda name: 1 if name == "SC_PAGE_SIZE" else memory)
        cfg.validate()
        cfg.reports_path = str(tmp_path / "reports.jsonl")
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
            counts, h, t, u = read_reports(cfg.reports_path, cfg.d)
            tree = accumulate_arrays(h, t, u, cfg.d, counts)
            assert np.array_equal(estimate_marginals(tree, cfg.epsilon, cfg.k), est)
            # the file's order, which its histogram does not keep, row by row
            with open_input(cfg.reports_path) as fh:
                streams.append(np.stack(parse_report_rows(json_lines(fh), cfg.d), axis=1))
        rows_a, rows_b = streams
        assert len(rows_a) == len(rows_b) == count_a == count_b
        # the same clients at the same levels: one (h, t) multiset, two orders
        ht_a, ht_b = rows_a[:, :2], rows_b[:, :2]
        assert not np.array_equal(ht_a, ht_b)
        assert sorted(map(tuple, ht_a)) == sorted(map(tuple, ht_b))

    def test_one_coin_per_report_and_no_permutation(self, monkeypatch, tmp_path):
        draws = []
        uniform = RandomnessStream.uniform

        def counting(stream, size=None):
            draws.append(size)
            return uniform(stream, size)

        def refuse(stream, n):
            raise AssertionError("a trial drew a permutation")

        monkeypatch.setattr(RandomnessStream, "uniform", counting)
        monkeypatch.setattr(RandomnessStream, "permutation", refuse)
        # post-shuffle draws the histogram, not one coin per report, and its
        # dump draws nothing: the stream ends where the histogram's draw does
        drawn = []
        draw_counts = harness._draw_counts

        def counts_then_state(*args):
            tree = draw_counts(*args)
            drawn.append((args[-1], repr(args[-1].generator.bit_generator.state)))
            return tree

        monkeypatch.setattr(harness, "_draw_counts", counts_then_state)
        run_trial(self._config(shuffle_mode="post-shuffle", trials=2), 0)
        shuffled = self._config(shuffle_mode="post-shuffle", trials=1,
                                reports_path=str(tmp_path / "shuffled.jsonl"))
        count = run_trial(shuffled, 0)[2]
        assert draws == []
        assert read_reports(shuffled.reports_path, shuffled.d)[0].sum() == count
        stream, state = drawn[-1]
        assert repr(stream.generator.bit_generator.state) == state
        cfg = self._config(shuffle_mode="none", trials=2)
        assert run_trial(cfg, 0)[2] == sum(draws)
        dumped = self._config(trials=1, reports_path=str(tmp_path / "reports.jsonl"))
        draws.clear()
        count = run_trial(dumped, 0)[2]
        counts, *_ = read_reports(dumped.reports_path, dumped.d)
        assert sum(draws) == counts.sum() == count

    BLOCK_ROWS = (1, 100, 1000)

    @pytest.mark.parametrize("block", BLOCK_ROWS)
    def test_results_do_not_depend_on_block_size(self, monkeypatch, tmp_path, block):
        # in either mode a trial holds max(ROWS, 4d) reports at a time: the
        # three buffer sizes differ, and each splits the trial's reports into
        # blocks (none) or writes (post-shuffle)
        for mode in SHUFFLE_MODES:
            want_path, got_path = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
            cfg = self._config(n=300, d=16, k=3, shuffle_mode=mode,
                               reports_path=str(want_path))
            sizes = {max(rows, 4 * cfg.d) for rows in self.BLOCK_ROWS}
            assert len(sizes) == len(self.BLOCK_ROWS)
            want = run_trial(cfg, 0)
            assert max(sizes) < want[2]
            cfg.reports_path = str(got_path)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "ROWS", block)
                got = run_trial(cfg, 0)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            assert got_path.read_bytes() == want_path.read_bytes()

    @pytest.mark.parametrize("mode", ["none", "post-shuffle"])
    def test_dump_replaces_an_earlier_file(self, monkeypatch, tmp_path, mode):
        # the trial empties its dump once, and every block or write of its
        # stream appends: a file that held something ends as a fresh one does
        monkeypatch.setattr(harness, "ROWS", 1)
        fresh, old = tmp_path / "fresh.jsonl", tmp_path / "old.jsonl"
        old.write_bytes(b'{"h": 1, "t": 1, "u": 1}\n' * 5000)
        for path in (fresh, old):
            cfg = self._config(n=300, d=16, k=3, shuffle_mode=mode, reports_path=str(path))
            reports = run_trial(cfg, 0)[2]
        assert reports > 4 * cfg.d  # more than one block or write
        assert old.read_bytes() == fresh.read_bytes()
        assert fresh.read_bytes().count(b"\n") == reports

    @pytest.mark.parametrize("rows", [1, harness.ROWS])
    def test_post_shuffle_dump_is_in_cell_order(self, monkeypatch, tmp_path, rows):
        # the shuffler releases a multiset, and the dump is that multiset
        # sorted by (node, sign) cell: its lines' cells never fall, and its
        # histogram is the tree the trial estimated from
        monkeypatch.setattr(harness, "ROWS", rows)
        path = tmp_path / "reports.jsonl"
        cfg = self._config(n=300, d=16, k=3, shuffle_mode="post-shuffle",
                           reports_path=str(path))
        estimates, _, count, _ = run_trial(cfg, 0)
        with open_input(path) as fh:
            h, t, u = parse_report_rows(json_lines(fh), cfg.d)
        cells = SumTree(cfg.d).cells(h, t, u)
        assert len(cells) == count > 4 * cfg.d
        assert (np.diff(cells) >= 0).all()
        counts, h, t, u = read_reports(path, cfg.d)
        tree = accumulate_arrays(h, t, u, cfg.d, counts)
        assert np.array_equal(estimate_marginals(tree, cfg.epsilon, cfg.k), estimates)

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
        counts, h, t, u = read_reports(path, cfg.d)
        tree = accumulate_arrays(h, t, u, cfg.d, counts)
        offline = estimate_marginals(tree, cfg.epsilon, cfg.k)
        assert np.array_equal(offline, estimates)
        assert results[0].max_abs_error == float(np.abs(truth - offline).max())

    def test_wall_time_never_serialized(self):
        cfg = self._config(trials=1)
        results = simulate(cfg)
        assert results[0].wall_time > 0.0
        assert "wall_time" not in results_to_json(cfg, results)
        assert "wall_time" not in results_to_csv(cfg, results)

    @pytest.mark.parametrize("mode", ["none", "post-shuffle"])
    def test_stage_seconds_split_the_trial(self, tmp_path, mode):
        # inputs, counts, estimate and dump, within the trial's wall time and
        # never written out; only trial 0 dumps
        cfg = self._config(trials=2, shuffle_mode=mode, reports_path=str(tmp_path / "r.jsonl"))
        results = simulate(cfg)
        for r in results:
            assert list(r.stage_seconds) == ["inputs", "counts", "estimate", "dump"]
            assert min(r.stage_seconds.values()) >= 0.0
            assert sum(r.stage_seconds.values()) <= r.wall_time
        assert results[0].stage_seconds["dump"] > 0.0
        assert results[1].stage_seconds["dump"] == 0.0
        bare = [dataclasses.replace(r, stage_seconds=None) for r in results]
        assert results_to_json(cfg, results) == results_to_json(cfg, bare)
        assert results_to_csv(cfg, results) == results_to_csv(cfg, bare)

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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_run_trial_refuses_a_seed_outside_64_bits(self, seed):
        # run_trial does not validate its config; the stream refuses the
        # seed rather than replay seed mod 2^64
        with pytest.raises(InvalidParameterError, match="seed"):
            run_trial(self._config(seed=seed), 0)


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


# Floats whose reprs the encoder must print as the pure-Python one does:
# zero, the smallest subnormal and normal, the largest finite scale and
# integer-valued errors, which a debiased estimate often leaves.
_SPECIAL_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.0, 7.0, 2.0 ** 53]
_ERRORS = (st.sampled_from(_SPECIAL_FLOATS) | st.integers(0, 10 ** 6).map(float)
           | st.floats(allow_nan=True, allow_infinity=True))
_MAX_ERRORS = st.sampled_from(_SPECIAL_FLOATS) | st.floats(0.0, 1e308)
# config paths that a textual splice could mistake for the document's errors
_PATHS = st.none() | st.sampled_from(['"errors": null', 'x", "errors": null, "y',
                                      "a\\b\\", "r\u00e9sum\u00e9/\u6570\u636e.json"]) | st.text()


def _result(trial, d, data):
    return harness.SimulationResult(
        trial=trial, max_abs_error=data.draw(_MAX_ERRORS), theorem_bound=data.draw(_MAX_ERRORS),
        bound_satisfied=data.draw(st.booleans()),
        errors=np.array(data.draw(st.lists(_ERRORS, min_size=d, max_size=d))),
        wall_time=1.0, clipped_clients=data.draw(st.integers(0, 10)))


class TestResultsDocument:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), trials=st.integers(1, 3), d=st.integers(1, 64))
    def test_same_text_as_the_pure_python_encoder(self, data, trials, d):
        config = SimulationConfig(n=data.draw(st.integers(1, 10 ** 4)), d=d, k=1, epsilon=1.0,
                                  trials=trials, seed=data.draw(st.integers(0, 2 ** 64 - 1)),
                                  output_path=data.draw(_PATHS),
                                  reports_path=data.draw(_PATHS), input_path=data.draw(_PATHS))
        results = [_result(trial, d, data) for trial in range(trials)]
        assert results_to_json(config, results) == ref_harness.results_to_json(config, results)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), trials=st.integers(1, 40))
    def test_summary_is_numpys(self, data, trials):
        # the median and the quantiles computed exactly as numpy does, bit
        # for bit, without numpy's masked-array module
        results = [_result(trial, 1, data) for trial in range(trials)]
        assert harness.summarize(results) == ref_harness.summarize(results)


@pytest.mark.parametrize("d,k", [pytest.param(16, k, id=f"k={k}") for k in range(1, 9)]
                         + [pytest.param(64, 64, id="k=d=64")])
def test_floyd_draws_as_the_row_layout_did(d, k):
    # the (k, n) layout reads the same k draws in the same order
    got = harness._floyd_subsets(500, d, k, RandomnessStream(8, k))
    want = ref_harness.floyd_subsets(500, d, k, RandomnessStream(8, k))
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
