import io
import json
import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ldpshuffle.client as client_mod
import ldpshuffle.core as core
import ldpshuffle.harness as harness
from ldpshuffle.aggregator import SumTree
from ldpshuffle.client import (LineTable, json_lines, open_input, read_reports,
                               write_report_arrays)
from ldpshuffle.core import rr_probability
from ldpshuffle.errors import InvalidParameterError, ParseError
from ldpshuffle.harness import SimulationConfig, read_change_vectors, run_trial
from ldpshuffle.randomizer import RandomnessStream

import reference.client as reference_client
from conftest import ScriptedStream
from reference.client import (ClientState, ProtocolError, Report, changes_to_states,
                              client_setup, client_update, enumerate_change_sequences,
                              exact_transcript_distribution, max_transcript_ratio,
                              parse_report_rows, run_client)


class TestReport:
    def test_node_addressing(self):
        assert Report(3, 8, 1).node == (3, 2)
        assert Report(1, 5, -1).node == (1, 5)

    @pytest.mark.parametrize("level,t,u", [(2, 3, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_invalid_reports(self, level, t, u):
        with pytest.raises(InvalidParameterError):
            Report(level, t, u)


class TestSetup:
    def test_rejects_bad_horizon_and_budget(self):
        stream = RandomnessStream(0, 0)
        for d in (0, 3, 6, -4):
            with pytest.raises(InvalidParameterError):
                client_setup(d, 1, stream)
        with pytest.raises(InvalidParameterError):
            client_setup(8, 0, stream)

    def test_unit_budget_forces_first_change(self):
        stream = RandomnessStream(1, 0)
        for _ in range(50):
            state = client_setup(8, 1, stream)
            assert state.report_change == 1
            assert 1 <= state.report_level <= 4

    def test_degenerate_horizon_forces_level_one(self):
        stream = RandomnessStream(2, 0)
        for _ in range(50):
            assert client_setup(1, 3, stream).report_level == 1

    def test_setup_cells_uniform(self):
        # multinomial check over the 4 x 4 grid of (change, level) draws
        runs = 40_000
        stream = RandomnessStream(3, 0)
        counts = np.zeros((4, 4))
        for _ in range(runs):
            s = client_setup(8, 4, stream)
            counts[s.report_change - 1, s.report_level - 1] += 1
        freq = counts / runs
        sigma = math.sqrt((1 / 16) * (15 / 16) / runs)
        assert np.all(np.abs(freq - 1 / 16) <= 3 * sigma)


def _state(d, k, change, level):
    return ClientState(d, k, change, level)


class TestUpdate:
    def test_hand_traced_run(self):
        # d=4, k=1, first change reported at level 2: reports at t=2 and t=4;
        # the t=2 report is randomized response of +1, the t=4 report is a
        # cover coin because the pending value was consumed
        p = rr_probability(1.0)
        state = _state(4, 1, 1, 2)
        stream = ScriptedStream(uniforms=[p - 1e-9, 0.9])
        out = [client_update(state, t, x, 1.0, stream)
               for t, x in zip(range(1, 5), [0, 1, 0, 0])]
        assert out[0] is None and out[2] is None
        assert out[1] == Report(2, 2, 1)
        assert out[3] == Report(2, 4, -1)
        assert stream.exhausted

    def test_flip_branch(self):
        p = rr_probability(1.0)
        state = _state(4, 1, 1, 2)
        stream = ScriptedStream(uniforms=[p + 1e-9, 0.2])
        out = [client_update(state, t, x, 1.0, stream)
               for t, x in zip(range(1, 5), [0, -1, 0, 0])]
        assert out[1] == Report(2, 2, 1)   # flipped -1
        assert out[3] == Report(2, 4, 1)   # cover coin

    def test_level_one_reports_every_step(self):
        state = _state(8, 2, 1, 1)
        stream = RandomnessStream(4, 0)
        outs = [client_update(state, t, 0, 1.0, stream) for t in range(1, 9)]
        assert all(o is not None for o in outs)

    def test_all_zero_input_never_touches_response_noise(self, monkeypatch):
        calls = {"rr": 0}
        real = reference_client.binary_rr

        def counting(c, eps, rng):
            calls["rr"] += 1
            return real(c, eps, rng)

        monkeypatch.setattr(reference_client, "binary_rr", counting)
        stream = RandomnessStream(5, 0)
        state = client_setup(8, 2, stream)
        run_client(np.zeros(8, dtype=int), 2, 1.0, stream, state=state)
        assert calls["rr"] == 0

    def test_at_most_one_data_dependent_report(self, monkeypatch):
        calls = {"rr": 0}
        real = reference_client.binary_rr

        def counting(c, eps, rng):
            calls["rr"] += 1
            return real(c, eps, rng)

        monkeypatch.setattr(reference_client, "binary_rr", counting)
        stream = RandomnessStream(6, 0)
        for trial in range(200):
            calls["rr"] = 0
            x = np.zeros(8, dtype=int)
            times = stream.generator.choice(8, size=3, replace=False)
            x[np.sort(times)] = [1, -1, 1]
            run_client(x, 3, 1.0, stream)
            assert calls["rr"] <= 1

    def test_report_count_is_data_independent(self):
        stream = RandomnessStream(7, 0)
        for _ in range(100):
            state = client_setup(16, 2, stream)
            expected = state.reports_per_run
            x = np.zeros(16, dtype=int)
            x[int(stream.integers(0, 16))] = 1
            reports = run_client(x, 2, 1.0, stream, state=state)
            assert len(reports) == expected == 16 // state.report_period

    def test_out_of_order_updates_rejected(self):
        state = _state(4, 1, 1, 1)
        stream = RandomnessStream(8, 0)
        client_update(state, 1, 0, 1.0, stream)
        with pytest.raises(ProtocolError):
            client_update(state, 3, 0, 1.0, stream)

    def test_beyond_horizon_rejected(self):
        state = _state(2, 1, 1, 1)
        stream = RandomnessStream(9, 0)
        client_update(state, 1, 0, 1.0, stream)
        client_update(state, 2, 0, 1.0, stream)
        with pytest.raises(ProtocolError):
            client_update(state, 3, 0, 1.0, stream)

    def test_budget_locked_for_the_run(self):
        state = _state(4, 1, 1, 1)
        stream = RandomnessStream(10, 0)
        client_update(state, 1, 0, 1.0, stream)
        with pytest.raises(ProtocolError):
            client_update(state, 2, 0, 2.0, stream)

    def test_rejects_bad_change_value(self):
        state = _state(4, 1, 1, 1)
        with pytest.raises(InvalidParameterError):
            client_update(state, 1, 2, 1.0, ScriptedStream())


def _write_change_rows(path, rows):
    path.write_text("".join(json.dumps({"x": row}) + "\n" for row in rows))


class TestHelpers:
    def test_clip_keeps_first_changes(self, tmp_path):
        # the file input model keeps a row's first k changes
        path = tmp_path / "inputs.jsonl"
        _write_change_rows(path, [[1, -1, 1, 0], [0, 1, 0, -1]])
        times, values, clipped = read_change_vectors(path, 2, 4, 2)
        assert times.tolist() == [[1, 2], [2, 4]]
        assert values.tolist() == [[1, -1], [1, -1]]
        assert clipped == 1

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 5).flatmap(lambda e: st.tuples(
               st.integers(1, 1 << e),
               # a boolean trajectory: the state flips at each set flag, so
               # its changes alternate +1, -1, ... from 0
               st.lists(st.lists(st.booleans(), min_size=1 << e, max_size=1 << e).map(
                   lambda flips: np.diff(np.cumsum(flips) % 2, prepend=0).tolist()),
                   min_size=1, max_size=6))))
    def test_clip_norm_property(self, tmp_path_factory, budget_rows):
        # each stored row holds the first k changes of its input row, in
        # time order and padded with zeros; clipped counts the rows with more
        k, rows = budget_rows
        path = tmp_path_factory.mktemp("clip") / "inputs.jsonl"
        _write_change_rows(path, rows)
        times, values, clipped = read_change_vectors(path, len(rows), len(rows[0]), k)
        for row, row_times, row_values in zip(rows, times, values):
            kept = np.flatnonzero(row)[:k]
            assert row_times.tolist() == (kept + 1).tolist() + [0] * (k - len(kept))
            assert row_values.tolist() == np.array(row)[kept].tolist() + [0] * (k - len(kept))
        assert clipped == sum(np.count_nonzero(row) > k for row in rows)

    def test_power_of_two_rejects_bools(self):
        assert core.is_power_of_two(np.int64(8))
        assert not core.is_power_of_two(True)
        assert not core.is_power_of_two(False)

    def test_states_are_prefix_sums(self):
        assert np.array_equal(changes_to_states([0, 1, 0, -1]), [0, 1, 1, 0])


class TestTranscriptEnumeration:
    def test_distribution_normalizes(self):
        for x in [(0, 0, 0, 0), (0, 1, 0, 0), (1, -1, 1, 0)]:
            dist = exact_transcript_distribution(x, 2, 1.0)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_input_is_uniform_within_level(self):
        dist = exact_transcript_distribution((0, 0), 1, 1.0)
        # levels are uniform, and within a level every sign pattern is equal
        assert dist[(1, (1, 1))] == pytest.approx(1 / 8, abs=1e-15)
        assert dist[(1, (-1, 1))] == pytest.approx(1 / 8, abs=1e-15)
        assert dist[(2, (1,))] == pytest.approx(1 / 4, abs=1e-15)

    def test_enumeration_matches_sampler(self):
        # empirical transcripts of the real client against the closed form
        from scipy.stats import chisquare

        x, k, eps = (0, 1), 1, 1.0
        dist = exact_transcript_distribution(x, k, eps)
        keys = sorted(dist)
        runs = 100_000
        stream = RandomnessStream(123, 0)
        counts = dict.fromkeys(keys, 0)
        for _ in range(runs):
            reports = run_client(np.array(x), k, eps, stream)
            key = (reports[0].level, tuple(r.u for r in reports))
            counts[key] += 1
        observed = np.array([counts[key] for key in keys], dtype=float)
        expected = np.array([dist[key] * runs for key in keys])
        assert chisquare(observed, expected).pvalue > 0.01

    def test_valid_sequence_enumeration(self):
        seqs = enumerate_change_sequences(4, 2)
        assert (0, 0, 0, 0) in seqs
        assert (1, -1, 1, 0) not in seqs  # three changes
        assert (1, -1, 0, 0) in seqs
        for x in seqs:
            assert np.count_nonzero(x) <= 2
            assert set(np.cumsum(x)) <= {0, 1}

    def test_transcript_ratio_within_local_budget(self):
        eps = 1.0
        assert max_transcript_ratio(4, 2, eps) <= math.exp(eps) + 1e-9

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d,k", [(2, 1), (4, 1), (4, 2), (8, 2)])
    def test_transcript_ratio_is_exactly_half_the_budget(self, d, k, eps):
        # one report of a transcript is randomized response at eps/2 and
        # every other is a fair sign, so the worst ratio is e^(eps/2),
        # attained by two inputs whose signal nodes differ
        assert max_transcript_ratio(d, k, eps) == pytest.approx(math.exp(eps / 2), rel=1e-9)


def write_reports(path, h, t, u, d):
    """Write reports held as (h, t, u) arrays of the tree over horizon d."""
    tree = SumTree(d)
    cells = tree.cells(*(np.asarray(c, dtype=np.int64) for c in (h, t, u)))
    write_report_arrays(path, cells, LineTable(tree))


class TestReportIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        write_reports(path, [1, 2], [3, 4], [-1, 1], 4)
        counts, h, t, u = read_histogram(path, 4)
        assert np.array_equal(counts, [1, 1])
        assert np.array_equal(h, [1, 2])
        assert np.array_equal(t, [3, 4])
        assert np.array_equal(u, [-1, 1])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(set(row) == {"h", "t", "u"} for row in rows)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"h": 1, "t": 1, "u": 1}\n{"h": 1, "t": 1}\n')
        with pytest.raises(ParseError) as err:
            read_reports(path, 4)
        assert err.value.line_number == 2
        assert "line 2" in str(err.value)

    def test_parse_error_on_bad_value(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"h": 1, "t": 1, "u": 3}\n')
        with pytest.raises(ParseError):
            read_reports(path, 4)

    @pytest.mark.parametrize("line", ["1" * 5000, "[" * 100_000])
    def test_json_lines_names_a_line_json_cannot_hold(self, line):
        # an integer past the 4300 digits int() converts raises a ValueError
        # that is not a JSONDecodeError, and deep nesting a RecursionError
        with pytest.raises(ParseError) as err:
            list(json_lines(["1\n", line + "\n"]))
        assert err.value.line_number == 2

    @pytest.mark.parametrize("row", [
        '{"h": 1.7, "t": 1, "u": 1}',
        '{"h": 1, "t": true, "u": 1}',
        '{"h": "1", "t": 1, "u": 1}',
        '{"h": 1, "t": 1, "u": 1.0}',
        '{"h": 0, "t": 1, "u": 1}',
        '{"h": 1, "t": 0, "u": 1}',
        '{"h": 1, "t": 1, "u": 0}',
        '{"h": 9223372036854775808, "t": 1, "u": 1}',
        '[1, 1, 1]',
    ])
    def test_non_integer_or_non_positive_fields_rejected(self, tmp_path, row):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"h": 1, "t": 1, "u": 1}\n\n' + row + "\n")
        with pytest.raises(ParseError) as err:
            read_reports(path, 4)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("row,message", [
        ('{"h": 1, "t": 9223372036854775808, "u": 1}',
         "line 1: h and t must be positive integers, got h=1, t=9223372036854775808"),
        ('{"h": %s, "t": %s, "u": 1}' % ("7" * 4000, "8" * 4000),
         "line 1: h and t must be positive integers, got h=%s..., t=%s..."
         % ("7" * 40, "8" * 40)),
        ('{"h": 1, "t": 1, "u": %s}' % ("9" * 4000),
         "line 1: report value must be -1 or +1, got %s..." % ("9" * 40)),
    ])
    def test_a_value_is_quoted_up_to_40_characters(self, tmp_path, row, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(row + "\n")
        with pytest.raises(ParseError) as err:
            read_reports(path, 4)
        assert str(err.value) == message

    # the last three are misaligned: a level-h report carries a multiple of 2^(h-1)
    @pytest.mark.parametrize("row", ['{"h": 4, "t": 4, "u": 1}', '{"h": 1, "t": 5, "u": 1}',
                                     '{"h": 9, "t": 256, "u": 1}', '{"h": 2, "t": 3, "u": 1}',
                                     '{"t": 3, "u": 1, "h": 2}', '{"h": 3, "t": 2, "u": -1}'])
    def test_rows_outside_the_tree_rejected_given_horizon(self, tmp_path, row):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"h": 3, "t": 4, "u": 1}\n' + row + "\n")
        with pytest.raises(ParseError) as err:
            read_reports(path, 4)
        assert err.value.line_number == 2

    def test_syntax_fault_is_named_before_a_tree_fault(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"h": 2, "t": 3, "u": 1}\n{"h": 1, "t": 1, "u": 0}\n')
        with pytest.raises(ParseError) as err:
            read_reports(path, 4)
        assert err.value.line_number == 2

    def test_horizon_is_checked_before_the_file_is_read(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="power of two"):
            read_reports(tmp_path / "missing.jsonl", 6)

    def test_missing_file_is_invalid_parameter(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="cannot read"):
            read_reports(tmp_path / "missing.jsonl", 4)

    def test_unwritable_path_is_invalid_parameter(self, tmp_path):
        path = tmp_path / "missing" / "reports.jsonl"
        with pytest.raises(InvalidParameterError, match="cannot write .*reports.jsonl"):
            write_reports(path, [1], [1], [1], 4)


class TestLineTable:
    @pytest.mark.parametrize("case", ["none", "post-shuffle", "read"])
    def test_each_line_is_formatted_once_and_only_for_cells_that_occur(
            self, tmp_path, monkeypatch, case):
        # one table serves a mode-none dump of several blocks, a post-shuffle
        # dump of several writes, or a read of many small chunks; every line
        # it formats is a row put through REPORT_LINE, so count those rows
        path = tmp_path / "reports.jsonl"
        monkeypatch.setattr(harness, "ROWS", 1)  # blocks and writes of 4d reports
        cfg = SimulationConfig(n=40, d=64, k=2, epsilon=1.0, trials=1, seed=3,
                               input_model="random-changes", reports_path=str(path),
                               shuffle_mode="post-shuffle" if case == "post-shuffle" else "none")
        formatted = []

        class Counted(str):
            def __mod__(self, row):
                formatted.append(row)
                return str.__mod__(self, row)

        with monkeypatch.context() as patch:
            if case != "read":
                patch.setattr(client_mod, "REPORT_LINE", Counted(client_mod.REPORT_LINE))
            reports = run_trial(cfg, 0)[2]
        if case == "read":
            monkeypatch.setattr(client_mod, "READ_BYTES", 64)  # a chunk of two or three lines
            monkeypatch.setattr(client_mod, "REPORT_LINE", Counted(client_mod.REPORT_LINE))
            read_reports(path, cfg.d)
        with open_input(path) as fh:
            occur = set(zip(*(c.tolist() for c in parse_report_rows(json_lines(fh), cfg.d))))
        assert reports > 2 * 4 * cfg.d  # three blocks or writes or more
        assert len(occur) < SumTree(cfg.d).counts.size  # some cells never occur
        assert len(formatted) == len(set(formatted))
        assert set(formatted) == occur


# JSON values of the kinds a corrupt line can hold. Rows are drawn as report
# rows, change-vector rows and arbitrary objects, so that the field checks
# past the JSON decode are reached too.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 3) | st.integers()
                 | st.floats() | st.text(max_size=2))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
# A wide power-of-two horizon, past the reader's cap, whose count of each
# (node, sign) cell a read still holds in 2 MB: under it the tree bounds h
# and t less than under 4 or 64, so more rows that pass the syntax checks
# are read.
WIDE = 1 << 16
# near the int64 edge too, since the readers hand their values to numpy
_FIELDS = st.sampled_from([-1, 0, 1]) | st.integers(2 ** 63 - 2, 2 ** 64) | _JSON_SCALARS
_OBJECTS = st.dictionaries(st.text(max_size=2), _JSON_VALUES, max_size=3)
_REPORT_ROWS = st.fixed_dictionaries({"h": _FIELDS, "t": _FIELDS, "u": _FIELDS}) | _OBJECTS
_CHANGE_ROWS = st.fixed_dictionaries({"x": st.lists(_FIELDS, min_size=3, max_size=5)}) \
    | _OBJECTS


class TestReaderFuzz:
    @staticmethod
    def _check(path, read):
        try:
            result = read(path)
        except ParseError as exc:
            assert isinstance(exc.line_number, int) and exc.line_number >= 1
            return
        assert isinstance(result[0], np.ndarray)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(_REPORT_ROWS, min_size=1, max_size=3))
    def test_read_reports_arrays_or_parse_error(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fuzz") / "reports.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        self._check(path, lambda p: read_histogram(p, WIDE))  # (counts, h, t, u)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(_CHANGE_ROWS, min_size=1, max_size=3))
    def test_read_change_vectors_arrays_or_parse_error(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fuzz") / "changes.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        self._check(path, lambda p: read_change_vectors(p, len(rows), 4, 2))  # (x, clipped)


def read_report_rows(path, d):
    """The per-row reader: the reference for the chunked `read_reports`."""
    with open_input(path) as fh:
        return parse_report_rows(json_lines(fh), d)


def histogram(columns, d):
    """The histogram of reports (h, t, u) of the tree over horizon d, as
    `read_reports` returns it: (counts, h, t, u) of the (node, sign) cells
    they fill, in storage order, each with its count."""
    tree = SumTree(d)
    counts = np.bincount(tree.cells(*columns), minlength=tree.counts.size)
    cells = np.flatnonzero(counts)
    return counts[cells], *tree.reports(cells)


def row_histogram(path, d):
    """The histogram of the per-row reader's reports."""
    return histogram(read_report_rows(path, d), d)


def read_histogram(path, d):
    """The histogram of `read_reports`, after checking it: its rows are
    distinct cells of the tree in storage order, each counted at least
    once, and it is exactly the per-row reader's histogram."""
    counts, *columns = read_reports(path, d)
    assert all(c.dtype == np.int64 and c.shape == counts.shape for c in columns)
    assert (np.diff(SumTree(d).cells(*columns)) > 0).all() and (counts >= 1).all()
    try:
        want = row_histogram(path, d)
    except ParseError as exc:
        raise AssertionError(f"read_reports read a file the per-row reader refuses: {exc}")
    for got, expected in zip((counts, *columns), want):
        assert np.array_equal(got, expected)
    return counts, *columns


# Lines of a report file: the canonical form the writer emits, spellings
# JSON allows but the chunked reader leaves to the per-row parser, and
# arbitrary bytes, including invalid UTF-8.
_CANON = b'{"h": %d, "t": %d, "u": %d}\n'
_VALUE = (st.integers(1, 9) | st.integers(1, 10 ** 18 - 1) | st.integers(10 ** 18, 2 ** 64)
          | st.sampled_from([0, -1, 2 ** 63 - 1, 2 ** 63]))
_U = st.sampled_from([1, -1, 0, 2])
_SPELLINGS = [
    _CANON,
    b'{"h":  %d, "t": %d, "u": %d}\n',
    b' {"h": %d,"t": %d, "u": %d} \n',
    b'{"h": %d, "t": %d, "u": %d}\r\n',
    b'{"h": 0%d, "t": %d, "u": %d}\n',
    b'{"h": %d, "t": %d, "u": %d.0}\n',
]
_LINES = (
    st.builds(lambda h, t, u: _CANON % (h, t, u), _VALUE, _VALUE, st.sampled_from([1, -1]))
    | st.builds(lambda fmt, h, t, u: fmt % (h, t, u), st.sampled_from(_SPELLINGS),
                _VALUE, _VALUE, _U)
    | st.builds(lambda h, t, u: b'{"u": %d, "h": %d, "t": %d}\n' % (u, h, t),
                _VALUE, _VALUE, _U)
    | st.sampled_from([b"\n", b"  \n", b"\r\n", b"\r", b'{"h": 1}\n', b"\xff\n"])
    | st.binary(max_size=6)
)


# Canonical lines of a report file over horizon 8: the lines of its 30
# (node, sign) cells, and lines that address no node.
_NODES_8 = list(zip(*(c.tolist() for c in SumTree(8).nodes())))
_TREE_LINES = (
    st.builds(lambda c: _CANON % (*_NODES_8[c >> 1], 2 * (c & 1) - 1), st.integers(0, 29))
    | st.sampled_from([_CANON % (2, 3, 1), _CANON % (5, 16, 1), _CANON % (1, 9, -1)])
)


def _outcome(read, path, d):
    try:
        columns = read(path, d)
    except ParseError as exc:
        return "error", exc.line_number, str(exc)
    assert all(c.dtype == np.int64 and c.ndim == 1 for c in columns)
    return "arrays", [c.tolist() for c in columns]


def _spy_rows(monkeypatch):
    """Record, as a list of its (line number, row) pairs, the rows of each
    call of the reader's per-row parser."""
    calls = []
    parse = client_mod.parse_rows

    def spy(rows):
        calls.append(list(rows))
        return parse(calls[-1])
    monkeypatch.setattr(client_mod, "parse_rows", spy)
    return calls


def _chunk_rows(path, read_bytes, lineno):
    """The (line number, decoded row) pairs of the non-blank lines of the
    chunk that holds line lineno of a file read in chunks of whole lines:
    the partial line the last chunk left and the next max(read_bytes, its
    length) bytes, cut after their last \\n or a later lone \\r that is
    not their last byte, or carried whole into the next read if they hold
    none; the last chunk is what the file has left."""
    data, start, read, first = path.read_bytes(), 0, 0, 1
    while True:
        if read == len(data):
            end = len(data)
        else:
            read = min(read + max(read_bytes, read - start), len(data))
            window = data[start:read]
            ends = [i + 1 for i, byte in enumerate(window)
                    if byte == 10 or byte == 13 and i + 1 < len(window) and window[i + 1] != 10]
            if not ends:
                continue
            end = start + max(ends)
        lines = data[start:end].splitlines()
        if lineno < first + len(lines):
            return [(first + i, json.loads(line)) for i, line in enumerate(lines)
                    if line.strip()]
        start, first = end, first + len(lines)


def _random_reports(seed, n, d):
    """n reports of the tree over horizon d: t a multiple of the level period."""
    rng = np.random.default_rng(seed)
    h = rng.integers(1, d.bit_length() + 1, n)
    return h, rng.integers(1, (d >> (h - 1)) + 1) << (h - 1), rng.choice([-1, 1], n)


class TestChunkedReportIo:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(_LINES, max_size=8), st.booleans(), st.sampled_from([4, 64, WIDE]))
    @example([_CANON % (1, 1, 1)] * 2, False, 4)
    @example([_CANON % (3, 4, 1), _CANON % (4, 4, -1)], False, 4)
    @example([_CANON % (1, 1, 1), _CANON % (2, 3, 1)], False, 4)
    @example([_CANON % (2, 3, 1), b'{"h": 1}\n'], False, 4)
    @example([_CANON % (1, 1, 1), _CANON % (1, 10 ** 18 - 1, 1)], False, WIDE)
    @example([_CANON % (1, 1, 1), b'{"h": 1, "t": 4611686018427387904, "u": 1}\n'], False, WIDE)
    @example([_CANON % (1, 1, 1), _CANON % (2, 2, 1)], True, WIDE)
    def test_equals_the_per_row_parser(self, tmp_path_factory, lines, cut_last, d):
        data = b"".join(lines)
        if cut_last:
            data = data[:-1]
        path = tmp_path_factory.mktemp("chunked") / "reports.jsonl"
        path.write_bytes(data)
        assert _outcome(read_histogram, path, d) == _outcome(row_histogram, path, d)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_LINES, max_size=20), st.sampled_from([1, 7, 40]), st.sampled_from([4, 64]))
    @example([b"\n", b"\n", b'{"h": 1,  "t": 1, "u": 1}\n', b'{"h": 1}\n'], 1, 4)
    @example([b"\r", b'{"h": 1,  "t": 1, "u": 1}\n', b'{"h": 1}\n'], 1, 4)
    def test_lines_are_numbered_across_small_chunks(self, tmp_path_factory, lines, read_bytes,
                                                    d):
        # chunks of one line or a few, so that a chunk goes per row and a
        # later one names a line: every line of a chunk, blank or ended by a
        # lone \r, counts toward the numbers of the lines after it
        path = tmp_path_factory.mktemp("small") / "reports.jsonl"
        path.write_bytes(b"".join(lines))
        want = _outcome(row_histogram, path, d)
        with mock.patch.object(client_mod, "READ_BYTES", read_bytes):
            assert _outcome(read_histogram, path, d) == want

    def test_canonical_file_skips_the_per_row_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "reports.jsonl"
        columns = _random_reports(0, 5000, 64)
        write_reports(path, *columns, 64)

        def refuse(*args):
            raise AssertionError("per-row parser called on a canonical file")
        monkeypatch.setattr(client_mod, "parse_rows", refuse)
        for got, want in zip(read_histogram(path, 64), histogram(columns, 64)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("tail", [b"\n", b'{"u": 1, "h": 1, "t": 2}\n',
                                      b'{"h": 8, "t": 2, "u": 1}\n'])
    def test_any_other_line_sends_its_chunk_per_row(self, tmp_path, monkeypatch, tail):
        # a canonical line outside the tree is named without the per-row
        # parser; any other line sends only the chunk that holds it, here
        # the second of the file's two
        path = tmp_path / "reports.jsonl"
        write_reports(path, *_random_reports(1, 3000, 64), 64)
        with open(path, "ab") as fh:
            fh.write(tail)
        calls = _spy_rows(monkeypatch)
        assert _outcome(read_histogram, path, 64) == _outcome(row_histogram, path, 64)
        if client_mod._CANONICAL_LINES.fullmatch(tail):
            assert calls == []
        else:
            want = _chunk_rows(path, client_mod.READ_BYTES, 3001)
            assert calls == [want] and 1 < want[0][0] < 3000

    @pytest.mark.parametrize("spacing", [b" ", b"  "])
    def test_pipe_is_read_once(self, tmp_path, spacing):
        # a pipe cannot be rewound for the per-row pass: it used to hang here
        data = b"".join(b'{"h": 1,%s"t": %d, "u": -1}\n' % (spacing, t % 64 + 1)
                        for t in range(20000))
        path = tmp_path / "reports.jsonl"
        path.write_bytes(data)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)
        got = []
        threads = [threading.Thread(target=feed, daemon=True),
                   # the pipe is read once, so it is compared with the
                   # per-row reader's histogram of the same bytes in a file
                   threading.Thread(target=lambda: got.append(_outcome(read_reports, fifo, 64)),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [_outcome(row_histogram, path, 64)]

    @pytest.mark.parametrize("read_bytes", [1, 7, 10 ** 9])
    @pytest.mark.parametrize("last", [b"", b'{"h": 3, "t": 64, "u": -1}\n',
                                      b'{"h": 8, "t": 1, "u": 1}\n'])
    def test_read_chunk_size_changes_nothing(self, tmp_path, monkeypatch, read_bytes, last):
        path = tmp_path / "reports.jsonl"
        write_reports(path, *_random_reports(2, 700, 64), 64)
        with open(path, "ab") as fh:
            fh.write(last)
        want = _outcome(read_histogram, path, 64)
        monkeypatch.setattr(client_mod, "READ_BYTES", read_bytes)
        assert _outcome(read_histogram, path, 64) == want
        assert want == _outcome(row_histogram, path, 64)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.binary(max_size=90) | st.sampled_from([b"\n", b"\r", b"\r\n"]),
                    max_size=30), st.sampled_from([1, 7, 64]))
    @example([b"x" * 200, b"\r", b"y\r"], 64)
    @example([b"x\r", b"\n" + b"y" * 100], 7)
    def test_chunks_are_whole_lines_of_at_most_twice_the_longest(self, parts, read_bytes):
        # any bytes, spelled with any line ends: the chunks are the file,
        # each but the last ends a line and splits no \r\n, and each holds
        # at most 2 max(READ_BYTES, the longest line) bytes
        data = b"".join(parts)
        with mock.patch.object(client_mod, "READ_BYTES", read_bytes):
            chunks = list(client_mod._chunks(io.BytesIO(data)))
        assert b"".join(chunks) == data and b"" not in chunks
        longest = max(map(len, data.splitlines(keepends=True)), default=0)
        assert max(map(len, chunks), default=0) <= 2 * max(read_bytes, longest)
        for chunk, after in zip(chunks, chunks[1:]):
            assert chunk.endswith(b"\n") or chunk.endswith(b"\r") and not after.startswith(b"\n")

    def test_a_line_with_no_end_is_read_in_doubling_reads(self):
        # a 16 MiB line with no line end is one chunk, read in about
        # log2(its length / READ_BYTES) reads, not its length / READ_BYTES
        class Counted(io.BytesIO):
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                return super().read(size)
        data = b"x" * (16 << 20)
        fh = Counted(data)
        assert list(client_mod._chunks(fh)) == [data]
        assert fh.reads <= math.log2(len(data) / client_mod.READ_BYTES) + 3

    @pytest.mark.parametrize("write_rows", [1, 10 ** 9])
    def test_write_chunk_size_changes_nothing(self, tmp_path, monkeypatch, write_rows):
        columns = _random_reports(3, 700, 64)
        write_reports(tmp_path / "default.jsonl", *columns, 64)
        monkeypatch.setattr(client_mod, "WRITE_ROWS", write_rows)
        write_reports(tmp_path / "patched.jsonl", *columns, 64)
        assert (tmp_path / "patched.jsonl").read_bytes() \
            == (tmp_path / "default.jsonl").read_bytes()

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 10).flatmap(lambda e: st.tuples(
               st.just(1 << e), st.lists(st.integers(0, 4 * (1 << e) - 3), max_size=40))),
           st.integers(1, 16))
    def test_writer_equals_json_dumps_per_row(self, tmp_path_factory, tree_cells, write_rows):
        # cells of the tree over a power-of-two horizon d, each written from
        # the line table of the cells that occur
        d, cells = tree_cells
        tree = SumTree(d)
        cells = np.array(cells, dtype=np.int64)
        path = tmp_path_factory.mktemp("writer") / "reports.jsonl"
        with mock.patch.object(client_mod, "WRITE_ROWS", write_rows):
            write_report_arrays(path, cells, LineTable(tree))
        h, t = tree.nodes()
        want = "".join(json.dumps({"h": int(h[c >> 1]), "t": int(t[c >> 1]),
                                   "u": 2 * (c & 1) - 1}, sort_keys=True) + "\n"
                       for c in cells.tolist())
        assert path.read_bytes() == want.encode()

    def test_misaligned_canonical_line_named_through_the_table(self, tmp_path, monkeypatch):
        # at d = 4 a level-2 report carries an even t; the line is canonical,
        # so the tree check names it without the per-row parser
        path = tmp_path / "reports.jsonl"
        write_reports(path, *_random_reports(4, 600, 4), 4)
        with open(path, "ab") as fh:
            fh.write(_CANON % (2, 3, 1) + _CANON % (1, 1, 1))
        monkeypatch.setattr(client_mod, "parse_rows",
                            lambda *a: pytest.fail("per-row parser called"))
        with pytest.raises(ParseError, match=r"\(h=2, t=3, u=1\) addresses no node") as err:
            read_reports(path, 4)
        assert err.value.line_number == 601

    def test_no_line_of_a_tree_file_is_converted(self, tmp_path, monkeypatch):
        # d = 4 has 14 (node, sign) cells, each looked up by its line in the
        # tree's table, so no line of a file of its reports is converted
        path = tmp_path / "reports.jsonl"
        columns = _random_reports(5, 5000, 4)
        write_reports(path, *columns, 4)
        monkeypatch.setattr(client_mod, "_convert",
                            lambda chunk: pytest.fail("a line of the tree converted"))
        for got, want in zip(read_histogram(path, 4), histogram(columns, 4)):
            assert np.array_equal(got, want)
        # one row per cell, each counted as often as its line occurs
        counts, h, t, u = read_reports(path, 4)
        assert len(h) == 14 and counts.sum() == 5000
        rows = [b'{"h": %d, "t": %d, "u": %d}' % row
                for row in zip(h.tolist(), t.tolist(), u.tolist())]
        assert dict(zip(rows, counts.tolist())) \
            == {line: path.read_bytes().splitlines().count(line) for line in rows}

    @pytest.mark.parametrize("e", range(12))
    def test_every_cell_under_the_cap_is_found_by_its_bytes(self, tmp_path, monkeypatch, e):
        # horizons d = 2^0 ... 2^11, whose t has one to four digits and h one
        # or two: each cell's line, written one to three times in a random
        # order, is found by arithmetic on its bytes and never converted
        d = 1 << e
        tree = SumTree(d)
        assert tree.counts.size <= client_mod.READ_LINES
        counts = 1 + np.arange(tree.counts.size) % 3
        cells = np.random.default_rng(e).permutation(np.repeat(np.arange(len(counts)), counts))
        path = tmp_path / "reports.jsonl"
        write_report_arrays(path, cells, LineTable(tree))
        monkeypatch.setattr(client_mod, "_convert",
                            lambda chunk: pytest.fail("a line of the tree converted"))
        monkeypatch.setattr(client_mod, "parse_rows",
                            lambda *a: pytest.fail("per-row parser called"))
        read, h, t, u = read_reports(path, d)
        assert np.array_equal(read, counts)
        assert np.array_equal(tree.cells(h, t, u), np.arange(len(counts)))

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.integers(0, 4 * 64 - 3), min_size=1, max_size=12),
           st.sampled_from(["change", "insert", "delete"]), st.integers(0, 1 << 20),
           st.sampled_from(b'0123456789- ,:"{}htu\n') | st.integers(0, 255),
           st.sampled_from([1 << 16, 40]))
    @example([1], "change", 22, ord("2"), 1 << 16)  # {"h": 1, "t": 1, "u": 2}
    @example([1], "change", 18, ord("x"), 1 << 16)  # the bytes read give cell 1
    @example([5], "change", 14, ord("5"), 1 << 16)  # (1, 3, 1) read as (1, 5, 1)
    @example([253, 0], "insert", 7, ord("0"), 40)  # h = 70, past the tree
    @example([3, 3], "delete", 2, 0, 40)  # {"": 1, ...}
    def test_one_byte_off_a_canonical_file_reads_as_the_per_row_parser(
            self, tmp_path_factory, cells, edit, at, byte, read_bytes):
        # a byte changed, inserted or deleted in a canonical d = 64 file: a
        # near-canonical line is never taken for the line of a cell
        tree = SumTree(64)
        cells = np.array(cells)
        path = tmp_path_factory.mktemp("near") / "reports.jsonl"
        write_report_arrays(path, cells, LineTable(tree))
        data = path.read_bytes()
        at %= len(data) + (edit == "insert")
        new = bytes([byte]) if edit != "delete" else b""
        path.write_bytes(data[:at] + new + data[at + (edit != "insert"):])
        want = _outcome(row_histogram, path, 64)
        with mock.patch.object(client_mod, "READ_BYTES", read_bytes):
            assert _outcome(read_histogram, path, 64) == want

    @settings(deadline=None, max_examples=200)
    @given(st.lists(_TREE_LINES, max_size=60), st.integers(26, 34), st.integers(1, 200))
    @example([_CANON % (1, 1, 1)] * 3 + [_CANON % (1, t, -1) for t in range(1, 5)]
             + [_CANON % (1, 1, 1), _CANON % (2, 3, 1)], 30, 40)
    def test_decoding_equals_the_per_row_parser_across_the_cap(self, tmp_path_factory,
                                                               lines, read_lines, read_bytes):
        # a cap on either side of the d = 8 tree's 30 cells, and small
        # chunks: under it a stray line sends its chunk whole between chunks
        # looked up in the table, past it every chunk goes whole
        path = tmp_path_factory.mktemp("cap") / "reports.jsonl"
        path.write_bytes(b"".join(lines))
        want = _outcome(row_histogram, path, 8)
        with mock.patch.object(client_mod, "READ_LINES", read_lines), \
                mock.patch.object(client_mod, "READ_BYTES", read_bytes):
            assert _outcome(read_histogram, path, 8) == want

    @pytest.mark.parametrize("read_bytes", [64, 1 << 16])
    def test_full_table_reads_equal_to_the_per_row_parser(self, tmp_path, monkeypatch,
                                                          read_bytes):
        # at a cap of 4 cells the d = 64 tree has no table: every chunk, of
        # about two lines or of the whole file, is converted whole
        path = tmp_path / "reports.jsonl"
        write_reports(path, *_random_reports(6, 700, 64), 64)
        want = _outcome(row_histogram, path, 64)
        monkeypatch.setattr(client_mod, "READ_LINES", 4)
        monkeypatch.setattr(client_mod, "READ_BYTES", read_bytes)
        monkeypatch.setattr(client_mod, "parse_rows",
                            lambda *a: pytest.fail("per-row parser called"))
        assert _outcome(read_histogram, path, 64) == want

    def test_real_cap_reads_equal_to_the_per_row_parser(self, tmp_path, monkeypatch):
        # the d = 2^12 tree has 16382 cells, past READ_LINES itself, so the
        # chunks of 30000 random cells of it are converted whole
        d = 1 << 12
        tree = SumTree(d)
        assert tree.counts.size > client_mod.READ_LINES
        cells = np.random.default_rng(8).integers(0, tree.counts.size, 30000)
        path = tmp_path / "reports.jsonl"
        write_report_arrays(path, cells, LineTable(tree))
        want = _outcome(row_histogram, path, d)
        monkeypatch.setattr(client_mod, "parse_rows",
                            lambda *a: pytest.fail("per-row parser called"))
        assert _outcome(read_histogram, path, d) == want
        # a level-2 report carries an even t: named at its line past the cap
        with open(path, "ab") as fh:
            fh.write(_CANON % (2, 3, 1))
        with pytest.raises(ParseError, match=r"\(h=2, t=3, u=1\) addresses no node") as err:
            read_reports(path, d)
        assert err.value.line_number == 30001

    @pytest.mark.parametrize("d", [1 << 11, 1 << 12])
    def test_first_stray_is_named_unless_a_later_line_is_not_canonical(self, tmp_path,
                                                                        monkeypatch, d):
        # chunks of about two lines, under the cap (d = 2^11) and past it:
        # of two reports that address no node, in different chunks, the
        # first is named at its line without the per-row parser
        good = [_CANON % (1, t, 1) for t in range(1, 9)]
        lines = good[:3] + [_CANON % (2, 3, 1)] + good[3:6] + [_CANON % (1, d + 1, -1)] \
            + good[6:]
        path = tmp_path / "reports.jsonl"
        path.write_bytes(b"".join(lines))
        monkeypatch.setattr(client_mod, "READ_BYTES", 64)
        with monkeypatch.context() as patched:
            patched.setattr(client_mod, "parse_rows",
                            lambda *a: pytest.fail("per-row parser called"))
            with pytest.raises(ParseError, match=r"\(h=2, t=3, u=1\) addresses no node") as err:
                read_reports(path, d)
        assert err.value.line_number == 4
        # a later line that is not canonical sends its chunk per row, whose
        # syntax error comes before either stray report
        with open(path, "ab") as fh:
            fh.write(b'{"h": 1, "t": 1, "u": 1.0}\n')
        with pytest.raises(ParseError, match="expected integer fields h, t, u") as err:
            read_reports(path, d)
        assert err.value.line_number == len(lines) + 1

    @pytest.mark.parametrize("bad,fault", [
        (b'{"h": 1, "t": 1, "u": 1.0}\n', "line 701: expected integer fields h, t, u"),
        (b'{"h": 1, "t": 1}\n', "line 701: expected an object with fields h, t, u"),
        (b"\n", None), (b'{"h": 1,  "t": 2, "u": 1}\n', None)])
    def test_other_line_past_a_full_table_sends_its_chunk_per_row(self, tmp_path,
                                                                   monkeypatch, bad, fault):
        path = tmp_path / "reports.jsonl"
        write_reports(path, *_random_reports(7, 700, 64), 64)
        with open(path, "ab") as fh:
            fh.write(bad + _CANON % (1, 1, 1))
        # chunks of about two lines, and a cap of 4 cells: the d = 64 tree
        # has no table, so every chunk is converted whole
        monkeypatch.setattr(client_mod, "READ_LINES", 4)
        monkeypatch.setattr(client_mod, "READ_BYTES", 64)
        calls = _spy_rows(monkeypatch)
        if fault is None:
            assert _outcome(read_histogram, path, 64) == _outcome(row_histogram, path, 64)
        else:
            with pytest.raises(ParseError) as err:
                read_reports(path, 64)
            assert fault in str(err.value) and err.value.line_number == 701
        # only the rows of the chunk of line 701, read once
        assert calls == [_chunk_rows(path, 64, 701)]
