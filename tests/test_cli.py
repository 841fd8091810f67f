import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ldpshuffle.cli as cli
import ldpshuffle.client as client_mod
import ldpshuffle.harness as harness
from ldpshuffle.amplification import AmplificationResult, amplify_shuffle
from ldpshuffle.divergence import CertificationRecord
from ldpshuffle.errors import ParseError


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCover:
    def test_prints_nodes(self, capsys):
        code, out, _ = _run(capsys, ["cover", "--t", "6", "--d", "8"])
        assert code == 0
        assert sorted(map(tuple, json.loads(out))) == [(2, 3), (3, 1)]

    def test_invalid_exit_code(self, capsys):
        code, _, err = _run(capsys, ["cover", "--t", "9", "--d", "8"])
        assert code == 2
        assert "error" in err


class TestBound:
    def test_matches_library(self, capsys):
        code, out, _ = _run(capsys, ["bound", "--eps0", "0.4", "--n", "1000000",
                                     "--delta", "1e-8", "--alpha", "2",
                                     "--group", "4000"])
        assert code == 0
        payload = json.loads(out)
        res = amplify_shuffle(0.4, 10 ** 6, 1e-8)
        assert payload["epsilon_central"] == res.epsilon_central
        assert payload["regime"] == res.regime
        assert set(payload["bounds"]) == set(res.bounds)
        assert payload["rdp"]["epsilon"] > 0
        assert payload["group"]["epsilon_central"] > 0

    @pytest.mark.parametrize("extra,more", [([], set()),
                                            (["--alpha", "2", "--group", "4000"],
                                             {"rdp", "group"})])
    def test_keys_are_the_inputs_and_the_record_fields(self, capsys, extra, more):
        code, out, _ = _run(capsys, ["bound", "--eps0", "0.4", "--n", "1000000",
                                     "--delta", "1e-8", *extra])
        assert code == 0
        fields = {f.name for f in dataclasses.fields(AmplificationResult)}
        assert set(json.loads(out)) == fields | {"eps0", "n"} | more

    def test_overflowing_eps0_falls_back(self, capsys):
        code, out, _ = _run(capsys, ["bound", "--eps0", "400", "--n", "1000",
                                     "--delta", "1e-6"])
        assert code == 0
        payload = _strict_json(out)
        assert payload["regime"] == "no-amplification"
        assert payload["epsilon_central"] == 400.0
        assert payload["epsilon_1"] is None
        assert payload["bounds"] == {"general": None}

    @pytest.mark.parametrize("flag", ["--n", "--group"])
    def test_n_past_float_range_exits_2(self, capsys, flag):
        argv = ["bound", "--eps0", "0.4", "--n", "10000", "--delta", "1e-6"]
        argv += [flag, str(10 ** 400)]
        code, _, err = _run(capsys, argv)
        assert code == 2
        assert "error" in err

    def test_group_bound_capped_at_eps0(self, capsys):
        code, out, _ = _run(capsys, ["bound", "--eps0", "0.25", "--n", "1000",
                                     "--delta", "1e-300", "--group", "1000"])
        assert code == 0
        assert json.loads(out)["group"]["epsilon_central"] == 0.25

    def test_out_of_regime_group_exits_2(self, capsys):
        code, _, err = _run(capsys, ["bound", "--eps0", "0.6", "--n", "10000",
                                     "--delta", "1e-8", "--group", "2000"])
        assert code == 2
        assert "error" in err


class TestVerifyAmplification:
    def test_single_point_passes(self, capsys):
        code, out, err = _run(capsys, ["verify-amplification", "--n", "200",
                                       "--eps0", "0.25", "--delta", "1e-4"])
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["exact_delta"] + record["delta_bar"] <= 1e-4
        # one stderr line per point: the time taken, the bar and peak memory
        assert re.fullmatch(r"verify-amplification: n=200 eps0=0.25 delta=0.0001 certified "
                            r"in \d+\.\d{3}s, delta_bar \S+, peak RSS \d+ KB\n", err)

    @pytest.mark.parametrize("eps0", ["40", "800"])
    def test_huge_local_budget_certifies_exactly(self, capsys, eps0):
        code, out, _ = _run(capsys, ["verify-amplification", "--n", "100",
                                     "--eps0", eps0, "--delta", "1e-4"])
        assert code == 0
        record = _strict_json(out)
        assert record["exact_delta"] == 0.0
        assert record["delta_bar"] == 0.0
        assert record["passed"] is True

    def test_keys_are_the_record_fields(self, capsys):
        code, out, _ = _run(capsys, ["verify-amplification", "--n", "100",
                                     "--eps0", "0.5", "--delta", "1e-4"])
        assert code == 0
        record = json.loads(out)
        assert set(record) == {f.name for f in dataclasses.fields(CertificationRecord)}
        assert (record["n"], record["eps0"], record["delta_target"]) == (100, 0.5, 1e-4)

    @pytest.mark.parametrize("text", ["", "# n,eps0,delta\n\n# nothing else\n"])
    def test_empty_grid_exits_2_naming_the_file(self, capsys, tmp_path, text):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        code, out, err = _run(capsys, ["verify-amplification", "--grid", str(grid)])
        assert code == 2
        assert out == ""
        assert str(grid) in err

    @pytest.mark.parametrize("flag,value", [("--n", "100"), ("--eps0", "0.5"),
                                            ("--delta", "1e-4")])
    def test_grid_refuses_point_flags(self, capsys, tmp_path, flag, value):
        grid = tmp_path / "grid.csv"
        grid.write_text("100,0.25,1e-4\n")
        code, out, err = _run(capsys, ["verify-amplification", "--grid", str(grid),
                                       flag, value])
        assert code == 2
        assert out == ""
        assert "--grid takes no" in err

    def test_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("# n,eps0,delta\n100,0.25,1e-4\n150,0.5,1e-4\n")
        code, out, _ = _run(capsys, ["verify-amplification", "--grid", str(grid)])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        assert all(r["passed"] for r in records)

    @pytest.mark.parametrize("bad_row", ["100,0.25", "100,abc,1e-4", "1e2,0.25,1e-4",
                                         "100,0.25,1e-4,7"])
    def test_bad_grid_row_names_line(self, capsys, tmp_path, bad_row):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"# n,eps0,delta\n{bad_row}\n")
        code, _, err = _run(capsys, ["verify-amplification", "--grid", str(grid)])
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("bad_row", ["1,0.25,1e-4", "1000,nan,1e-4", "20000,0.25,1e-4",
                                         "1000,0.25,1.5"])
    def test_grid_row_outside_the_domain_fails_before_any_scan(self, capsys, tmp_path,
                                                               bad_row):
        # every row is checked against the accountant and the oracle's n
        # range first, so the good first row prints nothing
        grid = tmp_path / "grid.csv"
        grid.write_text(f"1000,0.25,1e-4\n{bad_row}\n")
        code, out, err = _run(capsys, ["verify-amplification", "--grid", str(grid)])
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_overlong_grid_field_names_line(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("100,0.25,1e-4\n" + "x" * 131073 + ",0.25,1e-4\n")
        code, _, err = _run(capsys, ["verify-amplification", "--grid", str(grid)])
        assert code == 2
        assert "line 2" in err

    @settings(deadline=None, max_examples=200)
    @given(st.text(st.characters(blacklist_categories=("Cs",))))
    @example("x" * 131073 + ",0.25,1e-4\n")
    @example('"unterminated,1,2\n100,0.5,1e-4\n')
    def test_grid_parse_fuzz(self, tmp_path_factory, text):
        # parsing only: the points are collected, none is certified
        grid = tmp_path_factory.mktemp("grid") / "grid.csv"
        grid.write_bytes(text.encode("utf-8"))
        try:
            points = list(cli._verify_points(argparse.Namespace(grid=str(grid))))
        except ParseError as exc:
            assert isinstance(exc.line_number, int)
            return
        for n, eps0, delta in points:
            assert type(n) is int and type(eps0) is float and type(delta) is float

    def test_missing_grid_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["verify-amplification", "--grid",
                                     str(tmp_path / "missing.csv")])
        assert code == 2
        assert "cannot read" in err

    def test_failure_exits_3(self, capsys, monkeypatch):
        failing = CertificationRecord(n=10, eps0=0.5, delta_target=1e-4,
                                      claimed_epsilon=0.1, regime="general",
                                      exact_delta=1.0, delta_bar=0.0, passed=False)
        monkeypatch.setattr(cli, "certify_amplification",
                            lambda *a, **k: failing)
        code, out, _ = _run(capsys, ["verify-amplification", "--n", "10",
                                     "--eps0", "0.5", "--delta", "1e-4"])
        assert code == 3
        assert json.loads(out)["passed"] is False

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = _run(capsys, ["verify-amplification", "--n", "10"])
        assert code == 2


class TestSimulateAndEstimate:
    def test_simulate_writes_results_and_reports(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        rep_path = tmp_path / "reports.jsonl"
        code, _, err = _run(capsys, [
            "simulate", "--n", "50", "--d", "8", "--k", "1", "--epsilon", "1.0",
            "--trials", "2", "--seed", "9", "--input-model", "step-function",
            "--step-time", "3", "--shuffle-mode", "post-shuffle",
            "--output", str(out_path), "--reports-path", str(rep_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"]["n"] == 50
        assert len(payload["trials"]) == 2
        assert "simulate:" in err

    def test_estimate_round_trip(self, capsys, tmp_path):
        rep_path = tmp_path / "reports.jsonl"
        truth_path = tmp_path / "truth.txt"
        out_path = tmp_path / "est.csv"
        code, _, _ = _run(capsys, [
            "simulate", "--n", "500", "--d", "8", "--k", "1", "--epsilon", "2.0",
            "--trials", "1", "--seed", "4", "--input-model", "step-function",
            "--step-time", "2", "--reports-path", str(rep_path),
            "--output", str(tmp_path / "sim.json"),
        ])
        assert code == 0
        truth = np.r_[np.zeros(1, int), np.full(7, 500, int)]
        np.savetxt(truth_path, truth, fmt="%d")
        code, _, _ = _run(capsys, [
            "estimate", "--reports", str(rep_path), "--d", "8",
            "--epsilon", "2.0", "--k", "1", "--truth", str(truth_path),
            "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,f_tilde,f_true,abs_error"
        assert len(lines) == 9
        fields = lines[3].split(",")
        assert int(fields[0]) == 3 and int(fields[2]) == 500
        assert abs(float(fields[1]) - 500) == pytest.approx(float(fields[3]))

    @pytest.mark.parametrize("flag", ["--output", "--reports-path"])
    def test_simulate_unwritable_path_exits_2(self, capsys, monkeypatch, tmp_path, flag):
        # the path is refused before any trial runs
        def no_trial(config, trial):
            raise AssertionError("a trial ran before the output path was checked")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        path = tmp_path / "missing" / "out.json"
        code, _, err = _run(capsys, [
            "simulate", "--n", "20", "--d", "4", "--k", "1", "--epsilon", "1.0",
            flag, str(path),
        ])
        assert code == 2
        assert f"cannot write {path}" in err

    @pytest.mark.parametrize("bad", [
        ["--d", "4", "--k", "8"],
        # a subnormal epsilon whose debiasing factor overflows
        ["--d", "4", "--k", "1", "--epsilon", "1e-320"],
        ["--d", "4", "--k", "1", "--input-model", "step-function", "--step-time", "0"],
        ["--d", "4", "--k", "1", "--input-model", "file", "--input-path", "MISSING"],
        # one file named twice is refused before either is touched
        ["--d", "4", "--k", "1", "--input-model", "file", "--input-path", "in.jsonl",
         "--reports-path", "in.jsonl", "--trials", "2"],
        ["--d", "4", "--k", "1", "--input-model", "file", "--input-path", "in.jsonl",
         "--output", "in.jsonl"],
        ["--d", "4", "--k", "1", "--output", "reports.jsonl"],
        # a normal epsilon whose estimates overflow: 3 levels times its factor
        ["--d", "4", "--k", "1", "--epsilon", "3e-308"],
        # a step time or an input path the input model would ignore
        ["--d", "4", "--k", "1", "--step-time", "3"],
        ["--d", "4", "--k", "1", "--input-model", "worst-case-sparse", "--step-time", "3"],
        ["--d", "4", "--k", "1", "--input-path", "in.jsonl"],
        ["--d", "4", "--k", "1", "--input-model", "step-function", "--input-path", "in.jsonl"],
        ["--d", "4", "--k", "1", "--input-path", "MISSING", "--step-time", "3"],
    ])
    def test_failed_simulate_keeps_existing_outputs(self, capsys, tmp_path, bad):
        files = {"run.json": b'{"earlier": "results"}\n',
                 "reports.jsonl": b'{"h": 1, "t": 1, "u": 1}\n',
                 "in.jsonl": b'{"x": [0, 1, 0, 0]}\n' * 4}
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = ["simulate", "--n", "4", "--epsilon", "1.0", "--output",
                str(tmp_path / "run.json"), "--reports-path", str(tmp_path / "reports.jsonl")]
        argv += [str(tmp_path / arg) if arg in files or arg == "MISSING" else arg
                 for arg in bad]
        code, out, _ = _run(capsys, argv)
        assert code == 2
        assert out == ""
        for name, data in files.items():
            assert (tmp_path / name).read_bytes() == data

    def test_simulate_huge_epsilon_succeeds(self, capsys):
        # e^(eps/2) overflows past eps ~1419; the debiasing factor is then 1
        code, out, _ = _run(capsys, ["simulate", "--n", "2", "--d", "4", "--k", "1",
                                     "--epsilon", "1500"])
        assert code == 0
        assert json.loads(out)["trials"]

    def test_estimate_huge_epsilon_succeeds(self, capsys, tmp_path):
        reports = tmp_path / "r.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n{"h": 3, "t": 4, "u": -1}\n')
        code, out, _ = _run(capsys, ["estimate", "--reports", str(reports), "--d", "4",
                                     "--k", "1", "--epsilon", "1e308"])
        assert code == 0
        assert out.splitlines()[1:] == ["1,3", "2,0", "3,0", "4,-3"]

    def test_simulate_subnormal_epsilon_exits_2(self, capsys):
        code, out, err = _run(capsys, ["simulate", "--n", "10", "--d", "8", "--k", "1",
                                       "--epsilon", "1e-320"])
        assert code == 2
        assert out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("argv", [
        # scale_factor(3e-308) is finite, but 4 levels times it is not
        ["--n", "10", "--d", "8", "--k", "1", "--epsilon", "3e-308", "--seed", "1"],
        # the weight times n = 10 overflows
        ["--n", "10", "--d", "1", "--k", "1", "--epsilon", "1e-307"],
        # every estimate is finite, the error bound is not
        ["--n", "1", "--d", "1", "--k", "1", "--epsilon", "2.5e-308", "--beta", "1e-300"],
    ])
    def test_simulate_overflowing_epsilon_exits_2(self, capsys, tmp_path, argv):
        output = tmp_path / "run.json"
        output.write_bytes(b"earlier")
        code, out, err = _run(capsys, ["simulate", *argv, "--output", str(output)])
        assert code == 2
        assert out == ""
        assert "overflows" in err and "nan" not in err.lower()
        assert output.read_bytes() == b"earlier"

    # d = 8 weighs a cover sum by 4 scale_factor(eps), d = 1 by one
    # scale_factor(eps): 4e307 at 1e-307, which overflows on a sum of 5 reports
    @pytest.mark.parametrize("epsilon,d,rows", [("3e-308", "8", 1), ("1e-307", "1", 5)])
    def test_estimate_overflowing_epsilon_exits_2(self, capsys, tmp_path, epsilon, d, rows):
        reports = tmp_path / "r.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n' * rows)
        output = tmp_path / "est.csv"
        output.write_bytes(b"earlier")
        code, out, err = _run(capsys, ["estimate", "--reports", str(reports), "--d", d,
                                       "--k", "1", "--epsilon", epsilon,
                                       "--output", str(output)])
        assert code == 2
        assert out == ""
        assert "overflows" in err and "nan" not in err.lower()
        assert output.read_bytes() == b"earlier"

    def test_estimate_subnormal_epsilon_exits_2(self, capsys, tmp_path):
        reports = tmp_path / "r.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n{"h": 2, "t": 2, "u": -1}\n')
        code, out, err = _run(capsys, ["estimate", "--reports", str(reports), "--d", "2",
                                       "--k", "1", "--epsilon", "1e-320"])
        assert code == 2
        assert out == ""
        assert "overflows" in err

    def test_simulate_invalid_params_exit_2(self, capsys):
        code, _, err = _run(capsys, [
            "simulate", "--n", "10", "--d", "6", "--k", "1", "--epsilon", "1.0",
        ])
        assert code == 2
        assert "power of two" in err

    def test_input_file_with_too_few_rows_exits_2(self, capsys, tmp_path):
        inputs = tmp_path / "inputs.jsonl"
        inputs.write_text('{"x": [0, 1, 0, 0]}\n')
        code, out, err = _run(capsys, [
            "simulate", "--n", "2", "--d", "4", "--k", "1", "--epsilon", "1.0",
            "--input-model", "file", "--input-path", str(inputs),
        ])
        assert code == 2
        assert "expected 2 rows, found 1" in err
        assert out == ""


# sha256 of the report dumps and estimate CSVs of a writer that formatted
# every report from its (h, t, u) values: the line table must leave every
# byte of them as it was. The small configs are cut into blocks (mode none)
# or chunks (post-shuffle) of 4d = 64 reports, which the writer joins 50 at
# a time; the large ones use the default sizes, two blocks or chunks each.
PINNED_DUMPS = {
    ("none", "small"): "d39fd07dc9ace308140e9c063df85512a0b466f9f030842881a3f12d11ef68ae",
    ("none", "large"): "8787a621037853db54e43062d42256b17ad8488ed7eac3f20b76768a0afc651e",
    ("post-shuffle", "small"):
        "b8186a91e9c8f179163cd7fb70a6da1cb86f99979a5942660ef4841bd644a9fa",
    ("post-shuffle", "large"):
        "bcacd6f23cf4a156ae3ac463bb90ddf2366cfcddf2ffd106b8e8e0a3d7fe0059",
}
PINNED_ESTIMATES = {
    "none": "f177942d3621b869b2799c17099dd9f51a8dd5f5f068a08b73148e1bd707759f",
    "post-shuffle": "c57e60abd3ddc52e175bfb05d35af762641c1a89809c56a3a67fb2b46141ff02",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("mode", ["none", "post-shuffle"])
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_dump_and_estimate_bytes(self, capsys, monkeypatch, tmp_path, mode, size):
        n, d = ("200", "16") if size == "small" else ("5000", "64")
        if size == "small":
            monkeypatch.setattr(harness, "ROWS", 1)
            monkeypatch.setattr(client_mod, "WRITE_ROWS", 50)
        reports = tmp_path / "reports.jsonl"
        code, _, _ = _run(capsys, ["simulate", "--n", n, "--d", d, "--k", "3",
                                   "--epsilon", "1.0", "--seed", "7", "--shuffle-mode", mode,
                                   "--reports-path", str(reports),
                                   "--output", str(tmp_path / "run.json")])
        assert code == 0
        assert _sha256(reports) == PINNED_DUMPS[mode, size]
        if size == "large":
            return
        assert reports.read_bytes().count(b"\n") == 1236  # about 20 blocks or chunks
        truth = tmp_path / "truth.txt"
        truth.write_text("".join(f"{(i * 7) % 11 - 5}\n" for i in range(16)))
        estimates = tmp_path / "estimates.csv"
        code, _, _ = _run(capsys, ["estimate", "--reports", str(reports), "--d", d,
                                   "--k", "3", "--epsilon", "1.0", "--truth", str(truth),
                                   "--output", str(estimates)])
        assert code == 0
        assert _sha256(estimates) == PINNED_ESTIMATES[mode]


class TestEstimateBadInput:
    def _estimate(self, capsys, reports, truth=None):
        argv = ["estimate", "--reports", str(reports), "--d", "4",
                "--epsilon", "1.0", "--k", "1"]
        if truth is not None:
            argv += ["--truth", str(truth)]
        return _run(capsys, argv)

    @pytest.mark.parametrize("flag,value,message", [
        ("--k", "100", "change budget k must be an integer in [1, 4], got 100"),
        ("--k", "0", "change budget k must be an integer in [1, 4], got 0"),
        ("--d", "6", "horizon must be a power of two, got 6"),
        ("--epsilon", "1e-320", "so small that its factor overflows"),
    ])
    def test_parameters_refused_before_the_reports_are_read(self, capsys, monkeypatch,
                                                             tmp_path, flag, value, message):
        # the rule simulate applies: 1 <= k <= d, checked before any file is read
        monkeypatch.setattr(cli, "read_reports", lambda *a: pytest.fail("reports read"))
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        output = tmp_path / "est.csv"
        params = {"--d": "4", "--epsilon": "1.0", "--k": "1", flag: value}
        argv = ["estimate", "--reports", str(reports), "--output", str(output)]
        code, out, err = _run(capsys, argv + [x for item in params.items() for x in item])
        assert code == 2
        assert out == "" and message in err
        assert not output.exists()

    def test_missing_reports_file(self, capsys, tmp_path):
        code, _, err = self._estimate(capsys, tmp_path / "missing.jsonl")
        assert code == 2
        assert "cannot read" in err

    def test_float_field_names_line(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n{"h": 1.7, "t": true, "u": 1}\n')
        code, _, err = self._estimate(capsys, reports)
        assert code == 2
        assert "line 2" in err

    def test_row_outside_tree_names_line(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n{"h": 9, "t": 256, "u": 1}\n')
        code, _, err = self._estimate(capsys, reports)
        assert code == 2
        assert "line 2" in err

    # at d = 4 a level-2 report carries an even t
    @pytest.mark.parametrize("row", ['{"h": 2, "t": 3, "u": 1}', '{"u": 1, "t": 3, "h": 2}'])
    @pytest.mark.parametrize("pipe", [False, True])
    def test_misaligned_row_names_line(self, capsys, tmp_path, row, pipe):
        data = '{"h": 1, "t": 1, "u": 1}\n' + row + '\n{"h": 3, "t": 4, "u": -1}\n'
        reports = tmp_path / "reports.jsonl"
        if pipe:
            os.mkfifo(reports)
            feed = threading.Thread(target=reports.write_text, args=(data,), daemon=True)
            feed.start()
        else:
            reports.write_text(data)
        code, out, err = self._estimate(capsys, reports)
        assert code == 2
        assert "line 2" in err and "(h=2, t=3, u=1)" in err
        assert out == ""

    def test_truth_with_the_wrong_row_count_exits_2(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        truth = tmp_path / "truth.txt"
        truth.write_text("0\n1\n")
        code, _, err = self._estimate(capsys, reports, truth)
        assert code == 2
        assert "truth file has 2 rows, expected 4" in err

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        path = tmp_path / "missing" / "x.csv"
        code, _, err = _run(capsys, ["estimate", "--reports", str(reports), "--d", "4",
                                     "--epsilon", "1.0", "--k", "1", "--output", str(path)])
        assert code == 2
        assert f"cannot write {path}" in err

    @pytest.mark.parametrize("same", ["--reports", "--truth"])
    def test_output_naming_an_input_exits_2(self, capsys, monkeypatch, tmp_path, same):
        # refused before either file is read, so the input keeps its bytes
        monkeypatch.setattr(cli, "read_reports", lambda *a: pytest.fail("reports read"))
        files = {"--reports": tmp_path / "reports.jsonl", "--truth": tmp_path / "truth.txt"}
        files["--reports"].write_text('{"h": 1, "t": 1, "u": 1}\n')
        files["--truth"].write_text("1\n1\n1\n1\n")
        before = {flag: path.read_bytes() for flag, path in files.items()}
        argv = ["estimate", "--d", "4", "--epsilon", "1.0", "--k", "1",
                "--output", str(files[same])]
        for flag, path in files.items():
            argv += [flag, str(path)]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == "" and "paths must differ" in err
        assert {flag: path.read_bytes() for flag, path in files.items()} == before

    def test_non_numeric_truth_names_line(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        truth = tmp_path / "truth.txt"
        truth.write_text("0\nabc\n1\n1\n")
        code, _, err = self._estimate(capsys, reports, truth)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("bad", ["99999999999999999999", "-9223372036854775809", "1_0",
                                     "1e3", "1.0", "+-1", "\u0661"])
    def test_truth_outside_int64_syntax_names_line(self, capsys, tmp_path, bad):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        truth = tmp_path / "truth.txt"
        truth.write_text(f"0\n# comment\n{bad}\n1\n1\n", encoding="utf-8")
        code, _, err = self._estimate(capsys, reports, truth)
        assert code == 2
        assert "line 3" in err

    def test_truth_int64_limits_accepted(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        truth = tmp_path / "truth.txt"
        truth.write_text("9223372036854775807\n-9223372036854775808\n+7\n 0 # zero\n")
        code, out, _ = self._estimate(capsys, reports, truth)
        assert code == 0
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == [
            "9223372036854775807", "-9223372036854775808", "7", "0"]

    def test_missing_truth_file(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        code, _, err = self._estimate(capsys, reports, tmp_path / "missing.txt")
        assert code == 2
        assert "cannot read" in err


def _python(code):
    """Run code in a fresh interpreter that imports this package; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300).stdout


def test_cli_import_loads_no_scipy_module():
    # every CLI run pays this import in its setup time, and scipy.special
    # alone took longer to import than the rest of the program's startup
    loaded = _python("import sys, ldpshuffle.cli\n"
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.strip() == "[]"


# Holds 256 MiB, then spawns `simulate` and prints its stderr line and this
# process's own peak in KB.
_SPAWN_AFTER_PEAK = """
import subprocess, sys
import numpy as np
held = np.ones(1 << 25)
run = subprocess.run([sys.executable, "-m", "ldpshuffle.cli", "simulate", "--n", "20",
                      "--d", "4", "--k", "1", "--epsilon", "1.0"],
                     capture_output=True, text=True, check=True)
with open("/proc/self/status") as fh:
    own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(run.stderr.strip().splitlines()[-1])
print(own)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_simulate_peak_rss_is_its_own():
    # Linux carries ru_maxrss over from the spawning process, so a small
    # simulate run from a large parent would report the parent's peak
    line, own = _python(_SPAWN_AFTER_PEAK).strip().splitlines()
    assert int(own) >= 256 * 1024
    peak = int(re.search(r"peak RSS (\d+) KB", line).group(1))
    assert 0 < peak < 128 * 1024
